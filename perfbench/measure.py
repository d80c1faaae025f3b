"""Measurement loop of the saddlekit benchmark; ``run.py`` is the entry point.

Import only after ``env.bootstrap()``: this module imports saddlekit.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import saddlekit as sk
import saddlekit.search as search_mod

import tracing
import workloads
from env import ROOT, describe

OUT_DIR = ROOT / ".bench_out"
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 0.2
SETUP_MAX_REPS = 20000
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Call:
    """One search as seen at the ``saddlekit.run`` boundary."""

    x0: object
    record: object
    wall: float
    error: str = None

    @property
    def status(self):
        return "exception" if self.error else self.record.status


def failed_record(x0, error):
    """What a search that raised counts as: a failed run that never moved."""
    rec = sk.ConvergenceRecord()
    rec.add(0, x0, None, math.nan, None, 0)
    rec.status = "failed"
    rec.message = error
    return rec


class SearchProbe:
    """Stand-in for ``saddlekit.run`` that times each search.

    An exception escaping ``run()`` becomes a failed search, kept with its
    type and traceback, so the benchmark never stops on one.
    """

    def __init__(self):
        self.calls = []

    def __call__(self, p, x0, cfg):
        x0 = x0.copy()
        t = perf_counter()
        try:
            rec, error = search_mod.run(p, x0, cfg), None
        except Exception as exc:  # counted and reported; see failures()
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}"
            rec = failed_record(x0, error)
        self.calls.append(Call(x0, rec, perf_counter() - t, error))
        return rec

    def failures(self):
        counts = {}
        for c in self.calls:
            if c.status in ("failed", "exception"):
                kind = c.error.split(":", 1)[0] if c.error else "status failed"
                counts[kind] = counts.get(kind, 0) + 1
        return counts


def run_units(wl, state, probe, units, seconds=0.0, search=None):
    """Run units in order until at least ``units`` are done and ``seconds`` have passed.

    Every search goes through ``search`` (default: the probe itself), which
    must end up calling ``probe``.  Returns the unit outputs, the mean search
    wall of each unit, the searches per second of each unit and the elapsed
    time.
    """
    outputs, unit_search_s, unit_rate = [], [], []
    t0 = perf_counter()
    while len(outputs) < units or perf_counter() - t0 < seconds:
        first, t = len(probe.calls), perf_counter()
        outputs.append(wl.unit(state, len(outputs), search or probe))
        walls = [c.wall for c in probe.calls[first:]]
        unit_search_s.append(sum(walls) / len(walls))
        unit_rate.append(len(walls) / (perf_counter() - t))
    return outputs, unit_search_s, unit_rate, perf_counter() - t0


def tail_percentile(walls):
    """Highest percentile of the ladder with at least ten searches above it."""
    n = len(walls)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            cut = statistics.quantiles(walls, n=1000, method="inclusive")[int(round(q * 10)) - 1]
            return q, cut
    return None, None


def peak_rss_mb():
    """Peak resident memory of this process, which runs a single workload."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, seed, seconds):
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS):
        t = perf_counter()
        state = wl.setup(seed)
        setup_times.append(perf_counter() - t)

    probe = SearchProbe()
    outputs, unit_search_s, unit_rate, elapsed = run_units(wl, state, probe, wl.min_units, seconds)
    records, violations = wl.records(state, outputs, probe.calls)
    walls = [c.wall for c in probe.calls]
    q, tail = tail_percentile(walls)
    barriers = [r["barrier_eV"] for r in records if "barrier_eV" in r and r["status"] == "converged"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "search_s_p50": statistics.median(unit_search_s),
        "searches_per_s": statistics.median(unit_rate),
        "saddle_frac": sum(r["saddle"] for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tail is not None:
        metrics["search_s_tail"] = tail
    if barriers:
        metrics["barrier_eV"] = statistics.median(barriers)
    info = {
        "setup_reps": len(setup_times), "timed_s": elapsed, "tail_percentile": q,
        "units": len(outputs), "unit_search_s": unit_search_s, "unit_rate": unit_rate,
        "failures": probe.failures(),
    }
    if hasattr(wl, "scan_summary"):
        info["scans"] = [wl.scan_summary(g) for g in outputs]
    return metrics, records, violations, info


def traced(wl, seed):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, workloads):
        state = wl.setup(seed)
    relax_s = tracer.total("subsolve.relax")

    def traced_pass():
        tracer.reset()
        probe = SearchProbe()
        with tracing.instrument(tracer, workloads, models=[state.p]):
            outputs, _, _, wall = run_units(wl, state, probe, wl.trace_units, search=tracer.span("search.run", probe))
        return probe, outputs, wall

    probe_a, outputs_a, wall_a = traced_pass()
    records, violations = wl.records(state, outputs_a, probe_a.calls)
    metrics = tracing.layer_metrics(tracer, records)
    metrics["subsolve.relax.s"] = relax_s
    spans = len(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{wl.name}-seed{seed}-spans.npz")

    probe_b = SearchProbe()
    _, _, _, wall_b = run_units(wl, state, probe_b, wl.trace_units)
    probe_c, outputs_c, wall_c = traced_pass()
    repeat = tracing.layer_metrics(tracer, wl.records(state, outputs_c, probe_c.calls)[0])

    # the untraced pass sits between the two traced ones, so a steady drift
    # in machine speed cancels out of the difference
    extra = 0.5 * (wall_a + wall_c) - wall_b
    metrics["trace.overhead_s"] = extra / max(1, len(probe_a.calls))
    metrics["trace.overhead_frac"] = extra / wall_b
    for other, label in ((probe_b, "untraced repeat"), (probe_c, "traced repeat")):
        if len(other.calls) != len(probe_a.calls) or any(
                a.record.x.tobytes() != b.record.x.tobytes() for a, b in zip(probe_a.calls, other.calls)):
            violations.append(f"terminal points differ in the {label}")
    for key in tracing.COUNT_METRICS:
        if metrics[key] != repeat[key]:
            violations.append(f"count {key} differs in the traced repeat: {metrics[key]} vs {repeat[key]}")
    info = {"traced_wall_s": [wall_a, wall_c], "untraced_wall_s": wall_b, "spans": spans,
            "units": len(outputs_a), "failures": probe_a.failures()}
    return metrics, records, violations, info


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(spec, name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    if trace:
        metrics, records, violations, info = traced(wl, seed)
        wanted = spec["per_layer"]
    else:
        metrics, records, violations, info = untraced(wl, seed, seconds)
        wanted = spec["end_to_end"]
    failed = sum(r["status"] in ("failed", "exception") for r in records)
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed {seed}  {mode}: {len(records)} searches, {failed} failed {info['failures'] or ''}")
    units = {m["name"]: m["unit"] for m in wanted}
    extra_units = {"search_s_tail": "s", "barrier_eV": "eV"}
    for key, value in metrics.items():
        unit = units.get(key, extra_units.get(key, ""))
        note = f"  (p{info['tail_percentile']:g})" if key == "search_s_tail" else ""
        print(f"  {key:28s} {fmt(value):>14s} {unit}{note}")
    if not trace and "search_s_tail" not in metrics:
        print(f"  {'search_s_tail':28s} {'omitted':>14s}   (fewer than 20 searches)")
    if trace:
        print(f"  layer spans leave {100 * metrics['trace.unaccounted_frac']:.2f}% of the search wall "
              f"unaccounted; tracing adds {100 * metrics['trace.overhead_frac']:.1f}% to the wall")
    verdict = "PASS" if not violations else "FAIL"
    print(f"  correctness: {verdict}" + "".join(f"\n    {v}" for v in violations[:20]))

    OUT_DIR.mkdir(exist_ok=True)
    result = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "env": describe(), "metrics": metrics, "info": info, "violations": violations,
              "records": records}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return not violations, len(records), failed, chosen


def run_all(names, args):
    """Run each workload in a child process of its own, one after another.

    A child per workload keeps ``peak_rss_mb`` that workload's own peak.
    Metric names get the workload's name as a prefix.
    """
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        sys.stdout.flush()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        correct = correct and result["correct"] and child.returncode == 0
        attempted, failed = attempted + result["attempted"], failed + result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return correct, attempted, failed, metrics


def main(argv, description):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed window of an untraced run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    if len(names) > 1:
        correct, attempted, failed, metrics = run_all(names, args)
    else:
        print("env " + json.dumps(describe()))
        correct, attempted, failed, metrics = run_workload(spec, names[0], args.seed, args.seconds, args.trace)
        correct = correct and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
