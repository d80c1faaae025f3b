"""Command line entry points: run experiments, scan attraction domains,
reproduce the benchmark presets, and self-check the library invariants."""

import argparse
import json
import os
import sys

import yaml

from .harness import (
    BENCH_PRESETS,
    FIG2_GRID,
    bench,
    doa_scan,
    load_config,
    run_experiment,
    run_invariant_checks,
    write_json,
)


def _cmd_run(args):
    cfg = load_config(args.config)
    summary = run_experiment(cfg, args.output)
    for r in summary["runs"]:
        print(f"run {r['run']}: {r['status']} in {r['iterations']} iterations")
    print(f"summary written to {args.output}")
    return 0 if summary["all_converged"] else 1


# keys passed to doa_scan only when the config sets them, so its defaults hold
_DOA_OPTIONS = ("budget", "box", "saddle_tol", "workers")
_DOA_KEYS = ("problem", "problem_params", "method", "region", "n", "label", *_DOA_OPTIONS)


def _cmd_doa(args):
    with open(args.config) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"doa config {args.config} must be a mapping")
    unknown = sorted(set(raw) - set(_DOA_KEYS))
    if unknown:
        raise ValueError(f"unknown doa config keys: {unknown}")
    region, n = FIG2_GRID
    grid = doa_scan(
        raw.get("problem", "three_hole"),
        raw.get("method", "imf"),
        tuple(tuple(map(float, b)) for b in raw.get("region", region)),
        int(raw.get("n", n)),
        params=raw.get("problem_params"),
        **{key: raw[key] for key in _DOA_OPTIONS if key in raw},
    )
    os.makedirs(args.output, exist_ok=True)
    label = raw.get("label", f"doa_{grid.method}")
    grid.to_csv(os.path.join(args.output, f"{label}.csv"))
    summary = grid.summary()
    write_json(os.path.join(args.output, f"{label}_summary.json"), summary)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_bench(args):
    summary = bench(args.preset, args.output, seed=args.seed)
    print(json.dumps(summary, indent=2, default=str))
    ok = summary.get("all_converged", summary.get("imf_labels_more", False))
    return 0 if ok else 1


def _cmd_check(args):
    results = run_invariant_checks(include_cluster=not args.skip_cluster, verbose=True)
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="saddlekit",
        description="Saddle-point search toolkit: experiments, attraction "
                    "grids, benchmark presets, and invariant checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_doa = sub.add_parser("doa", help="domain-of-attraction grid scan")
    p_doa.add_argument("config")
    p_doa.add_argument("-o", "--output", default="out")
    p_doa.set_defaults(func=_cmd_doa)

    p_bench = sub.add_parser("bench", help="run a benchmark preset")
    p_bench.add_argument("preset", choices=BENCH_PRESETS)
    p_bench.add_argument("-o", "--output", default="out")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="run the library invariant suite")
    p_check.add_argument("--skip-cluster", action="store_true",
                         help="skip the (slower) cluster-problem checks")
    p_check.set_defaults(func=_cmd_check)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
