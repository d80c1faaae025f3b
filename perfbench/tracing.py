"""Spans around calls into saddlekit's layers, for the benchmark's traced run.

The traced run rebinds the names that callers look up (``PotentialModel``
methods, ``saddlekit.search.min_modes``, the ``objective.build_*``
functions, ...) to wrappers that record one span per call: name, start,
end and the span that was open when the call began.  Spans live in flat
arrays in memory and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.  Nothing inside the
library is changed.
"""

import contextlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import saddlekit.search as search_mod
from saddlekit import harness, manifold, objective
from saddlekit.objective import ModifiedObjective
from saddlekit.potentials import PotentialModel

POTENTIAL_SPANS = ("potentials.energy", "potentials.gradient", "potentials.hvp", "potentials.hdiag")


class Tracer:
    """In-memory span recorder; ``span(name, fn)`` returns a recording wrapper."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name, self._parent = array("i"), array("i")
        self._start, self._end = array("d"), array("d")
        self._stack = [-1]
        self.tallies = Counter()

    def reset(self):
        """Drop recorded spans and tallies; wrappers made earlier stay valid."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        self.tallies.clear()

    def id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, tally=None):
        nid = self.id(name)
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        tallies = self.tallies

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(tallies, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """Arrays (name id, parent index, duration, self time), one row per span."""
        ids = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return ids, parent, dur, dur - child

    def __len__(self):
        return len(self._start)

    def total(self, name):
        """Summed duration of the spans called ``name``."""
        ids, _, dur, _ = self.spans()
        return float(dur[ids == self.id(name)].sum())

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start), end=np.frombuffer(self._end),
        )


def _tally_min_modes(t, args, out):
    t["eigen.min_modes.iters"] += out.iterations
    t["eigen.near_degenerate"] += bool(out.near_degenerate)


def _tally_minimize(t, args, out):
    _, y0, cfg = args[:3]
    t["subsolve.inner_iters"] += out.inner_iters
    t["subsolve.capped"] += out.inner_iters >= cfg.max_inner_iters
    if cfg.box_radius is not None:
        t["subsolve.box_hits"] += float(np.abs(out.y - y0).max()) >= 0.999 * cfg.box_radius


def _tally_manifold(t, args, out):
    t["manifold.inner_iters"] += out.inner_iters


def targets(relax_owner):
    """(owner, attribute, span name, tally) for every boundary the trace covers."""
    return [
        (PotentialModel, "energy", "potentials.energy", None),
        (PotentialModel, "gradient", "potentials.gradient", None),
        (PotentialModel, "hessian_vec", "potentials.hvp", None),
        (search_mod, "min_modes", "eigen.min_modes", _tally_min_modes),
        (search_mod, "stationary_index", "eigen.verify", None),
        (harness, "stationary_index", "eigen.verify", None),
        (manifold, "constrained_index", "eigen.verify", None),
        *((objective, f, "objective.build", None)
          for f in ("build_flat", "build_index_m", "build_manifold", "build_sphere_naive")),
        (ModifiedObjective, "value", "objective.value", None),
        (ModifiedObjective, "gradient", "objective.gradient", None),
        (ModifiedObjective, "hessian_vec", "objective.hvp", None),
        (search_mod, "minimize", "subsolve.minimize", _tally_minimize),
        (relax_owner, "relax", "subsolve.relax", None),
        (manifold, "solve_constrained_subproblem", "manifold.solve", _tally_manifold),
        (manifold, "tangent_projector", "manifold.projector", None),
        (search_mod, "step", "search.step", None),
        (harness, "doa_scan", "harness.doa_scan", None),
    ]


@contextlib.contextmanager
def instrument(tracer, relax_owner, models=()):
    """Rebind every traced name for the duration of the block.

    ``models`` are PotentialModel instances whose ``hessian_diag_fn`` field
    (called directly by the eigensolver and the objectives) is traced too.
    """
    saved = []
    try:
        for owner, attr, name, tally in targets(relax_owner):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.span(name, saved[-1][2], tally))
        for p in models:
            if p.hessian_diag_fn is not None:
                saved.append((p, "hessian_diag_fn", p.hessian_diag_fn))
                object.__setattr__(p, "hessian_diag_fn", tracer.span("potentials.hdiag", p.hessian_diag_fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            if isinstance(owner, PotentialModel):  # frozen dataclass instance
                object.__setattr__(owner, attr, value)
            else:
                setattr(owner, attr, value)


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced pass, per search unless named otherwise."""
    ids, parent, dur, self_t = tracer.spans()
    parent_id = np.where(parent >= 0, ids[np.maximum(parent, 0)], -1) if ids.size else ids
    n = max(1, len(records))
    t = tracer.tallies

    def sel(name, under=None):
        m = ids == tracer.id(name)
        return m if under is None else m & (parent_id == tracer.id(under))

    def calls(name, under=None):
        return int(sel(name, under).sum())

    def total(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def us_per_call(name):
        c = calls(name)
        return 1e6 * total(name) / c if c else 0.0

    search_s = total("search.run")
    m = {
        "potentials.energy.calls": calls("potentials.energy") / n,
        "potentials.gradient.calls": calls("potentials.gradient") / n,
        "potentials.hvp.calls": calls("potentials.hvp") / n,
        "potentials.hdiag.calls": calls("potentials.hdiag") / n,
        "potentials.energy.us": us_per_call("potentials.energy"),
        "potentials.gradient.us": us_per_call("potentials.gradient"),
        "potentials.hvp.us": us_per_call("potentials.hvp"),
        "potentials.busy_s": sum(total(s) for s in POTENTIAL_SPANS) / n,
        "eigen.min_modes.calls": calls("eigen.min_modes") / n,
        "eigen.min_modes.iters": t["eigen.min_modes.iters"] / n,
        "eigen.min_modes.hvp": calls("potentials.hvp", under="eigen.min_modes") / n,
        "eigen.min_modes.s": total("eigen.min_modes") / n,
        "eigen.min_modes.self_s": self_s("eigen.min_modes") / n,
        "eigen.near_degenerate": t["eigen.near_degenerate"] / n,
        "eigen.verify.s": total("eigen.verify") / n,
        "eigen.verify.hvp": calls("potentials.hvp", under="eigen.verify") / n,
        "objective.build.calls": calls("objective.build") / n,
        "objective.build.s": total("objective.build") / n,
        "objective.value.calls": calls("objective.value") / n,
        "objective.gradient.calls": calls("objective.gradient") / n,
        "objective.hvp.calls": calls("objective.hvp") / n,
        "objective.self_s": sum(self_s(s) for s in ("objective.build", "objective.value",
                                                     "objective.gradient", "objective.hvp")) / n,
        "subsolve.minimize.calls": calls("subsolve.minimize") / n,
        "subsolve.inner_iters": t["subsolve.inner_iters"] / n,
        "subsolve.capped": t["subsolve.capped"] / n,
        "subsolve.box_hits": t["subsolve.box_hits"] / n,
        "subsolve.trials_per_iter": (calls("objective.value", under="subsolve.minimize")
                                     / max(1, t["subsolve.inner_iters"])),
        "subsolve.minimize.s": total("subsolve.minimize") / n,
        "subsolve.minimize.self_s": self_s("subsolve.minimize") / n,
        "manifold.solve.calls": calls("manifold.solve") / n,
        "manifold.inner_iters": t["manifold.inner_iters"] / n,
        "manifold.solve.s": total("manifold.solve") / n,
        "manifold.solve.self_s": self_s("manifold.solve") / n,
        "manifold.projector.calls": calls("manifold.projector") / n,
        "manifold.projector.s": total("manifold.projector") / n,
        "search.count": len(records),
        "search.outer_iters": sum(r["outer_iters"] for r in records) / n,
        "search.step.s": total("search.step") / n,
        "search.self_s": self_s("search.run") / n,
        "search.useful_outer_frac": (sum(r["outer_iters"] for r in records if r["saddle"])
                                     / max(1, sum(r["outer_iters"] for r in records))),
        "harness.doa_scan.s": total("harness.doa_scan") / max(1, calls("harness.doa_scan")),
        "harness.cell.s": total("harness.doa_scan") / n if calls("harness.doa_scan") else 0.0,
        "trace.unaccounted_frac": self_s("search.run") / search_s if search_s else 0.0,
    }
    for status in ("converged", "max_iters", "failed", "diverged", "left_region", "exception"):
        m[f"search.status.{status}"] = sum(r["status"] == status for r in records)
    return m


COUNT_METRICS = (
    "potentials.energy.calls", "potentials.gradient.calls", "potentials.hvp.calls",
    "potentials.hdiag.calls", "eigen.min_modes.calls", "eigen.min_modes.iters", "eigen.min_modes.hvp",
    "eigen.near_degenerate", "eigen.verify.hvp", "objective.build.calls", "objective.value.calls",
    "objective.gradient.calls", "objective.hvp.calls", "subsolve.minimize.calls", "subsolve.inner_iters",
    "subsolve.capped", "subsolve.box_hits", "subsolve.trials_per_iter", "manifold.solve.calls",
    "manifold.inner_iters", "manifold.projector.calls", "search.count", "search.outer_iters",
    "search.useful_outer_frac",
)
