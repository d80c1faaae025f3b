"""Experiment orchestration: configs, benchmark presets, attraction grids.

Configuration files are YAML mappings (schema documented in the README and
in :func:`load_config`); a method section's keys are its entry point's
keyword settings.  :func:`run_experiment` checks the settings and builds
the starts before it writes anything.  Every preset and scan is
deterministic: seeds are explicit in the config and echoed into the outputs.
"""

import functools
import inspect
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import gad as gad_mod
from . import manifold as mf
# stationary_index is unused here since run() classifies terminal points;
# the benchmark's traced run rebinds this name, so it stays importable
from .eigen import Hessian, stationary_index  # noqa: F401
from .errors import DimensionError, OrderEstimateError
from .objective import COEFFICIENT_PRESETS, build_flat
from .potentials import make_builtin, morse_full_coordinates, write_xyz
from .search import (
    ConvergenceRecord,
    SearchConfig,
    estimate_order_pooled,
    newton_stationary,
    run as run_search,
)
from .subsolve import SubsolveConfig, minimize

__all__ = [
    "ExperimentConfig",
    "DoaGrid",
    "load_config",
    "config_from_dict",
    "run_experiment",
    "doa_scan",
    "emit_table",
    "near_saddle_runs",
    "preset_runs",
    "fig2_grids",
    "table5_config",
    "bench",
    "write_json",
    "run_invariant_checks",
    "BENCH_PRESETS",
    "FIG2_GRID",
]


# ----------------------------------------------------------------------------
# configuration

# the start kinds and the keys of each (``point`` holds the point itself)
_START_KEYS = {
    "point": (),
    "circle": ("center", "radius", "count"),
    "sphere_cap": ("center", "geodesic_distance", "count"),
    "perturbed_minimum": ("amplitude", "count"),
}
# the keys of the method sections: what each is unpacked into
_SECTION_KEYS = {
    "search": tuple(SearchConfig.__dataclass_fields__),
    "search.subsolve": tuple(SubsolveConfig.__dataclass_fields__),
    "gad": tuple(inspect.signature(gad_mod.run).parameters)[2:],
    "newton": tuple(inspect.signature(newton_stationary).parameters)[2:],
}


def _check_keys(section, given, known):
    extra = set(given) - set(known)
    if extra:
        raise ValueError(f"unknown {section} keys: {sorted(extra)}")


@dataclass
class ExperimentConfig:
    """Parsed experiment description (see README for the file schema)."""

    problem: str
    problem_params: dict = field(default_factory=dict)
    method: str = "imf"
    search: dict = field(default_factory=dict)
    gad: dict = field(default_factory=dict)
    newton: dict = field(default_factory=dict)
    start: dict = field(default_factory=dict)
    reference: object = "auto"
    label: str = "experiment"
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("imf", "gad", "newton"):
            raise ValueError(f"method must be one of imf|gad|newton, got {self.method!r}")
        if len(self.start) != 1 or not set(self.start) <= set(_START_KEYS):
            raise ValueError(f"start takes exactly one of {' | '.join(_START_KEYS)}, "
                             f"got {sorted(self.start)}")
        (kind, spec), = self.start.items()
        if kind != "point":
            _check_keys(f"{kind} start", spec, _START_KEYS[kind])
            if int(spec.get("count", 1)) < 1:
                raise ValueError(f"{kind} start count must be at least 1, got {spec['count']}")
        # a stale key (an option since removed) fails here, before any output
        sections = {"search": self.search, "search.subsolve": self.search.get("subsolve", {}),
                    "gad": self.gad, "newton": self.newton}
        for section, given in sections.items():
            _check_keys(section, given, _SECTION_KEYS[section])


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    problem = raw.pop("problem", None)
    if isinstance(problem, dict):
        name = problem.get("name")
        params = dict(problem.get("params", {}))
    else:
        name = problem
        params = dict(raw.pop("problem_params", {}))
    if not name:
        raise ValueError("config requires problem: {name: ..., params: {...}}")
    known = {f for f in ExperimentConfig.__dataclass_fields__ if f not in ("problem", "problem_params")}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    return ExperimentConfig(problem=name, problem_params=params, **raw)


def load_config(path) -> ExperimentConfig:
    """Read a YAML experiment config.

    Top-level keys: ``problem`` (name + params), ``method`` (imf|gad|newton),
    ``search`` (outer-loop settings incl. nested ``subsolve``), ``gad``,
    ``newton``, ``start`` (exactly one of point | circle | sphere_cap |
    perturbed_minimum), ``reference`` ("auto", explicit point, or null),
    ``label``, ``seed``.
    """
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a mapping")
    return config_from_dict(raw)


def _search_config(cfg: ExperimentConfig) -> SearchConfig:
    s = dict(cfg.search)
    sub = s.pop("subsolve", {})
    for key in ("subset_alpha", "subset_beta"):
        if s.get(key) is not None:
            # a YAML subset key is one mode index or a list of them
            s[key] = {tuple(k) if isinstance(k, (list, tuple)) else (int(k),): v
                      for k, v in s[key].items()}
    return SearchConfig(subsolve=SubsolveConfig(**sub), **s)


def _starts(cfg: ExperimentConfig, p):
    """Materialize the start points."""
    spec = cfg.start
    rng = np.random.default_rng(cfg.seed)
    if "point" in spec:
        return [np.asarray(spec["point"], dtype=float)]
    if "circle" in spec:
        c = spec["circle"]
        center = np.asarray(c["center"], dtype=float)
        if center.shape != (2,):
            raise ValueError("circle starts require a 2-d center")
        return [_on_circle(rng, center, float(c["radius"])) for _ in range(int(c.get("count", 1)))]
    if "sphere_cap" in spec:
        c = spec["sphere_cap"]
        center = np.asarray(c["center"], dtype=float)
        center = center / np.linalg.norm(center)
        return [_on_cap(rng, center, float(c["geodesic_distance"]))
                for _ in range(int(c.get("count", 1)))]
    # perturbed_minimum: relax the built geometry, then displace free coordinates
    c = spec["perturbed_minimum"]
    amp = float(c.get("amplitude", 0.05))
    count = int(c.get("count", 1))
    xref = _relaxed_minimum(p)
    return [xref + amp * rng.standard_normal(xref.size) for _ in range(count)]


def _on_circle(rng, center, radius):
    """A point on the circle about ``center``, at a uniformly drawn angle."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    return center + radius * np.array([math.cos(th), math.sin(th)])


def _on_cap(rng, center, dist):
    """A point ``dist`` radians from the unit ``center``, in a random direction."""
    t = rng.standard_normal(center.size)
    t -= (t @ center) * center
    t /= np.linalg.norm(t)
    return math.cos(dist) * center + math.sin(dist) * t


def _relaxed_minimum(p):
    if "coords" not in p.extras:
        raise ValueError(f"{p.name} has no built-in geometry to relax")
    x0 = p.extras["coords"][~p.extras["frozen"]].ravel().copy()
    return minimize(p, x0, SubsolveConfig(grad_tol=1e-11, max_inner_iters=6000),
                    precondition=Hessian(p, x0).jacobi).y


def _auto_reference(p, record: ConvergenceRecord, on_sphere=False):
    """Measures the record against the known saddle nearest its last point."""
    if on_sphere:
        saddles = [np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    else:
        saddles = p.saddle_points()
    if saddles:
        term = record.x
        record.measure(min(saddles, key=lambda s: float(np.linalg.norm(term - s))))


def write_json(path, obj):
    """Write ``obj`` as indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------------
# experiment runner


def _method_call(cfg: ExperimentConfig, p):
    """``(call, on_sphere)``: ``call(k, x0)`` runs the method from start ``k``."""
    if cfg.method == "imf":
        scfg = _search_config(cfg)
        return (lambda k, x0: run_search(p, x0, scfg)), scfg.on_sphere
    if cfg.method == "newton":
        return (lambda k, x0: newton_stationary(p, x0, **cfg.newton)), False
    settings = dict(cfg.gad)
    v0 = settings.pop("v0", None)
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (p.dimension,) or not 0.0 < np.linalg.norm(v0) < np.inf:
            raise ValueError(f"gad v0 must be a nonzero finite vector of shape {(p.dimension,)}, "
                             f"got {v0.tolist()}")

    def call(k, x0):  # without a v0 each start draws its own direction
        rng = np.random.default_rng(cfg.seed + 1000 + k)
        v = v0 if v0 is not None else rng.standard_normal(p.dimension)
        return gad_mod.run(p, x0, v / np.linalg.norm(v), **settings)

    return call, settings.get("on_sphere", False)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute the configured runs and write records plus a JSON summary.

    Every method (imf, gad, newton) returns a :class:`ConvergenceRecord`,
    written the same way: one ``<label>_run<k>.csv`` per run and
    ``<label>_summary.json``, whose run entries hold the record's
    ``summary()``; for the cluster problem, initial and terminal geometries
    go to XYZ files.  Returns the summary dict; ``summary["all_converged"]``
    drives the CLI exit code.  A bad setting or start raises before
    ``out_dir`` is created.
    """
    p = make_builtin(cfg.problem, cfg.problem_params)
    reference, shape = cfg.reference, (p.dimension,)
    if isinstance(reference, str) and reference != "auto":
        raise ValueError(f'reference must be "auto", null or a point of shape {shape}, '
                         f'got {reference!r}')
    if reference is not None and not isinstance(reference, str):
        reference = np.asarray(reference, dtype=float)
        if reference.shape != shape:
            raise DimensionError(f"reference of shape {reference.shape} for points of shape {shape}")
    call, on_sphere = _method_call(cfg, p)
    starts = _starts(cfg, p)

    runs = []
    sequences = []
    for k, x0 in enumerate(starts):
        record = call(k, x0)
        if isinstance(reference, str):  # "auto"
            _auto_reference(p, record, on_sphere=on_sphere)
        elif reference is not None:
            record.measure(reference)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{cfg.label}_run{k}.csv")
        record.to_csv(path)
        runs.append({"run": k, "start": [float(v) for v in x0] if x0.size <= 8 else None,
                     **record.summary(), "csv": os.path.basename(path),
                     "converged": record.converged})
        if record.errors():
            sequences.append(record.errors(include_start=False))
        if "coords" in p.extras:
            for tag, vec in (("start", x0), ("end", record.x)):
                xyz = os.path.join(out_dir, f"{cfg.label}_run{k}_{tag}.xyz")
                write_xyz(xyz, morse_full_coordinates(p, vec),
                          symbol=p.extras.get("element", "X"),
                          comment=f"{cfg.label} run {k} {tag}")

    summary = {
        "label": cfg.label,
        "problem": cfg.problem,
        "method": cfg.method,
        "seed": cfg.seed,
        "runs": runs,
        "all_converged": all(r["converged"] for r in runs),
    }
    if len(sequences) > 1:
        try:
            summary["pooled_order"] = estimate_order_pooled(sequences)
        except OrderEstimateError:
            summary["pooled_order"] = None
    write_json(os.path.join(out_dir, f"{cfg.label}_summary.json"), summary)
    return summary


# ----------------------------------------------------------------------------
# error tables


def emit_table(records, path, fmt="markdown"):
    """Render per-iteration error columns for a list of (label, record),
    each a measured :class:`ConvergenceRecord`.  Formats: csv, json,
    markdown.
    """
    if fmt not in ("csv", "json", "markdown"):
        raise ValueError(f"unknown table format {fmt!r}")
    cols = [(str(label), rec.errors(include_start=False)) for label, rec in records]
    depth = max((len(c) for _, c in cols), default=0)
    if fmt == "json":
        write_json(path, {label: errs for label, errs in cols})
        return path
    rows = []
    for i in range(depth):
        row = [str(i + 1)]
        for _, errs in cols:
            row.append(f"{errs[i]:.3e}" if i < len(errs) else "")
        rows.append(row)
    header = ["iter"] + [label for label, _ in cols]
    with open(path, "w") as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        else:
            fh.write("| " + " | ".join(header) + " |\n")
            fh.write("|" + "|".join(["---"] * len(header)) + "|\n")
            for row in rows:
                fh.write("| " + " | ".join(row) + " |\n")
    return path


# ----------------------------------------------------------------------------
# domain-of-attraction grid


@dataclass
class DoaGrid:
    """Per-cell convergence labels over a rectangular start region.

    ``labels[i, j]`` is the index into ``saddles`` reached from cell (i, j)
    (-1 for no convergence to a known index-1 saddle); ``iterations`` holds
    the outer-iteration count spent per cell.
    """

    region: tuple
    n: int
    method: str
    saddles: list
    labels: np.ndarray
    iterations: np.ndarray

    def labeled_cells(self) -> int:
        return int(np.sum(self.labels >= 0))

    def basin_is_connected(self, saddle_idx: int) -> bool:
        """4-connectivity check of one basin via flood fill."""
        mask = self.labels == saddle_idx
        total = int(mask.sum())
        if total == 0:
            return True
        seen = np.zeros_like(mask)
        si, sj = np.argwhere(mask)[0]
        stack = [(int(si), int(sj))]
        seen[si, sj] = True
        count = 0
        while stack:
            i, j = stack.pop()
            count += 1
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < mask.shape[0] and 0 <= b < mask.shape[1]:
                    if mask[a, b] and not seen[a, b]:
                        seen[a, b] = True
                        stack.append((a, b))
        return count == total

    def to_csv(self, path):
        np.savetxt(path, self.labels, fmt="%d", delimiter=",")

    def summary(self) -> dict:
        return {
            "method": self.method,
            "region": [list(map(float, b)) for b in self.region],
            "n": self.n,
            "labeled_cells": self.labeled_cells(),
            "cells_per_saddle": [int(np.sum(self.labels == i)) for i in range(len(self.saddles))],
            "connected": [self.basin_is_connected(i) for i in range(len(self.saddles))],
        }


def _doa_cell(args):
    (problem, params, method, point, budget, box, saddle_tol) = args
    p = make_builtin(problem, params)
    x0 = np.asarray(point, dtype=float)
    if method == "imf":
        cfg = SearchConfig(
            alpha=1.0, beta=1.0, grad_tol=1e-8, eig_tol=1e-8,
            subsolve=SubsolveConfig(grad_tol=1e-10, max_inner_iters=200, box_radius=box),
            max_outer_iters=budget, divergence_radius=50.0,
        )
        rec = run_search(p, x0, cfg)
    else:
        rec = newton_stationary(p, x0, tol=1e-8, max_iters=budget)
    if rec.terminal_index != 1:  # None unless the run converged
        return -1, rec.iterations
    for i, s in enumerate(p.saddle_points()):
        if np.linalg.norm(rec.x - s) <= saddle_tol:
            return i, rec.iterations
    return -1, rec.iterations


def doa_scan(problem, method, region, n, budget=200, box=0.25, saddle_tol=1e-3,
             params=None, workers=None) -> DoaGrid:
    """Label every cell of an n-by-n start grid by the saddle it reaches.

    Cells count as labeled only when the run converges to a verified
    index-1 stationary point within ``saddle_tol`` of a known saddle.
    Cells are independent and run on a process pool; the assembled result
    is deterministic.
    """
    if method not in ("imf", "newton"):
        raise ValueError(f"doa supports imf|newton, got {method!r}")
    (x_lo, x_hi), (y_lo, y_hi) = region
    xs = np.linspace(x_lo, x_hi, n)
    ys = np.linspace(y_lo, y_hi, n)
    p = make_builtin(problem, params or {})
    if p.dimension != 2:
        raise ValueError("attraction grids require a 2-dimensional problem")
    tasks = [
        (problem, params or {}, method, (float(xs[i]), float(ys[j])), budget, box, saddle_tol)
        for i in range(n) for j in range(n)
    ]
    labels = np.full((n, n), -1, dtype=int)
    iters = np.zeros((n, n), dtype=int)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_doa_cell, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        results = [_doa_cell(t) for t in tasks]
    for (i, j), (label, nit) in zip(((i, j) for i in range(n) for j in range(n)), results):
        labels[i, j] = label
        iters[i, j] = nit
    return DoaGrid(region=region, n=n, method=method,
                   saddles=[list(map(float, s)) for s in p.saddle_points()],
                   labels=labels, iterations=iters)


# ----------------------------------------------------------------------------
# benchmark presets


def near_saddle_runs(seed, presets, grad_tol, subsolve_tol, max_inner, max_outer):
    """Three-hole searches started 0.2 from the bottom and the left saddle.

    One run per saddle and ``(alpha, beta)`` in ``presets``, each from a
    seeded random angle, with a 0.25 trust box and errors measured to that
    saddle.  Returns ``(label, record)`` pairs labelled ``(a,b)@(x,y)``.
    """
    p = make_builtin("three_hole")
    rng = np.random.default_rng(seed)
    records = []
    for sp in (p.stationary_points[0][0], p.stationary_points[1][0]):
        for a, b in presets:
            x0 = _on_circle(rng, sp, 0.2)
            cfg = SearchConfig(
                alpha=a, beta=b, grad_tol=grad_tol, eig_tol=1e-12,
                subsolve=SubsolveConfig(grad_tol=subsolve_tol, max_inner_iters=max_inner,
                                        box_radius=0.25),
                max_outer_iters=max_outer,
            )
            rec = run_search(p, x0, cfg).measure(sp)
            records.append((f"({a:g},{b:g})@({sp[0]:.2f},{sp[1]:.2f})", rec))
    return records


def _table1(seed):
    return near_saddle_runs(seed, COEFFICIENT_PRESETS.values(), grad_tol=5e-14,
                            subsolve_tol=1e-14, max_inner=500, max_outer=6)


def _table2(seed):
    p = make_builtin("three_hole")
    rng = np.random.default_rng(seed)
    center = np.array([-1.0, 0.0])
    records = []
    for draw in range(2):
        for name, (a, b) in COEFFICIENT_PRESETS.items():
            x0 = _on_circle(rng, center, 0.1)
            cfg = SearchConfig(
                alpha=a, beta=b, grad_tol=1e-12, eig_tol=1e-12,
                subsolve=SubsolveConfig(grad_tol=1e-14, max_inner_iters=500, box_radius=0.25),
                max_outer_iters=15,
            )
            rec = run_search(p, x0, cfg)
            _auto_reference(p, rec)
            records.append((f"({a:g},{b:g})#{draw}", rec))
    return records


def _table3(seed):
    records = near_saddle_runs(seed, ((2.0, 0.0), (0.0, 2.0)), grad_tol=1e-11,
                               subsolve_tol=1e-16, max_inner=3, max_outer=8)
    return [("3cg" + label, rec) for label, rec in records]


@functools.cache
def _island():
    """The Morse island and its relaxed minimum (read-only), relaxed once per process."""
    p = make_builtin("morse_island")
    xmin = _relaxed_minimum(p)
    xmin.setflags(write=False)
    return p, xmin


def _table4(seed):
    p, xmin = _island()
    rng = np.random.default_rng(seed)
    a, b = COEFFICIENT_PRESETS["ray"]
    x0 = xmin + 0.05 * rng.standard_normal(xmin.size)
    cfg = SearchConfig(
        alpha=a, beta=b, grad_tol=1e-10, eig_tol=1e-9,
        subsolve=SubsolveConfig(grad_tol=1e-12, max_inner_iters=2000, box_radius=0.2),
        max_outer_iters=25,
    )
    rec = run_search(p, x0, cfg)
    if rec.converged:
        # no tabulated saddle exists for the cluster: report distances to
        # the converged point, the way such error columns are produced
        rec.measure(rec.x)
    return [(f"island({a:g},{b:g})", rec)]


def table5_config(variant):
    """Table5's search settings for one sphere variant (``naive``: 40 outer iterations)."""
    return SearchConfig(
        on_sphere=True, sphere_variant=variant, grad_tol=5e-14, eig_tol=1e-12,
        subsolve=SubsolveConfig(grad_tol=1e-15, max_inner_iters=500),
        max_outer_iters=8 if variant != "naive" else 40,
    )


def _table5(seed):
    # the "naive" run is a negative control: straight-line projection with
    # retraction instead of the geodesic machinery
    p = make_builtin("sphere_quadratic")
    rng = np.random.default_rng(seed)
    e1 = np.array([1.0, 0.0, 0.0])
    records = []
    for variant in ("hyperplane", "ray", "naive"):
        rec = run_search(p, _on_cap(rng, e1, 0.1), table5_config(variant))
        _auto_reference(p, rec, on_sphere=True)
        records.append((variant, rec))
    return records


# table preset -> (builder, default seed); fig2 is the attraction-grid preset
_TABLES = {
    "table1": (_table1, 0),
    "table2": (_table2, 7),
    "table3": (_table3, 0),
    "table4": (_table4, 42),
    "table5": (_table5, 4),
}
BENCH_PRESETS = (*_TABLES, "fig2")
# (region, n): the fig2 start grid over the three-hole surface, and the
# grid `saddlekit doa` scans when its config names none
FIG2_GRID = (((-1.5, 1.5), (-1.5, 2.0)), 50)


def _table_seed(preset, seed):
    if preset not in _TABLES:
        raise ValueError(f"unknown preset {preset!r}; choose from {list(BENCH_PRESETS)}")
    return _TABLES[preset][1] if seed is None else int(seed)


def preset_runs(preset, seed=None):
    """The ``(label, record)`` pairs of a table preset, without writing files."""
    return _TABLES[preset][0](_table_seed(preset, seed))


def fig2_grids():
    """The fig2 preset's 50x50 attraction grids, keyed by method (imf, newton)."""
    return {method: doa_scan("three_hole", method, *FIG2_GRID) for method in ("imf", "newton")}


def bench(preset, out_dir, seed=None) -> dict:
    """Run a named benchmark preset; writes records, a table, and a summary."""
    os.makedirs(out_dir, exist_ok=True)
    if preset == "fig2":
        summaries = {}
        for method, grid in fig2_grids().items():
            grid.to_csv(os.path.join(out_dir, f"doa_{method}.csv"))
            summaries[method] = grid.summary()
        out = {"preset": preset, "grids": summaries,
               "imf_labels_more": summaries["imf"]["labeled_cells"] > summaries["newton"]["labeled_cells"]}
        write_json(os.path.join(out_dir, "fig2_summary.json"), out)
        return out
    seed = _table_seed(preset, seed)
    records = preset_runs(preset, seed)
    if preset == "table4":
        p, xmin = _island()
        for name, x, comment in (("minimum", xmin, "relaxed island minimum"),
                                 ("saddle", records[0][1].x, "converged island saddle")):
            write_xyz(os.path.join(out_dir, f"island_{name}.xyz"),
                      morse_full_coordinates(p, x), symbol="Pt", comment=comment)
    for ext, fmt in (("md", "markdown"), ("csv", "csv"), ("json", "json")):
        emit_table(records, os.path.join(out_dir, f"{preset}_errors.{ext}"), fmt=fmt)
    runs = []
    for label, rec in records:
        rec.to_csv(os.path.join(out_dir, f"{preset}_{_slug(label)}.csv"))
        runs.append({"label": label, **rec.summary(), "converged": rec.converged,
                     "comparison": label == "naive"})
    summary = {
        "preset": preset,
        "seed": seed,
        "runs": runs,
        # negative-control comparison runs do not gate the exit code
        "all_converged": all(r["converged"] for r in runs if not r["comparison"]),
    }
    # sphere sequences are very short: keep the starting error in the pool
    pool_start = preset == "table5"
    try:
        summary["pooled_order"] = estimate_order_pooled(
            [rec.errors(include_start=pool_start)
             for label, rec in records if rec.errors() and label != "naive"]
        )
    except OrderEstimateError:
        summary["pooled_order"] = None
    write_json(os.path.join(out_dir, f"{preset}_summary.json"), summary)
    return summary


def _slug(label):
    return "".join(c if c.isalnum() else "_" for c in label).strip("_")


# ----------------------------------------------------------------------------
# invariant checks (the `check` subcommand)


def _fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of the scalar function ``f`` at ``x``."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def run_invariant_checks(include_cluster=True, verbose=False) -> list:
    """Cross-check analytic derivatives and geometric identities.

    Returns a list of (name, passed, detail) covering: gradient and
    Hessian-action finite-difference agreement, Hessian symmetry and
    linearity, an assembled Hessian (``hessian_fn``) against the Hessian
    action, mode-sign invariance of the objective, tangent-projector
    idempotence, anchor stationarity transfer, and geodesic-projection
    optimality against a brute-force sweep.
    """
    results = []

    def check(name, passed, detail=""):
        results.append((name, bool(passed), detail))
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")

    rng = np.random.default_rng(2718)
    problems = [
        ("double_well", {"mu": 2.0}, 0.6),
        ("three_hole", {}, 0.8),
        ("sphere_quadratic", {}, 0.8),
    ]
    if include_cluster:
        problems.append(("morse_island", {}, 0.03))

    for name, params, amp in problems:
        p = make_builtin(name, params)
        if "coords" in p.extras:
            base = p.extras["coords"][~p.extras["frozen"]].ravel()
        else:
            base = np.zeros(p.dimension)
        x = base + amp * rng.standard_normal(p.dimension)
        g = p.gradient(x)
        gfd = _fd_gradient(p.energy, x)
        rel = np.linalg.norm(g - gfd) / max(1e-12, np.linalg.norm(gfd))
        check(f"{name}: gradient matches finite differences", rel < 1e-6, f"rel={rel:.2e}")

        u = rng.standard_normal(p.dimension)
        w = rng.standard_normal(p.dimension)
        hu = p.hessian_vec(x, u)
        h = 1e-5 * (1.0 + np.linalg.norm(x, ord=np.inf))
        un = np.linalg.norm(u)
        hfd = (p.gradient(x + (h / un) * u) - p.gradient(x - (h / un) * u)) * (un / (2.0 * h))
        rel = np.linalg.norm(hu - hfd) / max(1e-12, np.linalg.norm(hfd))
        check(f"{name}: hessian action matches finite differences", rel < 1e-5, f"rel={rel:.2e}")

        sym = abs(u @ p.hessian_vec(x, w) - w @ p.hessian_vec(x, u))
        scale = max(1.0, np.linalg.norm(hu) * np.linalg.norm(w))
        check(f"{name}: hessian action is symmetric", sym / scale < 1e-10, f"defect={sym:.2e}")

        lin = np.linalg.norm(
            p.hessian_vec(x, 0.3 * u + 1.7 * w)
            - 0.3 * p.hessian_vec(x, u) - 1.7 * p.hessian_vec(x, w)
        )
        check(f"{name}: hessian action is linear", lin / scale < 1e-12, f"defect={lin:.2e}")

        if p.hessian_fn is not None:
            H = p.hessian_fn(x)
            HU = np.column_stack([hu, p.hessian_vec(x, w)])
            rel = np.linalg.norm(H @ np.column_stack([u, w]) - HU) / max(1e-12, np.linalg.norm(HU))
            check(f"{name}: assembled Hessian matches Hessian-vector products",
                  rel < 1e-12 and np.array_equal(H, H.T), f"rel={rel:.2e}")

    # mode-sign invariance and stationarity transfer on the three-hole surface
    p = make_builtin("three_hole")
    sp = p.stationary_points[0][0]
    x = sp + 0.1 * rng.standard_normal(2)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    y = x + 0.2 * rng.standard_normal(2)
    for a, b in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0)):
        Lp = build_flat(p, x, v, a, b)
        Lm = build_flat(p, x, -v, a, b)
        dv = abs(Lp.value(y) - Lm.value(y))
        dg = np.linalg.norm(Lp.gradient(y) - Lm.gradient(y))
        check(f"three_hole: objective ({a:g},{b:g}) is mode-sign invariant",
              dv < 1e-12 and dg < 1e-12, f"dv={dv:.2e} dg={dg:.2e}")
        Ls = build_flat(p, sp, v, a, b)
        gn = np.linalg.norm(Ls.gradient(sp))
        check(f"three_hole: stationarity transfers to objective ({a:g},{b:g})",
              gn < 1e-9, f"|grad|={gn:.2e}")
        gfd = _fd_gradient(Lp.value, y)
        rel = np.linalg.norm(Lp.gradient(y) - gfd) / max(1e-12, np.linalg.norm(gfd))
        check(f"three_hole: objective ({a:g},{b:g}) gradient matches finite differences",
              rel < 1e-6, f"rel={rel:.2e}")

    # tangent projector idempotence and geodesic projection optimality
    for trial in range(3):
        xs = rng.standard_normal(3)
        xs /= np.linalg.norm(xs)
        proj = mf.tangent_projector(xs)
        u = rng.standard_normal(3)
        d1 = np.linalg.norm(proj(proj(u)) - proj(u))
        d2 = abs(xs @ proj(u))
        check(f"sphere: tangent projection #{trial} idempotent and tangent",
              d1 < 1e-12 and d2 < 1e-12, f"idem={d1:.2e} normal={d2:.2e}")

        v = proj(rng.standard_normal(3))
        v /= np.linalg.norm(v)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        theta = mf.great_circle_angle(xs, v, y)[0]
        sweep = np.linspace(-math.pi, math.pi, 1_000_000, endpoint=False)
        dots = (xs @ y) * np.cos(sweep) + (v @ y) * np.sin(sweep)
        best = sweep[int(np.argmax(dots))]
        dth = abs((theta - best + math.pi) % (2.0 * math.pi) - math.pi)
        check(f"sphere: geodesic projection #{trial} matches brute-force sweep",
              dth < 1e-5, f"dtheta={dth:.2e}")

    return results
