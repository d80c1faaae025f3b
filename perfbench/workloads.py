"""Workloads of the saddlekit benchmark, built on saddlekit's public API.

A workload has four parts:

* ``setup(seed)`` builds the surface and the seeded inputs; the benchmark
  times it as ``setup_s``.
* ``unit(state, k, run_search)`` runs the k-th unit of work.  Every search
  goes through ``run_search``, which has the signature of ``saddlekit.run``,
  so the benchmark can time (and, when tracing, span) each search.
* ``min_units`` is the fewest units an untraced run times, however short
  its ``--seconds`` window.
* ``trace_units`` is the fixed number of units a traced run executes, so
  that its counts repeat exactly.
* ``records(state, outputs, calls)`` turns the finished searches into
  per-search records plus a list of correctness violations.
"""

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import saddlekit as sk
from saddlekit import harness
from saddlekit.objective import COEFFICIENT_PRESETS

FIXTURE = Path(__file__).with_name("morse_saddle.json")
FIXTURE_BARRIER_EV = 0.502
MORSE_AMPLITUDE = 0.05  # Angstrom of Gaussian noise per coordinate (table4 protocol)
REFINE_RADIUS = 0.05  # Angstrom: largest atom displacement of a morse_refine start

_RAY = COEFFICIENT_PRESETS["ray"]
MORSE_CONFIG = sk.SearchConfig(
    alpha=_RAY[0], beta=_RAY[1], grad_tol=1e-10, eig_tol=1e-9,
    subsolve=sk.SubsolveConfig(grad_tol=1e-12, max_inner_iters=2000, box_radius=0.2),
    max_outer_iters=25,
)


class FixtureError(RuntimeError):
    """The stored Morse saddle no longer verifies on the surface."""


class _EnergyObjective:
    """The energy as an inner-solver objective, unpreconditioned as in table4."""

    def __init__(self, p):
        self.p = p

    def value(self, y):
        return self.p.energy(y)

    def gradient(self, y):
        return self.p.gradient(y)

    def hessian_vec(self, y, u):
        return self.p.hessian_vec(y, u)


def relax(p):
    """Relaxed minimum of a built-in geometry, the way the table4 preset gets it."""
    x0 = p.extras["coords"][~p.extras["frozen"]].ravel().copy()
    return sk.minimize(_EnergyObjective(p), x0, sk.SubsolveConfig(grad_tol=1e-11, max_inner_iters=6000)).y


def max_atom_shift(a, b):
    """Largest per-atom displacement between two Morse coordinate vectors."""
    return float(np.sqrt(((np.asarray(a) - np.asarray(b)).reshape(-1, 3) ** 2).sum(axis=1)).max())


def grad_inf(p, x):
    return float(np.abs(p.gradient(x)).max())


class SeededStarts:
    """Start points drawn on demand from one seeded stream, in order."""

    def __init__(self, seed, draw):
        self._rng = np.random.default_rng(seed)
        self._draw = draw
        self._points = []

    def __getitem__(self, k):
        while len(self._points) <= k:
            self._points.append(self._draw(self._rng))
        return self._points[k]


@contextlib.contextmanager
def rebind(owner, name, value):
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


# ----------------------------------------------------------------------------
# Morse island (525 free coordinates)


@dataclass
class MorseState:
    p: object
    xmin: np.ndarray
    e_min: float
    starts: SeededStarts
    saddle: np.ndarray = None  # the stored fixture (morse_refine only)


def load_fixture(p, e_min):
    """Read the stored saddle and check it: force, index and barrier."""
    data = json.loads(FIXTURE.read_text())
    x = np.asarray(data["x"], dtype=float)
    if x.shape != (p.dimension,):
        raise FixtureError(f"fixture has {x.size} coordinates, surface has {p.dimension}")
    force = grad_inf(p, x)
    if force > 1e-10:
        raise FixtureError(f"fixture |grad E|_inf = {force:.3e} > 1e-10")
    index = sk.stationary_index(p, x)
    if index != 1:
        raise FixtureError(f"fixture has Hessian index {index}, expected 1")
    barrier = p.energy(x) - e_min
    if abs(barrier - FIXTURE_BARRIER_EV) > 5e-4:
        raise FixtureError(f"fixture barrier {barrier:.6f} eV, expected {FIXTURE_BARRIER_EV} eV")
    return x


class MorseEscape:
    """Table4 protocol: perturb the relaxed island minimum, then search."""

    name = "morse_escape"
    min_units = 1
    trace_units = 1

    def setup(self, seed):
        p = sk.make_builtin("morse_island")
        xmin = relax(p)
        starts = SeededStarts(seed, lambda rng: xmin + MORSE_AMPLITUDE * rng.standard_normal(xmin.size))
        return MorseState(p, xmin, p.energy(xmin), starts)

    def unit(self, st, k, run_search):
        run_search(st.p, st.starts[k], MORSE_CONFIG)

    def records(self, st, outputs, calls):
        out, bad = [], []
        for k, call in enumerate(calls):
            rec, x = call.record, call.record.x
            r = {
                "search": k, "status": call.status, "outer_iters": rec.iterations,
                "energy": st.p.energy(x), "barrier_eV": st.p.energy(x) - st.e_min,
                "max_disp_A": max_atom_shift(x, st.xmin), "grad_inf": grad_inf(st.p, x),
                "index": rec.terminal_index, "wall_s": call.wall,
                "saddle": rec.converged and rec.terminal_index == 1,
            }
            if st.saddle is not None:
                r["from_fixture_A"] = max_atom_shift(x, st.saddle)
            out.append(r)
            bad += [f"search {k}: {v}" for v in self.violations(r)]
        return out, bad

    def violations(self, r):
        """What is wrong with a search: every Morse search must converge to a verified saddle."""
        if r["status"] != "converged":
            yield f"ends with status {r['status']}"
            return
        if r["index"] != 1:
            yield f"terminal index {r['index']}"
        if not r["grad_inf"] <= MORSE_CONFIG.grad_tol:
            yield f"|grad E|_inf = {r['grad_inf']:.3e}"


def near(x, rng):
    """Gaussian displacement of ``x``, scaled so the farthest atom moves REFINE_RADIUS."""
    d = rng.standard_normal(x.size)
    return x + d * (REFINE_RADIUS / max_atom_shift(d, 0.0))


class MorseRefine(MorseEscape):
    """Start with every atom within 0.05 A of the stored saddle: the quadratic regime.

    Table4's 0.05 A per-coordinate noise moves atoms up to ~0.2 A.  From
    such starts the first step of some searches hits the 0.2 A trust box
    and runs all 2000 inner iterations, five times the search time; box-
    limited steps are what ``morse_escape`` measures.
    """

    name = "morse_refine"
    min_units = 3  # one search takes ~11 s: the median of three, not one sample

    def setup(self, seed):
        p = sk.make_builtin("morse_island")
        xmin = relax(p)
        e_min = p.energy(xmin)
        saddle = load_fixture(p, e_min)
        starts = SeededStarts(seed, lambda rng: near(saddle, rng))
        return MorseState(p, xmin, e_min, starts, saddle)

    def violations(self, r):
        yield from super().violations(r)
        if not r["from_fixture_A"] <= 1e-6:
            yield f"ends {r['from_fixture_A']:.3e} A from the stored saddle"


# ----------------------------------------------------------------------------
# attraction grid on the three-hole surface (fig2 protocol)

GRID_REGION = ((-1.5, 1.5), (-1.5, 2.0))
GRID_N = 9
SADDLE_TOL = 1e-3  # doa_scan's default
_PLASTIC = 1.324717957244746  # the R2 sequence steps by (1/g, 1/g^2)
R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])


@dataclass
class GridState:
    p: object
    shift: np.ndarray


class DoaGrid:
    """Fig2 attraction grids, each shifted by a sub-cell offset.

    The offsets follow the R2 low-discrepancy sequence from a seeded point,
    so the scans of every run cover the cell evenly.  How many cells cycle
    to the iteration budget depends on the offset; even coverage keeps a
    run's mix of cheap and cycling cells nearly the same for every seed.
    """

    name = "doa_grid"
    min_units = 1
    trace_units = 1

    def setup(self, seed):
        return GridState(sk.make_builtin("three_hole"), np.random.default_rng(seed).uniform(0.0, 1.0, 2))

    def region(self, st, k):
        (x0, x1), (y0, y1) = GRID_REGION
        cell = np.array([x1 - x0, y1 - y0]) / (GRID_N - 1)
        dx, dy = (((st.shift + k * R2_STEP) % 1.0 - 0.5) * cell).tolist()
        return ((x0 + dx, x1 + dx), (y0 + dy, y1 + dy))

    def unit(self, st, k, run_search):
        with rebind(harness, "run_search", run_search):
            return harness.doa_scan("three_hole", "imf", self.region(st, k), GRID_N, workers=1)

    def expected_label(self, p, rec, saddles):
        """The label doa_scan must give a cell, recomputed from its search."""
        if not rec.converged or sk.stationary_index(p, rec.x) != 1:
            return -1
        for i, s in enumerate(saddles):
            if np.linalg.norm(rec.x - s) <= SADDLE_TOL:
                return i
        return -1

    def records(self, st, outputs, calls):
        out, bad = [], []
        saddles = st.p.saddle_points()
        cells = GRID_N * GRID_N
        if len(calls) != cells * len(outputs):
            return out, [f"{len(calls)} searches for {len(outputs)} scans of {cells} cells"]
        for k, grid in enumerate(outputs):
            (x0, x1), (y0, y1) = grid.region
            xs, ys = np.linspace(x0, x1, GRID_N), np.linspace(y0, y1, GRID_N)
            for c, call in enumerate(calls[k * cells:(k + 1) * cells]):
                i, j = divmod(c, GRID_N)
                rec, label = call.record, int(grid.labels[i, j])
                if not np.array_equal(call.x0, [xs[i], ys[j]]):
                    bad.append(f"scan {k}: search {c} started at {call.x0}, not at cell {i},{j}")
                out.append({
                    "search": len(out), "scan": k, "cell": [i, j], "status": call.status,
                    "outer_iters": rec.iterations, "energy": st.p.energy(rec.x),
                    "label": label, "wall_s": call.wall, "saddle": label >= 0,
                })
                if call.error:
                    bad.append(f"scan {k} cell {i},{j}: search raised {call.error.splitlines()[0]}")
                want = self.expected_label(st.p, rec, saddles)
                if label != want:
                    bad.append(f"scan {k} cell {i},{j}: label {label}, its search gives {want}")
                if grid.iterations[i, j] != rec.iterations:
                    bad.append(f"scan {k} cell {i},{j}: {grid.iterations[i, j]} iterations recorded, "
                               f"search ran {rec.iterations}")
        return out, bad

    def scan_summary(self, grid):
        s = grid.summary()
        return {
            "region": s["region"], "labeled_cells": s["labeled_cells"],
            "cells_per_saddle": s["cells_per_saddle"],
            "labels_sha256": hashlib.sha256(grid.labels.astype(np.int64).tobytes()).hexdigest()[:16],
        }


# ----------------------------------------------------------------------------
# geodesic searches on the unit sphere (table5 protocol, no naive control)

SPHERE_VARIANTS = ("hyperplane", "ray", "mix")
SPHERE_CONFIGS = {
    v: sk.SearchConfig(
        on_sphere=True, sphere_variant=v, grad_tol=5e-14, eig_tol=1e-12,
        subsolve=sk.SubsolveConfig(grad_tol=1e-15, max_inner_iters=500), max_outer_iters=8,
    )
    for v in SPHERE_VARIANTS
}
SPHERE_START_RAD = 0.1
SPHERE_BLOCK = 15  # searches per unit, five of each variant
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
E1, E2, E3 = np.eye(3)


@dataclass
class SphereState:
    p: object
    phase: float


class SphereGeodesic:
    """Starts 0.1 rad from the minimum e1, cycling over the variants.

    Every search must end at +-e2 with constrained index 1, except that a
    ``hyperplane`` search may run out of outer iterations: that variant
    stalls at |g| ~ 1e-11 from a few starts, and such a search counts
    against ``saddle_frac`` instead.

    Each variant's start directions follow a golden-angle sequence from a
    seeded phase, so they cover the circle of starts evenly.  A unit is a
    block of SPHERE_BLOCK searches.  A stalled search costs about as much
    as a whole block, and about one hyperplane start in a hundred stalls
    (some seeds draw several in a row), so the benchmark reports medians
    over units, which do not hang on how many stalls a run happens to draw.
    """

    name = "sphere_geodesic"
    min_units = 1
    trace_units = 2

    def setup(self, seed):
        phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        return SphereState(sk.make_builtin("sphere_quadratic"), phase)

    def start(self, st, k):
        phi = st.phase + (k // len(SPHERE_VARIANTS)) * GOLDEN_ANGLE
        t = math.cos(phi) * E2 + math.sin(phi) * E3
        return math.cos(SPHERE_START_RAD) * E1 + math.sin(SPHERE_START_RAD) * t

    def unit(self, st, k, run_search):
        for i in range(k * SPHERE_BLOCK, (k + 1) * SPHERE_BLOCK):
            run_search(st.p, self.start(st, i), SPHERE_CONFIGS[SPHERE_VARIANTS[i % len(SPHERE_VARIANTS)]])

    def records(self, st, outputs, calls):
        out, bad = [], []
        for k, call in enumerate(calls):
            rec, x = call.record, call.record.x
            off = min(np.linalg.norm(x - E2), np.linalg.norm(x + E2))
            out.append({
                "search": k, "variant": SPHERE_VARIANTS[k % len(SPHERE_VARIANTS)], "status": call.status,
                "outer_iters": rec.iterations, "energy": st.p.energy(x), "index": rec.terminal_index,
                "from_e2": float(off), "wall_s": call.wall,
                "saddle": rec.converged and rec.terminal_index == 1,
            })
            if call.status == "converged":
                if rec.terminal_index != 1 or not off <= 1e-8:
                    bad.append(f"search {k}: index {rec.terminal_index}, {off:.3e} from +-e2")
            elif (out[-1]["variant"], call.status) != ("hyperplane", "max_iters"):
                bad.append(f"search {k} ({out[-1]['variant']}): ends with status {call.status}")
        return out, bad


WORKLOADS = {w.name: w for w in (MorseRefine(), DoaGrid(), SphereGeodesic(), MorseEscape())}
