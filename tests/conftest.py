import importlib.util
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

# one BLAS thread, set before numpy loads, so that every run of the suite
# follows one trajectory: table4's escape steps amplify roundoff that
# depends on the thread count into the inner-iteration counts a test pins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import eigen, harness, search
from saddlekit.harness import _fd_gradient as fd_gradient  # noqa: F401  (imported by the test modules)


@pytest.fixture(scope="session")
def three_hole():
    return sk.make_builtin("three_hole")


@pytest.fixture(scope="session")
def double_well2():
    return sk.make_builtin("double_well", {"mu": 2.0})


@pytest.fixture(scope="session")
def sphere_quad():
    return sk.make_builtin("sphere_quadratic")


@pytest.fixture(scope="session")
def morse():
    return sk.make_builtin("morse_island")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def morse_saddle():
    """A verified index-1 saddle of the default Morse island, stored with the benchmark."""
    return np.asarray(json.loads((PERFBENCH / "morse_saddle.json").read_text())["x"], dtype=float)


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload module, so a test runs its protocols rather than copies."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_factor_flags(monkeypatch):
    """Make ``step``'s inner solves record whether each was preconditioned
    by the corrected factor, the map :meth:`eigen.Hessian.inverse`
    returned for that step, rather than by Jacobi or by nothing."""
    had_factor, corrected = [], [None]
    real_minimize, real_inverse = search.minimize, eigen.Hessian.inverse

    def correcting(*args):
        corrected[0] = real_inverse(*args)
        return corrected[0]

    def recording(L, y0, cfg, precondition=None):
        had_factor.append(precondition is not None and precondition is corrected[0])
        return real_minimize(L, y0, cfg, precondition)

    monkeypatch.setattr(eigen.Hessian, "inverse", correcting)
    monkeypatch.setattr(search, "minimize", recording)
    return had_factor


def record_lobpcg_iterations(monkeypatch):
    """Make ``step``'s eigensolves record their LOBPCG iterations."""
    iterations, real = [], search.min_modes

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(search, "min_modes", recording)
    return iterations


class Table4Run(NamedTuple):
    record: sk.ConvergenceRecord
    had_factor: list  # per inner solve, see record_factor_flags
    lobpcg_iters: list  # per eigensolve of a step
    elapsed: float  # seconds of the preset run, recorders included


@pytest.fixture(scope="session")
def table4_run():
    """The ``table4`` preset (the Morse island) run once for the tests that
    read it, with its inner solves' factor flags and its LOBPCG iterations."""
    with pytest.MonkeyPatch.context() as mp:
        had_factor = record_factor_flags(mp)
        iterations = record_lobpcg_iterations(mp)
        t0 = time.perf_counter()
        (_, rec), = harness.preset_runs("table4")
        elapsed = time.perf_counter() - t0
    return Table4Run(rec, had_factor, iterations, elapsed)


def make_nan_second_derivative_models():
    """A 2-d saddle with finite energy and gradient and NaN second
    derivatives, as products and as an assembled matrix."""
    h = np.array([-1.0, 2.0])
    nan_hvp = sk.PotentialModel("nan_hvp", 2, lambda x: 0.5 * float(x @ (h * x)),
                                lambda x: h * x, lambda x, u: np.full(2, np.nan))
    nan_hessian = sk.PotentialModel("nan_hessian", 2, lambda x: 0.5 * float(x @ (h * x)),
                                    lambda x: h * x, lambda x, u: h * u,
                                    hessian_fn=lambda x: np.full((2, 2), np.nan))
    return nan_hvp, nan_hessian


def make_index2_cubic(l1=-0.8, l2=-0.5, l3=2.0, c1=0.3, c2=0.4, c3=0.2, c4=0.25):
    """3-d non-quadratic surface with an exact index-2 point at the origin."""

    def energy(x):
        return (0.5 * (l1 * x[0] ** 2 + l2 * x[1] ** 2 + l3 * x[2] ** 2)
                + c1 * x[0] ** 2 * x[1] + c2 * x[0] * x[1] * x[2]
                + c3 * (x[0] ** 3 + x[1] ** 3)
                + c4 * (x[0] ** 4 + x[1] ** 4 + x[2] ** 4))

    def grad(x):
        return np.array([
            l1 * x[0] + 2 * c1 * x[0] * x[1] + c2 * x[1] * x[2]
            + 3 * c3 * x[0] ** 2 + 4 * c4 * x[0] ** 3,
            l2 * x[1] + c1 * x[0] ** 2 + c2 * x[0] * x[2]
            + 3 * c3 * x[1] ** 2 + 4 * c4 * x[1] ** 3,
            l3 * x[2] + c2 * x[0] * x[1] + 4 * c4 * x[2] ** 3,
        ])

    def hvec(x, u):
        H = np.array([
            [l1 + 2 * c1 * x[1] + 6 * c3 * x[0] + 12 * c4 * x[0] ** 2,
             2 * c1 * x[0] + c2 * x[2], c2 * x[1]],
            [2 * c1 * x[0] + c2 * x[2],
             l2 + 6 * c3 * x[1] + 12 * c4 * x[1] ** 2, c2 * x[0]],
            [c2 * x[1], c2 * x[0], l3 + 12 * c4 * x[2] ** 2],
        ])
        return H @ u

    return sk.PotentialModel(
        name="index2_cubic",
        dimension=3,
        energy_fn=energy,
        gradient_fn=grad,
        hessian_vec_fn=hvec,
        stationary_points=((np.zeros(3), 2),),
    )
