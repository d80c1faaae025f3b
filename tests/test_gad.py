import numpy as np
import pytest

import saddlekit as sk
from saddlekit import gad
from saddlekit.search import estimate_order
from saddlekit.subsolve import sd_single_step

from conftest import make_nan_second_derivative_models


def test_state_validation(double_well2):
    # both entry points refuse a bad direction or setting before any step
    e1 = np.array([1.0, 0.0])
    for v, options, message in (
        (np.zeros(2), {}, "direction must be nonzero and finite, its norm is 0"),
        (np.array([np.inf, 0.0]), {}, "direction must be nonzero and finite, its norm is inf"),
        (e1, {"gamma": 0.0}, "gamma must be positive"),
        (e1, {"dt": 0.0}, "dt must be positive"),
    ):
        for call in (gad.euler_step, gad.run):
            with pytest.raises(ValueError, match=message):
                call(double_well2, np.zeros(2), v, **{"dt": 0.01, **options})


def test_equilibrium_is_fixed(double_well2):
    # (saddle, soft eigenvector) is stationary for the coupled flow
    x, v = np.zeros(2), np.array([1.0, 0.0])
    x2, v2 = gad.euler_step(double_well2, x, v, dt=0.01)
    assert np.allclose(x2, x, atol=1e-15)
    assert np.allclose(v2, v, atol=1e-15)


def test_direction_renormalized(double_well2):
    x, v = np.array([0.4, 0.3]), np.array([0.8, 0.6])
    for _ in range(50):
        x, v = gad.euler_step(double_well2, x, v, dt=0.05)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_double_well_converges_to_saddle():
    p = sk.make_builtin("double_well")  # mu = 1
    rec = gad.run(p, np.array([0.1, 0.1]), np.array([1.0, 0.0]), dt=0.01, max_steps=20000,
                  tol=1e-10)
    assert rec.converged
    assert np.linalg.norm(rec.x) < 1e-9
    # the last row's <v,Hv> is -1 + 2 sin^2 of v's angle off the x axis
    # here, so a bound of 1e-6 puts |v_0| within 1e-6 of 1
    assert np.isclose(rec.rows[-1][4], -1.0, atol=1e-6)


def test_stays_at_minimum_with_exact_mode():
    p = sk.make_builtin("double_well")
    x_min = np.array([1.0, 0.0])
    modes = sk.min_modes(sk.Hessian(p, x_min), m=1, tol=1e-12)
    x, v = x_min, modes.eigenvectors[:, 0]
    for _ in range(100):
        x, v = gad.euler_step(p, x, v, dt=0.01)
    assert np.allclose(x, x_min, atol=1e-12)


def test_frozen_mode_step_matches_single_descent_step(three_hole):
    # with the exact smallest mode, one Euler step of the reversed-force flow
    # is exactly one explicit descent step on the locally reversed objective
    x = np.array([0.1, -0.2])
    dt = 0.01
    v = np.array([1.0, 0.0])
    dev = 0.0
    y = x.copy()
    for _ in range(100):
        x, v = gad.euler_step(three_hole, x, v, dt, exact_mode=True)
        modes = sk.min_modes(sk.Hessian(three_hole, y), m=1, tol=1e-13)
        L = sk.build_flat(three_hole, y, modes.eigenvectors[:, 0], 2.0, 0.0)
        y = sd_single_step(L, y, dt)
        dev = max(dev, float(np.linalg.norm(x - y)))
    assert dev <= 1e-14


def test_linear_rate(three_hole):
    sp = three_hole.stationary_points[0][0]
    rec = gad.run(three_hole, sp + np.array([0.05, 0.08]), np.array([0.0, 1.0]), dt=0.01,
                  max_steps=60000, tol=1e-11, record_every=25)
    assert rec.status == "converged"
    errs = [e for e in rec.measure(sp).errors() if e > 1e-13]
    order = estimate_order(errs[4:])  # drop the direction-relaxation transient
    assert order <= 1.3


def _counting(p):
    """``p`` with its gradient and Hessian-vector calls counted."""
    calls = {"gradient": 0, "hvp": 0}

    def gradient(x):
        calls["gradient"] += 1
        return p.gradient_fn(x)

    def hvp(x, u):
        calls["hvp"] += 1
        return p.hessian_vec_fn(x, u)

    return sk.PotentialModel(p.name, p.dimension, p.energy_fn, gradient, hvp), calls


@pytest.mark.parametrize("on_sphere", [False, True])
def test_run_evaluates_once_per_step(three_hole, sphere_quad, on_sphere):
    # the equilibrium test and the step share one gradient and one product
    if on_sphere:
        p, calls = _counting(sphere_quad)
        x0 = np.array([1.0, 0.2, 0.1]) / np.linalg.norm([1.0, 0.2, 0.1])
        v0 = np.array([0.0, 1.0, 1.0])
    else:
        p, calls = _counting(three_hole)
        x0, v0 = three_hole.stationary_points[0][0] + 0.05, np.array([0.0, 1.0])
    rec = gad.run(p, x0, v0, dt=0.02, max_steps=3000, tol=1e-9, on_sphere=on_sphere)
    assert rec.status == "converged" and rec.iterations > 10
    # plus the terminal classification: one product per (tangent) basis
    # vector, and on the sphere the gradient of the multiplier x.grad V
    assert calls == {"gradient": rec.iterations + 1 + on_sphere, "hvp": rec.iterations + 1 + 2}


def test_exact_mode_is_flat_only(sphere_quad):
    x, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="exact_mode"):
        gad.euler_step(sphere_quad, x, v, dt=0.01, exact_mode=True, on_sphere=True)
    with pytest.raises(ValueError, match="exact_mode"):
        gad.run(sphere_quad, x, v, dt=0.01, exact_mode=True, on_sphere=True)


@pytest.mark.parametrize("budget", [{"record_every": 0}, {"max_steps": -1}],
                         ids=["record_every", "max_steps"])
def test_run_refuses_a_bad_budget(double_well2, budget):
    with pytest.raises(ValueError, match="max_steps must be non-negative and record_every positive"):
        gad.run(double_well2, np.array([0.1, 0.1]), np.array([1.0, 0.0]), dt=0.01, **budget)


def test_diverging_flow_ends_failed_at_the_step():
    # the flow leaves the surface's basin and |x| reaches 4.6e153 at step
    # 38, where the gradient overflows: the run ends there instead of raising
    p = sk.make_builtin("three_hole")
    with np.errstate(all="ignore"):
        rec = gad.run(p, np.array([-1.5, 1.5]), np.array([1.0, 0.0]), dt=0.01, max_steps=200)
    assert (rec.status, rec.message) == ("failed", "step 38: non-finite gradient")
    assert (rec.iterations, rec.terminal_index) == (38, None)
    assert np.linalg.norm(rec.x) > 1e153


_STIFF = np.array([1e308, -1e308])


@pytest.mark.parametrize("model, exact_mode, message", [
    # a Hessian so stiff that the direction update overflows: its norm is
    # inf, and normalizing would leave a zero or NaN direction
    (sk.PotentialModel("stiff", 2, lambda x: 0.0, lambda x: _STIFF * x, lambda x, u: _STIFF * u),
     False, "the direction's norm became inf"),
    (make_nan_second_derivative_models()[0], False, "the direction's norm became nan"),
    (make_nan_second_derivative_models()[0], True, "non-finite Hessian-vector product"),
], ids=["overflow", "nan", "nan-exact-mode"])
def test_vanished_direction_ends_failed_at_the_step(model, exact_mode, message):
    with np.errstate(all="ignore"):
        rec = gad.run(model, np.array([0.0, 0.1]), np.array([1.0, 1.0]), dt=0.01, max_steps=10,
                      record_every=5, exact_mode=exact_mode)
    assert (rec.status, rec.message) == ("failed", f"step 1: {message}")
    assert (rec.iterations, [row[5] for row in rec.rows]) == (0, [0])


def test_rows_sample_every_record_every_steps(double_well2):
    x, v = np.array([0.2, 0.1]), np.array([1.0, 0.0])
    rec = gad.run(double_well2, x, v, dt=0.02, max_steps=45, tol=1e-12, record_every=10)
    assert (rec.status, rec.message, rec.terminal_index) == ("max_iters", "", None)
    assert [row[5] for row in rec.rows] == [0, 10, 10, 10, 10, 5]
    for _ in range(45):
        x, v = gad.euler_step(double_well2, x, v, dt=0.02)
    assert np.array_equal(rec.x, x)
    Hv = double_well2.hessian_vec(x, v)
    assert rec.rows[-1][4] == float(v @ Hv)


def test_trajectory_csv(tmp_path, double_well2):
    rec = gad.run(double_well2, np.array([0.2, 0.1]), np.array([1.0, 0.0]), dt=0.02,
                  max_steps=200, tol=1e-12, record_every=10)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,error,grad_norm,lambda1,inner_iters,x0,x1"
    assert len(lines) == len(rec.rows) + 1


# -- sphere variant -----------------------------------------------------------


def test_manifold_equilibrium_fixed(sphere_quad):
    x, v = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
    x2, v2 = gad.euler_step(sphere_quad, x, v, dt=0.01, on_sphere=True)
    assert np.allclose(x2, x, atol=1e-14)
    assert np.allclose(v2, v, atol=1e-14)


def test_manifold_converges_to_constrained_saddle(sphere_quad):
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, 0.02, 0.03])
    x0 /= np.linalg.norm(x0)
    v0 = rng.standard_normal(3)
    rec = gad.run(sphere_quad, x0, v0, dt=0.02, max_steps=40000, tol=1e-9, on_sphere=True)
    assert rec.status == "converged"
    assert min(np.linalg.norm(rec.x - np.array([0.0, 1.0, 0.0])),
               np.linalg.norm(rec.x + np.array([0.0, 1.0, 0.0]))) < 1e-6


def test_manifold_constraint_drift(sphere_quad):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(3)
    worst = 0.0
    for _ in range(10000):
        x, v = gad.euler_step(sphere_quad, x, v, dt=0.005, on_sphere=True)
        worst = max(worst, abs(np.linalg.norm(x) - 1.0))
    assert worst <= 1e-12
