import numpy as np
import pytest

import saddlekit as sk
from saddlekit import gad
from saddlekit.search import estimate_order
from saddlekit.subsolve import sd_single_step


def test_state_validation():
    with pytest.raises(ValueError):
        gad.GADState(x=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ValueError):
        gad.GADState(x=np.zeros(2), v=np.array([1.0, 0.0]), gamma=0.0)


def test_equilibrium_is_fixed(double_well2):
    # (saddle, soft eigenvector) is stationary for the coupled flow
    s = gad.GADState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    s2 = gad.euler_step(double_well2, s, dt=0.01)
    assert np.allclose(s2.x, s.x, atol=1e-15)
    assert np.allclose(s2.v, s.v, atol=1e-15)


def test_direction_renormalized(double_well2):
    s = gad.GADState(x=np.array([0.4, 0.3]), v=np.array([0.8, 0.6]))
    for _ in range(50):
        s = gad.euler_step(double_well2, s, dt=0.05)
        assert abs(np.linalg.norm(s.v) - 1.0) < 1e-12


def test_double_well_converges_to_saddle():
    p = sk.make_builtin("double_well")  # mu = 1
    s0 = gad.GADState(x=np.array([0.1, 0.1]), v=np.array([1.0, 0.0]))
    traj = gad.run(p, s0, dt=0.01, max_steps=20000, tol=1e-10)
    assert traj.status == "converged"
    assert np.linalg.norm(traj.x) < 1e-9
    assert abs(abs(traj.v[0]) - 1.0) < 1e-6
    # terminal equilibrium: direction is an eigenvector of the Hessian
    Hv = p.hessian_vec(traj.x, traj.v)
    lam = traj.v @ Hv
    assert np.linalg.norm(Hv - lam * traj.v) <= 1e-9
    assert np.isclose(lam, -1.0, atol=1e-6)


def test_stays_at_minimum_with_exact_mode():
    p = sk.make_builtin("double_well")
    x_min = np.array([1.0, 0.0])
    modes = sk.min_modes(p, x_min, m=1, tol=1e-12)
    s = gad.GADState(x=x_min, v=modes.eigenvectors[:, 0])
    for _ in range(100):
        s = gad.euler_step(p, s, dt=0.01)
    assert np.allclose(s.x, x_min, atol=1e-12)


def test_frozen_mode_step_matches_single_descent_step(three_hole):
    # with the exact smallest mode, one Euler step of the reversed-force flow
    # is exactly one explicit descent step on the locally reversed objective
    x = np.array([0.1, -0.2])
    dt = 0.01
    s = gad.GADState(x=x.copy(), v=np.array([1.0, 0.0]))
    dev = 0.0
    y = x.copy()
    for _ in range(100):
        s = gad.euler_step(three_hole, s, dt, reversal=2.0, exact_mode=True)
        modes = sk.min_modes(three_hole, y, m=1, tol=1e-13)
        L = sk.build_flat(three_hole, y, modes.eigenvectors[:, 0], 2.0, 0.0)
        y = sd_single_step(L, y, dt)
        dev = max(dev, float(np.linalg.norm(s.x - y)))
    assert dev <= 1e-14


def test_linear_rate(three_hole):
    sp = three_hole.stationary_points[0][0]
    s0 = gad.GADState(x=sp + np.array([0.05, 0.08]), v=np.array([0.0, 1.0]))
    traj = gad.run(three_hole, s0, dt=0.01, max_steps=60000, tol=1e-11, record_every=25)
    assert traj.status == "converged"
    errs = [e for e in traj.errors(sp) if e > 1e-13]
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
        s0 = gad.GADState(x=x0, v=np.array([0.0, 1.0, 1.0]))
    else:
        p, calls = _counting(three_hole)
        s0 = gad.GADState(x=three_hole.stationary_points[0][0] + 0.05, v=np.array([0.0, 1.0]))
    traj = gad.run(p, s0, dt=0.02, max_steps=3000, tol=1e-9, on_sphere=on_sphere)
    assert traj.status == "converged" and traj.steps > 10
    assert calls == {"gradient": traj.steps + 1, "hvp": traj.steps + 1}


def test_exact_mode_is_flat_only(sphere_quad):
    s = gad.GADState(x=np.array([1.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="exact_mode"):
        gad.euler_step(sphere_quad, s, dt=0.01, exact_mode=True, on_sphere=True)
    with pytest.raises(ValueError, match="exact_mode"):
        gad.run(sphere_quad, s, dt=0.01, exact_mode=True, on_sphere=True)


def test_trajectory_csv(tmp_path, double_well2):
    s0 = gad.GADState(x=np.array([0.2, 0.1]), v=np.array([1.0, 0.0]))
    traj = gad.run(double_well2, s0, dt=0.02, max_steps=200, tol=1e-12, record_every=10)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,v0,v1,grad_norm"
    assert len(lines) == len(traj.times) + 1


# -- sphere variant -----------------------------------------------------------


def test_manifold_equilibrium_fixed(sphere_quad):
    s = gad.GADState(x=np.array([0.0, 1.0, 0.0]), v=np.array([1.0, 0.0, 0.0]))
    s2 = gad.euler_step(sphere_quad, s, dt=0.01, on_sphere=True)
    assert np.allclose(s2.x, s.x, atol=1e-14)
    assert np.allclose(s2.v, s.v, atol=1e-14)


def test_manifold_converges_to_constrained_saddle(sphere_quad):
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, 0.02, 0.03])
    x0 /= np.linalg.norm(x0)
    v0 = rng.standard_normal(3)
    s0 = gad.GADState(x=x0, v=v0)
    traj = gad.run(sphere_quad, s0, dt=0.02, max_steps=40000, tol=1e-9, on_sphere=True)
    assert traj.status == "converged"
    assert min(np.linalg.norm(traj.x - np.array([0.0, 1.0, 0.0])),
               np.linalg.norm(traj.x + np.array([0.0, 1.0, 0.0]))) < 1e-6


def test_manifold_constraint_drift(sphere_quad):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    s = gad.GADState(x=x, v=rng.standard_normal(3))
    worst = 0.0
    for _ in range(10000):
        s = gad.euler_step(sphere_quad, s, dt=0.005, on_sphere=True)
        worst = max(worst, abs(np.linalg.norm(s.x) - 1.0))
    assert worst <= 1e-12
