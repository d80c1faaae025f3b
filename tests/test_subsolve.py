import numpy as np
import pytest

import saddlekit as sk
from saddlekit.errors import SubsolveError
from saddlekit.subsolve import SubsolveConfig, minimize, newton_stationary, sd_single_step


def _convex_objective(rng, d=6):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = Q @ np.diag(np.linspace(1.0, 8.0, d)) @ Q.T
    p = sk.from_quadratic(H)
    v = Q[:, 0]
    # anchored far from relevance: the objective is globally convex since
    # all curvatures are positive after reversal of a positive one is avoided
    return sk.build_flat(p, np.zeros(d), v, 0.0, 2.0), H


def test_ncg_exact_on_quadratic():
    rng = np.random.default_rng(0)
    d = 6
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = Q @ np.diag(np.concatenate([[-1.5], np.linspace(1.0, 6.0, d - 1)])) @ Q.T
    p = sk.from_quadratic(H)
    L = sk.build_flat(p, 0.3 * rng.standard_normal(d), Q[:, 0], 1.0, 1.0)
    y0 = rng.standard_normal(d)
    sol = minimize(L, y0, SubsolveConfig(grad_tol=1e-16, max_inner_iters=10 * d))
    # strictly convex quadratic: the unique minimizer is recovered exactly
    assert sol.grad_norm < 1e-11
    d_newton = np.linalg.solve(
        np.column_stack([L.hessian_vec(sol.y, e) for e in np.eye(d)]), -L.gradient(sol.y))
    assert np.linalg.norm(d_newton) < 1e-12


def test_monotonicity_and_reporting(three_hole):
    sp = three_hole.stationary_points[0][0]
    modes = sk.min_modes(three_hole, sp + 0.1, m=1, tol=1e-12)
    L = sk.build_flat(three_hole, sp + 0.1, modes.eigenvectors[:, 0], 1.0, 1.0)
    y0 = sp + 0.1
    sol = minimize(L, y0, SubsolveConfig(grad_tol=1e-12, max_inner_iters=300))
    assert L.value(sol.y) <= L.value(y0) + 1e-12 * (1.0 + abs(L.value(y0)))
    assert np.isclose(sol.grad_norm, np.linalg.norm(L.gradient(sol.y)))
    assert sol.inner_iters > 0


def test_box_is_respected_exactly(three_hole):
    x = np.array([-1.0, 0.0]) + 0.05  # near a deep minimum: objective unbounded
    modes = sk.min_modes(three_hole, x, m=1, tol=1e-10)
    L = sk.build_flat(three_hole, x, modes.eigenvectors[:, 0], 0.0, 2.0)
    r = 0.25
    sol = minimize(L, x, SubsolveConfig(grad_tol=1e-12, max_inner_iters=150, box_radius=r))
    assert np.all(np.abs(sol.y - x) <= r)  # bit-exact clipping
    assert np.max(np.abs(sol.y - x)) == r  # unbounded direction pushes to the face


def test_sd_method_descends(three_hole):
    x = np.array([0.05, -0.2])
    modes = sk.min_modes(three_hole, x, m=1, tol=1e-10)
    L = sk.build_flat(three_hole, x, modes.eigenvectors[:, 0], 1.0, 1.0)
    sol = minimize(L, x, SubsolveConfig(method="sd", grad_tol=1e-8, max_inner_iters=800))
    assert sol.grad_norm <= 1e-8


def test_minimize_relaxes_a_potential_directly(three_hole):
    well = next(q for q, idx in three_hole.stationary_points if idx == 0 and q[0] < 0)
    sol = minimize(three_hole, np.array([-0.8, 0.2]),
                   SubsolveConfig(grad_tol=1e-12, max_inner_iters=200))
    assert sol.grad_norm <= 1e-12
    assert np.linalg.norm(sol.y - well) < 1e-10


def test_sd_single_step_formula(three_hole):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2) * 0.3
    modes = sk.min_modes(three_hole, x, m=1, tol=1e-13)
    v = modes.eigenvectors[:, 0]
    for a, b in ((2.0, 0.0), (1.0, 1.0)):
        L = sk.build_flat(three_hole, x, v, a, b)
        dt = 0.02
        got = sd_single_step(L, x, dt)
        g = three_hole.gradient(x)
        expected = x - dt * (g - (a + b) * (v @ g) * v)
        assert np.allclose(got, expected, atol=1e-15)
    sp = three_hole.stationary_points[0][0]
    modes = sk.min_modes(three_hole, sp, m=1, tol=1e-13)
    L = sk.build_flat(three_hole, sp, modes.eigenvectors[:, 0], 2.0, 0.0)
    assert np.allclose(sd_single_step(L, sp, 0.05), sp, atol=1e-12)


def test_sd_single_step_validation(three_hole):
    L = sk.build_flat(three_hole, np.zeros(2), np.array([1.0, 0.0]), 2.0, 0.0)
    with pytest.raises(ValueError):
        sd_single_step(L, np.zeros(2), -0.1)


def test_subsolve_error_when_no_descent():
    y0 = np.array([1.0, 1.0])

    class Cusped:
        # increases like sqrt(step) in every direction: no step length can
        # satisfy the sufficient-decrease test, even within roundoff slack
        def value(self, y):
            return float(np.sqrt(np.linalg.norm(np.asarray(y) - y0)))

        def gradient(self, y):
            return np.array([1.0, 0.0])

        def hessian_vec(self, y, u):
            return np.asarray(u)

    with pytest.raises(SubsolveError):
        minimize(Cusped(), y0, SubsolveConfig(grad_tol=1e-10, max_inner_iters=50))


def test_config_validation():
    with pytest.raises(ValueError):
        SubsolveConfig(method="bfgs")
    with pytest.raises(ValueError):
        SubsolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SubsolveConfig(box_radius=-0.1)


# -- Newton baseline ---------------------------------------------------------


def test_newton_from_saddle(three_hole):
    sp = three_hole.stationary_points[0][0]
    res = newton_stationary(three_hole, sp, tol=1e-10)
    assert res.converged and res.index == 1 and res.iterations <= 1


def test_newton_finds_maximum_not_saddle(three_hole):
    # the classical failure mode: started between wells it locks onto the peak
    res = newton_stationary(three_hole, np.array([0.0, 0.5]), tol=1e-10)
    assert res.converged
    assert res.index == 2
    peak = [q for q, idx in three_hole.stationary_points if idx == 2][0]
    assert np.linalg.norm(res.x - peak) < 1e-8


def test_newton_failure_modes(three_hole):
    res = newton_stationary(three_hole, np.array([30.0, 30.0]), tol=1e-10, step_limit=5.0)
    assert not res.converged
    assert res.index is None
