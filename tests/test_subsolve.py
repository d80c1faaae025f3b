import itertools

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.eigen import cholesky_solver, jacobi_solver
from saddlekit.errors import SubsolveError
from saddlekit.eigen import INDEX_MAX_DIMENSION
from saddlekit.search import newton_stationary
from saddlekit.subsolve import (
    FlatGeometry,
    SubsolveConfig,
    minimize,
    sd_single_step,
)

from conftest import make_nan_second_derivative_models


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
    modes = sk.min_modes(sk.Hessian(three_hole, sp + 0.1), m=1, tol=1e-12)
    L = sk.build_flat(three_hole, sp + 0.1, modes.eigenvectors[:, 0], 1.0, 1.0)
    y0 = sp + 0.1
    sol = minimize(L, y0, SubsolveConfig(grad_tol=1e-12, max_inner_iters=300))
    assert L.value(sol.y) <= L.value(y0) + 1e-12 * (1.0 + abs(L.value(y0)))
    assert np.isclose(sol.grad_norm, np.linalg.norm(L.gradient(sol.y)))
    assert sol.inner_iters > 0


def test_box_is_respected_exactly(three_hole):
    x = np.array([-1.0, 0.0]) + 0.05  # near a deep minimum: objective unbounded
    modes = sk.min_modes(sk.Hessian(three_hole, x), m=1, tol=1e-10)
    L = sk.build_flat(three_hole, x, modes.eigenvectors[:, 0], 0.0, 2.0)
    r = 0.25
    sol = minimize(L, x, SubsolveConfig(grad_tol=1e-12, max_inner_iters=150, box_radius=r))
    assert np.all(np.abs(sol.y - x) <= r)  # bit-exact clipping
    assert np.max(np.abs(sol.y - x)) == r  # unbounded direction pushes to the face


def _box_kkt_point(A, lo, hi):
    """The minimizer of ``y.A y / 2`` (SPD ``A``) on the box ``[lo, hi]``, by
    trying every active set for the one whose point meets the KKT conditions."""
    d = A.shape[0]
    for active in itertools.product((-1, 0, 1), repeat=d):
        act = np.array(active)
        y = np.where(act < 0, lo, hi)
        free = act == 0
        y[free] = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, ~free)] @ y[~free])
        g = A @ y
        if (np.all((y >= lo) & (y <= hi)) and np.all(g[act < 0] >= 0.0)
                and np.all(g[act > 0] <= 0.0)):
            return y
    raise AssertionError("no active set meets the KKT conditions")


def test_box_limited_solve_ends_at_the_box_constrained_minimizer():
    # the quadratic's minimizer, the origin, lies outside the box: the solve
    # holds each coordinate on a face whose gradient points out of the box
    # and stops on the gradient projected so, the box problem's KKT residual
    A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.4], [0.5, -0.4, 2.0]])
    y0 = -np.linalg.solve(A, [3.0, -2.0, 0.2])
    r = 0.25
    cfg = SubsolveConfig(grad_tol=1e-12, max_inner_iters=200, box_radius=r)
    sol = minimize(sk.from_quadratic(A), y0, cfg)
    kkt = _box_kkt_point(A, y0 - r, y0 + r)
    assert np.max(np.abs(sol.y - kkt)) <= 1e-12
    assert sol.inner_iters <= 5 and sol.grad_norm <= cfg.grad_tol


def test_escape_like_solve_stops_on_the_face():
    # y0^2 - y1^2 + 0.3 y0 y1 is unbounded along y1: the solve ends on the
    # face y1 = 0.27, at the minimizer over y0 there
    p = sk.from_quadratic(np.array([[2.0, 0.3], [0.3, -2.0]]))
    y0 = np.array([0.01, 0.02])
    cfg = SubsolveConfig(grad_tol=1e-12, max_inner_iters=200, box_radius=0.25)
    sol = minimize(p, y0, cfg)
    assert sol.y[1] == y0[1] + 0.25
    assert abs(sol.y[0] + 0.15 * sol.y[1]) <= 1e-12
    assert sol.inner_iters <= 5 and sol.grad_norm <= cfg.grad_tol


def test_flat_projector_holds_the_face_bound_coordinates():
    y0 = np.zeros(3)
    g = np.array([1.0, -1.0, 1.0])
    boxed = FlatGeometry(y0, SubsolveConfig(box_radius=0.5))
    # off the faces, or without a box, the gradient itself comes back
    assert boxed.projector(y0, g)(g) is g
    assert FlatGeometry(y0, SubsolveConfig()).projector(y0 + 0.5, g)(g) is g
    # on the lower face a positive component points out of the box, on the
    # upper face a negative one; an inward-pointing one stays free
    y = np.array([-0.5, 0.5, 0.5])
    np.testing.assert_array_equal(boxed.projector(y, g)(g), [0.0, 0.0, 1.0])


def test_jacobi_solver_scales_by_the_floored_hessian_diagonal(morse, morse_saddle):
    # no positive entry in the diagonal: no map
    assert jacobi_solver(np.array([0.0, -1.0, 0.0])) is None
    # on the island, the assembled Hessian's diagonal floored at 5% of its
    # median positive entry: bitwise on vectors, column by column on the
    # (n, 3) blocks of the eigensolver's residuals
    x = morse_saddle
    d = np.diagonal(morse.hessian_fn(x))
    precondition = jacobi_solver(d)
    g = morse.gradient(x + 0.01)
    scale = 1.0 / np.maximum(d, 0.05 * np.median(d[d > 0]))
    np.testing.assert_array_equal(precondition(g), g * scale)
    R = np.random.default_rng(6).standard_normal((3, d.size)).T
    W = precondition(R)
    assert W.shape == R.shape
    for r, w in zip(R.T, W.T):
        np.testing.assert_array_equal(w, precondition(r))


def test_minimize_relaxes_a_potential_directly(three_hole):
    well = next(q for q, idx in three_hole.stationary_points if idx == 0 and q[0] < 0)
    sol = minimize(three_hole, np.array([-0.8, 0.2]),
                   SubsolveConfig(grad_tol=1e-12, max_inner_iters=200))
    assert sol.grad_norm <= 1e-12
    assert np.linalg.norm(sol.y - well) < 1e-10


def test_sd_single_step_formula(three_hole):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2) * 0.3
    modes = sk.min_modes(sk.Hessian(three_hole, x), m=1, tol=1e-13)
    v = modes.eigenvectors[:, 0]
    for a, b in ((2.0, 0.0), (1.0, 1.0)):
        L = sk.build_flat(three_hole, x, v, a, b)
        dt = 0.02
        got = sd_single_step(L, x, dt)
        g = three_hole.gradient(x)
        expected = x - dt * (g - (a + b) * (v @ g) * v)
        assert np.allclose(got, expected, atol=1e-15)
    sp = three_hole.stationary_points[0][0]
    modes = sk.min_modes(sk.Hessian(three_hole, sp), m=1, tol=1e-13)
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


@pytest.mark.parametrize("n", [40, 64, 128, 150, 200])
def test_cholesky_solver_matches_dense_solve(n):
    # one partial row block, whole blocks only, whole blocks and a partial
    # one; vectors, and the (n, k) blocks of the eigensolver's preconditioner
    rng = np.random.default_rng(4)
    A = rng.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    solve = cholesky_solver(K)
    G = rng.standard_normal((3, n)).T
    Z = solve(G)
    assert Z.shape == (n, 3)
    for g, z_block in zip(G.T, Z.T):
        z, ref = solve(g), np.linalg.solve(K, g)
        assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(K @ z - g) <= 1e-13 * np.linalg.norm(g)
        assert np.linalg.norm(z_block - ref) <= 1e-13 * np.linalg.norm(ref)


def test_cholesky_solver_refuses_an_indefinite_matrix():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    K = Q @ np.diag(np.concatenate([[-0.5], np.linspace(1.0, 4.0, 79)])) @ Q.T
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_solver(K)


def test_flat_descent_preconditions_each_gradient_once():
    # flat space: the previous direction's preconditioned gradient is reused
    # for the conjugacy coefficient, so one apply per accepted step
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    H = Q @ np.diag(np.linspace(1.0, 8.0, 8)) @ Q.T
    solve = cholesky_solver(H + np.diag(np.linspace(0.0, 1.0, 8)))
    applied = []

    def precondition(g):
        applied.append(g)
        return solve(g)

    sol = minimize(sk.from_quadratic(H), np.ones(8),
                   SubsolveConfig(grad_tol=1e-13, max_inner_iters=50), precondition=precondition)
    assert sol.inner_iters > 2
    assert sol.grad_norm <= 1e-13
    assert len(applied) == sol.inner_iters + 1


def test_config_validation():
    with pytest.raises(ValueError):
        SubsolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SubsolveConfig(box_radius=-0.1)


# -- Newton baseline ---------------------------------------------------------


def test_newton_from_saddle(three_hole):
    sp = three_hole.stationary_points[0][0]
    rec = newton_stationary(three_hole, sp, tol=1e-10)
    assert rec.converged and rec.terminal_index == 1 and rec.iterations <= 1


def test_newton_finds_maximum_not_saddle(three_hole):
    # the classical failure mode: started between wells it locks onto the peak
    rec = newton_stationary(three_hole, np.array([0.0, 0.5]), tol=1e-10)
    assert rec.converged
    assert rec.terminal_index == 2
    peak = [q for q, idx in three_hole.stationary_points if idx == 2][0]
    assert np.linalg.norm(rec.x - peak) < 1e-8


def test_newton_failure_modes(three_hole):
    rec = newton_stationary(three_hole, np.array([30.0, 30.0]), tol=1e-10)
    assert not rec.converged
    assert rec.terminal_index is None
    assert (rec.iterations, rec.message) == (0, "step exceeded limit")


def test_newton_non_finite_hessian_at_converged_point_fails():
    # started on the stationary point: the index check meets a NaN Hessian,
    # which ends the run as a failure instead of raising out of it
    for p in make_nan_second_derivative_models():
        rec = newton_stationary(p, np.zeros(2))
        assert (rec.terminal_index, rec.converged, rec.iterations, rec.message) == (
            None, False, 0, "terminal point: non-finite Hessian")


def test_newton_above_the_dense_cap_fails_instead_of_raising():
    # a model too large for a dense Hessian ends the run failed at its
    # first iterate, with the cap's message, instead of raising out of it
    d = INDEX_MAX_DIMENSION + 1
    p = sk.PotentialModel("bowl", d, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                          lambda x, u: u.copy())
    rec = newton_stationary(p, np.ones(d))
    assert (rec.status, rec.iterations, rec.terminal_index) == ("failed", 0, None)
    assert rec.message == f"dense Hessian capped at dimension {INDEX_MAX_DIMENSION}, model has {d}"
    assert np.array_equal(rec.x, np.ones(d))


def test_newton_keeps_one_row_per_iterate_and_stops_at_its_budget(three_hole):
    x0 = np.array([0.3, -0.1])
    rec = newton_stationary(three_hole, x0, tol=1e-300, max_iters=4)
    assert (rec.status, rec.message, rec.iterations) == ("max_iters", "", 4)
    assert [(lam, inner) for _, _, _, _, lam, inner in rec.rows] == [(None, 0)] * 5
    assert rec.rows[0][3] == float(np.linalg.norm(three_hole.gradient(x0), np.inf))
