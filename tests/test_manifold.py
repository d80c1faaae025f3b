import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.errors import OffManifoldError
from saddlekit.harness import table5_config
from saddlekit.manifold import (
    constrained_index,
    great_circle_angle,
    retract,
    solve_constrained_subproblem,
    tangent_projector,
)
from saddlekit.objective import COEFFICIENT_PRESETS
from saddlekit.subsolve import SubsolveConfig


def test_tangent_project_basic():
    out = tangent_projector(np.array([1.0, 0.0, 0.0]))(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-14)


def test_tangent_project_properties():
    rng = np.random.default_rng(0)
    for d in range(3, 7):
        for _ in range(5):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            proj = tangent_projector(x)
            u = rng.standard_normal(d)
            pu = proj(u)
            assert abs(x @ pu) < 1e-12
            assert np.linalg.norm(proj(pu) - pu) < 1e-12
            # basis columns orthonormal and tangent
            B = proj.basis
            assert B.shape == (d, d - 1)
            assert np.allclose(B.T @ B, np.eye(d - 1), atol=1e-12)
            assert np.linalg.norm(x @ B) < 1e-12


def test_tangent_project_requires_feasible():
    with pytest.raises(OffManifoldError):
        tangent_projector(np.array([1.2, 0.0, 0.0]))


def test_geodesic_project_endpoints():
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert great_circle_angle(x, v, x) == (0.0, 1.0, 0.0)
    th, a, b = great_circle_angle(x, v, v)
    assert np.isclose(th, 0.5 * math.pi) and (a, b) == (0.0, 1.0)


def test_geodesic_project_beats_sweep():
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        v -= (v @ x) * x
        v /= np.linalg.norm(v)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        theta = great_circle_angle(x, v, y)[0]
        pt = x * math.cos(theta) + v * math.sin(theta)
        sweep = np.linspace(-math.pi, math.pi, 1_000_000, endpoint=False)
        dots = (x @ y) * np.cos(sweep) + (v @ y) * np.sin(sweep)
        best = sweep[int(np.argmax(dots))]
        dth = abs((theta - best + math.pi) % (2 * math.pi) - math.pi)
        assert dth < 1e-5
        assert np.isclose(pt @ y, dots.max(), atol=1e-10)


def test_geodesic_project_degenerate_tie():
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    y = np.array([0.0, 0.0, 1.0])  # orthogonal to the circle plane
    assert great_circle_angle(x, v, y) == (0.5 * math.pi, 0.0, 0.0)


def test_constrained_solve_fixed_point(sphere_quad):
    sp = np.array([0.0, 1.0, 0.0])
    basis = tangent_projector(sp).basis
    modes = sk.min_modes(sk.Hessian(sphere_quad, sp, basis), m=1, tol=1e-13)
    L = sk.build_manifold(sphere_quad, sp, modes.eigenvectors[:, 0], *COEFFICIENT_PRESETS["ray"])
    sol = solve_constrained_subproblem(L, sp, SubsolveConfig(grad_tol=1e-13, max_inner_iters=100))
    assert np.linalg.norm(sol.y - sp) < 1e-12


def test_constrained_solve_feasibility_and_tolerance(sphere_quad):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    basis = tangent_projector(x).basis
    modes = sk.min_modes(sk.Hessian(sphere_quad, x, basis), m=1, tol=1e-12)
    L = sk.build_manifold(sphere_quad, x, modes.eigenvectors[:, 0], *COEFFICIENT_PRESETS["mix"])
    sol = solve_constrained_subproblem(L, x, SubsolveConfig(grad_tol=1e-12, max_inner_iters=400))
    assert abs(np.linalg.norm(sol.y) - 1.0) < 1e-12
    assert sol.grad_norm <= 1e-12


def test_constrained_index_classification(sphere_quad):
    assert constrained_index(sphere_quad, np.array([0.0, 1.0, 0.0])) == 1
    assert constrained_index(sphere_quad, np.array([0.0, -1.0, 0.0])) == 1
    assert constrained_index(sphere_quad, np.array([1.0, 0.0, 0.0])) == 0
    assert constrained_index(sphere_quad, np.array([0.0, 0.0, 1.0])) == 2


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_constrained_index_of_rotated_quadratic(d):
    # x^T A x / 2 with A = Q diag(a) Q^T is critical on the sphere at +-Q e_k,
    # where the multiplier x.grad V = a_k and the intrinsic Hessian has
    # eigenvalues a_j - a_k (j != k); off the coordinate axes this checks
    # the multiplier term, not just the projected Hessian
    rng = np.random.default_rng(10 + d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = rng.permutation(np.linspace(-2.0, 3.0, d))
    p = sk.from_quadratic(Q @ np.diag(a) @ Q.T)
    for k in range(d):
        for sign in (1.0, -1.0):
            assert constrained_index(p, sign * Q[:, k]) == int(np.sum(a < a[k]))


def test_sphere_search_protocol(sphere_quad):
    # geodesic constructions from a start near the constrained minimum
    rng = np.random.default_rng(4)
    e1 = np.array([1.0, 0.0, 0.0])
    refs = [np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    for variant in ("hyperplane", "ray"):
        t = rng.standard_normal(3)
        t -= (t @ e1) * e1
        t /= np.linalg.norm(t)
        x0 = math.cos(0.1) * e1 + math.sin(0.1) * t
        rec = sk.run(sphere_quad, x0, table5_config(variant))
        assert rec.converged
        assert rec.terminal_index == 1
        assert min(np.linalg.norm(rec.x - r) for r in refs) < 1e-13
        # iterates stay on the sphere
        for _, x, *_ in rec.rows:
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_a_start_the_first_projector_accepts_is_accepted_throughout(sphere_quad):
    # one rule says what is on the sphere: a start 5e-9 off it passes the
    # first projector, so the objectives built on it accept it too and the
    # run proceeds; 1e-6 off, the first projector refuses it before any row
    x0 = np.array([math.cos(0.1), math.sin(0.1), 0.0])
    rec = sk.run(sphere_quad, (1.0 + 5e-9) * x0, table5_config("ray"))
    assert (rec.status, rec.iterations, rec.terminal_index) == ("converged", 2, 1)
    with pytest.raises(OffManifoldError, match="off the unit sphere"):
        sk.run(sphere_quad, (1.0 + 1e-6) * x0, table5_config("ray"))


def test_retraction_never_leaves_sphere():
    rng = np.random.default_rng(5)
    x = np.array([1.0, 0.0, 0.0])
    for _ in range(1000):
        step = 0.3 * rng.standard_normal(3)
        x = retract(x, step - (step @ x) * x)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
