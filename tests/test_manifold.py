import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.errors import OffManifoldError
from saddlekit.manifold import (
    constrained_index,
    retract,
    solve_constrained_subproblem,
    sphere_geodesic_project,
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
    th, pt = sphere_geodesic_project(x, v, x)
    assert th == 0.0 and np.allclose(pt, x)
    th, pt = sphere_geodesic_project(x, v, v)
    assert np.isclose(th, 0.5 * math.pi) and np.allclose(pt, v)


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
        theta, pt = sphere_geodesic_project(x, v, y)
        sweep = np.linspace(-math.pi, math.pi, 1_000_000, endpoint=False)
        dots = (x @ y) * np.cos(sweep) + (v @ y) * np.sin(sweep)
        best = sweep[int(np.argmax(dots))]
        dth = abs((theta - best + math.pi) % (2 * math.pi) - math.pi)
        assert dth < 1e-5
        assert np.isclose(pt @ y, dots.max(), atol=1e-10)


def test_geodesic_project_degenerate_tie_warns():
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    y = np.array([0.0, 0.0, 1.0])  # orthogonal to the circle plane
    with pytest.warns(RuntimeWarning):
        th, _ = sphere_geodesic_project(x, v, y)
    assert np.isclose(th, 0.5 * math.pi)


def test_geodesic_project_validation():
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(OffManifoldError):
        sphere_geodesic_project(2 * x, x, x)
    with pytest.raises(ValueError):
        sphere_geodesic_project(x, x, x)  # v not tangent


def test_constrained_solve_fixed_point(sphere_quad):
    sp = np.array([0.0, 1.0, 0.0])
    basis = tangent_projector(sp).basis
    modes = sk.min_modes(sphere_quad, sp, m=1, tol=1e-13, basis=basis)
    L = sk.build_manifold(sphere_quad, sp, modes.eigenvectors[:, 0], *COEFFICIENT_PRESETS["ray"])
    sol = solve_constrained_subproblem(L, sp, SubsolveConfig(grad_tol=1e-13, max_inner_iters=100))
    assert np.linalg.norm(sol.y - sp) < 1e-12


def test_constrained_solve_feasibility_and_tolerance(sphere_quad):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    basis = tangent_projector(x).basis
    modes = sk.min_modes(sphere_quad, x, m=1, tol=1e-12, basis=basis)
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
        cfg = sk.SearchConfig(on_sphere=True, sphere_variant=variant,
                              grad_tol=5e-14, eig_tol=1e-12,
                              subsolve=SubsolveConfig(grad_tol=1e-15, max_inner_iters=500),
                              max_outer_iters=8)
        rec = sk.run(sphere_quad, x0, cfg)
        assert rec.converged
        assert rec.terminal_index == 1
        assert min(np.linalg.norm(rec.x - r) for r in refs) < 1e-13
        # iterates stay on the sphere
        for _, x, *_ in rec.rows:
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_retraction_never_leaves_sphere():
    rng = np.random.default_rng(5)
    x = np.array([1.0, 0.0, 0.0])
    for _ in range(1000):
        step = 0.3 * rng.standard_normal(3)
        x = retract(x, step - (step @ x) * x)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
