import dataclasses

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.errors import EigensolveError
from saddlekit import eigen, manifold
from saddlekit.manifold import tangent_projector


def test_double_well_min_mode_at_saddle(double_well2):
    res = sk.min_modes(sk.Hessian(double_well2, np.zeros(2)), m=1, tol=1e-12)
    assert np.isclose(res.eigenvalues[0], -1.0, atol=1e-10)
    assert abs(abs(res.eigenvectors[0, 0]) - 1.0) < 1e-10


def test_double_well_mode_switch(double_well2):
    # for |x| past the crossover the soft mode flips to the y axis
    res = sk.min_modes(sk.Hessian(double_well2, np.array([1.2, 0.0])), m=1, tol=1e-12)
    assert np.isclose(res.eigenvalues[0], 2.0, atol=1e-10)
    assert abs(abs(res.eigenvectors[1, 0]) - 1.0) < 1e-10


def test_result_contract(double_well2):
    res = sk.min_modes(sk.Hessian(double_well2, np.array([0.5, 0.1])), m=2, tol=1e-12)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    assert np.allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(2), atol=1e-10)
    assert np.all(res.residual_norms <= 1e-12 * np.maximum(1.0, np.abs(res.eigenvalues)))


def test_three_hole_saddle_is_index_one(three_hole):
    sp = three_hole.stationary_points[0][0]
    evals, _ = sk.dense_eigensolve(three_hole, sp)
    assert evals[0] < 0 < evals[1]


def test_dense_eigensolve_cap(three_hole, monkeypatch):
    monkeypatch.setattr(eigen, "INDEX_MAX_DIMENSION", 1)
    with pytest.raises(ValueError):
        sk.dense_eigensolve(three_hole, np.zeros(2))


@pytest.mark.parametrize("name,params", [
    ("double_well", {"mu": 2.0}),
    ("three_hole", {}),
    ("sphere_quadratic", {}),
])
def test_agreement_with_dense_oracle(name, params):
    p = sk.make_builtin(name, params)
    rng = np.random.default_rng(11)
    tol = 1e-10
    for _ in range(4):
        x = 0.8 * rng.standard_normal(p.dimension)
        dense = sk.dense_eigensolve(p, x)
        gap = dense.eigenvalues[1] - dense.eigenvalues[0]
        res = sk.min_modes(sk.Hessian(p, x), m=1, tol=tol)
        assert abs(res.eigenvalues[0] - dense.eigenvalues[0]) <= 10 * tol
        if gap > 1e-6:
            v, vd = res.eigenvectors[:, 0], dense.eigenvectors[:, 0]
            angle = np.sqrt(max(0.0, 1.0 - (v @ vd) ** 2))
            assert angle <= 1e-6


def test_quadratic_block(double_well2):
    H = np.diag([-1.0, 2.0, 3.5, 5.0, 9.0])
    p = sk.from_quadratic(H)
    res = sk.min_modes(sk.Hessian(p, np.zeros(5)), m=2, tol=1e-11)
    assert np.allclose(res.eigenvalues, [-1.0, 2.0], atol=1e-9)


def test_warm_start_seeds_iteration(three_hole):
    x = np.array([0.2, -0.1])
    cold = sk.min_modes(sk.Hessian(three_hole, x), m=1, tol=1e-12)
    warm = sk.min_modes(sk.Hessian(three_hole, x + 1e-3), m=1, v0=cold.eigenvectors, tol=1e-12)
    assert warm.iterations <= max(cold.iterations, 3)


def test_projected_min_mode_matches_reduced_oracle(sphere_quad):
    x = np.array([0.0, 1.0, 0.0])
    proj = tangent_projector(x)
    res = sk.min_modes(sk.Hessian(sphere_quad, x, proj.basis), m=1, tol=1e-12)
    # reduced 2x2 oracle
    B = proj.basis
    Hk = np.array([[B[:, i] @ sphere_quad.hessian_vec(x, B[:, j]) for j in range(2)]
                   for i in range(2)])
    evals = np.linalg.eigvalsh(0.5 * (Hk + Hk.T))
    assert abs(res.eigenvalues[0] - evals[0]) < 1e-10
    # eigenvector stays in the tangent space
    v = res.eigenvectors[:, 0]
    assert np.linalg.norm(v - proj(v)) <= 1e-10
    assert abs(v @ x) <= 1e-10


def test_projected_min_mode_random_tangent_plane(sphere_quad):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    proj = tangent_projector(x)
    res = sk.min_modes(sk.Hessian(sphere_quad, x, proj.basis), m=2, tol=1e-12)
    B = proj.basis
    Hk = B.T @ np.column_stack([sphere_quad.hessian_vec(x, B[:, j]) for j in range(2)])
    evals = np.linalg.eigvalsh(0.5 * (Hk + Hk.T))
    assert np.allclose(res.eigenvalues, evals, atol=1e-9)


def test_assembled_hessian_in_a_tangent_basis_matches_products(sphere_quad):
    # an assembled model restricted to a tangent basis: the same symmetric
    # B^T H B, the same modes and the same intrinsic index as from products
    assembled = dataclasses.replace(sphere_quad, hessian_fn=lambda x: np.diag([2.0, 4.0, 6.0]))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    B = tangent_projector(x).basis
    Hk = sk.Hessian(assembled, x, B).matrix()
    np.testing.assert_array_equal(Hk, Hk.T)
    assert np.abs(Hk - sk.Hessian(sphere_quad, x, B).matrix()).max() <= 1e-14
    got = sk.min_modes(sk.Hessian(assembled, x, B), m=2, tol=1e-12)
    ref = sk.min_modes(sk.Hessian(sphere_quad, x, B), m=2, tol=1e-12)
    assert np.allclose(got.eigenvalues, ref.eigenvalues, atol=1e-12)
    assert manifold.constrained_index(assembled, x) == manifold.constrained_index(sphere_quad, x)


def test_nonconvergence_carries_best_result(monkeypatch):
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    evals = np.concatenate([[1.0, 1.0 + 1e-9], np.linspace(2.0, 60.0, 78)])
    p = sk.from_quadratic(Q @ np.diag(evals) @ Q.T)
    monkeypatch.setattr(eigen, "MAX_ITERS", 2)
    monkeypatch.setattr(eigen, "GUARD", 0)
    with pytest.raises(EigensolveError, match="within 2 iterations") as err:
        sk.min_modes(sk.Hessian(p, np.zeros(80)), m=1, tol=1e-14)
    best = err.value.result
    assert best is not None
    assert best.eigenvalues.shape == (1,)
    assert best.iterations == 2


def test_exhausted_search_space_missing_the_target_raises():
    # a non-symmetric product: one Rayleigh-Ritz step on the spanning block
    # leaves a residual of 0.15 that no further direction can reduce
    A = np.array([[-1.0, 0.3], [0.0, 2.0]])
    p = sk.PotentialModel("skewed", 2, lambda x: 0.5 * float(x @ A @ x),
                          lambda x: 0.5 * (A + A.T) @ x, lambda x, u: A @ u)
    with pytest.raises(EigensolveError, match="min-mode iteration did not reach") as err:
        sk.min_modes(sk.Hessian(p, np.zeros(2)), m=1, tol=1e-10)
    best = err.value.result
    assert best.iterations == 1
    assert best.residual_norms[0] == pytest.approx(0.15)


def test_near_degenerate_flag():
    p = sk.from_quadratic(np.diag([1.0, 1.0, 3.0]))
    res = sk.min_modes(sk.Hessian(p, np.zeros(3)), m=1, tol=1e-10)
    assert res.near_degenerate


def test_too_many_modes(double_well2):
    with pytest.raises(ValueError):
        sk.min_modes(sk.Hessian(double_well2, np.zeros(2)), m=3)


def test_stationary_index_classification(three_hole):
    for q, idx in three_hole.stationary_points:
        assert sk.stationary_index(three_hole, q) == idx


@pytest.mark.parametrize("amp", [0.0, 0.05])
def test_morse_min_mode_from_assembled_hessian_matches_products(morse, morse_saddle, amp):
    # at and near the stored saddle, at the benchmark's eigensolver
    # tolerance, both preconditioned by the Jacobi map of the diagonal
    x = morse_saddle + amp * np.random.default_rng(31).standard_normal(morse_saddle.size)
    assembled = sk.Hessian(morse, x)
    products_only = sk.Hessian(dataclasses.replace(morse, hessian_fn=None), x)
    products_only._jacobi = assembled.jacobi  # a products-only Hessian has no Jacobi map
    got = sk.min_modes(assembled, m=1, tol=1e-9)
    ref = sk.min_modes(products_only, m=1, tol=1e-9)
    lam = ref.eigenvalues[0]
    assert abs(got.eigenvalues[0] - lam) <= 1e-10 * max(1.0, abs(lam))
    assert abs(got.eigenvectors[:, 0] @ ref.eigenvectors[:, 0]) >= 1.0 - 1e-10
    assert got.iterations == ref.iterations


def test_min_modes_reads_a_caller_assembled_hessian(morse, morse_saddle):
    # the products of a matrix the caller assembled: the same solve as
    # assembling it in the Hessian, and the matrix is left as it was
    x = morse_saddle + 0.05 * np.random.default_rng(32).standard_normal(morse_saddle.size)
    H = morse.hessian_fn(x)
    kept = H.copy()
    got = sk.min_modes(sk.Hessian(dataclasses.replace(morse, hessian_fn=lambda y: H), x),
                       m=1, tol=1e-9)
    ref = sk.min_modes(sk.Hessian(morse, x), m=1, tol=1e-9)
    np.testing.assert_array_equal(got.eigenvectors, ref.eigenvectors)
    np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(H, kept)


@pytest.mark.parametrize("amp", [0.0, 0.05])
def test_factor_preconditioned_min_mode_matches_jacobi_and_dense(morse, morse_saddle, amp):
    # as on a search's first island step: a loose Jacobi solve gives u, the
    # flipped Hessian K~ = H - c u u^T is factored, and the solve reads
    # K~ U + c u (u^T U) preconditioned by K~^{-1}
    x = morse_saddle + amp * np.random.default_rng(33).standard_normal(morse_saddle.size)
    tol = 1e-9
    h = sk.Hessian(morse, x)
    loose = sk.min_modes(h, m=1, tol=0.3)
    u, c = loose.eigenvectors[:, 0], 2.0 * min(loose.eigenvalues[0], 0.0)
    h.flip(u, c)
    assert h.factor is not None
    got = sk.min_modes(h, m=1, v0=loose.eigenvectors, tol=tol)
    jacobi = sk.min_modes(sk.Hessian(morse, x), m=1, tol=tol)
    dense = sk.dense_eigensolve(morse, x)
    lam, v = got.eigenvalues[0], got.eigenvectors[:, 0]
    for ref_lam, ref_v in ((jacobi.eigenvalues[0], jacobi.eigenvectors[:, 0]),
                           (dense.eigenvalues[0], dense.eigenvectors[:, 0])):
        assert abs(lam - ref_lam) <= 1e-10 * max(1.0, abs(ref_lam))
        assert abs(v @ ref_v) >= 1.0 - 1e-10
    assert got.iterations < jacobi.iterations / 3
    # the reported residual is that of the real Hessian, to roundoff
    H = morse.hessian_fn(x)
    res = np.linalg.norm(H @ v - lam * v)
    assert res <= tol * max(1.0, abs(lam))
    assert abs(res - got.residual_norms[0]) <= 1e-12
    assert dense.eigenvalues[1] - dense.eigenvalues[0] > 0.1
    assert not got.near_degenerate and not jacobi.near_degenerate


def test_factor_preconditioned_min_mode_flags_a_degenerate_pair():
    # the preconditioner leaves the gap estimate that of the real spectrum
    H = np.diag([-1.0, -1.0, 0.5, 2.0, 3.0, 4.0])
    h = sk.Hessian(dataclasses.replace(sk.from_quadratic(H), hessian_fn=lambda x: H), np.ones(6))
    h.factor = eigen.cholesky_solver(H + 2.5 * np.eye(6))
    res = sk.min_modes(h, m=1, tol=1e-12)
    assert res.near_degenerate
    assert res.eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)


def test_spanning_block_adds_no_roundoff_directions():
    # in 2-d one mode and one guard vector span the space, so with finite-
    # difference products the projected residuals are roundoff, not new
    # directions (the Hessian's eigenvalues here are -2 and about 660).  The
    # difference Hessian's asymmetry leaves a residual above the target, so
    # the exhausted solve raises with its one Rayleigh-Ritz result.
    p = sk.PotentialModel("logwell", 2, lambda x: np.log1p(x[0]) ** 2 - x[1] ** 2,
                          lambda x: np.array([2.0 * np.log1p(x[0]) / (1.0 + x[0]), -2.0 * x[1]]))
    with pytest.raises(EigensolveError, match="min-mode iteration did not reach") as err:
        sk.min_modes(sk.Hessian(p, np.array([-0.9, 0.5])), m=1, tol=1e-10)
    res = err.value.result
    assert res.iterations == 1 and not res.near_degenerate
    assert res.eigenvalues[0] == pytest.approx(-2.0, abs=1e-6)
