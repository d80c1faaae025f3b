import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddlekit as sk
from saddlekit.errors import CoefficientError, DimensionError, OffManifoldError
from saddlekit.objective import COEFFICIENT_PRESETS

from conftest import fd_gradient, make_index2_cubic


def _dense_hessian_of(L, y):
    d = y.size
    H = np.column_stack([L.hessian_vec(y, e) for e in np.eye(d)])
    return 0.5 * (H + H.T)


def test_coefficient_condition():
    p = sk.make_builtin("double_well")
    v = np.array([1.0, 0.0])
    with pytest.raises(CoefficientError):
        sk.build_flat(p, np.zeros(2), v, 0.0, 0.0)
    with pytest.raises(CoefficientError):
        sk.build_flat(p, np.zeros(2), v, 0.5, 0.5)  # boundary excluded
    sk.build_flat(p, np.zeros(2), v, 1.0, 1.0)  # sums above 1 accepted


def test_direction_must_be_unit():
    p = sk.make_builtin("double_well")
    with pytest.raises(ValueError):
        sk.build_flat(p, np.zeros(2), np.array([1.0, 1.0]), 2.0, 0.0)


def test_value_at_anchor_collapses(three_hole):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    for a, b in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0), (1.3, 0.4)):
        L = sk.build_flat(three_hole, x, v, a, b)
        assert np.isclose(L.value(x), (1.0 - b) * three_hole.energy(x), atol=1e-12)


def test_double_well_hyperplane_preset_closed_form(double_well2):
    # with the mode along x, the (2, 0) objective flips the quartic term and
    # keeps the transverse parabola, shifted by a constant of the anchor
    x = np.array([0.3, -0.2])
    L = sk.build_flat(double_well2, x, np.array([1.0, 0.0]), 2.0, 0.0)
    const = 0.5 * (x[0] ** 2 - 1.0) ** 2
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.standard_normal(2)
        expected = -0.25 * (y[0] ** 2 - 1.0) ** 2 + 0.5 * 2.0 * y[1] ** 2 + const
        assert np.isclose(L.value(y), expected, atol=1e-12)


def test_quadratic_worked_example():
    # diagonal quadratic with one negative eigenvalue: both presets are
    # convex quadratics sharing Hessian diag(|mu1|, mu2, ...), minimizer 0,
    # and differ by twice the anchor energy
    mu = np.array([-1.0, 2.0, 3.0])
    p = sk.from_quadratic(np.diag(mu))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    v = np.array([1.0, 0.0, 0.0])
    L1 = sk.build_flat(p, x, v, 2.0, 0.0)
    L2 = sk.build_flat(p, x, v, 0.0, 2.0)
    for _ in range(5):
        y = rng.standard_normal(3)
        w1 = mu[0] * x[0] ** 2 - 0.5 * mu[0] * y[0] ** 2 + 0.5 * (mu[1] * y[1] ** 2 + mu[2] * y[2] ** 2)
        w2 = -(mu[1] * x[1] ** 2 + mu[2] * x[2] ** 2) - 0.5 * mu[0] * y[0] ** 2 \
            + 0.5 * (mu[1] * y[1] ** 2 + mu[2] * y[2] ** 2)
        assert np.isclose(L1.value(y), w1, atol=1e-12)
        assert np.isclose(L2.value(y), w2, atol=1e-12)
        assert np.isclose(L1.value(y) - L2.value(y), 2.0 * p.energy(x), atol=1e-12)
    H = _dense_hessian_of(L1, x)
    assert np.allclose(np.linalg.eigvalsh(H), [1.0, 2.0, 3.0], atol=1e-10)


def test_gradient_at_anchor_formula(three_hole):
    rng = np.random.default_rng(4)
    for a, b in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0)):
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        L = sk.build_flat(three_hole, x, v, a, b)
        g = three_hole.gradient(x)
        expected = g - (a + b) * (v @ g) * v
        assert np.allclose(L.gradient(x), expected, atol=1e-12)


def test_gradient_vanishes_at_stationary_anchor(three_hole):
    sp = three_hole.stationary_points[0][0]
    for a, b in ((2.0, 0.0), (0.7, 0.7), (0.0, 2.0)):
        v = np.array([np.cos(0.3), np.sin(0.3)])
        L = sk.build_flat(three_hole, sp, v, a, b)
        assert np.linalg.norm(L.gradient(sp)) < 1e-9


def test_gradient_matches_fd(three_hole):
    rng = np.random.default_rng(5)
    x = np.array([0.1, -0.25])
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    for a, b in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0)):
        L = sk.build_flat(three_hole, x, v, a, b)
        for _ in range(3):
            y = x + 0.3 * rng.standard_normal(2)
            gfd = fd_gradient(L.value, y)
            g = L.gradient(y)
            assert np.linalg.norm(g - gfd) <= 1e-6 * max(1.0, np.linalg.norm(gfd))


def test_hessian_vec_matches_fd_of_gradient(three_hole):
    rng = np.random.default_rng(6)
    x = np.array([-0.2, 0.4])
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    L = sk.build_flat(three_hole, x, v, 1.0, 1.0)
    y = x + 0.2 * rng.standard_normal(2)
    u = rng.standard_normal(2)
    h = 1e-6
    un = np.linalg.norm(u)
    hfd = (L.gradient(y + (h / un) * u) - L.gradient(y - (h / un) * u)) * (un / (2 * h))
    assert np.linalg.norm(L.hessian_vec(y, u) - hfd) <= 1e-5 * max(1.0, np.linalg.norm(hfd))
    # symmetry
    w = rng.standard_normal(2)
    assert abs(u @ L.hessian_vec(y, w) - w @ L.hessian_vec(y, u)) < 1e-10


def test_anchor_hessian_spectrum(three_hole):
    sp = three_hole.stationary_points[0][0]
    lam = sk.dense_eigensolve(three_hole, sp).eigenvalues
    modes = sk.min_modes(sk.Hessian(three_hole, sp), m=1, tol=1e-13)
    for a, b in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0), (1.5, 1.5)):
        L = sk.build_flat(three_hole, sp, modes.eigenvectors[:, 0], a, b)
        got = np.linalg.eigvalsh(_dense_hessian_of(L, sp))
        expected = sorted([(1.0 - a - b) * lam[0], lam[1]])
        assert np.allclose(got, expected, rtol=1e-8)


def test_optimal_sum_condition_number():
    diag = np.array([-1.0, 2.0, 3.5, 5.0, 7.0])
    p = sk.from_quadratic(np.diag(diag))
    v = np.eye(5)[:, 0]
    target = 1.0 + diag[1] / abs(diag[0])
    L = sk.build_flat(p, np.zeros(5), v, target / 2, target / 2)
    evals = np.linalg.eigvalsh(_dense_hessian_of(L, np.zeros(5)))
    assert np.isclose(evals[-1] / evals[0], diag[-1] / diag[1], rtol=1e-10)


def test_objective_convex_near_saddle():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    H = Q @ np.diag([-2.0, 1.0, 2.0, 3.0, 4.0]) @ Q.T
    p = sk.from_quadratic(H)
    v = Q[:, 0]
    L = sk.build_flat(p, 0.1 * rng.standard_normal(5), v, 1.0, 1.0)
    y = 0.1 * rng.standard_normal(5)
    evals = np.linalg.eigvalsh(_dense_hessian_of(L, y))
    assert evals[0] > 0


def test_mode_sign_invariance(three_hole):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(2)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    Lp = sk.build_flat(three_hole, x, v, 1.2, 0.6)
    Lm = sk.build_flat(three_hole, x, -v, 1.2, 0.6)
    for _ in range(5):
        y = x + rng.standard_normal(2)
        assert abs(Lp.value(y) - Lm.value(y)) < 1e-12
        assert np.linalg.norm(Lp.gradient(y) - Lm.gradient(y)) < 1e-12


# -- index-m ----------------------------------------------------------------


def test_index_one_reduces_to_flat(three_hole):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    flat = sk.build_flat(three_hole, x, v, 1.4, 0.8)
    gen = sk.build_index_m(three_hole, x, v[:, None],
                           subset_alpha={(0,): 1.4}, subset_beta={(0,): 0.8})
    for _ in range(100):
        y = x + rng.standard_normal(2)
        assert abs(flat.value(y) - gen.value(y)) < 1e-12
    y = x + rng.standard_normal(2)
    assert np.allclose(flat.gradient(y), gen.gradient(y), atol=1e-12)
    u = rng.standard_normal(2)
    assert np.allclose(flat.hessian_vec(y, u), gen.hessian_vec(y, u), atol=1e-12)


def test_index_two_full_reversal():
    p = sk.from_quadratic(np.diag([-2.0, -1.0, 3.0]))
    V2 = np.eye(3)[:, :2]
    L = sk.build_index_m(p, np.zeros(3), V2, subset_alpha={},
                         subset_beta={(0, 1): 2.0})
    evals = np.linalg.eigvalsh(_dense_hessian_of(L, np.zeros(3)))
    assert np.allclose(sorted(evals), [1.0, 2.0, 3.0], atol=1e-10)
    # anchor away from the saddle still minimizes at the saddle (quadratic V)
    x = np.array([0.4, -0.3, 0.2])
    modes = sk.min_modes(sk.Hessian(p, x), m=2, tol=1e-13)
    L = sk.build_index_m(p, x, modes.eigenvectors)
    from saddlekit.subsolve import SubsolveConfig, minimize
    sol = minimize(L, x, SubsolveConfig(grad_tol=1e-14, max_inner_iters=200))
    assert np.linalg.norm(sol.y) < 1e-10


def test_index_m_default_coefficients():
    p = sk.from_quadratic(np.diag([-2.0, -1.0, 3.0]))
    L = sk.build_index_m(p, np.zeros(3), np.eye(3)[:, :2])
    explicit = sk.build_index_m(p, np.zeros(3), np.eye(3)[:, :2], subset_beta={(0, 1): 2.0})
    rng = np.random.default_rng(17)
    for _ in range(5):
        y, u = rng.standard_normal(3), rng.standard_normal(3)
        assert L.value(y) == explicit.value(y)
        assert np.array_equal(L.gradient(y), explicit.gradient(y))
        assert np.array_equal(L.hessian_vec(y, u), explicit.hessian_vec(y, u))


def test_index_m_validation():
    p = sk.from_quadratic(np.diag([-2.0, -1.0, 3.0]))
    V2 = np.eye(3)[:, :2]
    with pytest.raises(CoefficientError):
        sk.build_index_m(p, np.zeros(3), V2, subset_beta={(0, 1): 0.5})
    with pytest.raises(ValueError):
        sk.build_index_m(p, np.zeros(3), np.ones((3, 2)))
    with pytest.raises(ValueError):
        sk.build_index_m(p, np.zeros(3), V2, subset_beta={(2,): 2.0})


def test_index_m_gradient_fd():
    rng = np.random.default_rng(10)
    q = make_index2_cubic()
    x = 0.2 * rng.standard_normal(3)
    modes = sk.min_modes(sk.Hessian(q, x), m=2, tol=1e-12)
    L = sk.build_index_m(q, x, modes.eigenvectors,
                         subset_alpha={(0,): 0.5}, subset_beta={(1,): 0.4, (0, 1): 1.0})
    y = x + 0.1 * rng.standard_normal(3)
    gfd = fd_gradient(L.value, y)
    assert np.linalg.norm(L.gradient(y) - gfd) <= 1e-6 * max(1.0, np.linalg.norm(gfd))
    u = rng.standard_normal(3)
    h, un = 1e-6, np.linalg.norm(rng.standard_normal(3))
    u = rng.standard_normal(3)
    un = np.linalg.norm(u)
    hfd = (L.gradient(y + (h / un) * u) - L.gradient(y - (h / un) * u)) * (un / (2 * h))
    assert np.linalg.norm(L.hessian_vec(y, u) - hfd) <= 1e-5 * max(1.0, np.linalg.norm(hfd))


# -- sphere -----------------------------------------------------------------


def _anchor(rng):
    """A random point of S^2 and a random unit tangent there."""
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(3)
    v -= (v @ x) * x
    return x, v / np.linalg.norm(v)


def test_sphere_frame_orthonormal(sphere_quad):
    # the builder takes any mode with a tangent component: its two terms
    # sample the great circles along the unit tangent t of the mode and along
    # x cross t, three orthonormal directions
    rng = np.random.default_rng(11)
    x, _ = _anchor(rng)
    raw = rng.standard_normal(3)
    t = raw - (raw @ x) * x
    t /= np.linalg.norm(t)
    t_perp = np.cross(x, t)
    F = np.column_stack([x, t, t_perp])
    assert np.allclose(F.T @ F, np.eye(3), atol=1e-12)
    L = sk.build_manifold(sphere_quad, x, raw, *COEFFICIENT_PRESETS["mix"])
    (w_a, along_perp, _), (w_b, along_mode, _) = L.terms
    assert (w_a, w_b) == (1.0, -1.0)
    for s in rng.uniform(-1.5, 1.5, 5):
        # a point of either circle is its own projection onto that circle
        on_mode = np.cos(s) * x + np.sin(s) * t
        on_perp = np.cos(s) * x + np.sin(s) * t_perp
        assert np.linalg.norm(along_mode(on_mode) - on_mode) <= 1e-12
        assert np.linalg.norm(along_perp(on_perp) - on_perp) <= 1e-12
        # and any point lands on the circle's plane
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        assert abs(along_mode(y) @ t_perp) <= 1e-12
        assert abs(along_perp(y) @ t) <= 1e-12


def test_sphere_builders_check_anchor_and_dimension(sphere_quad, three_hole):
    x, v = _anchor(np.random.default_rng(10))
    for build in (lambda p, y: sk.build_manifold(p, y, v, 0.0, 2.0),
                  lambda p, y: sk.build_sphere_naive(p, y, v)):
        with pytest.raises(OffManifoldError):
            build(sphere_quad, 1.1 * x)
        with pytest.raises(DimensionError):
            build(three_hole, x[:2])
    with pytest.raises(ValueError):
        sk.build_manifold(sphere_quad, x, x, 0.0, 2.0)  # no tangent component
    with pytest.raises(CoefficientError):
        sk.build_manifold(sphere_quad, x, v, 0.5, 0.5)


def test_sphere_value_at_anchor(sphere_quad):
    rng = np.random.default_rng(12)
    x, v = _anchor(rng)
    for variant, (a, b) in COEFFICIENT_PRESETS.items():
        L = sk.build_manifold(sphere_quad, x, v, a, b)
        assert np.isclose(L.value(x), (1.0 - b) * sphere_quad.energy(x), atol=1e-12)


def test_sphere_gradient_matches_fd(sphere_quad):
    rng = np.random.default_rng(13)
    x, v = _anchor(rng)
    for variant in ("hyperplane", "ray", "mix"):
        L = sk.build_manifold(sphere_quad, x, v, *COEFFICIENT_PRESETS[variant])
        for _ in range(3):
            y = x + 1e-5 * rng.standard_normal(3)
            y /= np.linalg.norm(y)
            # ambient finite differences with a step small enough to stay
            # within the manifold tolerance of the objective
            g = L.gradient(y)
            gfd = np.empty(3)
            h = 4e-9
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                gfd[i] = (L.value(y + e) - L.value(y - e)) / (2 * h)
            assert np.linalg.norm(g - gfd) <= 2e-5 * max(1.0, np.linalg.norm(gfd))


def test_sphere_off_manifold_rejected(sphere_quad):
    rng = np.random.default_rng(14)
    L = sk.build_manifold(sphere_quad, *_anchor(rng), *COEFFICIENT_PRESETS["ray"])
    with pytest.raises(OffManifoldError):
        L.value(np.array([1.1, 0.0, 0.0]))


def test_sphere_saddle_is_constrained_minimizer(sphere_quad):
    from saddlekit.manifold import retract, solve_constrained_subproblem, tangent_projector
    from saddlekit.subsolve import SubsolveConfig

    sp = np.array([0.0, 1.0, 0.0])
    proj = tangent_projector(sp)
    modes = sk.min_modes(sk.Hessian(sphere_quad, sp, proj.basis), m=1, tol=1e-13)
    for variant in ("hyperplane", "ray", "mix"):
        L = sk.build_manifold(sphere_quad, sp, modes.eigenvectors[:, 0], *COEFFICIENT_PRESETS[variant])
        # the anchor is a constrained stationary point of the objective
        assert np.linalg.norm(proj(L.gradient(sp))) < 1e-12
        # and a strict local minimizer: solving from a tangent offset returns
        start = retract(sp, 0.05 * proj.basis[:, 0])
        sol = solve_constrained_subproblem(L, start, SubsolveConfig(grad_tol=1e-13, max_inner_iters=300))
        assert np.linalg.norm(sol.y - sp) < 1e-8


def test_sphere_naive_gradient_fd(sphere_quad):
    rng = np.random.default_rng(15)
    x, v = _anchor(rng)
    L = sk.build_sphere_naive(sphere_quad, x, v)
    y = x + 1e-5 * rng.standard_normal(3)
    y /= np.linalg.norm(y)
    g = L.gradient(y)
    gfd = np.empty(3)
    h = 4e-9
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        gfd[i] = (L.value(y + e) - L.value(y - e)) / (2 * h)
    assert np.linalg.norm(g - gfd) <= 2e-5 * max(1.0, np.linalg.norm(gfd))


def test_sphere_naive_point_on_mode_great_circle(sphere_quad):
    # the retracted straight-line projection is the mode's great circle at
    # angle atan(v.(y-x)): a reparametrisation, not a curvature-blind point
    rng = np.random.default_rng(16)
    for _ in range(200):
        x, v = _anchor(rng)
        L = sk.build_sphere_naive(sphere_quad, x, v)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        theta = np.arctan(v @ (y - x))
        (term,) = L.terms
        xi = term.point(y)
        expect = np.cos(theta) * x + np.sin(theta) * v
        assert np.linalg.norm(xi - expect) <= 1e-14


def test_dimension_checks(three_hole):
    L = sk.build_flat(three_hole, np.zeros(2), np.array([1.0, 0.0]), 2.0, 0.0)
    with pytest.raises(DimensionError):
        L.value(np.zeros(3))
    with pytest.raises(DimensionError):
        L.hessian_vec(np.zeros(2), np.zeros(3))


# -- properties shared by all four constructions ------------------------------

KINDS = ("flat", "index_m", "hyperplane", "ray", "mix", "naive")
_PROPERTY = settings(max_examples=60, deadline=None)
_SEEDS = st.integers(0, 2**32 - 1)


def _objective(kind, seed, flip=False):
    """``(L, y, tangents, u)`` for one seed: a random objective of ``kind``,
    a point near its anchor, an orthonormal tangent basis at the point on
    the sphere (None in flat space) and a direction.

    ``flip`` negates mode columns (all of them, or a random nonempty set for
    index-m); every other draw is the same for one seed.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    if kind in ("flat", "index_m"):
        p = make_index2_cubic()
        x = 0.3 * rng.standard_normal(3)
        y = x + 0.3 * rng.standard_normal(3)
        if kind == "flat":
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            a, b = COEFFICIENT_PRESETS[rng.choice(sorted(COEFFICIENT_PRESETS))]
            return sk.build_flat(p, x, -v if flip else v, a, b), y, None, u
        V, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        signs = ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))[rng.integers(3)]
        subsets = ((0,), (1,), (0, 1))
        sa = {s: float(w) for s, w in zip(subsets, rng.choice([0.0, 0.5, 1.0], 3))}
        sb = {s: float(w) for s, w in zip(subsets, rng.choice([0.0, 0.5, 2.0], 3))}
        if sum(sa.values()) + sum(sb.values()) <= 1.0:
            sb[(0, 1)] = 2.0
        L = sk.build_index_m(p, x, V * signs if flip else V, sa, sb)
        return L, y, None, u
    p = sk.make_builtin("sphere_quadratic")
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(3)
    v = -v if flip else v
    t = rng.standard_normal(3)
    t -= (t @ x) * x
    t /= np.linalg.norm(t)
    s = rng.uniform(0.0, 1.0)  # within 1 rad, where x.y > 0 keeps every map smooth
    y = np.cos(s) * x + np.sin(s) * t
    y /= np.linalg.norm(y)
    tangents = np.linalg.svd(np.eye(3) - np.outer(y, y))[0][:, :2]
    if kind == "naive":
        return sk.build_sphere_naive(p, x, v), y, tangents, u
    return sk.build_manifold(p, x, v, *COEFFICIENT_PRESETS[kind]), y, tangents, u


@_PROPERTY
@given(kind=st.sampled_from(KINDS), seed=_SEEDS)
def test_objective_gradient_matches_fd_of_value(kind, seed):
    L, y, tangents, _ = _objective(kind, seed)
    g = L.gradient(y)
    if tangents is None:
        gfd = fd_gradient(L.value, y)
        assert np.linalg.norm(g - gfd) <= 1e-6 * max(1.0, np.linalg.norm(gfd))
        return
    # on the sphere: derivatives along great circles through y, which keep
    # the difference points on the sphere
    h = 1e-5
    for t in tangents.T:
        dfd = (L.value(np.cos(h) * y + np.sin(h) * t) - L.value(np.cos(h) * y - np.sin(h) * t)) / (2 * h)
        assert abs(g @ t - dfd) <= 1e-6 * max(1.0, abs(dfd))


@_PROPERTY
@given(kind=st.sampled_from(KINDS), seed=_SEEDS)
def test_objective_invariant_under_mode_sign_flips(kind, seed):
    L, y, _, u = _objective(kind, seed)
    Lf, yf, _, _ = _objective(kind, seed, flip=True)
    assert np.array_equal(y, yf)
    if kind not in ("flat", "index_m"):
        u = u - (u @ y) * y  # a tangent direction keeps the difference points on the sphere
    scale = max(1.0, abs(L.value(y)))
    assert abs(L.value(y) - Lf.value(y)) <= 1e-12 * scale
    g = L.gradient(y)
    assert np.linalg.norm(g - Lf.gradient(y)) <= 1e-12 * max(1.0, np.linalg.norm(g))
    hv = L.hessian_vec(y, u)
    assert np.linalg.norm(hv - Lf.hessian_vec(y, u)) <= 1e-8 * max(1.0, np.linalg.norm(hv))


@_PROPERTY
@given(kind=st.sampled_from(("flat", "index_m")), seed=_SEEDS)
def test_linear_objective_hessian_vec_matches_fd_of_gradient(kind, seed):
    L, y, _, u = _objective(kind, seed)
    h, un = 1e-6, np.linalg.norm(u)
    hfd = (L.gradient(y + (h / un) * u) - L.gradient(y - (h / un) * u)) * (un / (2 * h))
    assert np.linalg.norm(L.hessian_vec(y, u) - hfd) <= 1e-5 * max(1.0, np.linalg.norm(hfd))
