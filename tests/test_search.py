import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddlekit as sk
from saddlekit import eigen, harness, manifold, search
from saddlekit.harness import table5_config
from saddlekit.errors import (
    CoefficientError,
    DimensionError,
    ModelRegionError,
    OrderEstimateError,
    SubsolveError,
)
from saddlekit.search import INDEX_MAX_DIMENSION, estimate_order, estimate_order_pooled
from saddlekit.subsolve import SubsolveConfig

from conftest import (
    make_index2_cubic,
    make_nan_second_derivative_models,
    record_factor_flags,
    record_lobpcg_iterations,
)


def _exact_cfg(**kw):
    sub = kw.pop("subsolve", SubsolveConfig(grad_tol=1e-14, max_inner_iters=500,
                                            box_radius=kw.pop("box", None)))
    return sk.SearchConfig(eig_tol=1e-12, subsolve=sub, **kw)


def test_quadratic_step_lands_on_saddle_from_anywhere():
    p = sk.from_quadratic(np.diag([-1.0, 2.0, 3.0]))
    rng = np.random.default_rng(3)
    cfg = _exact_cfg(alpha=1.0, beta=1.0)
    for _ in range(10):
        x0 = rng.standard_normal(3)
        st = sk.step(p, sk.initial_state(p, x0), cfg)
        assert np.linalg.norm(st.x) < 1e-10


@given(shape=st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 6))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_quadratic_of_index_m_lands_on_saddle_in_one_step(shape, seed):
    # a rotated quadratic in d <= 6 dimensions whose m negative eigenvalues
    # lie in [-3, -0.5] and whose positive ones lie in [0.5, 3.04], with
    # every gap between neighbours above 0.5
    m, d = shape
    rng = np.random.default_rng(seed)
    evals = np.concatenate([-np.linspace(0.5, 3.0, m), np.linspace(0.5, 3.0, d - m)])
    evals += rng.uniform(0.0, 0.04, d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    p = sk.from_quadratic(Q @ np.diag(evals) @ Q.T)
    cfg = _exact_cfg(index=m)
    state = sk.step(p, sk.initial_state(p, rng.uniform(-1.0, 1.0, d)), cfg)
    assert np.linalg.norm(state.x) < 1e-10


def _known_saddles():
    three_hole = sk.make_builtin("three_hole")
    double_well = sk.make_builtin("double_well", {"mu": 2.0})
    flat = _exact_cfg(alpha=1.0, beta=1.0)
    cases = [pytest.param(three_hole, sp, flat, id=f"three_hole-{i}")
             for i, sp in enumerate(three_hole.saddle_points())]
    cases.append(pytest.param(double_well, double_well.saddle_points()[0], flat, id="double_well"))
    sphere = sk.make_builtin("sphere_quadratic")
    cases += [pytest.param(sphere, np.array([0.0, sign, 0.0]), table5_config(variant),
                           id=f"sphere-{variant}-{'plus' if sign > 0 else 'minus'}_e2")
              for variant in ("hyperplane", "ray", "mix") for sign in (1.0, -1.0)]
    return cases


@pytest.mark.parametrize("p, sp, cfg", _known_saddles())
def test_step_fixed_point_at_saddle(p, sp, cfg):
    state = sk.step(p, sk.initial_state(p, sp, cfg), cfg)
    assert np.linalg.norm(state.x - sp) < 1e-12


def test_run_records_iteration_zero(three_hole):
    sp = three_hole.stationary_points[0][0]
    x0 = sp + np.array([0.05, 0.05])
    cfg = _exact_cfg(alpha=1.0, beta=1.0, max_outer_iters=8)
    rec = sk.run(three_hole, x0, cfg)
    assert rec.errors() == []  # run() measures nothing
    assert rec.measure(sp) is rec
    assert rec.rows[0][0] == 0
    assert np.allclose(rec.rows[0][1], x0)
    assert np.isclose(rec.rows[0][2], np.linalg.norm(x0 - sp))


def test_run_starting_on_saddle(three_hole):
    sp = three_hole.stationary_points[0][0]
    rec = sk.run(three_hole, sp, _exact_cfg(alpha=1.0, beta=1.0, grad_tol=1e-8))
    assert rec.converged
    assert rec.iterations == 0


def test_convex_region_requires_box(three_hole):
    x0 = np.array([-1.0, 0.05])  # near a deep minimum
    rec = sk.run(three_hole, x0, _exact_cfg(alpha=1.0, beta=1.0, max_outer_iters=5))
    assert rec.status == "failed"
    assert "trust box" in rec.message
    rec = sk.run(three_hole, x0, _exact_cfg(alpha=1.0, beta=1.0, box=0.25,
                                            grad_tol=1e-10, max_outer_iters=15))
    assert rec.converged
    assert rec.terminal_index == 1


def test_leaving_the_model_region_ends_run_as_left_region():
    # a convex well that is only defined for |x|_inf <= 1: from a convex
    # anchor the first inner solve walks to the 4.0 trust box and past the
    # edge of the region, where the model raises
    h = np.array([1.0, 2.0])

    def checked(f):
        def g(x):
            if np.abs(x).max() > 1.0:
                raise ModelRegionError(f"{x} lies outside the model's region |x|_inf <= 1")
            return f(x)
        return g

    p = sk.PotentialModel("bounded_well", 2, checked(lambda x: 0.5 * float(x @ (h * x))),
                          checked(lambda x: h * x), lambda x, u: h * u)
    cfg = sk.SearchConfig(alpha=0.0, beta=2.0, grad_tol=1e-8, eig_tol=1e-6,
                          subsolve=SubsolveConfig(grad_tol=1e-8, max_inner_iters=50,
                                                  box_radius=4.0),
                          max_outer_iters=3)
    rec = sk.run(p, np.array([0.3, 0.2]), cfg)
    assert rec.status == "left_region"
    assert "outside the model's region" in rec.message


def test_sphere_inner_solve_error_names_outer_iteration(sphere_quad, monkeypatch):
    def fail(L, y0, cfg):
        raise SubsolveError("no descent", trace=[y0])

    monkeypatch.setattr(manifold, "solve_constrained_subproblem", fail)
    cfg = sk.SearchConfig(on_sphere=True)
    x0 = np.array([math.cos(0.1), math.sin(0.1), 0.0])
    with pytest.raises(SubsolveError, match="^outer iteration 1: no descent$") as err:
        sk.step(sphere_quad, sk.initial_state(sphere_quad, x0, cfg), cfg)
    assert err.value.trace is not None
    rec = sk.run(sphere_quad, x0, cfg)
    assert (rec.status, rec.message) == ("failed", "outer iteration 1: no descent")


def test_run_leaves_large_models_unclassified(monkeypatch):
    # above the size limit a converged run assembles no dense Hessian and
    # reports no terminal index
    h = np.concatenate([[-1.0], np.linspace(1.0, 2.0, INDEX_MAX_DIMENSION)])
    p = sk.PotentialModel("diagonal", h.size, lambda x: 0.5 * float(x @ (h * x)),
                          lambda x: h * x, lambda x, u: h * u)
    monkeypatch.setattr(eigen.Hessian, "matrix", lambda self: pytest.fail("dense Hessian"))
    rec = sk.run(p, np.full(h.size, 0.01), sk.SearchConfig(subsolve=SubsolveConfig(grad_tol=1e-12)))
    assert rec.converged and rec.terminal_index is None


def test_divergence_status():
    # an inverted well has no saddle to find: iterates blow up
    def energy(x):
        return -float(x @ x) + 0.001 * float((x ** 4).sum())

    def grad(x):
        return -2.0 * x + 0.004 * x ** 3

    def hvec(x, u):
        return (-2.0 + 0.012 * x ** 2) * u

    p = sk.PotentialModel("inverted", 2, energy, grad, hvec)
    cfg = sk.SearchConfig(alpha=0.0, beta=2.0, eig_tol=1e-10,
                          subsolve=SubsolveConfig(grad_tol=1e-10, max_inner_iters=60,
                                                  box_radius=1.0),
                          max_outer_iters=60, divergence_radius=10.0)
    rec = sk.run(p, np.array([0.3, 0.2]), cfg)
    assert rec.status == "diverged" and rec.iterations < 60
    assert rec.message == (f"outer iteration {rec.iterations}: |x| = "
                           f"{np.linalg.norm(rec.x):.6g} exceeds divergence_radius 10")


def _state_key(state):
    return state.x.tobytes(), state.modes.tobytes(), state.last_step_inf


@pytest.mark.parametrize("x0, status, iterations", [
    ((-1.5, 1.5), "cycling", 4),
    ((1.5, -1.0), "cycling", 14),
    ((1.5, 0.0), "converged", 8),
])
def test_fig2_cell_ends_cycling_only_on_a_repeated_state(three_hole, monkeypatch,
                                                        x0, status, iterations):
    # the search harness._doa_cell runs for a fig2 cell, replayed step by
    # step: a cycling run's last state equals an earlier one, and stepping
    # on from it retraces the states after that one, so the run would
    # repeat until its budget ran out; a converged run repeats no state
    searches = []

    def run_search(p, x, cfg):
        searches.append((cfg, sk.run(p, x, cfg)))
        return searches[-1][1]

    monkeypatch.setattr(harness, "run_search", run_search)
    harness._doa_cell(("three_hole", {}, "imf", x0, 200, 0.25, 1e-3))
    (cfg, rec), = searches
    assert (rec.status, rec.iterations) == (status, iterations)
    states = [sk.step(three_hole, sk.initial_state(three_hole, x0, cfg), cfg)]
    while len(states) < iterations:
        states.append(sk.step(three_hole, states[-1], cfg))
    np.testing.assert_array_equal(states[-1].x, rec.x)
    keys = [_state_key(s) for s in states]
    if status == "converged":
        assert len(set(keys)) == iterations
        assert rec.terminal_index == 1
        return
    first = keys.index(keys[-1]) + 1
    assert first < iterations and states[-1].last_step_inf > 0.0
    assert rec.message == (f"outer iteration {iterations} repeats the state of "
                           f"outer iteration {first}")
    state = states[-1]
    for k in range(first, iterations):
        state = sk.step(three_hole, state, cfg)
        assert _state_key(state) == keys[k]


def test_stalled_sphere_search_ends_max_iters(sphere_quad):
    # a hyperplane search from one of the sphere_geodesic benchmark's starts
    # (seed 4, search 15) takes zero-length steps from outer iteration 3 on,
    # short of its gradient tolerance: a stall, not a cycle
    phase = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi)
    phi = phase + (15 // 3) * math.pi * (3.0 - math.sqrt(5.0))
    x0 = np.array([math.cos(0.1), math.sin(0.1) * math.cos(phi), math.sin(0.1) * math.sin(phi)])
    rec = sk.run(sphere_quad, x0, table5_config("hyperplane"))
    assert (rec.status, rec.iterations, rec.message) == ("max_iters", 8, "")
    np.testing.assert_array_equal(rec.rows[2][1], rec.x)


@pytest.mark.parametrize("x0, message", [
    ((0.05, 0.2), "iteration 0: non-finite gradient at the starting point"),
    ((0.3, 0.2), "outer iteration 1: non-finite gradient at the new point"),
])
def test_non_finite_gradient_ends_run_as_failed(x0, message):
    # a saddle surface whose gradient is NaN in a band around the saddle,
    # with finite-difference Hessian products: a NaN at the start or after
    # the first step ends the run instead of reaching the eigensolver
    h = np.array([-1.0, 2.0])

    def grad(x):
        return h * x if abs(x[0]) >= 0.1 else np.full(2, np.nan)

    p = sk.PotentialModel("nan_band", 2, lambda x: 0.5 * float(x @ (h * x)), grad)
    rec = sk.run(p, np.array(x0), sk.SearchConfig(max_outer_iters=5))
    assert (rec.status, rec.message) == ("failed", message)


def test_non_finite_hessian_product_ends_run_as_failed():
    # the eigensolver refuses the products instead of feeding them to its SVD
    for p in make_nan_second_derivative_models():
        rec = sk.run(p, np.array([0.3, 0.2]), sk.SearchConfig(max_outer_iters=5))
        assert (rec.status, rec.message) == (
            "failed", "outer iteration 1: non-finite Hessian-vector product")


def test_non_finite_hessian_at_a_converged_point_ends_run_as_failed():
    # started on the stationary point: the terminal check must not read the
    # NaN spectrum as index 0
    for p in make_nan_second_derivative_models():
        rec = sk.run(p, np.zeros(2), sk.SearchConfig())
        assert (rec.status, rec.message) == ("failed", "terminal point: non-finite Hessian")
        assert rec.terminal_index is None


def test_index2_one_shot_quadratic():
    p = sk.from_quadratic(np.diag([-2.0, -1.0, 3.0]))
    cfg = sk.SearchConfig(index=2, eig_tol=1e-12,
                          subsolve=SubsolveConfig(grad_tol=1e-14, max_inner_iters=300))
    st = sk.step(p, sk.initial_state(p, np.array([0.5, -0.4, 0.3])), cfg)
    assert np.linalg.norm(st.x) < 1e-10


def test_index2_run_on_cubic():
    q = make_index2_cubic()
    cfg = sk.SearchConfig(index=2, eig_tol=1e-12, grad_tol=5e-14,
                          subsolve=SubsolveConfig(grad_tol=1e-14, max_inner_iters=500,
                                                  box_radius=0.3),
                          max_outer_iters=25)
    rng = np.random.default_rng(0)
    rec = sk.run(q, 0.2 * rng.standard_normal(3), cfg).measure(np.zeros(3))
    assert rec.converged
    assert np.linalg.norm(rec.x) < 1e-10
    assert rec.terminal_index == 2


# -- inner solves preconditioned by the anchor Hessian's factor ---------------


def _with_assembled_hessian(p):
    """``p`` with ``hessian_fn`` built from its products."""
    return dataclasses.replace(p, hessian_fn=lambda x: eigen.Hessian(p, x).matrix())


def _assembled(H):
    """The Hessian of ``from_quadratic(H)`` at the origin, assembled from ``H`` itself."""
    return eigen.Hessian(dataclasses.replace(sk.from_quadratic(H), hessian_fn=lambda x: H),
                         np.zeros(H.shape[0]))


def test_hessian_flip_factors_the_reversed_anchor_hessian():
    # K = H - 2 lambda_1 v v^T: positive definite at an index-1 anchor, where
    # it overwrites H; with two negative eigenvalues it is not, and the step
    # keeps the Jacobi preconditioner
    H = np.diag([-1.0, 2.0, 3.0])
    h = _assembled(H)
    h.flip(np.array([1.0, 0.0, 0.0]), 2.0 * -1.0)
    np.testing.assert_array_equal(H, np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(h.factor(np.array([1.0, 2.0, 3.0])), [1.0, 1.0, 1.0], rtol=1e-15)
    h = _assembled(np.diag([-1.0, -2.0, 3.0]))
    h.flip(np.array([0.0, 1.0, 0.0]), 2.0 * -2.0)
    assert h.factor is None


def test_hessian_inverse_refuses_an_indefinite_anchor_hessian():
    # K~ = diag(1, 2, 3) factored from H = diag(-1, 2, 3) with u = e1 and
    # c = 2 * -1; corrected with the true mode v = e1 it is K~ again, but a
    # wrong mode v = e2 makes K = H + 2 e2 e2^T = diag(-1, 4, 3) indefinite,
    # and det S <= 0 says so
    h = _assembled(np.diag([-1.0, 2.0, 3.0]))
    h.flip(np.array([1.0, 0.0, 0.0]), 2.0 * -1.0)
    e1, e2 = np.eye(3)[:, :2].T
    same = h.inverse(e1, 2.0 * -1.0)
    np.testing.assert_allclose(same(np.array([1.0, 2.0, 3.0])), [1.0, 1.0, 1.0], rtol=1e-15)
    assert h.inverse(e2, 2.0 * -1.0) is None


def test_hessian_inverse_with_a_zero_weight_is_the_rank1_correction():
    # c = 0 (the reference eigenvalue was positive): K~ = H, and the rank-2
    # form with d = [0, -weight] is the rank-1 correction by v alone
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    H = Q @ np.diag(np.linspace(0.5, 6.0, 12)) @ Q.T
    h = _assembled(H.copy())
    h.flip(rng.standard_normal(12), 0.0)
    v, w = Q[:, 0], 0.4
    g = rng.standard_normal(12)
    ref = np.linalg.solve(H + w * np.outer(v, v), g)
    z = h.inverse(v, -w)(g)
    assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)


def test_hessian_inverse_is_the_anchor_hessian_inverse_on_the_island(monkeypatch, morse,
                                                                     morse_saddle,
                                                                     bench_workloads):
    # a fixture start's first step: the factor of K~ (reference mode from
    # the loose solve), corrected to the current mode, solves with
    # K = H - (alpha + beta) lambda_1 v v^T
    calls, real = [], eigen.Hessian.inverse

    def recording(self, v, weight):
        calls.append((v, weight, real(self, v, weight)))
        return calls[-1][2]

    monkeypatch.setattr(eigen.Hessian, "inverse", recording)
    w = bench_workloads
    x = w.near(morse_saddle, np.random.default_rng(100))
    sk.step(morse, sk.initial_state(morse, x), w.MORSE_CONFIG)
    (v, weight, newton), = calls
    g = morse.gradient(x)
    ref = np.linalg.solve(morse.hessian_fn(x) - weight * np.outer(v, v), g)
    assert np.linalg.norm(newton(g) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_only_on_flat_index1_steps_of_assembled_models(monkeypatch, three_hole, sphere_quad):
    had_factor = record_factor_flags(monkeypatch)
    sp = three_hole.stationary_points[0][0]
    cfg = _exact_cfg(alpha=1.0, beta=1.0, max_outer_iters=4)
    # products only: no factor
    sk.run(three_hole, sp + 0.02, cfg)
    assert had_factor and not any(had_factor)
    had_factor.clear()
    # the same surface assembled: every step is a Newton-preconditioned one
    rec = sk.run(_with_assembled_hessian(three_hole), sp + 0.02, cfg)
    assert rec.converged and had_factor and all(had_factor)
    had_factor.clear()
    # index-2 steps keep Jacobi, and sphere steps never call minimize
    q = _with_assembled_hessian(make_index2_cubic())
    sk.run(q, np.array([0.05, -0.03, 0.02]), sk.SearchConfig(index=2, max_outer_iters=3))
    sk.run(_with_assembled_hessian(sphere_quad), np.array([0.8, 0.6, 0.0]),
           table5_config("ray"))
    assert had_factor and not any(had_factor)


def test_island_fixture_search_is_an_inexact_newton_iteration(monkeypatch, morse, morse_saddle,
                                                              bench_workloads):
    # the benchmark's morse_refine protocol: from this start Jacobi-
    # preconditioned inner solves took 162 + 109 + 71 iterations, against
    # 15 + 4 + 1 on the factor; Jacobi-preconditioned eigensolves took
    # 81 + 69 + 50 LOBPCG iterations, against 14 (the first step's loose
    # Jacobi solve) + 15 + 14 + 11 on the same factor
    iterations = record_lobpcg_iterations(monkeypatch)
    w = bench_workloads
    rec = sk.run(morse, w.near(morse_saddle, np.random.default_rng(100)), w.MORSE_CONFIG)
    inner = [row[5] for row in rec.rows[1:]]
    assert rec.converged and rec.iterations == 3 and rec.terminal_index == 1
    assert sum(inner) <= 30, inner
    assert sum(iterations) <= 70, iterations
    assert w.max_atom_shift(rec.x, morse_saddle) <= 1e-12


def test_island_reads_its_diagonal_from_the_assembled_hessian(morse, morse_saddle,
                                                               bench_workloads):
    # a model whose hessian_diag_fn fails when called relaxes, takes a
    # table4 escape step and runs a fixture search to the same results
    blind = dataclasses.replace(morse, hessian_diag_fn=lambda x: pytest.fail("diagonal read"))
    xmin = harness._relaxed_minimum(blind)
    np.testing.assert_array_equal(xmin, harness._relaxed_minimum(morse))
    w = bench_workloads
    x0 = xmin + 0.05 * np.random.default_rng(42).standard_normal(xmin.size)
    got, ref = (search.step(q, sk.initial_state(q, x0, w.MORSE_CONFIG), w.MORSE_CONFIG)
                for q in (blind, morse))
    assert got.eigenvalues[0] > 0.0 and got.last_inner_iters > 100
    np.testing.assert_array_equal(got.x, ref.x)
    assert got.last_inner_iters == ref.last_inner_iters
    x0 = w.near(morse_saddle, np.random.default_rng(100))
    got, ref = (sk.run(q, x0, w.MORSE_CONFIG) for q in (blind, morse))
    assert got.converged and got.iterations == 3
    np.testing.assert_array_equal(got.x, ref.x)
    assert [row[5] for row in got.rows] == [row[5] for row in ref.rows]



def test_large_island_step_is_jacobi_preconditioned(monkeypatch):
    # above INDEX_MAX_DIMENSION the island is assembled but not factored:
    # the step's eigensolve and inner solve still take the Jacobi map of
    # the assembled diagonal (this eigensolve took 160 LOBPCG iterations
    # unpreconditioned)
    p = sk.make_builtin("morse_island", {"frozen_layers": 0})
    assert p.dimension > INDEX_MAX_DIMENSION
    x = (p.extras["coords"][~p.extras["frozen"]].ravel()
         + 0.05 * np.random.default_rng(1).standard_normal(p.dimension))
    iterations = record_lobpcg_iterations(monkeypatch)
    preconditioners, real = [], search.minimize

    def recording(L, y0, cfg, precondition=None):
        preconditioners.append(precondition)
        return real(L, y0, cfg, precondition)

    monkeypatch.setattr(search, "minimize", recording)
    cfg = sk.SearchConfig(eig_tol=1e-9, subsolve=SubsolveConfig(max_inner_iters=3, box_radius=0.2))
    sk.step(p, sk.initial_state(p, x, cfg), cfg)
    assert len(iterations) == 1 and iterations[0] <= 139, iterations
    g = np.random.default_rng(2).standard_normal(p.dimension)
    (precondition,) = preconditioners
    np.testing.assert_array_equal(precondition(g), sk.Hessian(p, x).jacobi(g))

@pytest.mark.slow
def test_table4_escape_steps_keep_the_jacobi_preconditioner(table4_run):
    # the twelve box-limited escape steps run on Jacobi, the first eight to
    # their box-constrained minimizer and the last four to the
    # convex_inner_cap of 200; only the two refining steps take the factor.
    # Their eigensolves do (K~ = H where the reference eigenvalue is
    # positive), unless H is indefinite: 1546 LOBPCG iterations on Jacobi,
    # 239 so
    rec = table4_run.record
    inner = [row[5] for row in rec.rows[1:]]
    assert rec.converged and rec.iterations == 14 and rec.terminal_index == 1
    assert inner[:12] == [196, 160, 164, 163, 179, 169, 170, 169, 200, 200, 200, 200], inner
    assert sum(inner[12:]) <= 10, inner
    assert table4_run.had_factor == [False] * 12 + [True] * 2
    assert sum(table4_run.lobpcg_iters) <= 400, table4_run.lobpcg_iters


def test_table2_escape_steps_end_at_the_box_constrained_minimizer():
    # each escape step stops once the gradient projected onto the box's
    # faces vanishes, instead of crawling along a face to the inner cap
    inner = [row[5] for _, rec in harness.preset_runs("table2") for row in rec.rows[1:]]
    assert max(inner) <= 10, inner


def test_jacobian_vanishes_on_quadratic():
    p = sk.from_quadratic(np.diag([-1.0, 2.0, 3.0]))
    cfg = _exact_cfg(alpha=1.0, beta=1.0)
    J = sk.jacobian_of_step_map(p, np.array([0.4, -0.2, 0.6]), cfg, h=1e-4)
    assert np.linalg.norm(J) < 1e-8


def test_jacobian_vanishes_at_saddle_for_two_sums(three_hole):
    sp = three_hole.stationary_points[0][0]
    for total in (1.5, 3.0):
        cfg = _exact_cfg(alpha=total / 2, beta=total / 2)
        J = sk.jacobian_of_step_map(three_hole, sp, cfg, h=1e-4)
        assert np.linalg.norm(J) <= 1e-4


# -- order estimation ---------------------------------------------------------


def test_estimate_order_geometric():
    assert np.isclose(estimate_order([1e-1, 1e-2, 1e-3, 1e-4]), 1.0, atol=1e-9)


def test_estimate_order_squares():
    assert np.isclose(estimate_order([1e-1, 1e-2, 1e-4, 1e-8]), 2.0, atol=1e-9)


def test_estimate_order_on_published_style_column():
    # a four-entry quadratic tail whose final value saturates at roundoff
    col = [1.672e-2, 9.327e-6, 2.527e-11, 2.482e-16]
    order = estimate_order(col)
    assert 1.7 <= order <= 2.3


def test_estimate_order_drops_floor_and_nonmonotone():
    errs = [0.9, 0.5, 1e-1, 1e-2, 1e-4, 1e-8, 3e-16, 5e-16]
    assert np.isclose(estimate_order(errs), estimate_order([0.9, 0.5, 1e-1, 1e-2, 1e-4, 1e-8]))
    with pytest.raises(OrderEstimateError):
        estimate_order([1e-1, 1e-2])
    with pytest.raises(OrderEstimateError):
        estimate_order([1e-15, 1e-16, 1e-17, 1e-18])


def test_estimate_order_pooled():
    seqs = [[1e-1, 1e-2, 1e-4, 1e-8], [3e-1, 9e-2, 8.1e-3, 6.6e-5]]
    assert 1.9 <= estimate_order_pooled(seqs) <= 2.1
    with pytest.raises(OrderEstimateError):
        estimate_order_pooled([[1e-1, 1e-2]])


# -- record serialization ------------------------------------------------------


def test_record_csv_and_summary(tmp_path, three_hole):
    sp = three_hole.stationary_points[0][0]
    cfg = _exact_cfg(alpha=2.0, beta=0.0, max_outer_iters=8, grad_tol=1e-12)
    rec = sk.run(three_hole, sp + np.array([0.1, 0.1]), cfg).measure(sp)
    csv_path = tmp_path / "rec.csv"
    rec.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("iter,error,grad_norm,lambda1,inner_iters")
    assert len(lines) == len(rec.rows) + 1
    data = rec.summary()
    assert data["status"] == "converged"
    assert data["terminal_index"] == 1
    assert len(data["errors"]) == len(rec.rows)


def test_record_round_trip(tmp_path):
    rec = sk.ConvergenceRecord()
    rec.add(0, [1.0, 2.0], None, 0.5, None, 0)
    rec.add(1, np.array([0.5, 0.25]), None, 1e-3, -1.5, 7)
    (it0, x0, err0, gn0, lam0, inner0), (it1, x1, err1, gn1, lam1, inner1) = rec.rows
    assert (it0, err0, gn0, lam0, inner0) == (0, None, 0.5, None, 0)
    assert (it1, err1, gn1, lam1, inner1) == (1, None, 1e-3, -1.5, 7)
    np.testing.assert_array_equal(x0, [1.0, 2.0])
    np.testing.assert_array_equal(x1, [0.5, 0.25])
    assert rec.errors() == [] and rec.iterations == 1
    np.testing.assert_array_equal(rec.x, [0.5, 0.25])
    assert rec.measure(np.zeros(2)) is rec
    assert rec.errors() == [math.sqrt(5.0), math.sqrt(0.3125)]
    assert rec.errors(include_start=False) == [math.sqrt(0.3125)]
    assert [row[2] for row in rec.rows] == rec.errors()
    rec.to_csv(tmp_path / "rec.csv")
    assert (tmp_path / "rec.csv").read_text().splitlines() == [
        "iter,error,grad_norm,lambda1,inner_iters,x0,x1",
        f"0,{math.sqrt(5.0):.17g},0.5,,0,1,2",
        f"1,{math.sqrt(0.3125):.17g},0.001,-1.5,7,0.5,0.25",
    ]
    with pytest.raises(ValueError):
        rec.add(3, [0.0, 0.0], None, 0.0, -1.0, 1)  # iteration 2 skipped
    with pytest.raises(ValueError):
        rec.add(2, [0.0, 0.0], 0.0, 0.0, -1.0, 1)  # errors come from measure()
    assert rec.iterations == 1


@pytest.mark.parametrize("reference", [[7.0], [0.0, 0.0, 0.0]], ids=["length1", "length3"])
def test_measure_refuses_a_reference_of_another_shape(reference):
    # a length-1 reference would broadcast into errors against (7, 7)
    rec = sk.ConvergenceRecord()
    rec.add(0, [1.0, 2.0], None, 0.5, None, 0)
    with pytest.raises(DimensionError, match=r"shape \(\d,\) for points of shape \(2,\)"):
        rec.measure(reference)
    assert rec.errors() == []


def test_record_reproducibility(tmp_path, three_hole):
    sp = three_hole.stationary_points[0][0]
    cfg = _exact_cfg(alpha=1.0, beta=1.0, max_outer_iters=8, grad_tol=1e-12)
    x0 = sp + np.array([0.07, -0.12])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sk.run(three_hole, x0, cfg).measure(sp).to_csv(a)
    sk.run(three_hole, x0, cfg).measure(sp).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SearchConfig(alpha=0.4, beta=0.5)
    with pytest.raises(ValueError):
        sk.SearchConfig(index=0)
    with pytest.raises(ValueError):
        sk.SearchConfig(on_sphere=True, sphere_variant="geodesic")
    # a negative cap would reach the inner solver as its iteration budget
    # on the first escaping step and raise out of run()
    with pytest.raises(ValueError, match="convex_inner_cap"):
        sk.SearchConfig(convex_inner_cap=-5)
    # index-m coefficients fail at construction, by build_index_m's rule,
    # not later inside run()
    with pytest.raises(CoefficientError):
        sk.SearchConfig(index=2, subset_beta={(0, 1): 0.5})
    with pytest.raises(ValueError, match="subset_beta key"):
        sk.SearchConfig(index=2, subset_beta={(0, 5): 2.0})


@pytest.mark.parametrize("flat_only", [{"index": 2}, {"subset_alpha": {(0,): 2.0}},
                                       {"subset_beta": {(0,): 2.0}}],
                         ids=["index", "subset_alpha", "subset_beta"])
def test_sphere_config_rejects_flat_only_settings(flat_only):
    # the sphere construction targets index 1 with its variant's coefficients
    with pytest.raises(ValueError, match="on_sphere"):
        sk.SearchConfig(on_sphere=True, **flat_only)


def test_eigensolver_column_drop_does_not_escape_run():
    # no analytic Hessian: the finite-difference products are noisy.  A
    # block refresh that dropped a column once raised IndexError out of the
    # eigensolver on this start; the run must converge, or where rounding
    # makes the noisy solve stall, end "failed" instead of raising.
    def energy(x):
        return math.log1p(x[0]) ** 2 - x[1] ** 2

    def gradient(x):
        return np.array([2.0 * math.log1p(x[0]) / (1.0 + x[0]), -2.0 * x[1]])

    p = sk.PotentialModel("logwell", 2, energy, gradient)
    rec = sk.run(p, [-0.9, 0.5], sk.SearchConfig(subsolve=SubsolveConfig(box_radius=3.0)))
    if rec.status == "failed":
        assert "min-mode iteration did not reach" in rec.message
    else:
        assert rec.status == "converged"
        assert np.linalg.norm(rec.x) < 1e-9
        assert rec.terminal_index == 1
