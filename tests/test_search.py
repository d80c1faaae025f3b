import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import eigen, manifold
from saddlekit.errors import OrderEstimateError, SubsolveError
from saddlekit.search import INDEX_MAX_DIMENSION, estimate_order, estimate_order_pooled
from saddlekit.subsolve import SubsolveConfig

from conftest import make_index2_cubic


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


def test_step_fixed_point_at_saddle(three_hole):
    sp = three_hole.stationary_points[0][0]
    st = sk.step(three_hole, sk.initial_state(three_hole, sp),
                 _exact_cfg(alpha=1.0, beta=1.0))
    assert np.linalg.norm(st.x - sp) < 1e-12


def test_run_reaches_quoted_saddle_coordinates(three_hole):
    rng = np.random.default_rng(8)
    quoted = [np.array([0.0, -0.31582]), np.array([0.61727, 1.10273]),
              np.array([-0.61727, 1.10273])]
    for ref in quoted:
        th = rng.uniform(0, 2 * np.pi)
        x0 = ref + 0.2 * np.array([np.cos(th), np.sin(th)])
        cfg = _exact_cfg(alpha=2.0, beta=0.0, box=0.25, grad_tol=1e-12,
                         max_outer_iters=10)
        rec = sk.run(three_hole, x0, cfg)
        assert rec.converged
        assert np.linalg.norm(rec.x - ref) < 5e-5
        assert rec.terminal_index == 1


def test_run_records_iteration_zero(three_hole):
    sp = three_hole.stationary_points[0][0]
    x0 = sp + np.array([0.05, 0.05])
    cfg = _exact_cfg(alpha=1.0, beta=1.0, reference=sp, max_outer_iters=8)
    rec = sk.run(three_hole, x0, cfg)
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


def test_left_region_status(three_hole):
    x0 = np.array([-1.0, 0.05])
    cfg = _exact_cfg(alpha=1.0, beta=1.0, box=0.25, max_outer_iters=15,
                     domain=((-0.9, -0.5), (0.9, 0.5)))
    rec = sk.run(three_hole, x0, cfg)
    assert rec.status == "left_region"


def test_leaving_the_model_region_ends_run_as_left_region(morse):
    # a 4 A trust box lets the first inner solve move an atom past the
    # Morse island's 3 A validity radius
    x0 = morse.extras["coords"][~morse.extras["frozen"]].ravel().copy()
    cfg = sk.SearchConfig(alpha=0.0, beta=2.0, grad_tol=1e-8, eig_tol=1e-6,
                          subsolve=SubsolveConfig(grad_tol=1e-8, max_inner_iters=50,
                                                  box_radius=4.0),
                          max_outer_iters=3)
    rec = sk.run(morse, x0, cfg)
    assert rec.status == "left_region"
    assert "validity radius" in rec.message


def test_sphere_inner_solve_error_names_outer_iteration(sphere_quad, monkeypatch):
    def fail(L, M, y0, cfg):
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
    monkeypatch.setattr(eigen, "dense_hessian", lambda *a, **k: pytest.fail("dense Hessian"))
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
    assert rec.status in ("diverged", "max_iters")


def test_adaptive_sum_converges(three_hole):
    sp = three_hole.stationary_points[0][0]
    cfg = sk.SearchConfig(alpha=1.0, beta=1.0, adaptive_sum=True, eig_tol=1e-12,
                          subsolve=SubsolveConfig(grad_tol=1e-13, max_inner_iters=400),
                          grad_tol=1e-11, max_outer_iters=10, reference=sp)
    rec = sk.run(three_hole, sp + np.array([0.1, -0.1]), cfg)
    assert rec.converged
    assert np.linalg.norm(rec.x - sp) < 1e-9


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
                          max_outer_iters=25, reference=np.zeros(3))
    rng = np.random.default_rng(0)
    rec = sk.run(q, 0.2 * rng.standard_normal(3), cfg)
    assert rec.converged
    assert np.linalg.norm(rec.x) < 1e-10
    assert rec.terminal_index == 2


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


def test_record_csv_and_json(tmp_path, three_hole):
    sp = three_hole.stationary_points[0][0]
    cfg = _exact_cfg(alpha=2.0, beta=0.0, reference=sp, max_outer_iters=8,
                     grad_tol=1e-12)
    rec = sk.run(three_hole, sp + np.array([0.1, 0.1]), cfg)
    csv_path = tmp_path / "rec.csv"
    rec.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("iter,error,grad_norm,lambda1,inner_iters")
    assert len(lines) == len(rec.rows) + 1
    json_path = tmp_path / "rec.json"
    rec.to_json(json_path)
    import json

    data = json.loads(json_path.read_text())
    assert data["status"] == "converged"
    assert data["terminal_index"] == 1
    assert len(data["errors"]) == len(rec.rows)


def test_record_reproducibility(tmp_path, three_hole):
    sp = three_hole.stationary_points[0][0]
    cfg = _exact_cfg(alpha=1.0, beta=1.0, reference=sp, max_outer_iters=8,
                     grad_tol=1e-12)
    x0 = sp + np.array([0.07, -0.12])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sk.run(three_hole, x0, cfg).to_csv(a)
    sk.run(three_hole, x0, cfg).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SearchConfig(alpha=0.4, beta=0.5)
    with pytest.raises(ValueError):
        sk.SearchConfig(index=0)
    with pytest.raises(ValueError):
        sk.SearchConfig(on_sphere=True, sphere_variant="geodesic")


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
