import dataclasses
import inspect
import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.errors import DimensionError
from saddlekit.potentials import (
    MorseClusterSpec,
    _morse_pair_terms,
    build_morse_lattice,
    morse_full_coordinates,
    morse_pair_energy,
    write_xyz,
)

from conftest import fd_gradient


def test_double_well_basics():
    p = sk.make_builtin("double_well")
    assert p.dimension == 2
    assert p.energy([1.0, 0.0]) == 0.0
    assert p.energy([-1.0, 0.0]) == 0.0
    assert np.allclose(p.gradient([0.0, 0.0]), 0.0)


def test_double_well_hessian_columns(double_well2):
    # H = diag(3x^2 - 1, mu) at the saddle
    assert np.allclose(double_well2.hessian_vec([0.0, 0.0], [1.0, 0.0]), [-1.0, 0.0])
    assert np.allclose(double_well2.hessian_vec([0.0, 0.0], [0.0, 1.0]), [0.0, 2.0])


def test_double_well_eigendecomposition_matches_formula(double_well2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        evals, evecs = sk.dense_eigensolve(double_well2, x)
        expected = sorted([3.0 * x[0] ** 2 - 1.0, 2.0])
        assert np.allclose(evals, expected, atol=1e-12)
        # eigenvectors axis-aligned
        for col in evecs.T:
            assert min(abs(col[0]), abs(col[1])) < 1e-10


def test_double_well_invalid_mu():
    with pytest.raises(ValueError):
        sk.make_builtin("double_well", {"mu": -1.0})


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        sk.make_builtin("muller_brown")


def test_three_hole_saddles_near_quoted_values(three_hole):
    # the coordinates quoted to five decimals must sit on stationary points
    for sp in ([0.0, -0.31582], [0.61727, 1.10273], [-0.61727, 1.10273]):
        assert np.linalg.norm(three_hole.gradient(sp)) < 1e-4
        dists = [np.linalg.norm(np.asarray(sp) - q)
                 for q, idx in three_hole.stationary_points if idx == 1]
        assert min(dists) < 1e-4


def test_three_hole_minima_and_maximum(three_hole):
    mins = [q for q, idx in three_hole.stationary_points if idx == 0]
    assert any(np.linalg.norm(q - np.array([0.0, 1.5])) < 0.1 for q in mins)
    assert any(np.linalg.norm(q - np.array([1.0, 0.0])) < 0.1 for q in mins)
    for q, idx in three_hole.stationary_points:
        assert np.linalg.norm(three_hole.gradient(q)) < 1e-8
        assert sk.stationary_index(three_hole, q) == idx


def test_three_hole_stationary_points_are_read_only(three_hole):
    # built once and shared by every three-hole model
    assert sk.make_builtin("three_hole").stationary_points[0][0] is three_hole.stationary_points[0][0]
    for q in [q for q, _ in three_hole.stationary_points] + three_hole.saddle_points():
        with pytest.raises(ValueError):
            q[0] = 0.0


def test_three_hole_takes_no_params():
    with pytest.raises(ValueError):
        sk.make_builtin("three_hole", {"mu": 1.0})


def test_sphere_quadratic_spectrum(sphere_quad):
    evals, _ = sk.dense_eigensolve(sphere_quad, np.array([0.3, -0.8, 0.5]))
    assert np.allclose(evals, [2.0, 4.0, 6.0], atol=1e-12)


def test_dimension_mismatch():
    p = sk.make_builtin("double_well")
    with pytest.raises(DimensionError):
        p.energy([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        p.gradient([1.0])


@pytest.mark.parametrize("name,params,amp", [
    ("double_well", {"mu": 2.0}, 0.7),
    ("three_hole", {}, 0.8),
    ("sphere_quadratic", {}, 0.9),
])
def test_gradient_matches_finite_differences(name, params, amp):
    p = sk.make_builtin(name, params)
    rng = np.random.default_rng(42)
    for _ in range(3):
        x = amp * rng.standard_normal(p.dimension)
        g = p.gradient(x)
        gfd = fd_gradient(p.energy, x)
        assert np.linalg.norm(g - gfd) <= 1e-6 * max(1.0, np.linalg.norm(gfd))


@pytest.mark.parametrize("name,params,amp", [
    ("double_well", {"mu": 2.0}, 0.7),
    ("three_hole", {}, 0.8),
    ("sphere_quadratic", {}, 0.9),
])
def test_hessian_vec_properties(name, params, amp):
    p = sk.make_builtin(name, params)
    rng = np.random.default_rng(3)
    x = amp * rng.standard_normal(p.dimension)
    u = rng.standard_normal(p.dimension)
    w = rng.standard_normal(p.dimension)
    # agreement with differentiated gradient
    h = 1e-5 * (1.0 + np.linalg.norm(x, ord=np.inf))
    un = np.linalg.norm(u)
    hfd = (p.gradient(x + (h / un) * u) - p.gradient(x - (h / un) * u)) * (un / (2 * h))
    hu = p.hessian_vec(x, u)
    assert np.linalg.norm(hu - hfd) <= 1e-5 * max(1.0, np.linalg.norm(hfd))
    # symmetry and linearity
    assert abs(u @ p.hessian_vec(x, w) - w @ p.hessian_vec(x, u)) < 1e-10
    lin = p.hessian_vec(x, 0.4 * u - 2.0 * w) - 0.4 * hu + 2.0 * p.hessian_vec(x, w)
    assert np.linalg.norm(lin) < 1e-12 * max(1.0, np.linalg.norm(hu))


def test_fd_fallback_hessian_vec(three_hole):
    bare = sk.PotentialModel(
        name="bare", dimension=2,
        energy_fn=three_hole.energy_fn, gradient_fn=three_hole.gradient_fn,
    )
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2)
    u = rng.standard_normal(2)
    ref = three_hole.hessian_vec(x, u)
    approx = bare.hessian_vec(x, u)
    assert np.linalg.norm(approx - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref))
    assert np.allclose(bare.hessian_vec(x, np.zeros(2)), 0.0)


def test_from_quadratic():
    H = np.array([[2.0, 0.5], [0.5, -1.0]])
    p = sk.from_quadratic(H)
    x = np.array([0.3, -0.7])
    assert np.isclose(p.energy(x), 0.5 * x @ H @ x)
    assert np.allclose(p.gradient(x), H @ x)
    assert np.allclose(p.hessian_vec(x, x), H @ x)
    with pytest.raises(ValueError):
        sk.from_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Morse island


def test_morse_pair_energy_against_direct_formula():
    spec = MorseClusterSpec()
    # hand-coded oracle for the cut-and-shifted pair well
    def oracle(r):
        raw = lambda s: spec.A * (math.exp(-2 * spec.a * (s - spec.r0))
                                  - 2 * math.exp(-spec.a * (s - spec.r0)))
        return raw(r) - raw(spec.rc) if r < spec.rc else 0.0

    for r in (2.0, spec.r0, 4.5, 9.4999, spec.rc, 11.0):
        assert np.isclose(morse_pair_energy(r, spec), oracle(r), atol=1e-15)
    # value at the well bottom: -A minus the cutoff shift
    shift = spec.A * (math.exp(-2 * spec.a * (spec.rc - spec.r0))
                      - 2 * math.exp(-spec.a * (spec.rc - spec.r0)))
    assert np.isclose(morse_pair_energy(spec.r0, spec), -spec.A - shift)


def test_morse_pair_cut_and_shift_continuity():
    spec = MorseClusterSpec()
    assert morse_pair_energy(spec.rc, spec) == 0.0
    assert morse_pair_energy(spec.rc + 1.0, spec) == 0.0
    assert abs(morse_pair_energy(spec.rc - 1e-9, spec)) < 1e-12


def test_morse_lattice_counts():
    coords, frozen = build_morse_lattice(MorseClusterSpec())
    assert len(coords) == 6 * 56 + 7
    assert int((~frozen).sum()) == 3 * 56 + 7 == 175


def test_morse_lattice_single_layer():
    spec = MorseClusterSpec(slab_layers=1, atoms_per_layer=12, frozen_layers=0,
                            island_atoms=0)
    coords, frozen = build_morse_lattice(spec)
    assert len(coords) == 12
    assert not frozen.any()


def test_morse_lattice_nearest_neighbor_distance():
    coords, _ = build_morse_lattice(MorseClusterSpec())
    d = coords[None, :, :] - coords[:, None, :]
    r = np.sqrt((d ** 2).sum(-1))
    np.fill_diagonal(r, np.inf)
    assert abs(r.min() - 2.74412) < 1e-9


def test_morse_model_dimensions(morse):
    assert morse.dimension == 525
    assert int((~morse.extras["frozen"]).sum()) == 175


def test_morse_gradient_matches_fd(morse):
    rng = np.random.default_rng(17)
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    x = x + 0.04 * rng.standard_normal(x.size)
    g = morse.gradient(x)
    idx = rng.choice(x.size, 20, replace=False)
    h = 1e-5
    for i in idx:
        e = np.zeros_like(x)
        e[i] = h
        fd = (morse.energy(x + e) - morse.energy(x - e)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_morse_hessian_consistency(morse):
    rng = np.random.default_rng(18)
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    x = x + 0.04 * rng.standard_normal(x.size)
    u = rng.standard_normal(x.size)
    w = rng.standard_normal(x.size)
    hu = morse.hessian_vec(x, u)
    h = 1e-5 * (1.0 + np.linalg.norm(x, ord=np.inf))
    un = np.linalg.norm(u)
    hfd = (morse.gradient(x + (h / un) * u) - morse.gradient(x - (h / un) * u)) * (un / (2 * h))
    assert np.linalg.norm(hu - hfd) <= 1e-5 * np.linalg.norm(hfd)
    sym = abs(u @ morse.hessian_vec(x, w) - w @ morse.hessian_vec(x, u))
    assert sym <= 1e-10 * max(1.0, np.linalg.norm(hu) * np.linalg.norm(w))


def test_morse_hessian_diag_matches_hessian_vec(morse):
    rng = np.random.default_rng(19)
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    x = x + 0.03 * rng.standard_normal(x.size)
    diag = morse.hessian_diag_fn(x)
    for i in rng.choice(x.size, 8, replace=False):
        e = np.zeros_like(x)
        e[i] = 1.0
        assert np.isclose(diag[i], morse.hessian_vec(x, e)[i], rtol=1e-10)


def test_potential_is_an_inner_solver_objective(three_hole, morse):
    x = np.array([0.3, -0.2])
    assert three_hole.value(x) == three_hole.energy(x)
    assert three_hole.precondition_diag(x) is None
    xm = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    np.testing.assert_array_equal(morse.precondition_diag(xm), morse.hessian_diag_fn(xm))


def test_morse_values_do_not_depend_on_where_the_pair_list_was_built():
    # one model walks to x in 0.18 A steps, rebuilding its pair list on the
    # way; a fresh one rebuilds once, at x: the pairs inside the cutoff and
    # their order, and so every value, must be the same
    walked = sk.make_builtin("morse_island")
    x0 = walked.extras["coords"][~walked.extras["frozen"]].ravel()
    rng = np.random.default_rng(23)
    x = x0 + 0.05 * rng.standard_normal(x0.size)
    x[-21:] += np.tile([1.2, -0.8, 0.3], 7)  # the island hops ~1.5 A
    for t in np.linspace(0.0, 1.0, 9):
        walked.energy(x0 + t * (x - x0))
    fresh = sk.make_builtin("morse_island")
    u = rng.standard_normal(x0.size)
    assert walked.energy(x) == fresh.energy(x)
    np.testing.assert_array_equal(walked.gradient(x), fresh.gradient(x))
    np.testing.assert_array_equal(walked.hessian_vec(x, u), fresh.hessian_vec(x, u))
    np.testing.assert_array_equal(walked.hessian_fn(x), fresh.hessian_fn(x))


def test_morse_energy_after_a_long_move_counts_every_pair(morse):
    # an atom moved 10 A meets pairs its first pair list never held; every
    # value must equal a direct sum over the pairs inside the cutoff, so a
    # pair's terms land on both its atoms with the right signs
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel().copy()
    x[0] += 10.0
    full = morse_full_coordinates(morse, x)
    spec = morse.extras["spec"]
    direct = sum(morse_pair_energy(np.linalg.norm(full[i] - full[j]), spec)
                 for i in range(len(full)) for j in range(i + 1, len(full)))
    assert abs(morse.energy(x) - direct) <= 1e-9

    u = np.random.default_rng(31).standard_normal(x.size)
    ufull = np.zeros_like(full)
    ufull[morse.extras["free_indices"]] = u.reshape(-1, 3)
    grad, hu, diag = (np.zeros_like(full) for _ in range(3))
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            d = full[i] - full[j]
            r = math.sqrt(d @ d)
            if r >= spec.rc:
                continue
            _, dphi, ddphi = _morse_pair_terms(r, spec)
            rhat = d / r
            # K = d2 phi / dd dd^T, the pair's block of the Hessian
            K = (ddphi - dphi / r) * np.outer(rhat, rhat) + (dphi / r) * np.eye(3)
            grad[i] += dphi * rhat
            grad[j] -= dphi * rhat
            hu[i] += K @ (ufull[i] - ufull[j])
            hu[j] -= K @ (ufull[i] - ufull[j])
            diag[i] += K.diagonal()
            diag[j] += K.diagonal()
    free = morse.extras["free_indices"]
    for got, ref in ((morse.gradient(x), grad), (morse.hessian_vec(x, u), hu),
                     (morse.hessian_diag_fn(x), diag)):
        ref = ref[free].ravel()
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_morse_non_finite_point_ends_run_as_failed(morse, bad):
    # a non-finite separation fails the cutoff test and the Verlet check, so
    # the atom's pairs must not silently drop out and leave finite values
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel().copy()
    x[-1] = bad
    assert np.isnan(morse.energy(x))
    assert np.isnan(morse.gradient(x)).all()
    rec = sk.run(morse, x, sk.SearchConfig(max_outer_iters=3))
    assert (rec.status, rec.message) == (
        "failed", "iteration 0: non-finite gradient at the starting point")


def test_morse_remembered_geometry_matches_a_fresh_model(morse_saddle):
    # one model walks the points an inner solve visits: y, its projection
    # off the mode, a rejected trial, the accepted trial y' and its
    # projection; every value at each point must equal a fresh model's
    model = sk.make_builtin("morse_island")
    geometry = inspect.getclosurevars(model.energy_fn).nonlocals["_geometry"]
    rng = np.random.default_rng(41)
    n = morse_saddle.size
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    u = rng.standard_normal(n)
    d = rng.standard_normal(n)

    def proj(y):
        return y - ((y - morse_saddle) @ v) * v

    calls = (lambda p, x: p.energy(x), lambda p, x: p.gradient(x),
             lambda p, x: p.hessian_vec(x, u), lambda p, x: p.precondition_diag(x),
             lambda p, x: p.hessian_fn(x))

    def check(x, first):
        # start with a different function at each point, so each one meets
        # both a new point and a remembered one
        fresh = sk.make_builtin("morse_island")
        order = calls[first:] + calls[:first]
        for f in order + order:
            np.testing.assert_array_equal(f(model, x), f(fresh, x))

    y = morse_saddle + 0.02 * rng.standard_normal(n)
    accepted = y + 0.01 * d
    for k, x in enumerate((y, proj(y), y + 0.1 * d, accepted, proj(accepted))):
        check(x, k)

    # the key is the point's content: the caller's array changed in place
    x = accepted.copy()
    model.energy(x)
    x[:3] += 0.01
    check(x, 1)
    # an island hop of ~1.5 A rebuilds the pair list
    separations = inspect.getclosurevars(geometry).nonlocals["_separations"]
    listed = inspect.getclosurevars(separations).nonlocals["verlet"]
    x[-21:] += np.tile([1.2, -0.8, 0.3], 7)
    check(x, 2)
    assert inspect.getclosurevars(separations).nonlocals["verlet"] is not listed
    check(accepted, 3)

    # the two most recent points are remembered, and what is handed out
    # from them cannot be written, the per-point index arrays included; a
    # caller's result is its own
    recent = inspect.getclosurevars(geometry).nonlocals["recent"]
    a, b = geometry(y), geometry(proj(y))
    assert geometry(y) is a and geometry(proj(y)) is b and len(recent) == 2
    for (*arrays, e), x in ((a, y), (b, proj(y))):
        assert e == model.energy(x)
        assert all(isinstance(arr, np.ndarray) for arr in arrays)
        assert any(arr.dtype.kind == "i" for arr in arrays)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            # nor through a writable array it is a view of
            assert arr.base is None or not arr.base.flags.writeable
    model.gradient(y)[:] = 0.0
    model.precondition_diag(y)[:] = 0.0
    check(y, 1)


@pytest.mark.parametrize("where", ["lattice", "saddle", "perturbed", "far"])
def test_morse_assembled_hessian_matches_products(morse, morse_saddle, where):
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    if where == "saddle":
        x = morse_saddle
    elif where != "lattice":
        amp = 0.05 if where == "perturbed" else 0.3
        x = x + amp * np.random.default_rng(29).standard_normal(x.size)
    H = morse.hessian_fn(x)
    ref = sk.dense_hessian(dataclasses.replace(morse, hessian_fn=None), x)  # from products
    assert H.shape == (morse.dimension, morse.dimension)
    np.testing.assert_array_equal(H, H.T)
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()
    np.testing.assert_array_equal(sk.dense_hessian(morse, x), H)


def test_xyz_roundtrip(tmp_path, morse):
    x = morse.extras["coords"][~morse.extras["frozen"]].ravel()
    full = morse_full_coordinates(morse, x)
    path = tmp_path / "island.xyz"
    write_xyz(path, full, symbol="Pt", comment="test geometry")
    lines = path.read_text().splitlines()
    assert int(lines[0]) == len(full)
    assert lines[1] == "test geometry"
    parsed = np.array([[float(v) for v in ln.split()[1:]] for ln in lines[2:]])
    assert np.allclose(parsed, full, atol=5e-11)
    assert all(ln.split()[0] == "Pt" for ln in lines[2:])


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        MorseClusterSpec(A=-1.0)
    with pytest.raises(ValueError):
        MorseClusterSpec(frozen_layers=7)
    with pytest.raises(ValueError):
        MorseClusterSpec(island_atoms=9)
