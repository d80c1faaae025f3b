"""Energy surfaces: the model abstraction and the built-in benchmark problems.

Every surface exposes energy, gradient and Hessian-vector products through
:class:`PotentialModel`.  The four builtins are a 2-d double well, a 2-d
three-hole surface, a 3-d axis-aligned quadratic (used on the unit sphere),
and a Morse-potential adatom island on an FCC(111) slab, which also
assembles its Hessian.  The island remembers the pair geometry of its two
most recent points, because the reversed objective alternates between a
point and its projection off the mode.  A point's geometry holds the pairs
inside the cutoff as the flat coordinate indices ``3 * atom + xyz`` of
their two atoms, the pair vectors and lengths, phi' and phi''; gradient and
Hessian-vector sums are then one ``bincount`` per side over every
coordinate.  Per-pair rows are gathered with ``take``, which copies whole
rows at a fraction of the cost of fancy indexing; gathers are exact and
``bincount`` adds in pair order, so the values do not depend on the layout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import count_negative
from .errors import DimensionError

__all__ = [
    "PotentialModel",
    "MorseClusterSpec",
    "make_builtin",
    "from_quadratic",
    "build_morse_lattice",
    "morse_pair_energy",
    "write_xyz",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("double_well", "three_hole", "sphere_quadratic", "morse_island")


@dataclass(frozen=True, eq=False)
class PotentialModel:
    """Evaluable energy surface with analytic or finite-difference derivatives.

    ``stationary_points`` is optional test metadata: tuples of
    ``(point, hessian_index)`` for known critical points.  ``extras`` carries
    problem-specific data (cluster geometry, element symbol, ...).
    """

    name: str
    dimension: int
    energy_fn: callable
    gradient_fn: callable
    hessian_vec_fn: callable = None
    # read by no library module (the Jacobi map takes the assembled
    # Hessian's diagonal); kept only because the benchmark's trace wraps it
    hessian_diag_fn: callable = None
    # optional assembled Hessian, x -> (d, d) symmetric array; when set,
    # eigen.Hessian takes products, matrix and Jacobi map from it, and may
    # overwrite a writeable result in place (Hessian.flip), so each call
    # returns a new array
    hessian_fn: callable = None
    stationary_points: tuple = ()
    extras: dict = field(default_factory=dict)

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionError(
                f"{self.name}: expected point of length {self.dimension}, "
                f"got shape {x.shape}"
            )
        return x

    def energy(self, x) -> float:
        return float(self.energy_fn(self._check_point(x)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.gradient_fn(self._check_point(x)), dtype=float)

    def value(self, x) -> float:
        """The energy, under the objective name the inner solvers call."""
        return self.energy(x)

    def hessian_vec(self, x, u) -> np.ndarray:
        """Action of the Hessian at ``x`` on ``u`` (central FD fallback)."""
        x = self._check_point(x)
        u = self._check_point(u)
        if self.hessian_vec_fn is not None:
            return np.asarray(self.hessian_vec_fn(x, u), dtype=float)
        unorm = np.linalg.norm(u)
        if unorm == 0.0:
            return np.zeros_like(u)
        h = 1e-5 * (1.0 + np.linalg.norm(x, ord=np.inf))
        un = u / unorm
        gp = self.gradient_fn(x + h * un)
        gm = self.gradient_fn(x - h * un)
        return (np.asarray(gp) - np.asarray(gm)) * (unorm / (2.0 * h))

    def saddle_points(self):
        """Known index-1 stationary points from the metadata."""
        return [np.asarray(p, float) for p, idx in self.stationary_points if idx == 1]


# ----------------------------------------------------------------------------
# 2-d double well:  V(x, y) = (x^2 - 1)^2 / 4 + mu y^2 / 2


def _double_well(mu: float) -> PotentialModel:
    if mu <= 0:
        raise ValueError(f"double_well requires mu > 0, got {mu}")

    def energy(p):
        x, y = p
        return 0.25 * (x * x - 1.0) ** 2 + 0.5 * mu * y * y

    def gradient(p):
        x, y = p
        return np.array([(x * x - 1.0) * x, mu * y])

    def hess_vec(p, u):
        x, _ = p
        return np.array([(3.0 * x * x - 1.0) * u[0], mu * u[1]])

    points = (
        (np.array([1.0, 0.0]), 0),
        (np.array([-1.0, 0.0]), 0),
        (np.array([0.0, 0.0]), 1),
    )
    return PotentialModel(
        name="double_well",
        dimension=2,
        energy_fn=energy,
        gradient_fn=gradient,
        hessian_vec_fn=hess_vec,
        stationary_points=points,
        extras={"mu": mu},
    )


# ----------------------------------------------------------------------------
# 2-d three-hole surface: two deep wells near (+-1, 0), a shallow well above,
# three index-1 saddles between them and one maximum.

# (coefficient, x-center, y-center) of the Gaussian terms
_THREE_HOLE_TERMS = (
    (3.0, 0.0, 1.0 / 3.0),
    (-3.0, 0.0, 5.0 / 3.0),
    (-5.0, 1.0, 0.0),
    (-5.0, -1.0, 0.0),
)


def _read_only(*values):
    a = np.array(values)
    a.flags.writeable = False
    return a


# critical points refined to machine precision by Newton iteration; built
# once and shared by every model, so read-only
_THREE_HOLE_POINTS = (
    (_read_only(0.0, -0.31582655047813868), 1),
    (_read_only(-0.61727230787645981, 1.1027345175080963), 1),
    (_read_only(0.61727230787645981, 1.1027345175080963), 1),
    (_read_only(-1.0480549928242195, -0.04209366630667781), 0),
    (_read_only(1.0480549928242195, -0.04209366630667781), 0),
    (_read_only(0.0, 1.5370820044494622), 0),
    (_read_only(0.0, 0.51918674189207281), 2),
)


def _three_hole() -> PotentialModel:
    terms = _THREE_HOLE_TERMS
    exp = math.exp

    def energy(p):
        x, y = p
        v = 0.2 * x ** 4 + 0.2 * (y - 1.0 / 3.0) ** 4
        for c, a, b in terms:
            dx = x - a
            dy = y - b
            v += c * exp(-dx * dx - dy * dy)
        return v

    def gradient(p):
        x, y = p
        gx = 0.8 * x ** 3
        gy = 0.8 * (y - 1.0 / 3.0) ** 3
        for c, a, b in terms:
            dx = x - a
            dy = y - b
            e = c * exp(-dx * dx - dy * dy)
            gx -= 2.0 * e * dx
            gy -= 2.0 * e * dy
        return np.array([gx, gy])

    def hess_vec(p, u):
        x, y = p
        hxx = 2.4 * x * x
        hyy = 2.4 * (y - 1.0 / 3.0) ** 2
        hxy = 0.0
        for c, a, b in terms:
            dx = x - a
            dy = y - b
            e = c * exp(-dx * dx - dy * dy)
            hxx += e * (4.0 * dx * dx - 2.0)
            hyy += e * (4.0 * dy * dy - 2.0)
            hxy += e * 4.0 * dx * dy
        return np.array([hxx * u[0] + hxy * u[1], hxy * u[0] + hyy * u[1]])

    return PotentialModel(
        name="three_hole",
        dimension=2,
        energy_fn=energy,
        gradient_fn=gradient,
        hessian_vec_fn=hess_vec,
        stationary_points=_THREE_HOLE_POINTS,
    )


# ----------------------------------------------------------------------------
# 3-d quadratic x1^2 + 2 x2^2 + 3 x3^2 (interesting once restricted to S^2)

_SPHERE_QUAD_DIAG = np.array([2.0, 4.0, 6.0])  # Hessian diagonal


def _sphere_quadratic() -> PotentialModel:
    diag = _SPHERE_QUAD_DIAG

    def energy(p):
        return float(p[0] ** 2 + 2.0 * p[1] ** 2 + 3.0 * p[2] ** 2)

    def gradient(p):
        return diag * p

    def hess_vec(p, u):
        return diag * u

    return PotentialModel(
        name="sphere_quadratic",
        dimension=3,
        energy_fn=energy,
        gradient_fn=gradient,
        hessian_vec_fn=hess_vec,
        stationary_points=((np.zeros(3), 0),),
    )


def from_quadratic(matrix, name="quadratic") -> PotentialModel:
    """Model for V(x) = x^T H x / 2 with a constant symmetric ``matrix``."""
    H = np.asarray(matrix, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("quadratic matrix must be square")
    if not np.allclose(H, H.T, atol=1e-12):
        raise ValueError("quadratic matrix must be symmetric")
    d = H.shape[0]
    index = count_negative(np.linalg.eigvalsh(H))
    return PotentialModel(
        name=name,
        dimension=d,
        energy_fn=lambda x: 0.5 * float(x @ H @ x),
        gradient_fn=lambda x: H @ x,
        hessian_vec_fn=lambda x, u: H @ u,
        stationary_points=((np.zeros(d), index),),
        extras={"matrix": H},
    )


# ----------------------------------------------------------------------------
# Morse adatom island on an FCC(111) slab


@dataclass(frozen=True)
class MorseClusterSpec:
    """Parameters of the Morse island problem.

    Defaults reproduce diffusion barriers on Pt(111): pair well depth ``A``
    in eV, inverse range ``a`` in 1/Angstrom, equilibrium distance ``r0`` and
    cutoff ``rc`` in Angstrom.  The slab is ``slab_layers`` hexagonal layers
    of ``atoms_per_layer`` atoms with the bottom ``frozen_layers`` held fixed;
    ``island_atoms`` adatoms (a compact heptamer by default) sit on hollow
    sites above the top layer.
    """

    A: float = 0.7102
    a: float = 1.6047
    r0: float = 2.8970
    rc: float = 9.5
    lattice_constant: float = 2.74412
    slab_layers: int = 6
    atoms_per_layer: int = 56
    frozen_layers: int = 3
    island_atoms: int = 7

    def __post_init__(self):
        for name in ("A", "a", "r0", "rc", "lattice_constant"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MorseClusterSpec.{name} must be positive")
        if self.slab_layers < 1 or self.atoms_per_layer < 1:
            raise ValueError("slab must contain at least one layer of atoms")
        if not 0 <= self.frozen_layers <= self.slab_layers:
            raise ValueError("frozen_layers must lie in [0, slab_layers]")
        if not 0 <= self.island_atoms <= 7:
            raise ValueError("island_atoms supports 0..7 (compact heptamer)")


def _morse_pair_terms(r, spec: MorseClusterSpec):
    """Cut-and-shifted pair energy and its first two radial derivatives.

    ``r`` holds separations inside the cutoff; see :func:`morse_pair_energy`.
    """
    A, aa = spec.A, spec.a
    w = np.exp(-aa * (r - spec.r0))
    wc = math.exp(-aa * (spec.rc - spec.r0))
    phi = A * (w * w - 2.0 * w) - A * (wc * wc - 2.0 * wc)
    dphi = 2.0 * aa * A * (w - w * w)
    ddphi = 2.0 * aa * aa * A * (2.0 * w * w - w)
    return phi, dphi, ddphi


def morse_pair_energy(r, spec: MorseClusterSpec) -> float:
    """Cut-and-shifted Morse pair energy at separation ``r``.

    The raw well is A*(exp(-2a(r-r0)) - 2 exp(-a(r-r0))); the value is
    shifted to vanish at the cutoff and is exactly zero beyond it.  The
    derivative is left discontinuous at the cutoff.
    """
    r = float(r)
    if r >= spec.rc:
        return 0.0
    return float(_morse_pair_terms(r, spec)[0])


def _layer_grid(n: int):
    """Factor a layer size into (cols, rows) as close to square as possible."""
    rows = int(math.isqrt(n))
    while n % rows:
        rows -= 1
    return n // rows, rows


def build_morse_lattice(spec: MorseClusterSpec = None):
    """Construct slab + island coordinates and the frozen-atom mask.

    Returns ``(coords, frozen)`` with ``coords`` of shape (n_atoms, 3) and
    ``frozen`` a boolean vector marking the bottom ``frozen_layers`` layers.
    Layers stack ABC with interlayer spacing d*sqrt(2/3); the island occupies
    fcc hollow sites (continuing the bulk stacking) centered on the slab.
    """
    if spec is None:
        spec = MorseClusterSpec()
    d = spec.lattice_constant
    a1 = np.array([d, 0.0])
    a2 = np.array([0.5 * d, 0.5 * math.sqrt(3.0) * d])
    stack = (a1 + a2) / 3.0
    height = d * math.sqrt(2.0 / 3.0)
    cols, rows = _layer_grid(spec.atoms_per_layer)

    coords = []
    frozen = []
    for layer in range(spec.slab_layers):
        off = layer * stack
        z = -layer * height
        fixed = layer >= spec.slab_layers - spec.frozen_layers
        for j in range(rows):
            for i in range(cols):
                xy = i * a1 + j * a2 + off
                coords.append([xy[0], xy[1], z])
                frozen.append(fixed)

    if spec.island_atoms:
        # hollow sites continue the ABC sequence one layer above the surface
        off = -stack
        center = (cols // 2) * a1 + (rows // 2) * a2 + off
        ring = [a1, a2, a2 - a1, -a1, -a2, a1 - a2]
        sites = [center] + [center + r for r in ring]
        for xy in sites[: spec.island_atoms]:
            coords.append([xy[0], xy[1], height])
            frozen.append(False)

    return np.array(coords, dtype=float), np.array(frozen, dtype=bool)


# Verlet skin in Angstrom (Verlet 1967): the pair list holds every pair
# within rc + skin of the geometry it was built at, and is rebuilt once any
# free atom has moved more than skin / 2 from there, so no pair can reach
# the cutoff unlisted
_VERLET_SKIN = 1.0


def _morse_island(spec: MorseClusterSpec = None) -> PotentialModel:
    if spec is None:
        spec = MorseClusterSpec()
    base, frozen = build_morse_lattice(spec)
    n_atoms = len(base)
    free_idx = np.flatnonzero(~frozen)
    n_free = len(free_idx)
    dim = 3 * n_free
    # position of each atom among the free atoms, -1 for frozen ones
    free_pos = np.full(n_atoms, -1)
    free_pos[free_idx] = np.arange(n_free)

    iu, ju = np.triu_indices(n_atoms, 1)
    # frozen-frozen pairs never move: fold their energy into a constant
    static = frozen[iu] & frozen[ju]
    # pair indices are int32, half the memory of the default: every flat
    # coordinate index is below 3 * n_atoms
    ia, ja = iu[~static].astype(np.int32), ju[~static].astype(np.int32)
    rc = spec.rc

    if static.any():
        r = np.linalg.norm(base[iu[static]] - base[ju[static]], axis=1)
        e_static = float(np.sum(_morse_pair_terms(r[r < rc], spec)[0]))
    else:
        e_static = 0.0

    # a pair's atoms are held as the flat indices 3 * atom + xyz of their
    # coordinates, one row per pair
    xyz = np.arange(3, dtype=np.int32)
    free_flat = (3 * free_idx[:, None] + xyz).ravel()

    def _verlet_list(full):
        """Pairs within rc + skin of ``full`` in triu order, and the free atoms' positions."""
        dvec = np.take(full, ia, axis=0) - np.take(full, ja, axis=0)
        keep = np.einsum("ij,ij->i", dvec, dvec) < (rc + _VERLET_SKIN) ** 2
        return 3 * ia[keep, None] + xyz, 3 * ja[keep, None] + xyz, full[free_idx]

    # one tuple, replaced whole on a rebuild
    verlet = _verlet_list(base)

    def _separations(x):
        """Pairs inside the cutoff at x: flat indices, vectors and lengths.

        The pairs inside the cutoff, and their order, do not depend on where
        the list was built, so neither do the values computed from them.
        """
        nonlocal verlet
        xa = x.reshape(-1, 3)
        full = base.copy()
        full[free_idx] = xa
        si, sj, built_at = verlet
        if np.max(np.sum((xa - built_at) ** 2, axis=1)) > (0.5 * _VERLET_SKIN) ** 2:
            verlet = _verlet_list(full)
            si, sj, _ = verlet
        flat = full.ravel()
        dvec = flat.take(si) - flat.take(sj)
        r = np.sqrt(np.einsum("ij,ij->i", dvec, dvec))
        k = np.flatnonzero(r < rc)
        return (np.take(si, k, axis=0), np.take(sj, k, axis=0),
                np.take(dvec, k, axis=0), r.take(k))

    # geometry of the two most recent points, oldest first: the ray
    # objective alternates between y and its mode projection, so one entry
    # saves nothing, and more than two cost peak memory for no further hit
    recent = {}

    def _geometry(x):
        """Pairs inside the cutoff at x: flat indices, vectors, lengths, phi', phi'', and the energy.

        Keyed by the content of x, so a caller that changes its array in
        place gets the new point.  The arrays are shared by every call at
        the same point, so they are read-only.
        """
        key = x.tobytes()
        hit = recent.get(key)
        if hit is not None:
            return hit
        if len(recent) == 2:
            del recent[next(iter(recent))]
        if np.isfinite(x).all():
            si, sj, dvec, r = _separations(x)
        else:
            # a non-finite separation fails the cutoff test and the Verlet
            # check alike, so its atom's pairs would drop out and leave every
            # value finite: pair each free atom with itself at NaN length
            # instead, which makes every value computed from here NaN
            si = sj = 3 * free_idx.astype(np.int32)[:, None] + xyz
            dvec = np.full((n_free, 3), np.nan)
            r = np.full(n_free, np.nan)
        phi, dphi, ddphi = _morse_pair_terms(r, spec)
        arrays = (si, sj, dvec, r, dphi, ddphi)
        for a in arrays:
            a.flags.writeable = False
        geo = recent[key] = arrays + (float(phi.sum()) + e_static,)
        return geo

    def _scatter(si, sj, vals):
        """Sums of pair rows at atom i minus sums at atom j, free coordinates.

        A bincount over flat indices adds each coordinate's terms in pair order."""
        w = vals.ravel()
        return (np.bincount(si.ravel(), w, 3 * n_atoms)
                - np.bincount(sj.ravel(), w, 3 * n_atoms)).take(free_flat)

    def energy(x):
        return _geometry(x)[6]

    def gradient(x):
        si, sj, dm, rm, dphi, _, _ = _geometry(x)
        return _scatter(si, sj, (dphi / rm)[:, None] * dm)

    def hess_vec(x, u):
        si, sj, dm, rm, dphi, ddphi, _ = _geometry(x)
        ufull = np.zeros(3 * n_atoms)
        ufull[free_flat] = u
        rhat = dm / rm[:, None]
        s = ufull.take(si) - ufull.take(sj)
        radial = np.einsum("ij,ij->i", rhat, s)
        tang = dphi / rm
        hv = (ddphi - tang)[:, None] * radial[:, None] * rhat + tang[:, None] * s
        return _scatter(si, sj, hv)

    def hessian(x):
        si, sj, dm, rm, dphi, ddphi, _ = _geometry(x)
        i, j = si[:, 0] // 3, sj[:, 0] // 3
        rhat = dm / rm[:, None]
        tang = dphi / rm
        # pair block K = (phi'' - phi'/r) rr^T + (phi'/r) I, with rr^T formed
        # before it is scaled so that every block, and H, is exactly symmetric
        rr = rhat[:, :, None] * rhat[:, None, :]
        K = (ddphi - tang)[:, None, None] * rr + tang[:, None, None] * np.eye(3)
        H = np.zeros((n_free, 3, n_free, 3))
        # an atom's diagonal block sums the blocks of the pairs it is in
        flat = K.reshape(-1)
        cells = np.arange(9, dtype=np.int32)
        sums = (np.bincount((9 * i[:, None] + cells).ravel(), flat, 9 * n_atoms)
                + np.bincount((9 * j[:, None] + cells).ravel(), flat, 9 * n_atoms))
        f = np.arange(n_free)
        H[f, :, f, :] = np.take(sums.reshape(n_atoms, 3, 3), free_idx, axis=0)
        # a free-free pair occurs once in the list: its blocks are -K both ways
        fi, fj = free_pos.take(i), free_pos.take(j)
        both = np.flatnonzero((fi >= 0) & (fj >= 0))
        fi, fj, Kf = fi.take(both), fj.take(both), np.take(K, both, axis=0)
        H[fi, :, fj, :] = -Kf
        H[fj, :, fi, :] = -Kf
        return H.reshape(dim, dim)

    return PotentialModel(
        name="morse_island",
        dimension=dim,
        energy_fn=energy,
        gradient_fn=gradient,
        hessian_vec_fn=hess_vec,
        hessian_fn=hessian,
        extras={
            "spec": spec,
            "coords": base,
            "frozen": frozen,
            "free_indices": free_idx,
            "element": "Pt",
        },
    )


def morse_full_coordinates(model: PotentialModel, x) -> np.ndarray:
    """Expand a Morse optimization vector into the full (n_atoms, 3) array."""
    full = model.extras["coords"].copy()
    full[model.extras["free_indices"]] = np.asarray(x, float).reshape(-1, 3)
    return full


# ----------------------------------------------------------------------------


def make_builtin(name: str, params: dict = None) -> PotentialModel:
    """Instantiate a benchmark surface by name.

    ``params`` overrides problem constants, e.g. ``{"mu": 2.0}`` for the
    double well or any :class:`MorseClusterSpec` field for the island.
    """
    params = dict(params or {})
    if name == "double_well":
        mu = float(params.pop("mu", 1.0))
        if params:
            raise ValueError(f"double_well: unknown parameters {params}")
        return _double_well(mu=mu)
    if name == "three_hole":
        if params:
            raise ValueError(f"three_hole takes no parameters, got {params}")
        return _three_hole()
    if name == "sphere_quadratic":
        if params:
            raise ValueError(f"sphere_quadratic takes no parameters, got {params}")
        return _sphere_quadratic()
    if name == "morse_island":
        return _morse_island(MorseClusterSpec(**params))
    raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


def write_xyz(path, coords, symbol="Pt", comment=""):
    """Write coordinates (n, 3) to a standard XYZ text file."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write(f"{len(coords)}\n{comment}\n")
        for row in coords:
            fh.write(f"{symbol} {row[0]:.10f} {row[1]:.10f} {row[2]:.10f}\n")
