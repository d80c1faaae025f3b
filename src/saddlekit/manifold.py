"""Equality-constraint manifolds: tangent projection, geodesic projection on
the unit sphere, and retraction-based constrained inner solves."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OffManifoldError, SubsolveError
from .subsolve import InnerSolve, SubsolveConfig, descend

__all__ = [
    "ManifoldSpec",
    "TangentProjector",
    "sphere",
    "tangent_project",
    "tangent_projector",
    "sphere_geodesic_project",
    "great_circle_angle",
    "solve_constrained_subproblem",
    "constrained_index",
]

_FEAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ManifoldSpec:
    """Manifold cut out by equality constraints c_i(x) = 0 in R^d.

    ``constraints`` and ``constraint_grads`` are parallel tuples of callables;
    ``retraction`` maps (point, tangent step) back onto the manifold.
    ``constraint_hessian_vecs`` (optional, one (x, u) -> vector per
    constraint) enable intrinsic second-order classification at critical
    points.
    """

    name: str
    ambient_dim: int
    constraints: tuple
    constraint_grads: tuple
    retraction: callable
    constraint_hessian_vecs: tuple = None

    @property
    def n_constraints(self):
        return len(self.constraints)

    def residuals(self, x):
        return np.array([c(x) for c in self.constraints], dtype=float)

    def check_feasible(self, x, tol=_FEAS_TOL):
        r = self.residuals(x)
        if np.any(np.abs(r) > tol):
            raise OffManifoldError(
                f"point violates {self.name} constraints: residuals {r}"
            )


def sphere(dim=3) -> ManifoldSpec:
    """Unit sphere |x| = 1 in R^dim with metric-projection retraction."""

    def c(x):
        return 0.5 * (float(x @ x) - 1.0)

    def grad_c(x):
        return np.asarray(x, dtype=float)

    def retract(x, step):
        y = np.asarray(x, dtype=float) + np.asarray(step, dtype=float)
        n = np.linalg.norm(y)
        if n == 0.0:
            raise SubsolveError("retraction of a vanishing point is undefined")
        return y / n

    return ManifoldSpec(
        name=f"sphere{dim - 1}",
        ambient_dim=dim,
        constraints=(c,),
        constraint_grads=(grad_c,),
        retraction=retract,
        constraint_hessian_vecs=(lambda x, u: np.asarray(u, dtype=float),),
    )


@dataclass(frozen=True, eq=False)
class TangentProjector:
    """Orthogonal projector onto a tangent space, with an explicit basis."""

    basis: np.ndarray  # (d, d-p), orthonormal columns spanning the tangent space
    normals: np.ndarray  # (d, p), orthonormal columns spanning the normal space

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return u - self.normals @ (self.normals.T @ u)


def tangent_projector(M: ManifoldSpec, x) -> TangentProjector:
    """Build the tangent projector at a feasible point.

    Raises on rank-deficient constraint gradients (tolerance 1e-10 relative
    to the largest singular value).
    """
    x = np.asarray(x, dtype=float)
    M.check_feasible(x)
    N = np.column_stack([g(x) for g in M.constraint_grads])
    U, s, _ = np.linalg.svd(N, full_matrices=True)
    p = N.shape[1]
    if s.size < p or s[p - 1] <= 1e-10 * s[0]:
        raise ValueError(
            f"constraint gradients are rank deficient at x (singular values {s})"
        )
    return TangentProjector(basis=U[:, p:], normals=U[:, :p])


def tangent_project(M: ManifoldSpec, x, u) -> np.ndarray:
    """Remove the normal-space component of ``u`` at the feasible point ``x``."""
    return tangent_projector(M, x)(np.asarray(u, dtype=float))


def sphere_geodesic_project(x, v, y):
    """Closest point to ``y`` on the great circle through ``x`` tangent to ``v``.

    Returns ``(theta, point)`` with ``point = x cos(theta) + v sin(theta)``.
    Of the two arctan branches the one with the smaller geodesic distance is
    kept; the antipodal tie (y orthogonal to the circle plane) resolves to
    theta = pi/2 with a warning.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, vec in (("x", x), ("v", v), ("y", y)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise OffManifoldError(f"{name} must be a unit vector")
    if abs(x @ v) > 1e-10:
        raise ValueError("v must be tangent at x")
    theta, a, b = great_circle_angle(x, v, y)
    if a == 0.0 and b == 0.0:
        warnings.warn(
            "geodesic projection is degenerate (y orthogonal to the circle); "
            "resolving to theta = pi/2",
            RuntimeWarning,
        )
    return theta, x * math.cos(theta) + v * math.sin(theta)


def great_circle_angle(x, t, y):
    """Angle of the point of the circle ``x cos(theta) + t sin(theta)`` nearest ``y``.

    Returns ``(theta, x.y, t.y)`` for orthonormal ``x``, ``t`` (unchecked).
    Of the two arctan branches the one with the smaller geodesic distance is
    the one atan2 returns; the antipodal tie (``y`` orthogonal to the circle
    plane) resolves to theta = pi/2.
    """
    a = float(x @ y)
    b = float(t @ y)
    if a == 0.0 and b == 0.0:
        return 0.5 * math.pi, a, b
    return math.atan2(b, a), a, b


class ManifoldGeometry:
    """Rules of the descent loop on ``M``.

    Gradients and carried directions are projected onto the tangent space
    at each accepted point (one projector per point), trial steps are
    retracted onto ``M``, the Armijo slope is ``t g.d``, the stall test uses
    the Euclidean norm, and conjugacy never restarts on a schedule.
    """

    norm_ord = None
    restart_every = math.inf
    clipped = False

    def __init__(self, M: ManifoldSpec, y0):
        M.check_feasible(y0)
        self.M = M
        self.no_descent_hint = f"constrained to {M.name}"

    def projector(self, y):
        return tangent_projector(self.M, y)

    def precondition(self, g):
        return g

    def retract(self, y, step):
        return self.M.retraction(y, step)

    def armijo_slope(self, g, y, y_trial, t, gd):
        return t * gd


def solve_constrained_subproblem(L, M: ManifoldSpec, y0, cfg: SubsolveConfig) -> InnerSolve:
    """Minimize ``L`` over ``M`` by projected descent with retraction.

    Tangent-projected gradients drive a Polak-Ribiere+ conjugate direction
    (transported by projection) or plain steepest descent; trial points are
    retracted onto the manifold before evaluation.  Convergence is measured
    on the tangent gradient norm.
    """
    y0 = np.asarray(y0, dtype=float)
    return descend(L, y0, cfg, ManifoldGeometry(M, y0))


def constrained_index(p, M: ManifoldSpec, x) -> int:
    """Intrinsic Hessian index of a constrained critical point at ``x``.

    The normal component of the energy gradient determines Lagrange
    multipliers; their constraint curvature is subtracted from the energy
    Hessian before restriction to the tangent basis.  Without constraint
    Hessians the bare projected energy Hessian is used (correct only for
    affine constraints).
    """
    x = np.asarray(x, dtype=float)
    proj = tangent_projector(M, x)
    B = proj.basis
    N = np.column_stack([g(x) for g in M.constraint_grads])
    mult, *_ = np.linalg.lstsq(N, p.gradient(x), rcond=None)

    def hvec(u):
        out = p.hessian_vec(x, u)
        if M.constraint_hessian_vecs is not None:
            for mu, chv in zip(mult, M.constraint_hessian_vecs):
                out = out - mu * chv(x, u)
        return out

    k = B.shape[1]
    Hk = np.empty((k, k))
    for i in range(k):
        Hk[:, i] = B.T @ hvec(B[:, i])
    Hk = 0.5 * (Hk + Hk.T)
    evals = np.linalg.eigvalsh(Hk)
    thresh = 1e-8 * max(1.0, float(np.abs(evals).max()))
    return int(np.sum(evals < -thresh))
