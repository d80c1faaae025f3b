"""The unit sphere: tangent projection, the great-circle angle nearest a
point, retraction-based constrained inner solves and intrinsic index
classification.

Every function takes the point alone; the dimension is ``x.size``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eigen import count_negative, dense_hessian
from .errors import OffManifoldError, SubsolveError
from .subsolve import InnerSolve, SubsolveConfig, descend

__all__ = [
    "TangentProjector",
    "check_on_sphere",
    "retract",
    "tangent_projector",
    "great_circle_angle",
    "solve_constrained_subproblem",
    "constrained_index",
]

_FEAS_TOL = 1e-8


def check_on_sphere(x):
    """Raise :class:`OffManifoldError` unless ``0.5 |x.x - 1| <= 1e-8``."""
    x = np.asarray(x, dtype=float)
    r = 0.5 * (float(x @ x) - 1.0)
    if abs(r) > _FEAS_TOL:
        raise OffManifoldError(
            f"point is off the unit sphere{x.size - 1}: 0.5 (x.x - 1) = {r!r}"
        )


def retract(x, step):
    """Metric-projection retraction: ``(x + step) / |x + step|``."""
    y = np.asarray(x, dtype=float) + np.asarray(step, dtype=float)
    n = np.linalg.norm(y)
    if n == 0.0:
        raise SubsolveError("retraction of a vanishing point is undefined")
    return y / n


@dataclass(frozen=True, eq=False)
class TangentProjector:
    """Orthogonal projector onto the tangent space at a point of the sphere."""

    normal: np.ndarray  # (d,), unit normal
    basis: np.ndarray  # (d, d-1), orthonormal columns spanning the tangent space

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return u - self.normal * (self.normal @ u)


def tangent_projector(x) -> TangentProjector:
    """Build the tangent projector at a point of the unit sphere.

    The normal and basis are the left singular vectors of ``x`` as a
    column.  The normal is not ``x / |x|``: the two differ in the last bits,
    and the sphere searches' iteration counts depend on those bits.
    """
    x = np.asarray(x, dtype=float)
    check_on_sphere(x)
    U = np.linalg.svd(x[:, None])[0]
    return TangentProjector(normal=U[:, 0], basis=U[:, 1:])


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
    """Rules of the descent loop on the unit sphere.

    Gradients and carried directions are projected onto the tangent space
    at each accepted point (one projector per point), trial steps are
    retracted onto the sphere, the Armijo slope is ``t g.d``, the stall test
    uses the Euclidean norm, and conjugacy never restarts on a schedule.
    """

    norm_ord = None
    restart_every = math.inf
    clipped = False

    def __init__(self, y0):
        check_on_sphere(y0)
        self.no_descent_hint = f"constrained to sphere{y0.size - 1}"

    def projector(self, y, g):
        return tangent_projector(y)

    def precondition(self, g):
        return g

    def retract(self, y, step):
        return retract(y, step)

    def armijo_slope(self, g, y, y_trial, t, gd):
        return t * gd


def solve_constrained_subproblem(L, y0, cfg: SubsolveConfig) -> InnerSolve:
    """Minimize ``L`` over the unit sphere by projected descent with retraction.

    Tangent-projected gradients drive a Polak-Ribiere+ conjugate direction
    (transported by projection); trial points are retracted onto the sphere
    before evaluation.  Convergence is measured on the tangent gradient norm.
    """
    y0 = np.asarray(y0, dtype=float)
    return descend(L, y0, cfg, ManifoldGeometry(y0))


def constrained_index(p, x) -> int:
    """Intrinsic Hessian index of a critical point of ``p`` on the sphere.

    The intrinsic Hessian is ``B^T H B - (x.grad V) I`` in a tangent basis
    B: the multiplier ``x.grad V`` times the sphere's curvature is
    subtracted from the energy Hessian restricted to the tangent space.
    """
    x = np.asarray(x, dtype=float)
    Hk = dense_hessian(p, x, basis=tangent_projector(x).basis)
    Hk -= float(x @ p.gradient(x)) * np.eye(Hk.shape[0])
    return count_negative(np.linalg.eigvalsh(Hk))
