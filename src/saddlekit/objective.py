"""Per-iteration reversed objectives whose minimizers step toward saddles.

Given an anchor point x and the smallest-eigenvalue direction(s) of the
Hessian there, the energy is recombined so that its part along the unstable
direction(s) enters with reversed sign:

    L(y) = (1 - sum_s alpha_s) V(y) + sum_s alpha_s V(pi_perp_s(y))
                                    - sum_s beta_s V(pi_par_s(y))

over subsets s of the modes, where pi_perp_s moves y onto the complement of
the modes in s through x and pi_par_s onto their span through x.  With a
total reversal weight above 1 a nearby saddle of V is a strict local
minimum of L.  An objective holds the weight of V(y) and a tuple of
reversal terms, each a weight w_k, a point map pi_k and the action of its
Jacobian transpose, and evaluates the one formula

    L(y)      = w_0 V(y) + sum_k w_k V(pi_k(y))
    grad L(y) = w_0 grad V(y) + sum_k w_k Dpi_k(y)^T grad V(pi_k(y)).

The builders differ only in their maps:

* ``build_flat``: one unit mode v, straight-line projections, weights alpha
  and beta (index-m with one mode and one subset);
* ``build_index_m``: m orthonormal modes, straight-line projections off and
  onto the span of each weighted subset;
* ``build_manifold``: on the unit sphere S^2, great-circle projections onto
  the circle along the mode (beta) and along its complement (alpha);
* ``build_sphere_naive``: on S^2, the straight-line mode projection
  retracted back onto the sphere (alpha = 0, beta = 2).

Every builder takes the potential, the anchor x and the mode(s) there; the
sphere builders project the mode onto the tangent plane at x themselves.

Straight-line projections are linear, so the flat objectives have the exact
Hessian-vector product ``w_0 H(y) u + sum_k w_k P_k H(pi_k y) P_k u``; the
sphere objectives take a central difference of their gradient.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CoefficientError, DimensionError
from .manifold import check_on_sphere, great_circle_angle

__all__ = [
    "ModifiedObjective",
    "ReversalTerm",
    "build_flat",
    "build_index_m",
    "build_manifold",
    "build_sphere_naive",
    "index_m_coefficients",
    "COEFFICIENT_PRESETS",
]

# named (alpha, beta) presets: reverse off the complement hyperplane, reverse
# along the mode ray, or split evenly
COEFFICIENT_PRESETS = {
    "hyperplane": (2.0, 0.0),
    "ray": (0.0, 2.0),
    "mix": (1.0, 1.0),
}


def _as_unit(v, what="direction"):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"{what} must be a unit vector (norm {n:.3e})")
    return v / n


class ReversalTerm(NamedTuple):
    """The term ``weight * V(point(y))``.

    ``pullback(y, g, w)`` is ``w Dpoint(y)^T g``.  The map applies the
    weight where the closed-form index-1 gradient does, to a scalar before
    it scales a direction (``(beta v.g) v``, not ``beta ((v.g) v)``), so
    both give the same floating-point result.
    """

    weight: float
    point: Callable
    pullback: Callable


def _subspace_terms(x, V, alpha, beta):
    """Straight-line terms of one mode subset, orthonormal columns ``V``.

    The maps are y - P(y - x) and x + P(y - x) with P = V V^T; their
    Jacobians I - P and P are symmetric, so the pullbacks are also the
    Jacobian actions.  Zero weights give no term.  The products use
    ``ndarray.dot``, which on operands this small costs half of ``@``.
    """
    Vdot, VTdot = V.dot, V.T.dot

    def reject(y, g, w):
        return w * (g - Vdot(VTdot(g)))

    def project(y, g, w):
        return Vdot(w * VTdot(g))

    terms = []
    if alpha != 0.0:
        terms.append(ReversalTerm(alpha, lambda y: y - Vdot(VTdot(y - x)), reject))
    if beta != 0.0:
        terms.append(ReversalTerm(-beta, lambda y: x + Vdot(VTdot(y - x)), project))
    return terms


def _great_circle_term(weight, x, t):
    """Term at the point nearest y on the great circle x cos(th) + t sin(th)."""

    def point(y):
        theta = great_circle_angle(x, t, y)[0]
        return x * math.cos(theta) + t * math.sin(theta)

    def pullback(y, g, w):
        # d/dy V(xi(theta(y))) = <grad V, xi'(theta)> dtheta/dy
        theta, a, b = great_circle_angle(x, t, y)
        dxi = -x * math.sin(theta) + t * math.cos(theta)
        return w * float(g @ dxi) * ((a * t - b * x) / (a * a + b * b))

    return ReversalTerm(weight, point, pullback)


def _retracted_line_term(weight, x, v):
    """Term at the straight-line mode projection of y retracted onto S^2."""

    def lift(y):
        z = x + float(v @ (y - x)) * v
        n = float(np.linalg.norm(z))
        return z / n, n

    def pullback(y, g, w):
        # D(z/|z|)^T g = (g - (xi.g) xi) / |z| and dz/dy = v v^T
        xi, n = lift(y)
        return (w / n) * float(v @ (g - (xi @ g) * xi)) * v

    return ReversalTerm(weight, lambda y: lift(y)[0], pullback)


@dataclass(frozen=True, eq=False)
class ModifiedObjective:
    """Reversed energy L(y) = w_0 V(y) + sum_k w_k V(pi_k(y)) anchored at a point.

    Instances are immutable; evaluation is pure.  ``base_weight`` is w_0 and
    ``terms`` the reversal terms.  ``on_sphere`` objectives accept only
    points that pass ``check_on_sphere``; their maps are nonlinear, so
    ``hessian_vec`` differentiates the gradient numerically there.
    """

    potential: object
    anchor: np.ndarray
    base_weight: float
    terms: tuple
    on_sphere: bool = False

    def _check(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape != self.anchor.shape:
            raise DimensionError(
                f"objective expects points of shape {self.anchor.shape}, got {y.shape}"
            )
        if self.on_sphere:
            check_on_sphere(y)
        return y

    def value(self, y) -> float:
        y = self._check(y)
        energy = self.potential.energy
        out = 0.0
        if self.base_weight != 0.0:
            out += self.base_weight * energy(y)
        for w, point, _ in self.terms:
            out += w * energy(point(y))
        return float(out)

    def _gradient(self, y):
        gradient = self.potential.gradient
        g = np.zeros(y.shape)  # zeros_like costs several times more per call
        if self.base_weight != 0.0:
            g += self.base_weight * gradient(y)
        for w, point, pullback in self.terms:
            g += pullback(y, gradient(point(y)), w)
        return g

    def gradient(self, y) -> np.ndarray:
        return self._gradient(self._check(y))

    def hessian_vec(self, y, u) -> np.ndarray:
        y = self._check(y)
        u = np.asarray(u, dtype=float)
        if u.shape != y.shape:
            raise DimensionError("hessian_vec direction has wrong shape")
        if self.on_sphere:
            # central differences on the analytic gradient
            h = 1e-6 * (1.0 + np.linalg.norm(y, ord=np.inf))
            un = np.linalg.norm(u)
            if un == 0.0:
                return np.zeros_like(u)
            step = (h / un) * u
            return (self._gradient(y + step) - self._gradient(y - step)) * (un / (2.0 * h))
        hessian_vec = self.potential.hessian_vec
        out = np.zeros(u.shape)
        if self.base_weight != 0.0:
            out += self.base_weight * hessian_vec(y, u)
        for w, point, pullback in self.terms:
            out += pullback(y, hessian_vec(point(y), pullback(y, u, 1.0)), w)
        return out


def _linear_objective(p, x, V, subset_alpha, subset_beta) -> ModifiedObjective:
    """Straight-line terms for each weighted subset of the columns of ``V``."""
    terms = []
    for s in sorted(set(subset_alpha) | set(subset_beta)):
        terms += _subspace_terms(x, V[:, list(s)], subset_alpha.get(s, 0.0), subset_beta.get(s, 0.0))
    return ModifiedObjective(
        potential=p,
        anchor=x,
        base_weight=1.0 - sum(subset_alpha.values()),
        terms=tuple(terms),
    )


def build_flat(p, x, v, alpha, beta) -> ModifiedObjective:
    """Index-1 objective: reverse V along unit vector ``v`` anchored at ``x``.

    L(y) = (1-alpha) V(y) + alpha V(y - vv^T (y-x)) - beta V(x + vv^T (y-x)).
    Requires alpha + beta > 1, otherwise the anchor Hessian
    H - (alpha+beta) lambda_1 vv^T is not positive definite at a saddle.
    """
    if alpha + beta <= 1.0:
        raise CoefficientError(
            f"alpha + beta = {alpha + beta:g} <= 1: the reversed curvature "
            "-(alpha+beta-1)*lambda_1 would not be positive at a saddle"
        )
    x = np.asarray(x, dtype=float)
    v = _as_unit(v)
    if v.shape != x.shape:
        raise DimensionError("anchor and direction dimensions differ")
    return _linear_objective(p, x, v[:, None], {(0,): float(alpha)}, {(0,): float(beta)})


def _normalize_subsets(coeffs, m, what):
    out = {}
    for key, val in (coeffs or {}).items():
        s = tuple(sorted(set(int(i) for i in key)))
        if not s or s[0] < 0 or s[-1] >= m:
            raise ValueError(f"{what} key {key!r} is not a nonempty subset of 0..{m - 1}")
        if s in out:
            raise ValueError(f"{what} key {key!r} duplicates subset {s}")
        if val != 0.0:
            out[s] = float(val)
    return out


def index_m_coefficients(m, subset_alpha=None, subset_beta=None):
    """The subset coefficients of an index-m objective, as normalized dicts.

    Keys are nonempty subsets of range(m), as tuples of 0-based mode
    indices, and zero weights are dropped; a bad key raises ``ValueError``
    and a total of at most 1 raises ``CoefficientError``.  With neither dict
    given, the full-subset beta defaults to 2, the minimal symmetric choice.
    """
    if subset_alpha is None and subset_beta is None:
        subset_beta = {tuple(range(m)): 2.0}
    sa = _normalize_subsets(subset_alpha, m, "subset_alpha")
    sb = _normalize_subsets(subset_beta, m, "subset_beta")
    total = sum(sa.values()) + sum(sb.values())
    if total <= 1.0:
        raise CoefficientError(
            f"sum of subset coefficients = {total:g} <= 1: reversal too weak "
            "for the anchor Hessian to be positive definite at a saddle"
        )
    return sa, sb


def build_index_m(p, x, directions, subset_alpha=None, subset_beta=None) -> ModifiedObjective:
    """Index-m objective over orthonormal ``directions`` (d, m).

    The coefficients are checked and defaulted by ``index_m_coefficients``.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(directions, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] != x.shape[0]:
        raise DimensionError("directions and anchor dimensions differ")
    m = V.shape[1]
    if not np.allclose(V.T @ V, np.eye(m), atol=1e-10):
        raise ValueError("mode directions must be orthonormal to 1e-10")
    return _linear_objective(p, x, V, *index_m_coefficients(m, subset_alpha, subset_beta))


def _sphere_tangents(p, x, v):
    """Anchor on S^2, unit tangent along ``v`` and its complement ``x cross v``."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.dimension != 3 or x.shape != (3,):
        raise DimensionError("sphere objectives require a 3-dimensional potential")
    check_on_sphere(x)
    # a mode along x leaves a roundoff tangent part (1e-17 on some BLAS kernels)
    t = v - (v @ x) * x
    n = np.linalg.norm(t)
    if n <= 1e-8 * np.linalg.norm(v):
        raise ValueError("tangent direction vanishes after projection")
    v = t / n
    return x, v, np.cross(x, v)


def build_manifold(p, x, v, alpha, beta) -> ModifiedObjective:
    """Index-1 objective on the unit sphere using great-circle projections.

    ``v`` is the mode at the anchor ``x`` (projected onto the tangent plane
    and normalized here).  The alpha term samples V on the great circle
    tangent to the complement direction ``x cross v``, the beta term on the
    one tangent to the mode itself; ``COEFFICIENT_PRESETS`` names the usual
    pairs ("hyperplane", "ray", "mix").
    """
    alpha, beta = float(alpha), float(beta)
    if alpha + beta <= 1.0:
        raise CoefficientError(f"alpha + beta = {alpha + beta:g} <= 1")
    x, v, v_perp = _sphere_tangents(p, x, v)
    terms = (_great_circle_term(alpha, x, v_perp), _great_circle_term(-beta, x, v))
    return ModifiedObjective(
        potential=p,
        anchor=x,
        base_weight=1.0 - alpha,
        terms=tuple(t for t in terms if t.weight != 0.0),
        on_sphere=True,
    )


def build_sphere_naive(p, x, v) -> ModifiedObjective:
    """Comparison variant: straight-line mode projection retracted to S^2.

    L(y) = V(y) - 2 V(R_x(vv^T (y-x))) with R_x(u) = (x+u)/|x+u|, for the
    mode ``v`` at ``x`` made a unit tangent as in ``build_manifold``.  Since
    v is a unit tangent at x, the retracted point is exactly
    cos(t) x + sin(t) v with tan(t) = c = v.(y-x): a point on the mode's great
    circle, reached through the reparametrisation t = atan(c) of the
    straight-line coordinate c.  The geodesic projection takes
    t = atan2(v.y, x.y) instead.  Near x the two values of tan(t) differ by
    (v.y)(1 - x.y)/(x.y) = O(r^3) at distance r (sin r against tan r on the
    mode's circle), so the step-map Jacobian still vanishes at a saddle and
    the outer rate near it is quadratic or better (about order 3 from
    0.3 rad off the sphere quadratic's saddle).  What the variant loses is
    reach: on the mode's great circle c = sin(s) at angle s from x, so s and
    pi - s share one reversed term.  The projection folds the circle at pi/2
    and L keeps deep basins past the fold; on the sphere quadratic its
    minimizer along the mode circle from e1 lies near 40 degrees while the
    saddle is at 90, and a run started 0.1 rad off e1 jumps between the
    neighbourhoods of +-e1 without converging.  Kept to contrast with the
    geodesic construction.
    """
    x, v, _ = _sphere_tangents(p, x, v)
    return ModifiedObjective(
        potential=p,
        anchor=x,
        base_weight=1.0,
        terms=(_retracted_line_term(-2.0, x, v),),
        on_sphere=True,
    )
