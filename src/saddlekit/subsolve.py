"""Inner minimizers for the per-iteration objective, plus a Newton baseline.

``descend`` is the one descent loop: Polak-Ribiere+ nonlinear CG, restarted
on the preconditioned gradient, with a curvature-informed line search
safeguarded by Armijo backtracking.  A geometry object holds the rules that
differ between flat space and the unit sphere
(:class:`saddlekit.manifold.ManifoldGeometry`).
``minimize`` runs the loop under :class:`FlatGeometry`, whose optional
infinity-norm trust box around the starting point keeps the solve stable
when the objective is unbounded below (anchor in a convex region of the
energy); accepted points are clipped into the box coordinate-wise.  A
coordinate on a face of the box whose gradient points out of it is held,
as in Bertsekas's projected Newton method (*SIAM J. Control Optim.*
20:221, 1982), and convergence is tested on the gradient so projected, the
KKT residual of the box problem, as L-BFGS-B does (Byrd, Lu, Nocedal & Zhu,
*SIAM J. Sci. Comput.* 16:1190, 1995): a box-limited solve ends at its
box-constrained minimizer instead of crawling along a face.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import dense_hessian, stationary_index
from .errors import EigensolveError, SubsolveError

__all__ = [
    "SubsolveConfig",
    "InnerSolve",
    "NewtonResult",
    "minimize",
    "cholesky_solver",
    "sd_single_step",
    "newton_stationary",
]

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# trial step length, over |d|, when the direction has no positive curvature
# and no step has been accepted yet
_FIRST_STEP = 0.1
# Newton's longest accepted step: a longer one ends the run as a failure
_NEWTON_STEP_LIMIT = 10.0
# cholesky_solver's row block: its diagonal blocks are inverted once per factor
_SOLVE_BLOCK = 64


@dataclass(frozen=True)
class SubsolveConfig:
    """Inner-solver settings.

    ``box_radius`` bounds ``||y - y0||_inf`` over the whole solve when set.
    """

    max_inner_iters: int = 500
    grad_tol: float = 1e-12
    box_radius: float = None

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_inner_iters < 1:
            raise ValueError("tolerance and iteration budget must be positive")
        if self.box_radius is not None and self.box_radius <= 0:
            raise ValueError("box_radius must be positive when present")


class InnerSolve(NamedTuple):
    y: np.ndarray
    inner_iters: int
    grad_norm: float


class NewtonResult(NamedTuple):
    x: np.ndarray
    index: int  # Hessian index at the terminal point, None on failure
    converged: bool
    iterations: int
    message: str


def sd_single_step(L, y0, dt) -> np.ndarray:
    """One explicit steepest-descent step y0 - dt * grad L(y0).

    Kept separate (no line search, no box) because it is the exact bridge
    between the minimization map and the gentlest ascent flow.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y0 = np.asarray(y0, dtype=float)
    return y0 - dt * L.gradient(y0)


class FlatGeometry:
    """Flat-space rules of the descent loop, with an optional trust box.

    Directions are preconditioned by ``precondition`` when the caller
    passes one (the outer search passes ``g -> K^{-1} g`` for the anchor
    Hessian ``K`` of a qualifying step, see :func:`saddlekit.search.step`),
    and otherwise Jacobi-preconditioned when ``L`` offers a curvature hint;
    conjugacy restarts every ``max(4, d)`` steps and after a step the box
    clipped; the Armijo slope is taken along the realized (clipped) step
    and the stall test on the largest coordinate move.  The projector at a
    point zeroes the components of every coordinate held on a face:
    ``y_i <= lo_i`` with ``g_i > 0``, or ``y_i >= hi_i`` with ``g_i < 0``
    for the raw gradient ``g`` there.  Without a box, or with no coordinate
    held, it is the identity and returns its argument itself.
    """

    norm_ord = np.inf
    no_descent_hint = "the subproblem may be unbounded -- consider a trust box"

    def __init__(self, L, y0, cfg: SubsolveConfig, precondition=None):
        self.lo = self.hi = None
        if cfg.box_radius is not None:
            self.lo, self.hi = y0 - cfg.box_radius, y0 + cfg.box_radius
        self.restart_every = max(4, y0.size)
        if precondition is None:
            scale_inv = _preconditioner(L, y0)
            if scale_inv is not None:
                precondition = scale_inv.__mul__
        self._precondition = precondition
        self.clipped = False

    def projector(self, y, g):
        if self.lo is None:
            return _identity
        held = ((y <= self.lo) & (g > 0.0)) | ((y >= self.hi) & (g < 0.0))
        if not held.any():
            return _identity
        return lambda u: np.where(held, 0.0, u)

    def precondition(self, g):
        return g if self._precondition is None else self._precondition(g)

    def retract(self, y, step):
        y_trial = y + step
        if self.lo is None:
            return y_trial
        clipped = np.minimum(np.maximum(y_trial, self.lo), self.hi)
        self.clipped = not np.array_equal(clipped, y_trial)
        return clipped

    def armijo_slope(self, g, y, y_trial, t, gd):
        return float(g @ (y_trial - y))


def _identity(u):
    return u


def _preconditioner(L, y0):
    """Inverse-diagonal scaling from the objective's curvature hint."""
    hint = getattr(L, "precondition_diag", None)
    if hint is None:
        return None
    diag = hint(y0)
    if diag is None:
        return None
    diag = np.asarray(diag, dtype=float)
    pos = diag[diag > 0]
    if pos.size == 0:
        return None
    floor = 0.05 * float(np.median(pos))
    return 1.0 / np.maximum(diag, floor)


def descend(L, y0, cfg: SubsolveConfig, geometry) -> InnerSolve:
    """Polak-Ribiere+ NCG on ``L`` under ``geometry``'s rules.

    The geometry (:class:`FlatGeometry` or ``manifold.ManifoldGeometry``)
    supplies the projector, built at a point from the raw gradient there,
    that makes gradients and carried directions admissible at that point,
    the preconditioner, the map from a trial step to a point, the Armijo
    slope, the restart period and the stall-test norm.  The stopping test
    and the returned ``grad_norm`` read the projected gradient.
    The returned point is the best visited: never worse than ``y0`` beyond
    roundoff in the objective value (sufficient-decrease tests carry an
    eps-level slack so the solve can keep polishing the gradient once value
    differences fall below float resolution).  Raises
    :class:`SubsolveError` if no descent is possible from ``y0`` while the
    gradient is still above tolerance.
    """
    y = np.asarray(y0, dtype=float).copy()
    f = L.value(y)
    g = L.gradient(y)
    P = geometry.projector(y, g)
    g = P(g)
    gnorm = float(np.linalg.norm(g))
    # best-visited tracking: value decides, gradient norm breaks roundoff ties
    f_slack = 4.0 * np.finfo(float).eps * (1.0 + abs(f))
    best_f, best_y, best_gnorm = f, y.copy(), gnorm
    z = geometry.precondition(g)
    d = -z
    t_prev = None
    iters = 0
    since_restart = 0
    stalled = 0

    while iters < cfg.max_inner_iters and gnorm > cfg.grad_tol:
        gd = float(g @ d)
        if gd >= 0.0:  # not a descent direction: restart on the gradient
            d = -z
            gd = float(g @ d)
            since_restart = 0
            if gd >= 0.0:
                break

        # curvature-exact trial step where the directional curvature is
        # positive; otherwise reuse the last accepted scale
        Hd = L.hessian_vec(y, d)
        curv = float(d @ Hd)
        if curv > 0.0:
            t = -gd / curv
        elif t_prev is not None:
            t = t_prev
        else:
            t = _FIRST_STEP / max(np.linalg.norm(d), 1e-300)

        accepted = False
        # allow roundoff-level non-decrease: sufficient-decrease tests are
        # meaningless once |g.step| drops below the float resolution of f
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(_MAX_HALVINGS):
            y_trial = geometry.retract(y, t * d)
            if np.array_equal(y_trial, y):
                break
            f_trial = L.value(y_trial)
            if f_trial <= f + _ARMIJO_C1 * geometry.armijo_slope(g, y, y_trial, t, gd) + slack:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if iters == 0 and gnorm > cfg.grad_tol:
                raise SubsolveError(
                    f"no descent from the starting point (|grad| = {gnorm:.3e}); "
                    + geometry.no_descent_hint,
                    trace=[y0],
                )
            break

        g_new = L.gradient(y_trial)
        P = geometry.projector(y_trial, g_new)
        g_new = P(g_new)
        z_new = geometry.precondition(g_new)
        if not geometry.clipped and since_restart < geometry.restart_every:
            g_old = P(g)
            # a projector that returns g itself (flat space) leaves z current
            z_old = z if g_old is g else geometry.precondition(g_old)
            beta = max(0.0, float(z_new @ (g_new - g_old)) / max(float(z_old @ g_old), 1e-300))
            d = -z_new + beta * P(d)
            since_restart += 1
        else:
            d = -z_new
            since_restart = 0
        step = float(np.linalg.norm(y_trial - y, ord=geometry.norm_ord))
        y, f, g, z = y_trial, f_trial, g_new, z_new
        gnorm = float(np.linalg.norm(g))
        t_prev = t
        iters += 1
        if f < best_f - f_slack or (f <= best_f + f_slack and gnorm < best_gnorm):
            best_f, best_y, best_gnorm = min(f, best_f), y.copy(), gnorm
        # machine-precision floor: stop once steps stop moving the iterate
        if step <= 1e-16 * (1.0 + float(np.linalg.norm(y, ord=geometry.norm_ord))):
            stalled += 1
            if stalled >= 2:
                break
        else:
            stalled = 0

    return InnerSolve(best_y, iters, best_gnorm)


def minimize(L, y0, cfg: SubsolveConfig, precondition=None) -> InnerSolve:
    """Approximately minimize ``L`` from ``y0`` under :class:`FlatGeometry`.

    ``L`` has ``value``, ``gradient`` and ``hessian_vec``, and optionally
    ``precondition_diag``; a :class:`~saddlekit.potentials.PotentialModel`
    qualifies.  ``precondition``, a map ``g -> M^{-1} g`` for a symmetric
    positive definite ``M`` near the Hessian of ``L`` (such as
    :func:`cholesky_solver`), replaces the Jacobi preconditioner, whose
    diagonal is then not read.  See :func:`descend` for the result and the
    errors.
    """
    y0 = np.asarray(y0, dtype=float)
    return descend(L, y0, cfg, FlatGeometry(L, y0, cfg, precondition))


def cholesky_solver(K):
    """The map ``g -> K^{-1} g`` for a symmetric positive definite ``K``,
    on a vector ``(n,)`` or a block of right-hand sides ``(n, k)``.

    ``K`` is factored once, ``K = C C^T`` (``np.linalg.cholesky``, which
    raises ``LinAlgError`` when ``K`` is not positive definite); each call
    is a forward and a back substitution by row blocks of ``_SOLVE_BLOCK``,
    with the inverses of the factor's diagonal blocks formed here (numpy
    has no triangular solve).  Only the factor is kept, so ``K`` may be
    dropped.  The outer search applies one such factor twice per refining
    step: as the eigensolver's preconditioner on blocks, and, corrected to
    the step's anchor Hessian, as the inner solve's on vectors
    (:func:`saddlekit.search.step`).
    """
    C = np.linalg.cholesky(K)
    n = C.shape[0]
    edges = list(range(0, n, _SOLVE_BLOCK)) + [n]
    spans = list(zip(edges[:-1], edges[1:]))
    inv = [np.linalg.inv(C[a:b, a:b]) for a, b in spans]

    def solve(g):
        y = np.empty(g.shape)
        for (a, b), D in zip(spans, inv):  # C y = g
            y[a:b] = D @ (g[a:b] - C[a:b, :a] @ y[:a])
        z = np.empty(g.shape)
        for (a, b), D in zip(reversed(spans), reversed(inv)):  # C^T z = y
            z[a:b] = D.T @ (y[a:b] - C[b:, a:b].T @ z[b:])
        return z

    return solve


def newton_stationary(p, x0, tol=1e-10, max_iters=200) -> NewtonResult:
    """Plain Newton iteration on grad V = 0 with dense Hessian solves.

    Baseline root finder: converges to stationary points of any index, or
    fails on singular Hessians, oversized steps, or iteration exhaustion.
    The terminal point is classified by its dense Hessian index; a
    non-finite Hessian there fails the run.
    """
    x = np.asarray(x0, dtype=float).copy()
    for it in range(max_iters):
        g = p.gradient(x)
        if float(np.linalg.norm(g, ord=np.inf)) <= tol:
            try:
                return NewtonResult(x, stationary_index(p, x), True, it, "converged")
            except EigensolveError as exc:
                return NewtonResult(x, None, False, it, f"converged point: {exc}")
        H = dense_hessian(p, x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            return NewtonResult(x, None, False, it, "singular Hessian")
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > _NEWTON_STEP_LIMIT:
            return NewtonResult(x, None, False, it, "step exceeded limit")
        x = x + step
    return NewtonResult(x, None, False, max_iters, "iteration budget exhausted")
