"""Outer saddle-search iteration: eigensolve, objective build, inner solve.

Each step maps the current point to the minimizer of a locally reversed
objective anchored there.  Near a saddle whose smallest Hessian eigenvalue
is simple, the step map has a vanishing Jacobian at the saddle, so the
iteration converges quadratically once the inner solves are accurate.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import manifold as mf
from . import objective as obj
from .eigen import INDEX_MAX_DIMENSION, min_modes, stationary_index
from .errors import (
    ConvexRegionError,
    EigensolveError,
    ModelRegionError,
    OrderEstimateError,
    SubsolveError,
)
from .subsolve import SubsolveConfig, cholesky_solver, minimize

# rows of the anchor Hessian updated at a time: bounds the update's temporary
_UPDATE_ROWS = 64
# residual target of the Jacobi eigensolve that gives a search's first
# factored step its reference mode (and the full eigensolve its warm start)
_REFERENCE_TOL = 0.3

__all__ = [
    "SearchState",
    "SearchConfig",
    "ConvergenceRecord",
    "initial_state",
    "step",
    "run",
    "jacobian_of_step_map",
    "estimate_order",
    "estimate_order_pooled",
    "INDEX_MAX_DIMENSION",
]


@dataclass(frozen=True, eq=False)
class SearchState:
    """Current iterate plus the mode data that produced it.

    ``modes``/``eigenvalues`` describe the smallest Hessian eigenpair(s) at
    the *anchor* of the last step (None before the first step).
    """

    x: np.ndarray
    modes: np.ndarray = None
    eigenvalues: np.ndarray = None
    outer_iter: int = 0
    grad_norm: float = np.nan
    last_step_inf: float = 0.0
    last_inner_iters: int = 0


@dataclass(frozen=True)
class SearchConfig:
    """Outer-loop settings.

    The reversal strength alpha + beta must exceed 1 (index-1); index-m runs
    take subset-keyed coefficient dicts instead, checked here by the rule
    of ``objective.index_m_coefficients``.  ``grad_tol`` is on the infinity
    norm of the energy gradient (tangent gradient on the sphere).
    ``on_sphere`` switches to the great-circle construction with
    ``sphere_variant`` in {"hyperplane", "ray", "mix", "naive"}; it targets
    index-1 saddles with the variant's own coefficients, so it takes neither
    ``index`` > 1 nor subset coefficients.
    """

    alpha: float = 1.0
    beta: float = 1.0
    index: int = 1
    subset_alpha: dict = None
    subset_beta: dict = None
    eig_tol: float = 1e-10
    subsolve: SubsolveConfig = field(default_factory=SubsolveConfig)
    grad_tol: float = 1e-10
    max_outer_iters: int = 100
    on_sphere: bool = False
    sphere_variant: str = "ray"
    divergence_radius: float = np.inf
    # inner-iteration cap while escaping (convex anchor, or the previous
    # step at the trust box's face): such a solve ends at its box-constrained
    # minimizer, which on a rugged surface can take hundreds of iterations to
    # reach, and an escape step's precision buys nothing
    convex_inner_cap: int = 200

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("index must be >= 1")
        if self.grad_tol <= 0 or self.eig_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.convex_inner_cap < 0:
            raise ValueError("convex_inner_cap must be >= 0 (0 leaves escaping steps uncapped)")
        if self.on_sphere and self.sphere_variant not in ("hyperplane", "ray", "mix", "naive"):
            raise ValueError(f"unknown sphere variant {self.sphere_variant!r}")
        if self.on_sphere and (self.index != 1 or self._subsets):
            raise ValueError("on_sphere searches take index 1 and no subset coefficients")
        if self.index > 1 or self._subsets:
            # the coefficients step() hands build_index_m, under its rule
            obj.index_m_coefficients(self.index, self.subset_alpha, self.subset_beta)
        elif self.alpha + self.beta <= 1.0:
            raise ValueError(f"alpha + beta = {self.alpha + self.beta:g} must exceed 1")

    @property
    def _subsets(self):
        return self.subset_alpha is not None or self.subset_beta is not None


def _grad_norm(p, x, on_sphere):
    """Infinity norm of the energy gradient (the tangent gradient on the sphere)."""
    g = p.gradient(x)
    if on_sphere:
        g = mf.tangent_projector(x)(g)
    return float(np.linalg.norm(g, ord=np.inf))


def initial_state(p, x0, cfg: SearchConfig = None) -> SearchState:
    x0 = np.asarray(x0, dtype=float).copy()
    return SearchState(x=x0, grad_norm=_grad_norm(p, x0, cfg is not None and cfg.on_sphere))


def _anchor_hessian_solver(H, v, weight):
    """``g -> K^{-1} g`` for ``K = H - weight v v^T``, or None when ``K`` is
    not positive definite.

    :func:`step` calls it with its reference mode ``u`` and
    ``weight = (alpha + beta) min(lambda_ref, 0)``, so ``K`` is the flipped
    Hessian ``K~`` whose factor preconditions the eigensolve, and, through
    :func:`_corrected_solver`, the inner solve.  ``H`` is overwritten with
    ``K`` one row block at a time, so the update allocates no second
    matrix; only the Cholesky factor needs to outlive the call.
    """
    for a in range(0, v.size, _UPDATE_ROWS):
        H[a:a + _UPDATE_ROWS] -= (weight * v[a:a + _UPDATE_ROWS])[:, None] * v
    try:
        return cholesky_solver(H)
    except np.linalg.LinAlgError:
        return None


def _corrected_solver(solve, W, d):
    """``g -> K^{-1} g`` for ``K = K~ + W diag(d) W^T`` from ``solve``, the
    map ``g -> K~^{-1} g`` of a symmetric positive definite ``K~``, or None
    when ``K`` is not positive definite.

    By Sherman-Morrison-Woodbury (Golub & Van Loan, *Matrix Computations*,
    2.1.4), with ``Z = K~^{-1} W`` and ``S = I + diag(d) W^T Z``,
    ``K^{-1} g = K~^{-1} g - Z S^{-1} diag(d) Z^T g``, which holds for a
    zero entry of ``d`` too: one block solve here and one solve per call.
    ``det K = det K~ det S``, and with at most one negative entry in ``d``
    ``K`` has at most one non-positive eigenvalue (Haynsworth inertia
    additivity), so ``K`` is positive definite exactly when ``det S > 0``.
    """
    Z = solve(W)
    S = np.eye(d.size) + d[:, None] * (W.T @ Z)
    if not np.linalg.det(S) > 0.0:
        return None
    T = np.linalg.solve(S, d[:, None] * Z.T)
    return lambda g: solve(g) - Z @ (T @ g)


def _factored_min_mode(p, x, state, cfg):
    """The min-mode of a flat index-1 step read through one Cholesky factor
    (see :func:`step`): ``(modes, solve, u, c)``, with ``solve`` the map
    ``g -> K~^{-1} g`` (None when ``K~`` is not positive definite).  ``K~``
    itself goes out of scope on return."""
    H = np.asarray(p.hessian_fn(x), dtype=float)
    if not H.flags.writeable:
        H = H.copy()
    v0 = state.modes
    if v0 is None:
        ref = min_modes(p, x, tol=_REFERENCE_TOL, products=H.__matmul__)
        v0, lam_ref = ref.eigenvectors, ref.eigenvalues[0]
    else:
        lam_ref = state.eigenvalues[0]
    u = v0[:, 0]
    c = (cfg.alpha + cfg.beta) * min(float(lam_ref), 0.0)
    solve = _anchor_hessian_solver(H, u, c)
    modes = min_modes(p, x, v0=v0, tol=cfg.eig_tol,
                      products=lambda U: H @ U + c * np.outer(u, u @ U), precondition=solve)
    return modes, solve, u, c


def step(p, state: SearchState, cfg: SearchConfig) -> SearchState:
    """One outer iteration from ``state.x``; returns the updated state.

    A flat index-1 step on a model with an assembled Hessian (``hessian_fn``,
    dimension at most ``INDEX_MAX_DIMENSION``) assembles it once and factors
    it before the eigensolve.  From a reference mode ``u`` with eigenvalue
    ``lambda_ref`` (the previous step's, or on a search's first step those
    of a loose Jacobi eigensolve, which then warm-starts the full one) it
    forms ``K~ = H - c u u^T`` in place, ``c = (alpha + beta)
    min(lambda_ref, 0)``, and takes one Cholesky factor of it:

    * the eigensolve reads the products ``K~ U + c u (u^T U) = H U``,
      preconditioned by ``K~^{-1}`` (Knyazev 2001, *SIAM J. Sci. Comput.*
      23:517), or by the Jacobi diagonal when ``K~`` is not positive
      definite; ``K~`` is dropped once the eigensolve returns;
    * when the step is not escaping (see below), the inner solve is
      preconditioned by ``K^{-1}`` for the reversed objective's anchor
      Hessian ``K = H - (alpha + beta) lambda_1 v v^T`` of the current mode
      ``v``, a rank-2 correction of the same factor
      (:func:`_corrected_solver`): an inexact Newton iteration (Nocedal &
      Wright, *Numerical Optimization*, ch. 5 and 7).

    Every other step, and one whose ``K~`` or ``K`` is not positive
    definite, keeps the Jacobi preconditioner for its inner solve.
    """
    x = state.x
    basis = mf.tangent_projector(x).basis if cfg.on_sphere else None
    flat_index1 = not cfg.on_sphere and cfg.index == 1 and not cfg._subsets
    solve = None
    try:
        if (flat_index1 and getattr(p, "hessian_fn", None) is not None
                and p.dimension <= INDEX_MAX_DIMENSION):
            modes, solve, u, c = _factored_min_mode(p, x, state, cfg)
        else:
            modes = min_modes(p, x, m=cfg.index, v0=state.modes, tol=cfg.eig_tol, basis=basis)
    except EigensolveError as exc:
        raise EigensolveError(
            f"outer iteration {state.outer_iter + 1}: {exc}", result=exc.result
        ) from exc

    lam = modes.eigenvalues
    if cfg.on_sphere:
        v = modes.eigenvectors[:, 0]
        if cfg.sphere_variant == "naive":
            L = obj.build_sphere_naive(p, x, v)
        else:
            L = obj.build_manifold(p, x, v, *obj.COEFFICIENT_PRESETS[cfg.sphere_variant])
    else:
        if lam[0] > 0.0 and cfg.subsolve.box_radius is None:
            raise ConvexRegionError(
                f"outer iteration {state.outer_iter + 1}: smallest Hessian "
                f"eigenvalue {lam[0]:.3e} > 0, so the reversed objective is "
                "unbounded below; configure a trust box to proceed"
            )
        if flat_index1:
            L = obj.build_flat(p, x, modes.eigenvectors[:, 0], cfg.alpha, cfg.beta)
        else:
            L = obj.build_index_m(
                p, x, modes.eigenvectors, cfg.subset_alpha, cfg.subset_beta
            )
        sub = cfg.subsolve
        # while escaping (convex anchor, or the previous step already slammed
        # into the trust box) the minimizer is box-limited: cap the effort
        escaping = lam[0] > 0.0 or (
            sub.box_radius is not None
            and state.last_step_inf >= 0.999 * sub.box_radius
        )
        if escaping and cfg.convex_inner_cap and sub.max_inner_iters > cfg.convex_inner_cap:
            sub = replace(sub, max_inner_iters=cfg.convex_inner_cap)
        # the factor would steer a box-limited escape step into the box's
        # faces, so escaping steps keep the Jacobi preconditioner
        newton = None
        if solve is not None and not escaping:
            newton = _corrected_solver(solve, np.column_stack([u, modes.eigenvectors[:, 0]]),
                                       np.array([c, -(cfg.alpha + cfg.beta) * lam[0]]))
        solve = None  # only newton, when there is one, keeps the factor
    try:
        if cfg.on_sphere:
            sol = mf.solve_constrained_subproblem(L, x, cfg.subsolve)
        else:
            sol = minimize(L, x, sub, precondition=newton)
    except SubsolveError as exc:
        raise SubsolveError(
            f"outer iteration {state.outer_iter + 1}: {exc}", trace=exc.trace
        ) from exc
    return SearchState(
        x=sol.y,
        modes=modes.eigenvectors,
        eigenvalues=lam,
        outer_iter=state.outer_iter + 1,
        grad_norm=_grad_norm(p, sol.y, cfg.on_sphere),
        last_step_inf=float(np.linalg.norm(sol.y - x, ord=np.inf)),
        last_inner_iters=sol.inner_iters,
    )


@dataclass(slots=True)
class ConvergenceRecord:
    """Per-iteration search history plus the terminal classification.

    ``rows``, a read-only property, lists the history as tuples
    (iteration, x, error, grad_norm, lambda1, inner_iters); iteration 0 is
    the starting point, and row k is iteration k.  ``error`` is None until
    :meth:`measure` sets it to the distance from a saddle.

    The rows are stored in one float64 array, row k holding grad_norm,
    lambda1 (NaN for None), inner_iters and then x, because a caller may
    keep many records alive (the benchmark keeps every search's); the
    errors, once measured, sit in a second array.  ``x`` and the points of
    ``rows`` are views of the stored array.

    ``status`` is one of ``converged``, ``max_iters`` (the budget ran out),
    ``cycling`` (a step that moved the point reproduced an earlier state
    exactly), ``diverged``, ``left_region`` and ``failed``; :func:`run`
    says when each is set.  A zero-length step is a stall, not a cycle:
    such a run ends ``max_iters``.
    """

    status: str = "max_iters"
    message: str = ""
    terminal_index: int = None
    _data: np.ndarray = field(default_factory=lambda: np.empty((0, 3)), init=False, repr=False)
    _errors: np.ndarray = field(default=None, init=False, repr=False)

    def add(self, iteration, x, error, grad_norm, lam1, inner_iters):
        """Append the row of ``iteration``, which must be the next one; the
        error must be None (:meth:`measure` sets it)."""
        if int(iteration) != len(self._data):
            raise ValueError(f"iteration {iteration} added after {len(self._data)} rows")
        if error is not None:
            raise ValueError("rows are added unmeasured; measure() sets the errors")
        row = np.concatenate((
            [grad_norm, np.nan if lam1 is None else lam1, inner_iters],
            np.asarray(x, dtype=float)))[None]
        self._data = np.concatenate((self._data, row)) if len(self._data) else row

    def measure(self, reference):
        """Sets every row's error to |x - reference|; returns the record."""
        ref = np.asarray(reference, dtype=float)
        # row by row: a norm along an axis sums in another order, which
        # moves the errors' last bits
        self._errors = np.array([np.linalg.norm(x - ref) for x in self._data[:, 3:]])
        return self

    @property
    def rows(self):
        errors = self.errors()
        errors += [None] * (len(self._data) - len(errors))
        return [(k, row[3:], err, float(row[0]), None if np.isnan(row[1]) else float(row[1]),
                 int(row[2])) for k, (row, err) in enumerate(zip(self._data, errors))]

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def iterations(self):
        return max(len(self._data) - 1, 0)

    @property
    def x(self):
        return self._data[-1, 3:]

    def errors(self, include_start=True):
        if self._errors is None:
            return []
        return [float(e) for e in self._errors[0 if include_start else 1:]]

    def to_csv(self, path):
        """Write the rows; the point's coordinates only when d <= 8."""
        rows = self.rows
        d = len(rows[0][1]) if rows else 0
        with_x = d <= 8
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            head = ["iter", "error", "grad_norm", "lambda1", "inner_iters"]
            if with_x:
                head += [f"x{i}" for i in range(d)]
            w.writerow(head)
            for it, x, err, gn, lam, inner in rows:
                row = [
                    it,
                    "" if err is None else f"{err:.17g}",
                    f"{gn:.17g}",
                    "" if lam is None else f"{lam:.17g}",
                    inner,
                ]
                if with_x:
                    row += [f"{xi:.17g}" for xi in x]
                w.writerow(row)

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "message": self.message,
            "iterations": self.iterations,
            "terminal_index": self.terminal_index,
            "terminal_x": [float(v) for v in self.x] if len(self._data) else None,
            "terminal_grad_norm": float(self._data[-1, 0]) if len(self._data) else None,
            "errors": self.errors(),
        }
        try:
            out["estimated_order"] = estimate_order(self.errors())
        except OrderEstimateError:
            out["estimated_order"] = None
        return out


def run(p, x0, cfg: SearchConfig) -> ConvergenceRecord:
    """Iterate ``step`` from ``x0`` until tolerance, budget, or failure.

    Never raises on solver failures: the record's ``status``/``message``
    report them.  The statuses:

    * ``converged``: the gradient norm reached ``grad_tol``.
    * ``max_iters``: ``max_outer_iters`` steps ran without another status.
      A stall (a zero-length step, so a fixed point that is not stationary)
      stays here.
    * ``cycling``: a step that moved the point produced a state
      (``x``, ``modes``, ``last_step_inf``: all that ``step`` reads) equal
      bitwise to an earlier one, so the run would repeat until the budget
      ran out; the message names both outer iterations.
    * ``diverged``: the point left the ball of radius ``divergence_radius``.
    * ``left_region``: a step left the region where the energy model is
      valid.
    * ``failed``: an eigensolve or inner solve failed, the anchor was convex
      without a trust box, or the gradient at the start or after a step was
      non-finite.

    A converged run's terminal point is
    classified by a dense eigensolve into ``terminal_index`` when the
    dimension is at most ``INDEX_MAX_DIMENSION``; larger runs leave it None,
    and a non-finite Hessian there ends the run as ``failed``.  The rows'
    errors stay None; :meth:`ConvergenceRecord.measure` sets them.
    """
    record = ConvergenceRecord()
    state = initial_state(p, x0, cfg)
    record.add(0, state.x, None, state.grad_norm, None, 0)

    if not np.isfinite(state.grad_norm):
        record.status = "failed"
        record.message = "iteration 0: non-finite gradient at the starting point"
    elif state.grad_norm <= cfg.grad_tol:
        # started on a stationary point
        record.status = "converged"
    else:
        # outer iteration of each state seen, keyed by everything step reads
        seen = {}
        while state.outer_iter < cfg.max_outer_iters:
            try:
                state = step(p, state, cfg)
            except (EigensolveError, SubsolveError, ConvexRegionError, ModelRegionError) as exc:
                record.status = "left_region" if isinstance(exc, ModelRegionError) else "failed"
                record.message = str(exc)
                break
            lam1 = float(state.eigenvalues[0])
            record.add(state.outer_iter, state.x, None, state.grad_norm, lam1,
                       state.last_inner_iters)
            if not np.isfinite(state.grad_norm):
                record.status = "failed"
                record.message = (
                    f"outer iteration {state.outer_iter}: non-finite gradient at the new point"
                )
                break
            if np.linalg.norm(state.x) > cfg.divergence_radius:
                record.status = "diverged"
                break
            if state.grad_norm <= cfg.grad_tol:
                record.status = "converged"
                break
            key = (state.x.tobytes(), state.modes.tobytes(), state.last_step_inf)
            if state.last_step_inf > 0.0 and key in seen:
                record.status = "cycling"
                record.message = (
                    f"outer iteration {state.outer_iter} repeats the state of "
                    f"outer iteration {seen[key]}"
                )
                break
            seen[key] = state.outer_iter

    if record.converged and p.dimension <= INDEX_MAX_DIMENSION:
        try:
            if cfg.on_sphere:
                record.terminal_index = mf.constrained_index(p, record.x)
            else:
                record.terminal_index = stationary_index(p, record.x)
        except EigensolveError as exc:
            record.status = "failed"
            record.message = f"terminal point: {exc}"
    return record


def jacobian_of_step_map(p, x, cfg: SearchConfig, h=1e-4) -> np.ndarray:
    """Central-difference Jacobian of the one-step map x -> step(x).

    Requires a tight inner tolerance to be meaningful; each column costs two
    full outer steps.  At a saddle the result should vanish to O(h^2) plus
    solver noise.
    """
    x = np.asarray(x, dtype=float)
    d = p.dimension
    J = np.empty((d, d))
    e = np.zeros(d)
    for i in range(d):
        e[i] = h
        plus = step(p, initial_state(p, x + e, cfg), cfg)
        minus = step(p, initial_state(p, x - e, cfg), cfg)
        J[:, i] = (plus.x - minus.x) / (2.0 * h)
        e[i] = 0.0
    return J


def _qualifying(errors, floor):
    """Positive entries above the saturation floor, maximal decreasing suffix."""
    usable = []
    for v in (float(v) for v in errors):
        if not np.isfinite(v) or v <= floor:
            break
        usable.append(v)
    start = len(usable) - 1
    while start > 0 and usable[start - 1] > usable[start]:
        start -= 1
    return usable[start:]


def estimate_order(errors, floor=1e-14) -> float:
    """Least-squares convergence order from an error sequence.

    Entries at or below ``floor`` (machine-precision saturation) and anything
    after them are dropped, then the maximal strictly decreasing suffix is
    kept.  The slope of log e_{k+1} against log e_k over the surviving pairs
    is returned; at least three usable entries are required.
    """
    usable = _qualifying(errors, floor)
    if len(usable) < 3:
        raise OrderEstimateError(
            f"need at least 3 usable decreasing errors above {floor:g}, "
            f"got {len(usable)}"
        )
    logs = np.log(np.asarray(usable))
    slope, _ = np.polyfit(logs[:-1], logs[1:], 1)
    return float(slope)


def estimate_order_pooled(error_sequences, floor=1e-14) -> float:
    """Single convergence order fitted over the pairs of several runs.

    Short individual sequences (quadratic methods reach the floor in three
    or four steps) give noisy per-run slopes; pooling the
    (log e_k, log e_{k+1}) pairs of repeated runs of the same protocol
    stabilizes the fit.
    """
    xs, ys = [], []
    for seq in error_sequences:
        usable = _qualifying(seq, floor)
        logs = np.log(np.asarray(usable))
        xs.extend(logs[:-1])
        ys.extend(logs[1:])
    if len(xs) < 3:
        raise OrderEstimateError(f"need at least 3 pooled pairs, got {len(xs)}")
    slope, _ = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(slope)
