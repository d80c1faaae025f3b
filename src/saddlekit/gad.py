"""Gentlest ascent dynamics: a coupled flow of position and direction.

The position descends the energy with the force component along ``v``
reversed; ``v`` relaxes toward the smallest-eigenvalue direction of the
Hessian.  Stable equilibria are index-1 saddles.  ``euler_step`` is one
explicit Euler step, in flat space or, with ``on_sphere=True``, with the
gradient, direction and Hessian action projected onto the tangent spaces
of the unit sphere and the new point retracted onto it.  An
eigenvector-following variant (flat space only) replaces ``v`` by the exact
min-mode every step.  ``run`` evaluates the gradient and the Hessian action
once per step and uses them both for its equilibrium test and for the step,
and returns a :class:`~saddlekit.search.ConvergenceRecord`.
"""

from dataclasses import dataclass

import numpy as np

from .eigen import Hessian, min_modes
from .errors import EigensolveError
from . import manifold as mf
from .search import ConvergenceRecord, classify_terminal

__all__ = ["GADState", "euler_step", "run"]


@dataclass(frozen=True, eq=False)
class GADState:
    """Position, direction, elapsed time and the relaxation constant."""

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        v = np.asarray(self.v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "v", v)
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


def _check_options(dt, exact_mode, on_sphere):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if exact_mode and on_sphere:
        raise ValueError("exact_mode is defined in flat space only")


def _flow(p, s: GADState, on_sphere):
    """``(g, v, Hv)`` at ``s.x``: the gradient, the unit direction and its
    Hessian product, projected onto the tangent space on the unit sphere."""
    proj = mf.tangent_projector(s.x) if on_sphere else (lambda u: u)
    v = proj(s.v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("direction has no tangent component")
    v = v / n
    return proj(p.gradient(s.x)), v, proj(p.hessian_vec(s.x, v))


def _advance(p, s: GADState, dt, reversal, exact_mode, on_sphere, g, v, Hv) -> GADState:
    """The Euler update from the quantities ``_flow`` returns at ``s.x``."""
    if exact_mode:
        v = min_modes(Hessian(p, s.x), v0=s.v, tol=1e-13).eigenvectors[:, 0]
    vv = float(v @ v)
    step = dt * (-g + reversal * (float(g @ v) / vv) * v)
    x_new = mf.retract(s.x, step) if on_sphere else s.x + step
    if exact_mode:
        return GADState(x=x_new, v=v, t=s.t + dt, gamma=s.gamma)
    v_new = v + (dt / s.gamma) * (-Hv + (float(v @ Hv) / vv) * v)
    if on_sphere:
        v_new = mf.tangent_projector(x_new)(v_new)
    n = np.linalg.norm(v_new)
    if not 0.0 < n < np.inf:
        raise ValueError(f"the direction's norm became {n:g}")
    return GADState(x=x_new, v=v_new / n, t=s.t + dt, gamma=s.gamma)


def euler_step(p, s: GADState, dt, reversal=2.0, exact_mode=False, on_sphere=False) -> GADState:
    """One explicit Euler step of the coupled flow.

    ``reversal`` scales the reflected force component (2 recovers the plain
    dynamics).  With ``exact_mode`` the direction equation is replaced by the
    exact smallest-eigenvalue direction at the current point (the fully
    relaxed limit of the direction flow).  With ``on_sphere`` the gradient,
    the direction and its Hessian action are projected onto the tangent
    space, the new point is retracted onto the unit sphere and the new
    direction re-projected tangent there; ``exact_mode`` is then refused.
    """
    _check_options(dt, exact_mode, on_sphere)
    g, v, Hv = _flow(p, s, on_sphere)
    return _advance(p, s, dt, reversal, exact_mode, on_sphere, g, v, Hv)


def run(p, s0: GADState, dt, max_steps=10000, tol=1e-8, reversal=2.0,
        on_sphere=False, exact_mode=False, record_every=1) -> ConvergenceRecord:
    """Integrate until the equilibrium conditions hold or the budget is spent.

    Terminal test: gradient norm and the eigen-residual ||Hv - <v,Hv> v||
    both at or below ``tol`` (tangent-projected quantities on the unit
    sphere when ``on_sphere``).  The gradient and ``Hv`` of the test are the
    ones the following step uses.

    The record has a row every ``record_every`` steps and at the last one,
    with ``lambda1`` = ``<v,Hv>`` and the Euler steps since the previous
    row as ``inner_iters``.  The status is ``converged``, ``max_iters`` or
    ``failed``, whose message names the step: a non-finite gradient, a
    direction whose norm vanished or overflowed, or a failed exact-mode
    eigensolve.  ``terminal_index`` is set as for the outer search, by
    :func:`~saddlekit.search.classify_terminal`.
    """
    _check_options(dt, exact_mode, on_sphere)
    if max_steps < 0 or record_every < 1:
        raise ValueError("max_steps must be non-negative and record_every positive")
    record = ConvergenceRecord()
    xs, grad_norms, lams, steps = [], [], [], []
    s, last = s0, 0
    for k in range(max_steps + 1):
        g, v, Hv = _flow(p, s, on_sphere)
        gn = float(np.linalg.norm(g, ord=np.inf))
        lam = float(v @ Hv)
        if not np.isfinite(gn):
            record.status, record.message = "failed", f"step {k}: non-finite gradient"
        elif gn <= tol and float(np.linalg.norm(Hv - lam * v)) <= tol:
            record.status = "converged"
        elif k < max_steps:
            try:
                s_next = _advance(p, s, dt, reversal, exact_mode, on_sphere, g, v, Hv)
            except (ValueError, EigensolveError) as exc:
                record.status, record.message = "failed", f"step {k + 1}: {exc}"
        ends = k == max_steps or record.status != "max_iters"
        if k % record_every == 0 or ends:
            xs.append(s.x)
            grad_norms.append(gn)
            lams.append(lam)
            steps.append(k - last)
            last = k
        if ends:
            break
        s = s_next
    record.add(0, np.array(xs), None, grad_norms, lams, steps)
    return classify_terminal(p, record, on_sphere)
