"""Gentlest ascent dynamics: a coupled flow of position and direction.

The position descends the energy with the force component along ``v``
reflected; ``v`` relaxes at the rate ``1 / gamma`` toward the
smallest-eigenvalue direction of the Hessian.  Stable equilibria are
index-1 saddles.  ``euler_step(p, x, v, dt, ...)`` is one explicit Euler
step to a new ``(x, v)``, in flat space or, with ``on_sphere=True``,
projected onto the tangent spaces of the unit sphere and retracted onto
it.  An eigenvector-following variant (flat space only) replaces ``v`` by
the exact min-mode every step.  ``run(p, x0, v0, dt, ...)`` takes a model
and a start first, as the search's ``run`` does, evaluates the gradient
and the Hessian action once per step for both its equilibrium test and
the step, and returns a :class:`~saddlekit.search.ConvergenceRecord`.
"""

import numpy as np

from .eigen import Hessian, min_modes
from .errors import EigensolveError
from . import manifold as mf
from .search import ConvergenceRecord, classify_terminal

__all__ = ["euler_step", "run"]


def _check(v, dt, gamma, exact_mode, on_sphere):
    n = np.linalg.norm(v)
    if not 0.0 < n < np.inf:
        raise ValueError(f"direction must be nonzero and finite, its norm is {n:g}")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if exact_mode and on_sphere:
        raise ValueError("exact_mode is defined in flat space only")


def _flow(p, x, v, on_sphere):
    """``(g, v, Hv)`` at ``x``: the gradient, the unit direction and its
    Hessian product, projected onto the tangent space on the unit sphere."""
    proj = mf.tangent_projector(x) if on_sphere else (lambda u: u)
    v = proj(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("direction has no tangent component")
    v = v / n
    return proj(p.gradient(x)), v, proj(p.hessian_vec(x, v))


def _advance(p, x, v0, dt, gamma, exact_mode, on_sphere, g, v, Hv):
    """The Euler update ``(x, v)`` of the point ``x`` with the carried
    direction ``v0``, from the quantities ``_flow`` returns there."""
    if exact_mode:
        v = min_modes(Hessian(p, x), v0=v0, tol=1e-13).eigenvectors[:, 0]
    vv = float(v @ v)
    step = dt * (-g + 2.0 * (float(g @ v) / vv) * v)
    x_new = mf.retract(x, step) if on_sphere else x + step
    if exact_mode:
        return x_new, v
    v_new = v + (dt / gamma) * (-Hv + (float(v @ Hv) / vv) * v)
    if on_sphere:
        v_new = mf.tangent_projector(x_new)(v_new)
    n = np.linalg.norm(v_new)
    if not 0.0 < n < np.inf:
        raise ValueError(f"the direction's norm became {n:g}")
    return x_new, v_new / n


def euler_step(p, x, v, dt, gamma=1.0, exact_mode=False, on_sphere=False):
    """One explicit Euler step of the coupled flow: the new ``(x, v)``.

    The force component along ``v`` is reflected (reversed with weight 2)
    and ``v`` relaxes at the rate ``1 / gamma``.  With ``exact_mode`` the
    direction equation is replaced by the exact smallest-eigenvalue
    direction at the current point (the fully relaxed limit of the direction
    flow).  With ``on_sphere`` the gradient, the direction and its Hessian
    action are projected onto the tangent space, the new point is retracted
    onto the unit sphere and the new direction re-projected tangent there;
    ``exact_mode`` is then refused.
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    _check(v, dt, gamma, exact_mode, on_sphere)
    g, u, Hu = _flow(p, x, v, on_sphere)
    return _advance(p, x, v, dt, gamma, exact_mode, on_sphere, g, u, Hu)


def run(p, x0, v0, dt, gamma=1.0, max_steps=10000, tol=1e-8, on_sphere=False,
        exact_mode=False, record_every=1) -> ConvergenceRecord:
    """Integrate from ``(x0, v0)`` until the equilibrium holds or the budget is spent.

    The inputs are checked as in :func:`euler_step`.  Terminal test:
    gradient norm and the eigen-residual ||Hv - <v,Hv> v|| both at or below
    ``tol`` (tangent-projected quantities on the unit sphere when
    ``on_sphere``).  The gradient and ``Hv`` of the test are the
    ones the following step uses.

    The record has a row every ``record_every`` steps and at the last one,
    with ``lambda1`` = ``<v,Hv>`` and the Euler steps since the previous
    row as ``inner_iters``.  The status is ``converged``, ``max_iters`` or
    ``failed``, whose message names the step: a non-finite gradient, a
    direction whose norm vanished or overflowed, or a failed exact-mode
    eigensolve.  ``terminal_index`` is set as for the outer search, by
    :func:`~saddlekit.search.classify_terminal`.
    """
    x, v = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    _check(v, dt, gamma, exact_mode, on_sphere)
    if max_steps < 0 or record_every < 1:
        raise ValueError("max_steps must be non-negative and record_every positive")
    record = ConvergenceRecord()
    xs, grad_norms, lams, steps = [], [], [], []
    last = 0
    for k in range(max_steps + 1):
        g, u, Hu = _flow(p, x, v, on_sphere)
        gn = float(np.linalg.norm(g, ord=np.inf))
        lam = float(u @ Hu)
        if not np.isfinite(gn):
            record.status, record.message = "failed", f"step {k}: non-finite gradient"
        elif gn <= tol and float(np.linalg.norm(Hu - lam * u)) <= tol:
            record.status = "converged"
        elif k < max_steps:
            try:
                x_next, v_next = _advance(p, x, v, dt, gamma, exact_mode, on_sphere, g, u, Hu)
            except (ValueError, EigensolveError) as exc:
                record.status, record.message = "failed", f"step {k + 1}: {exc}"
        ends = k == max_steps or record.status != "max_iters"
        if k % record_every == 0 or ends:
            xs.append(x)
            grad_norms.append(gn)
            lams.append(lam)
            steps.append(k - last)
            last = k
        if ends:
            break
        x, v = x_next, v_next
    record.add(0, np.array(xs), None, grad_norms, lams, steps)
    return classify_terminal(p, record, on_sphere)
