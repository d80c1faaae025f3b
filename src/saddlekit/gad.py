"""Gentlest ascent dynamics: a coupled flow of position and direction.

The position descends the energy with the force component along ``v``
reversed; ``v`` relaxes toward the smallest-eigenvalue direction of the
Hessian.  Stable equilibria are index-1 saddles.  ``euler_step`` is one
explicit Euler step, in flat space or, with ``on_sphere=True``, with the
gradient, direction and Hessian action projected onto the tangent spaces
of the unit sphere and the new point retracted onto it.  An
eigenvector-following variant (flat space only) replaces ``v`` by the exact
min-mode every step.  ``run`` evaluates the gradient and the Hessian action
once per step and uses them both for its equilibrium test and for the step.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .eigen import Hessian, min_modes
from . import manifold as mf

__all__ = ["GADState", "GADTrajectory", "euler_step", "run"]


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
    if n == 0.0:
        raise ValueError("direction vanished after projection")
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


@dataclass
class GADTrajectory:
    """Recorded flow history with a terminal equilibrium classification."""

    times: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    vs: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    status: str = "max_steps"
    steps: int = 0

    def add(self, s: GADState, grad_norm):
        self.times.append(float(s.t))
        self.xs.append(s.x.copy())
        self.vs.append(s.v.copy())
        self.grad_norms.append(float(grad_norm))

    @property
    def x(self):
        return self.xs[-1]

    @property
    def v(self):
        return self.vs[-1]

    def errors(self, reference):
        ref = np.asarray(reference, dtype=float)
        return [float(np.linalg.norm(x - ref)) for x in self.xs]

    def to_csv(self, path):
        d = len(self.xs[0]) if self.xs else 0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"x{i}" for i in range(d)]
                       + [f"v{i}" for i in range(d)] + ["grad_norm"])
            for t, x, v, gn in zip(self.times, self.xs, self.vs, self.grad_norms):
                w.writerow([f"{t:.17g}"] + [f"{c:.17g}" for c in x]
                           + [f"{c:.17g}" for c in v] + [f"{gn:.17g}"])


def run(p, s0: GADState, dt, max_steps=10000, tol=1e-8, reversal=2.0,
        on_sphere=False, exact_mode=False, record_every=1) -> GADTrajectory:
    """Integrate until the equilibrium conditions hold or the budget is spent.

    Terminal test: gradient norm and the eigen-residual ||Hv - <v,Hv> v||
    both at or below ``tol`` (tangent-projected quantities on the unit
    sphere when ``on_sphere``).  The gradient and ``Hv`` of the test are the
    ones the following step uses.
    """
    _check_options(dt, exact_mode, on_sphere)
    if max_steps < 0 or record_every < 1:
        raise ValueError("max_steps must be non-negative and record_every positive")
    traj = GADTrajectory()
    s = s0
    for k in range(max_steps + 1):
        g, v, Hv = _flow(p, s, on_sphere)
        gn = float(np.linalg.norm(g, ord=np.inf))
        if k % record_every == 0 or k == max_steps:
            traj.add(s, gn)
        resid = float(np.linalg.norm(Hv - float(v @ Hv) * v))
        if gn <= tol and resid <= tol:
            if traj.times[-1] != s.t:
                traj.add(s, gn)
            traj.status = "converged"
            traj.steps = k
            return traj
        if k == max_steps:
            break
        s = _advance(p, s, dt, reversal, exact_mode, on_sphere, g, v, Hv)
    traj.steps = max_steps
    return traj
