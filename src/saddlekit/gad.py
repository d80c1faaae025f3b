"""Gentlest ascent dynamics: a coupled flow of position and direction.

The position descends the energy with the force component along ``v``
reversed; ``v`` relaxes toward the smallest-eigenvalue direction of the
Hessian.  Stable equilibria are index-1 saddles.  Only explicit Euler
stepping is provided, in flat space and projected onto a constraint
manifold, plus an eigenvector-following variant where ``v`` is replaced by
the exact min-mode every step.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .eigen import min_modes
from .manifold import tangent_projector

__all__ = ["GADState", "GADTrajectory", "euler_step", "euler_step_manifold", "run"]


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


def euler_step(p, s: GADState, dt, reversal=2.0, exact_mode=False) -> GADState:
    """One explicit Euler step of the coupled flow.

    ``reversal`` scales the reflected force component (2 recovers the plain
    dynamics).  With ``exact_mode`` the direction equation is replaced by the
    exact smallest-eigenvalue direction at the current point (the fully
    relaxed limit of the direction flow).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, v = s.x, s.v
    if exact_mode:
        v = min_modes(p, x, m=1, v0=v, tol=1e-13).eigenvectors[:, 0]
    g = p.gradient(x)
    vv = float(v @ v)
    x_new = x + dt * (-g + reversal * (float(g @ v) / vv) * v)
    if exact_mode:
        v_new = v
    else:
        Hv = p.hessian_vec(x, v)
        v_new = v + (dt / s.gamma) * (-Hv + (float(v @ Hv) / vv) * v)
        v_new = v_new / np.linalg.norm(v_new)
    return GADState(x=x_new, v=v_new, t=s.t + dt, gamma=s.gamma)


def euler_step_manifold(p, M, s: GADState, dt, reversal=2.0) -> GADState:
    """Euler step of the flow projected onto the tangent spaces of ``M``.

    The position force is tangent-projected and the new point retracted onto
    the manifold; the direction update uses the tangent-projected Hessian
    action with a multiplier preserving unit length, then is re-projected
    tangent at the new point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    proj = tangent_projector(M, s.x)
    v = proj(s.v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("direction has no tangent component")
    v = v / n
    g = p.gradient(s.x)
    force = proj(-g + reversal * float(g @ v) * v)
    x_new = M.retraction(s.x, dt * force)

    Hv = proj(p.hessian_vec(s.x, v))
    eta = float(Hv @ v)
    v_new = v + (dt / s.gamma) * (-Hv + eta * v)
    v_new = tangent_projector(M, x_new)(v_new)
    n = np.linalg.norm(v_new)
    if n == 0.0:
        raise ValueError("direction vanished after projection")
    return GADState(x=x_new, v=v_new / n, t=s.t + dt, gamma=s.gamma)


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
        manifold=None, exact_mode=False, record_every=1) -> GADTrajectory:
    """Integrate until the equilibrium conditions hold or the budget is spent.

    Terminal test: gradient norm and the eigen-residual ||Hv - <v,Hv> v||
    both at or below ``tol`` (tangent-projected quantities on a manifold).
    """
    traj = GADTrajectory()
    s = s0
    if manifold is not None:
        manifold.check_feasible(s.x)
    for k in range(max_steps + 1):
        if manifold is not None:
            proj = tangent_projector(manifold, s.x)
            g = proj(p.gradient(s.x))
            v = proj(s.v)
            v = v / np.linalg.norm(v)
            Hv = proj(p.hessian_vec(s.x, v))
        else:
            g = p.gradient(s.x)
            v = s.v / np.linalg.norm(s.v)
            Hv = p.hessian_vec(s.x, v)
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
        if manifold is not None:
            s = euler_step_manifold(p, manifold, s, dt, reversal=reversal)
        else:
            s = euler_step(p, s, dt, reversal=reversal, exact_mode=exact_mode)
    traj.steps = max_steps
    return traj
