"""Leapfrog integration and the energy error of its proposals.

Trajectories are integrated in velocity coordinates u = C^T p so the banded
preconditioner never needs a solve on the hot path.  All gradient
evaluations along the trajectory are cached; the adaptation objective
reuses them as frozen constants.  A caller that already holds the
gradient and potential at the start point passes them in, so a transition
costs L gradients and one potential.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class DivergenceError(RuntimeError):
    """Non-finite potential or gradient encountered mid-trajectory.

    ``step`` is the leapfrog index at which integration failed;
    ``positions`` holds the positions computed before the failure.
    """

    def __init__(self, step, positions):
        super().__init__(f"non-finite value at leapfrog step {step}")
        self.step = step
        self.positions = positions


@dataclass
class Trajectory:
    """One L-step leapfrog trajectory with cached gradients.

    q has shape (L+1, d) with q[0] the starting position; grads[i] is the
    potential gradient at q[i]; xi is the gradient accumulator
    sum_{i=1}^{L-1} (L-i) grads[i]; delta is the energy error of the
    proposal (+inf when a potential evaluation was non-finite); u0 and
    u_end are the potentials at q[0] and q[L] once evaluated.
    """

    q: np.ndarray
    grads: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    h: float
    L: int
    delta: float = field(default=np.nan)
    u0: Optional[float] = None
    u_end: Optional[float] = None

    @property
    def q_mid_index(self):
        return self.L // 2

    @property
    def midpoint(self):
        return self.q[self.L // 2]

    @property
    def accept_prob(self):
        if not np.isfinite(self.delta):
            return 0.0
        return min(1.0, float(np.exp(-max(self.delta, -700.0))))


def _checked_grad(model, q, step):
    # q is the (L+1, d) position array; the prefix is copied only on failure
    g = model.grad(q[step])
    if not np.isfinite(g).all():
        raise DivergenceError(step, q[: step + 1].copy())
    return g


def trajectory_reparam(q0, v, h, L, precond, model, g0=None, u0=None):
    """Full trajectory from velocity v, with p0 = C^{-T} v.

    Integrates velocity Verlet for kinetic energy 0.5 p^T C C^T p in
    u = C^T p coordinates (u0 = v), caching every gradient and the xi
    accumulator so the endpoint identity and the adaptation objective can
    be evaluated without re-running the model.  g0 and u0, when given, are
    the gradient and potential at q0, which are then not evaluated again.
    """
    if h <= 0 or L < 1:
        raise ValueError("need h > 0 and L >= 1")
    q0 = np.asarray(q0, dtype=float)
    v = np.asarray(v, dtype=float)
    d = q0.size
    q = np.empty((L + 1, d))
    grads = np.empty((L + 1, d))
    q[0] = q0
    grads[0] = _checked_grad(model, q, 0) if g0 is None else g0
    u = v - 0.5 * h * precond.rmatvec(grads[0])
    for step in range(1, L + 1):
        q[step] = q[step - 1] + h * precond.matvec(u)
        grads[step] = _checked_grad(model, q, step)
        if step < L:
            u = u - h * precond.rmatvec(grads[step])
    xi = np.zeros(d)
    for i in range(1, L):
        xi += (L - i) * grads[i]
    traj = Trajectory(q=q, grads=grads, v=v.copy(), xi=xi, h=h, L=L, u0=u0)
    traj.delta = energy_error(traj, precond, model)
    return traj


def final_velocity(traj, precond):
    """w = C^T p_L for a completed trajectory, from cached gradients:
    w = v - (h/2) C^T (g_0 + g_L) - h C^T (sum of interior gradients)."""
    h, L = traj.h, traj.L
    gsum = traj.grads[0] + traj.grads[L]
    if L > 1:
        interior = traj.grads[1:L].sum(axis=0)
    else:
        interior = np.zeros_like(traj.v)
    return traj.v - 0.5 * h * precond.rmatvec(gsum) - h * precond.rmatvec(interior)


def energy_error(traj, precond, model):
    """Energy change of the proposal, from cached gradients.

    With w the final velocity, the error is
    U(q_L) - U(q_0) + 0.5 ||w||^2 - 0.5 ||v||^2.  The end potentials the
    trajectory does not carry yet are evaluated and stored on it.  Returns
    +inf when any piece is non-finite; the sampler treats that as a
    rejection.
    """
    w = final_velocity(traj, precond)
    if traj.u0 is None:
        traj.u0 = model.potential(traj.q[0])
    if traj.u_end is None:
        traj.u_end = model.potential(traj.q[traj.L])
    delta = traj.u_end - traj.u0 + 0.5 * float(w @ w) - 0.5 * float(traj.v @ traj.v)
    if not np.isfinite(delta):
        return np.inf
    return float(delta)
