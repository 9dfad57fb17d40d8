"""Leapfrog integration and the energy error of its proposals.

Trajectories are integrated in velocity coordinates u = C^T p, so a step
maps by C and C^T only (banded: solves with B = C^{-1} and B^T).  The last
half-kick leaves the final velocity w = C^T p_L on the trajectory, and the
energy error and the adaptation objectives read it.  All gradient
evaluations along the trajectory are kept; the adaptation objective
reuses them as frozen constants.  A caller that already holds the
gradient and potential at the start point passes them in, so a
transition costs L gradients, one potential and 2L + 1 factor maps.  A
trajectory binds its maps once per call (``Preconditioner.bound_maps``);
they read each gradient g from its float64 row of ``grads``.  One dot g.g
of a step's gradient (of the whole step, flattened, for a block) tests it
for finiteness, non-finite whenever an entry is; only a non-finite dot
gets the entrywise test, which finds the step and the rows it failed on.

A trajectory runs one chain on (d,) arrays or k chains in lockstep on a
(k, d) block, with a chain axis after the step axis: q and grads are then
(L+1, k, d).  Both run one leapfrog loop; the block arithmetic gives every
row the bits of its own one-chain trajectory, and the target is still
called once per row on a (d,) array.  One divergence rule holds for both:
a chain whose gradient turns non-finite stops there with a zero gradient,
makes no further target or potential call, is marked False in ``live``
and gets delta = +inf; the loop ends once no chain is live.
"""

import math
from functools import partial

import numpy as np


class Trajectory:
    """One L-step leapfrog trajectory with cached gradients, or a block of k.

    q has shape (L+1, d) with q[0] the starting position; grads[i] is the
    potential gradient at q[i]; v is the starting velocity C^T p_0 and w
    the final velocity C^T p_L; delta is the energy error of the proposal
    (+inf when a potential evaluation was non-finite); u0 and u_end are
    the potentials at q[0] and q[L] once evaluated; ``live`` is False for
    a chain that a non-finite gradient stopped, whose q past that step and
    w mean nothing.  A block has q and grads of shape (L+1, k, d), v and w
    (k, d), delta and live (k,), u0 and u_end lists of k entries.  A
    one-chain trajectory is what a sampling transition makes; the
    adaptation objectives take blocks only.
    """

    def __init__(self, q, grads, v, w, h, L, delta=np.nan, u0=None, u_end=None, live=True):
        self.q, self.grads, self.v, self.w, self.h, self.L = q, grads, v, w, h, L
        self.delta, self.u0, self.u_end, self.live = delta, u0, u_end, live

    @property
    def midpoint(self):
        return self.q[self.L // 2]

    @property
    def accept_prob(self):
        if self.q.ndim == 2:
            return _accept_prob(self.delta)
        return np.array([_accept_prob(delta) for delta in self.delta])

    def row(self, i):
        """Row i of a block as a one-chain trajectory (views, no copies)."""
        return Trajectory(q=self.q[:, i], grads=self.grads[:, i], v=self.v[i], w=self.w[i],
                          h=self.h, L=self.L, delta=float(self.delta[i]), u0=self.u0[i],
                          u_end=self.u_end[i], live=bool(self.live[i]))

    def rows(self, index):
        """The block of the rows listed, in increasing order, in index (all
        of them: the block itself)."""
        index = np.asarray(index, dtype=int)
        if index.size == self.live.size:
            return self
        return Trajectory(q=self.q[:, index], grads=self.grads[:, index], v=self.v[index],
                          w=self.w[index], h=self.h, L=self.L, delta=self.delta[index],
                          u0=[self.u0[i] for i in index], u_end=[self.u_end[i] for i in index],
                          live=self.live[index])


def _accept_prob(delta):
    if not math.isfinite(delta):
        return 0.0
    return min(1.0, float(np.exp(-max(delta, -700.0))))


def row_dot(x, y):
    """Per-row inner products of two (k, d) blocks, with the bits of the
    per-row ``x[i] @ y[i]`` (one dot per row; ``(x * y).sum(1)`` and
    ``norm(axis=1)`` round differently)."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _chain_grad(model, q, grads, step, given=None):
    # one chain: one model.grad call at step `step` (none if given); a
    # non-finite gradient is zeroed; returns whether the chain is live
    if given is None:
        given = model.grad(q[step])
    if step == 0 and np.shape(given) != q.shape[1:]:
        raise ValueError(f"gradient has shape {np.shape(given)}, expected {q.shape[1:]}")
    grads[step] = given
    g = grads[step]
    if math.isfinite(g.dot(g)) or np.isfinite(g).all():
        return True
    g[:] = 0.0
    return False


def _row_grads(model, q, grads, live, step, given=None):
    # a block: one model.grad call per live row of step `step` (none for
    # rows whose gradient is given); a row whose gradient is non-finite
    # leaves `live` and keeps a zero gradient, so the lockstep arithmetic
    # on it stays finite; returns whether any row is still live
    for i in range(live.size):
        if live[i]:
            g = None if given is None else given[i]
            if g is None:
                g = model.grad(q[step, i])
            if step == 0 and np.shape(g) != q.shape[2:]:
                raise ValueError(f"gradient has shape {np.shape(g)}, expected {q.shape[2:]}")
            grads[step, i] = g
    flat = grads[step].ravel()  # a view: grads is C-contiguous
    if math.isfinite(flat.dot(flat)):
        return True
    bad = ~np.isfinite(grads[step]).all(axis=1)
    live[bad] = False
    grads[step, bad] = 0.0
    return live.any()


def trajectory_reparam(q0, v, h, L, precond, model, g0=None, u0=None):
    """Full trajectory from velocity v, with p0 = C^{-T} v.

    Integrates velocity Verlet for kinetic energy 0.5 p^T C C^T p in
    u = C^T p coordinates (u0 = v), ending with the half-kick that gives
    the final velocity w = C^T p_L, and keeps every gradient so the
    endpoint identity and the adaptation objective can be evaluated
    without re-running the model.  g0 and u0, when given, are the
    gradient and potential at q0, which are then not evaluated again.

    q0 and v are (d,) for one chain, or (k, d) for k chains in lockstep,
    where g0 and u0 are sequences of k entries (None where not known).  A
    gradient at q0, given or evaluated, must be (d,), else ValueError (a
    row of grads would take a scalar or a (1,) by broadcasting).  One
    divergence rule holds for both: a non-finite gradient, given or
    evaluated, stops its chain (see the module docstring).
    """
    if not 0 < h < math.inf or L < 1:
        raise ValueError("need h > 0 and L >= 1")
    q0 = np.asarray(q0, dtype=float)
    v = np.asarray(v, dtype=float)
    block = q0.ndim == 2
    matvec, rmatvec = precond.bound_maps(block)
    q = np.empty((L + 1,) + q0.shape)
    q[0] = q0
    grads = np.zeros_like(q)
    if block:
        live = np.ones(len(q0), dtype=bool)
        u0 = list(u0) if u0 is not None else [None] * live.size
        step_grads = partial(_row_grads, model, q, grads, live)
    else:
        step_grads = partial(_chain_grad, model, q, grads)
    alive = step_grads(0, g0)
    u = v - 0.5 * h * rmatvec(grads[0])
    for step in range(1, L + 1):
        if not alive:
            break
        q[step] = q[step - 1] + h * matvec(u)
        alive = step_grads(step)
        u = u - (h if step < L else 0.5 * h) * rmatvec(grads[step])
    traj = Trajectory(q=q, grads=grads, v=v.copy(), w=u, h=h, L=L, u0=u0,
                      live=live if block else alive)
    traj.delta = energy_error(traj, model)
    return traj


def energy_error(traj, model):
    """Energy change of the proposal, from the trajectory's final velocity w.

    The error is U(q_L) - U(q_0) + 0.5 ||w||^2 - 0.5 ||v||^2.  The end
    potentials the trajectory does not carry yet are evaluated and stored
    on it.  Returns +inf when any piece is non-finite; the sampler treats
    that as a rejection.  A chain that is not live gets +inf with no
    potential evaluated; a block gets one error per row.
    """
    if traj.q.ndim == 2:
        if not traj.live:
            return np.inf
        traj.u0, traj.u_end, delta = _chain_energy(model, traj.q[0], traj.q[traj.L], traj.u0,
                                                   traj.u_end, traj.w.dot(traj.w),
                                                   traj.v.dot(traj.v))
        return delta
    ww, vv = row_dot(traj.w, traj.w), row_dot(traj.v, traj.v)
    delta = np.full(traj.live.size, np.inf)
    traj.u_end = traj.u_end or [None] * traj.live.size
    for i in np.flatnonzero(traj.live):
        traj.u0[i], traj.u_end[i], delta[i] = _chain_energy(
            model, traj.q[0, i], traj.q[traj.L, i], traj.u0[i], traj.u_end[i], ww[i], vv[i])
    return delta


def _chain_energy(model, q0, q_end, u0, u_end, ww, vv):
    # (u0, u_end, energy error) of one live chain, evaluating the
    # potentials not given; the error is +inf when non-finite
    u0 = model.potential(q0) if u0 is None else u0
    u_end = model.potential(q_end) if u_end is None else u_end
    delta = u_end - u0 + 0.5 * ww - 0.5 * vv
    return u0, u_end, float(delta) if math.isfinite(delta) else np.inf
