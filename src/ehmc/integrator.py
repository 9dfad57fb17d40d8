"""Leapfrog integration and the energy error of its proposals.

Trajectories are integrated in velocity coordinates u = C^T p, so a step
maps by C and C^T only (banded: solves with B = C^{-1} and B^T).  The last
half-kick leaves the final velocity w = C^T p_L on the trajectory, and the
energy error and the adaptation objectives read it.  All gradient
evaluations along the trajectory are kept; the adaptation objective
reuses them as frozen constants.  A caller that already holds the
gradient and potential at the start point passes them in, so a
transition costs L gradients, one potential and 2L + 1 factor maps.  A
one-chain trajectory binds the maps once per call
(``Preconditioner.bound_maps``); they read each gradient g from its float64
row of ``grads``, and one dot g.g tests g for finiteness, non-finite
whenever an entry is.  Only a non-finite g.g gets the entrywise test, so
DivergenceError reports the same step as an entrywise check.

A trajectory runs one chain on (d,) arrays or k chains in lockstep on a
(k, d) block, with a chain axis after the step axis: q and grads are then
(L+1, k, d).  The block arithmetic gives every row the bits of its own
one-chain trajectory, while the target is still called once per row on a
(d,) array.  A block row whose gradient turns non-finite stops there: it
makes no further target call, is marked in ``live`` and gets delta = +inf.
"""

import math

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


class Trajectory:
    """One L-step leapfrog trajectory with cached gradients, or a block of k.

    q has shape (L+1, d) with q[0] the starting position; grads[i] is the
    potential gradient at q[i]; v is the starting velocity C^T p_0 and w
    the final velocity C^T p_L; delta is the energy error of the proposal
    (+inf when a potential evaluation was non-finite); u0 and u_end are
    the potentials at q[0] and q[L] once evaluated.  A block has q and
    grads of shape (L+1, k, d), v and w (k, d), delta (k,), u0 and u_end
    lists of k entries, and ``live`` (k,), False for rows whose integration
    failed; ``live`` is None for one chain.  A one-chain trajectory is
    what a sampling transition makes; the adaptation objectives take
    blocks only.
    """

    def __init__(self, q, grads, v, w, h, L, delta=np.nan, u0=None, u_end=None, live=None):
        self.q, self.grads, self.v, self.w, self.h, self.L = q, grads, v, w, h, L
        self.delta, self.u0, self.u_end, self.live = delta, u0, u_end, live

    @property
    def midpoint(self):
        return self.q[self.L // 2]

    @property
    def accept_prob(self):
        if self.live is None:
            return _accept_prob(self.delta)
        return np.array([_accept_prob(delta) for delta in self.delta])

    def row(self, i):
        """Row i of a block as a one-chain trajectory (views, no copies)."""
        return Trajectory(q=self.q[:, i], grads=self.grads[:, i], v=self.v[i], w=self.w[i],
                          h=self.h, L=self.L, delta=float(self.delta[i]), u0=self.u0[i],
                          u_end=self.u_end[i])

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


def _row_grads(model, q, grads, step, live, given=None):
    # a block: one model.grad call per live row of step `step` (none for
    # rows whose gradient is given); a row whose gradient is non-finite
    # leaves `live` and keeps a zero gradient, so the lockstep arithmetic
    # on it stays finite; a gradient it evaluates at step 0 must be (d,)
    for i in range(live.size):
        if live[i]:
            g = None if given is None else given[i]
            if g is None:
                g = model.grad(q[step, i])
                if step == 0 and np.shape(g) != q.shape[2:]:
                    raise ValueError(f"gradient has shape {np.shape(g)}, "
                                     f"expected {q.shape[2:]}")
            grads[step, i] = g
    bad = ~np.isfinite(grads[step]).all(axis=1)
    if bad.any():
        live[bad] = False
        grads[step, bad] = 0.0


def trajectory_reparam(q0, v, h, L, precond, model, g0=None, u0=None):
    """Full trajectory from velocity v, with p0 = C^{-T} v.

    Integrates velocity Verlet for kinetic energy 0.5 p^T C C^T p in
    u = C^T p coordinates (u0 = v), ending with the half-kick that gives
    the final velocity w = C^T p_L, and keeps every gradient so the
    endpoint identity and the adaptation objective can be evaluated
    without re-running the model.  g0 and u0, when given, are the
    gradient and potential at q0, which are then not evaluated again.

    q0 and v are (d,) for one chain, where a non-finite gradient raises
    DivergenceError and a gradient at q0 not of shape (d,) ValueError, or
    (k, d) for k chains in lockstep, where g0 and u0 are sequences of k
    entries (None where not known), an evaluated gradient at q0 must be
    (d,) too, and a non-finite gradient stops only its own row.
    """
    if h <= 0 or L < 1:
        raise ValueError("need h > 0 and L >= 1")
    q0 = np.asarray(q0, dtype=float)
    v = np.asarray(v, dtype=float)
    q = np.empty((L + 1,) + q0.shape)
    q[0] = q0
    if q0.ndim == 1:
        matvec, rmatvec = precond.bound_maps()
        grad, grads, live = model.grad, np.empty_like(q), None
        if g0 is None:  # not (d,): its row would take a scalar or a (1,) by broadcasting
            g0 = np.asarray(grad(q0), dtype=float)
            if g0.shape != q0.shape:
                raise ValueError(f"gradient has shape {g0.shape}, expected {q0.shape}")
            if not np.isfinite(g0).all():
                raise DivergenceError(0, q[:1].copy())
        grads[0] = g0
        u = v - 0.5 * h * rmatvec(grads[0])
        for step in range(1, L + 1):
            q[step] = q[step - 1] + h * matvec(u)
            grads[step] = grad(q[step])
            g = grads[step]
            if not math.isfinite(g.dot(g)) and not np.isfinite(g).all():
                raise DivergenceError(step, q[: step + 1].copy())
            u = u - (h if step < L else 0.5 * h) * rmatvec(g)
    else:
        live, grads = np.ones(len(q0), dtype=bool), np.zeros_like(q)
        u0 = list(u0) if u0 is not None else [None] * len(live)
        _row_grads(model, q, grads, 0, live, g0)
        u = v - 0.5 * h * precond.rmatvec(grads[0])
        for step in range(1, L + 1):
            q[step] = q[step - 1] + h * precond.matvec(u)
            _row_grads(model, q, grads, step, live)
            u = u - (h if step < L else 0.5 * h) * precond.rmatvec(grads[step])
    traj = Trajectory(q=q, grads=grads, v=v.copy(), w=u, h=h, L=L, u0=u0, live=live)
    traj.delta = energy_error(traj, model)
    return traj


def energy_error(traj, model):
    """Energy change of the proposal, from the trajectory's final velocity w.

    The error is U(q_L) - U(q_0) + 0.5 ||w||^2 - 0.5 ||v||^2.  The end
    potentials the trajectory does not carry yet are evaluated and stored
    on it.  Returns +inf when any piece is non-finite; the sampler treats
    that as a rejection.  For a block it returns one error per row, +inf
    (with no potential evaluated) for rows that are not live.
    """
    if traj.live is None:
        if traj.u0 is None:
            traj.u0 = model.potential(traj.q[0])
        if traj.u_end is None:
            traj.u_end = model.potential(traj.q[traj.L])
        return _energy_delta(traj.u0, traj.u_end, float(traj.w.dot(traj.w)),
                             float(traj.v.dot(traj.v)))
    ww, vv = row_dot(traj.w, traj.w), row_dot(traj.v, traj.v)
    delta = np.full(traj.live.size, np.inf)
    if traj.u_end is None:
        traj.u_end = [None] * traj.live.size
    for i in np.flatnonzero(traj.live):
        if traj.u0[i] is None:
            traj.u0[i] = model.potential(traj.q[0, i])
        if traj.u_end[i] is None:
            traj.u_end[i] = model.potential(traj.q[traj.L, i])
        delta[i] = _energy_delta(traj.u0[i], traj.u_end[i], ww[i], vv[i])
    return delta


def _energy_delta(u0, u_end, ww, vv):
    delta = u_end - u0 + 0.5 * ww - 0.5 * vv
    if not math.isfinite(delta):
        return np.inf
    return float(delta)
