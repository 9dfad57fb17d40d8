"""Adaptation objectives and their gradients with respect to the
preconditioner parameters.

All gradients use frozen-value semantics: the cached trajectory gradients,
the roulette accumulator y, the power vector b and the Hessian midpoint
are constants; theta enters only through the explicit C / C^T products.
Each gradient is assembled from the two preconditioner adjoint primitives.
The gradients take a block of k chains (see ``integrator``) and return
one gradient per row: per-row branches (positive energy error, nonzero
acceptance, an active penalty) act on the rows they hold for.
The matching surrogate losses, re-evaluatable at any parameter point from
the frozen pieces, live in the test suite, whose finite differences of
them are the independent check.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import row_dot
from .entropy import (
    DELTA_PRIME,
    N_MIN,
    PENALTY_DELTA,
    dl_coeff,
    penalty_h_grad,
)

BETA_BOUNDS = (1e-2, 1e2)
GAMMA_BOUNDS = (1e3, 1e5)
ALPHA_STAR = 0.67
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
L2HMC_FLOOR = 1e-8
# former AdaptConfig fields, now the constants above, as older checkpoints
# store them; each with the only value such a checkpoint may hold
RETIRED = {"beta_bounds": BETA_BOUNDS, "gamma_bounds": GAMMA_BOUNDS,
           "adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
           "penalty_delta2": None, "l2hmc_floor": L2HMC_FLOOR}


@dataclass
class AdaptConfig:
    """Learning rates and controller constants for one adaptation run: the
    [adapt] settings, range-checked on construction; each ValueError
    message starts with the field it names."""

    rho_theta: float = 1e-2
    rho_beta: float = 0.02
    rho_gamma: float = 1e2
    alpha_star: float = ALPHA_STAR
    penalty_delta: float = PENALTY_DELTA
    delta_prime: float = DELTA_PRIME
    n_min: int = N_MIN
    lambda_rate: float = 0.05

    def __post_init__(self):
        # rates of 0 freeze their part of the adaptation
        for name in ("rho_theta", "rho_beta", "rho_gamma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name}: must be finite and nonnegative, "
                                 f"got {getattr(self, name)}")
        for name in ("alpha_star", "delta_prime"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name}: must lie in (0, 1), got {getattr(self, name)}")
        if not 0 < self.penalty_delta < np.inf:
            raise ValueError(f"penalty_delta: must be finite and positive, "
                             f"got {self.penalty_delta}")
        if self.n_min < 1:
            raise ValueError(f"n_min: must be at least 1, got {self.n_min}")
        if not 0 < self.lambda_rate <= 1:
            raise ValueError(f"lambda_rate: must lie in (0, 1], got {self.lambda_rate}")


def default_adapt_config(kind):
    """Per-kind learning-rate defaults: the dense and banded parameterizations
    need a smaller step than the diagonal one."""
    rate = 1e-2 if kind == "diagonal" else 1e-3
    return AdaptConfig(rho_theta=rate)


@dataclass
class AdaptState:
    """Mutable optimizer state shared by all chains between barriers."""

    precond: object
    config: AdaptConfig
    beta: float = 1.0
    gamma: float = GAMMA_BOUNDS[0]
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None
    step: int = 0
    lambda_ma: Optional[float] = None
    skip_count: int = 0

    def __post_init__(self):
        n = self.precond.theta.size
        if self.adam_m is None:
            self.adam_m = np.zeros(n)
        if self.adam_v is None:
            self.adam_v = np.zeros(n)
        lo, hi = BETA_BOUNDS
        if not lo <= self.beta <= hi:
            raise ValueError("beta outside its projection interval")
        lo, hi = GAMMA_BOUNDS
        if not lo <= self.gamma <= hi:
            raise ValueError("gamma outside its projection interval")


def make_adapt_state(precond, config=None):
    if config is None:
        config = default_adapt_config(precond.kind)
    return AdaptState(precond=precond, config=config)


# -- frozen endpoint pieces ----------------------------------------------


def _endpoint_adjoint(traj, precond, u, out, scale=1.0):
    # accumulate scale * d(u^T q_L(theta)) / dtheta for frozen u, with
    # q_L = q_0 + Lh C v - C C^T (h^2 xi + (L h^2 / 2) g_0)
    h, L = traj.h, traj.L
    precond.accumulate_bilinear_grad(u, traj.v, out, scale * L * h)
    ct_terms = h * h * traj.xi + 0.5 * L * h * h * traj.grads[0]
    precond.accumulate_bilinear_grad(u, precond.rmatvec(ct_terms), out, -scale)
    precond.accumulate_bilinear_grad(ct_terms, precond.rmatvec(u), out, -scale)


def _delta_grad(traj, precond, out, scale=1.0):
    # accumulate scale * dDelta/dtheta with all potential gradients frozen:
    # w = v - C^T m for the theta-free m below, so d(0.5 ||w||^2) = -m^T dC w
    h, L = traj.h, traj.L
    m = 0.5 * h * (traj.grads[0] + traj.grads[L]) + h * traj.grads[1:L].sum(axis=0)
    _endpoint_adjoint(traj, precond, traj.grads[L], out, scale)
    precond.accumulate_bilinear_grad(m, traj.w, out, -scale)


def _on_rows(mask, out, fn):
    # call fn(index, rows) on the rows of the block out where mask holds:
    # out itself when all do, else a copy that is written back
    index = np.flatnonzero(mask)
    if index.size == mask.size:
        fn(index, out)
    elif index.size:
        rows = out[index]
        fn(index, rows)
        out[index] = rows


# -- penalised generalized-speed-measure objective -----------------------


def gsm_gradient(traj, draws, state, precond, h_cy):
    """Analytic gradient of the penalised loss under frozen-value semantics,
    one row per chain of the block traj.

    The loss is max(0, Delta) - beta (d log h + log|det C| + y^T D eps
    - gamma pen(|b^T D b|)), with D the midpoint surrogate operator.  The
    energy part enters only for rows whose energy error is positive; the
    entropy part back-propagates through both C factors of the surrogate
    operator; the penalty differentiates through the operator only, with
    b frozen.  draws holds one draw per row, each from a roulette pass
    over a MidpointOperator, which keeps H C eps and H C b; h_cy holds
    the caller's H C y product for each row (read only for L > 1), so no
    hvp call is made here.
    """
    out = np.zeros((len(draws), precond.theta.size))
    positive = np.isfinite(traj.delta) & (traj.delta > 0.0)
    _on_rows(positive, out, lambda index, rows: _delta_grad(traj.rows(index), precond, rows))
    # log-det part: d log h is theta-free
    precond.accumulate_logdet_grad(out, -state.beta)
    if traj.L > 1:
        c = dl_coeff(traj.h, traj.L)
        eps = np.stack([dr.epsilon for dr in draws])
        y = np.stack([dr.y for dr in draws])
        precond.accumulate_bilinear_grad(np.stack([dr.hvp_eps for dr in draws]), y, out,
                                         -state.beta * c)
        precond.accumulate_bilinear_grad(np.stack(h_cy), eps, out, -state.beta * c)
        # a degenerate draw keeps no H C b: there b = 0, so mu = 0 and the
        # penalty is inactive
        b = np.stack([dr.b for dr in draws])
        hvp_b = np.stack([np.zeros_like(dr.b) if dr.hvp_b is None else dr.hvp_b
                          for dr in draws])
        coeff = np.zeros(len(draws))
        for i, mu in enumerate(c * row_dot(precond.matvec(b), hvp_b)):
            slope = penalty_h_grad(abs(mu), state.config.penalty_delta)
            if slope != 0.0 and mu != 0.0:
                coeff[i] = state.beta * state.gamma * slope * np.sign(mu) * c * 2.0
        _on_rows(coeff != 0.0, out, lambda index, rows: precond.accumulate_bilinear_grad(
            hvp_b[index], b[index], rows, coeff[index]))
    return out


# -- competing objectives ------------------------------------------------


def jump_value(traj):
    """Acceptance-weighted squared jump J = a ||q_L - q_0||^2, one per row
    of the block traj."""
    jump = traj.q[traj.L] - traj.q[0]
    return traj.accept_prob * row_dot(jump, jump)


def _jump_grad(traj, precond, out, scale):
    # accumulate scale * dJ/dtheta into the rows of out for the block traj,
    # with dJ = a dr + r da for r the squared jump; scale is a number or
    # one per row
    a = traj.accept_prob
    jump = traj.q[traj.L] - traj.q[0]
    r = row_dot(jump, jump)
    moved = scale * a * 2.0
    _on_rows(a > 0.0, out, lambda index, rows: _endpoint_adjoint(
        traj.rows(index), precond, jump[index], rows, moved[index]))
    # da = -a dDelta on the branch where the exponential binds
    binds = np.isfinite(traj.delta) & (traj.delta > 0.0) & (a > 0.0)
    energy = scale * r * (-a)

    def energy_part(index, rows):
        tmp = np.zeros_like(rows)
        _delta_grad(traj.rows(index), precond, tmp, 1.0)
        rows += energy[index][:, None] * tmp

    _on_rows(binds, out, energy_part)


def esjd_gradient(traj, precond):
    """Gradient of the ESJD loss -J, one row per chain of the block traj."""
    out = np.zeros((traj.live.size, precond.theta.size))
    _jump_grad(traj, precond, out, -1.0)
    return out


def l2hmc_gradient(traj, jumps, state, precond):
    """Gradient of the L2HMC loss -(J / lambda - lambda / max(J, L2HMC_FLOOR)),
    one row per chain of the block traj, whose jump_value is jumps; lambda
    is the moving average state.lambda_ma, which the caller sets first."""
    lam = state.lambda_ma
    dloss_dj = np.full(jumps.size, -1.0 / lam)
    far = jumps > L2HMC_FLOOR
    dloss_dj[far] -= lam / (jumps[far] * jumps[far])
    out = np.zeros((jumps.size, precond.theta.size))
    _jump_grad(traj, precond, out, dloss_dj)
    return out


# -- parameter and controller updates ------------------------------------


def adam_update(state, grad):
    """One bias-corrected Adam step on theta; non-finite gradients are a
    counted no-op so a single bad draw cannot derail the run."""
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        state.skip_count += 1
        return state
    state.step += 1
    t = state.step
    state.adam_m = ADAM_BETA1 * state.adam_m + (1 - ADAM_BETA1) * grad
    state.adam_v = ADAM_BETA2 * state.adam_v + (1 - ADAM_BETA2) * grad * grad
    m_hat = state.adam_m / (1 - ADAM_BETA1**t)
    v_hat = state.adam_v / (1 - ADAM_BETA2**t)
    state.precond.theta = state.precond.theta - state.config.rho_theta * m_hat / (
        np.sqrt(v_hat) + ADAM_EPS
    )
    return state


def update_beta(state, accept_prob):
    """Multiplicative drift of beta toward the target acceptance rate."""
    cfg = state.config
    lo, hi = BETA_BOUNDS
    state.beta = float(
        np.clip(state.beta * (1.0 + cfg.rho_beta * (accept_prob - cfg.alpha_star)), lo, hi)
    )
    return state


def update_gamma(state, pen):
    """Additive penalty-driven push of gamma, projected to its interval."""
    lo, hi = GAMMA_BOUNDS
    state.gamma = float(np.clip(state.gamma + state.config.rho_gamma * pen, lo, hi))
    return state


def update_lambda(state, jump_value):
    """Moving average of the acceptance-weighted squared jump, seeded from
    the first observation."""
    if state.lambda_ma is None:
        state.lambda_ma = float(jump_value)
    else:
        r = state.config.lambda_rate
        state.lambda_ma = float((1.0 - r) * state.lambda_ma + r * jump_value)
    if state.lambda_ma < L2HMC_FLOOR:
        state.lambda_ma = L2HMC_FLOOR
    return state
