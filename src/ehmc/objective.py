"""Adaptation objectives and their gradients with respect to the
preconditioner parameters.

All gradients use frozen-value semantics: the cached trajectory gradients,
the roulette accumulator y, the power vector b and the Hessian midpoint
are constants; theta enters only through the explicit C / C^T products.
Each gradient is assembled from the two preconditioner adjoint primitives.
The matching surrogate losses, re-evaluatable at any parameter point from
the frozen pieces, live in the test suite, whose finite differences of
them are the independent check.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


@dataclass
class AdaptConfig:
    """Learning rates and controller constants for one adaptation run."""

    rho_theta: float = 1e-2
    rho_beta: float = 0.02
    rho_gamma: float = 1e2
    alpha_star: float = ALPHA_STAR
    beta_bounds: tuple = BETA_BOUNDS
    gamma_bounds: tuple = GAMMA_BOUNDS
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    penalty_delta: float = PENALTY_DELTA
    penalty_delta2: Optional[float] = None
    delta_prime: float = DELTA_PRIME
    n_min: int = N_MIN
    lambda_rate: float = 0.05
    l2hmc_floor: float = 1e-8


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
        lo, hi = self.config.beta_bounds
        if not lo <= self.beta <= hi:
            raise ValueError("beta outside its projection interval")
        lo, hi = self.config.gamma_bounds
        if not lo <= self.gamma <= hi:
            raise ValueError("gamma outside its projection interval")


def make_adapt_state(precond, config=None):
    if config is None:
        config = default_adapt_config(precond.kind)
    return AdaptState(precond=precond, config=config)


# -- frozen endpoint pieces ----------------------------------------------


def surrogate_velocity(traj, precond):
    """Final velocity C^T p_L as a function of the preconditioner."""
    # integrator.final_velocity rounds this w differently; merging them changes theta and draws
    h, L = traj.h, traj.L
    m = 0.5 * h * (traj.grads[0] + traj.grads[L])
    if L > 1:
        m = m + h * traj.grads[1:L].sum(axis=0)
    return traj.v - precond.rmatvec(m), m


def _endpoint_adjoint(traj, precond, u, out, scale=1.0):
    # accumulate scale * d(u^T q_L(theta)) / dtheta for frozen u, with
    # q_L = q_0 + Lh C v - C C^T (h^2 xi + (L h^2 / 2) g_0)
    h, L = traj.h, traj.L
    precond.accumulate_bilinear_grad(u, traj.v, out, scale * L * h)
    ct_terms = h * h * traj.xi + 0.5 * L * h * h * traj.grads[0]
    precond.accumulate_bilinear_grad(u, precond.rmatvec(ct_terms), out, -scale)
    precond.accumulate_bilinear_grad(ct_terms, precond.rmatvec(u), out, -scale)


def _delta_grad(traj, precond, out, scale=1.0):
    # accumulate scale * dDelta/dtheta with all potential gradients frozen
    w, m = surrogate_velocity(traj, precond)
    _endpoint_adjoint(traj, precond, traj.grads[traj.L], out, scale)
    precond.accumulate_bilinear_grad(m, w, out, -scale)


# -- penalised generalized-speed-measure objective -----------------------


def gsm_gradient(traj, draw, state, precond, model):
    """Analytic gradient of the penalised loss under frozen-value semantics.

    The loss is max(0, Delta) - beta (d log h + log|det C| + y^T D eps
    - gamma pen(|b^T D b|)), with D the midpoint surrogate operator.  The
    energy part enters only when the trajectory's energy error is
    positive; the entropy part back-propagates through both C factors of
    the surrogate operator; the penalty differentiates through the
    operator only, with b frozen.  The draw must come from a roulette pass
    over a MidpointOperator, which keeps H C eps and H C b, so this costs
    one hvp call (H C y).
    """
    cfg = state.config
    out = np.zeros_like(precond.theta)
    if np.isfinite(traj.delta) and traj.delta > 0.0:
        _delta_grad(traj, precond, out, 1.0)
    # log-det part: d log h is theta-free
    precond.accumulate_logdet_grad(out, -state.beta)
    if traj.L > 1:
        c = dl_coeff(traj.h, traj.L)
        h_cy = model.hvp(traj.midpoint, precond.matvec(draw.y))
        precond.accumulate_bilinear_grad(draw.hvp_eps, draw.y, out, -state.beta * c)
        precond.accumulate_bilinear_grad(h_cy, draw.epsilon, out, -state.beta * c)
        # a degenerate draw keeps no H C b: there b = 0, so mu = 0
        if draw.hvp_b is not None:
            mu = c * float(precond.matvec(draw.b) @ draw.hvp_b)
            slope = penalty_h_grad(abs(mu), cfg.penalty_delta, cfg.penalty_delta2)
            if slope != 0.0 and mu != 0.0:
                coeff = state.beta * state.gamma * slope * np.sign(mu) * c * 2.0
                precond.accumulate_bilinear_grad(draw.hvp_b, draw.b, out, coeff)
    return out


# -- competing objectives ------------------------------------------------


def jump_value(traj):
    """Acceptance-weighted squared jump J = a ||q_L - q_0||^2."""
    jump = traj.q[traj.L] - traj.q[0]
    return traj.accept_prob * float(jump @ jump)


def _jump_grad(traj, precond, out, scale):
    # accumulate scale * dJ/dtheta, with dJ = a dr + r da for r the
    # squared jump
    a = traj.accept_prob
    jump = traj.q[traj.L] - traj.q[0]
    r = float(jump @ jump)
    if a > 0.0:
        _endpoint_adjoint(traj, precond, jump, out, scale * a * 2.0)
    if np.isfinite(traj.delta) and traj.delta > 0.0 and a > 0.0:
        # da = -a dDelta on the branch where the exponential binds
        tmp = np.zeros_like(out)
        _delta_grad(traj, precond, tmp, 1.0)
        out += scale * r * (-a) * tmp


def esjd_gradient(traj, precond):
    """Gradient of the ESJD loss -J."""
    out = np.zeros_like(precond.theta)
    _jump_grad(traj, precond, out, -1.0)
    return out


def l2hmc_gradient(traj, state, precond):
    """Gradient of the L2HMC loss -(J / lambda - lambda / max(J, floor)),
    with lambda the moving average of J (J itself before the first one)."""
    floor = state.config.l2hmc_floor
    j = jump_value(traj)
    lam = state.lambda_ma if state.lambda_ma is not None else max(j, floor)
    dloss_dj = -1.0 / lam
    if j > floor:
        dloss_dj -= lam / (j * j)
    out = np.zeros_like(precond.theta)
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
    cfg = state.config
    state.step += 1
    t = state.step
    state.adam_m = cfg.adam_beta1 * state.adam_m + (1 - cfg.adam_beta1) * grad
    state.adam_v = cfg.adam_beta2 * state.adam_v + (1 - cfg.adam_beta2) * grad * grad
    m_hat = state.adam_m / (1 - cfg.adam_beta1**t)
    v_hat = state.adam_v / (1 - cfg.adam_beta2**t)
    state.precond.theta = state.precond.theta - cfg.rho_theta * m_hat / (
        np.sqrt(v_hat) + cfg.adam_eps
    )
    return state


def update_beta(state, accept_prob):
    """Multiplicative drift of beta toward the target acceptance rate."""
    cfg = state.config
    lo, hi = cfg.beta_bounds
    state.beta = float(
        np.clip(state.beta * (1.0 + cfg.rho_beta * (accept_prob - cfg.alpha_star)), lo, hi)
    )
    return state


def update_gamma(state, pen):
    """Additive penalty-driven push of gamma, projected to its interval."""
    cfg = state.config
    lo, hi = cfg.gamma_bounds
    state.gamma = float(np.clip(state.gamma + cfg.rho_gamma * pen, lo, hi))
    return state


def update_lambda(state, jump_value):
    """Moving average of the acceptance-weighted squared jump, seeded from
    the first observation."""
    if state.lambda_ma is None:
        state.lambda_ma = float(jump_value)
    else:
        r = state.config.lambda_rate
        state.lambda_ma = float((1.0 - r) * state.lambda_ma + r * jump_value)
    if state.lambda_ma < state.config.l2hmc_floor:
        state.lambda_ma = state.config.l2hmc_floor
    return state
