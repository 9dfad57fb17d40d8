"""Adaptation objectives and their gradients with respect to the
preconditioner parameters.

All gradients use frozen-value semantics: the cached trajectory gradients,
the roulette accumulator y, the power vector b and the Hessian midpoint
are constants; theta enters only through the explicit C / C^T products.
A gradient is a sum of terms s d(u^T C w)/dtheta with frozen u and w.
Each gradient forms the endpoint's x = h^2 xi + (L h^2 / 2) g_0, with
xi = sum_{i=1}^{L-1} (L - i) g_i, and C^T x once, and the GSM penalty
reads the mu its roulette draw already holds.
The gradients take a block of k chains (see ``integrator``), build the
same T terms for every row (at most 7: four for the energy error, then
two for the entropy and one for the penalty, or three for the jump), and
contract them in one ``accumulate_bilinear_grad`` call, one gradient per
row.  A per-row branch (positive energy error, nonzero acceptance, an
active penalty) gives its terms scale 0, and so adds nothing, on the rows
it does not hold for, even where their vectors are not finite.
The matching surrogate losses, re-evaluatable at any parameter point from
the frozen pieces, live in the test suite, whose finite differences of
them are the independent check.
``AdaptConfig`` checks each real setting against its interval in ``_INTERVALS``
and ``AdaptState`` beta and gamma against their projection intervals, both
through ``targets.check_real``.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .integrator import row_dot
from .entropy import (
    DELTA_PRIME,
    N_MIN,
    PENALTY_DELTA,
    dl_coeff,
    penalty_h,
)
from .targets import check_real, check_size

BETA_BOUNDS = (1e-2, 1e2)
GAMMA_BOUNDS = (1e3, 1e5)
ALPHA_STAR = 0.67
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
L2HMC_FLOOR = 1e-8
# each factor kind's Adam rate: dense and banded need a smaller step than diagonal
RHO_THETA = {"diagonal": 1e-2, "dense": 1e-3, "banded": 1e-3}
# former AdaptConfig fields, now the constants above, as older checkpoints
# store them; each with the only value such a checkpoint may hold
RETIRED = {"beta_bounds": BETA_BOUNDS, "gamma_bounds": GAMMA_BOUNDS,
           "adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
           "penalty_delta2": None, "l2hmc_floor": L2HMC_FLOOR}


# each real [adapt] setting's interval, as check_real reads it; a rate of 0
# freezes its part of the adaptation
_INTERVALS = {"rho_theta": (0, np.inf, "[)"), "rho_beta": (0, np.inf, "[)"),
              "rho_gamma": (0, np.inf, "[)"), "alpha_star": (0, 1, "()"),
              "penalty_delta": (0, np.inf, "()"), "delta_prime": (0, 1, "()"),
              "lambda_rate": (0, 1, "(]")}


@dataclass
class AdaptConfig:
    """Learning rates and controller constants for one adaptation run: the
    [adapt] settings, range-checked on construction, then held as plain
    Python numbers; each ValueError message starts with the field it names.
    rho_theta None is the factor kind's rate (RHO_THETA), left to AdaptState."""

    rho_theta: float = None
    rho_beta: float = 0.02
    rho_gamma: float = 1e2
    alpha_star: float = ALPHA_STAR
    penalty_delta: float = PENALTY_DELTA
    delta_prime: float = DELTA_PRIME
    n_min: int = N_MIN
    lambda_rate: float = 0.05

    def __post_init__(self):
        for name, interval in _INTERVALS.items():
            if name != "rho_theta" or self.rho_theta is not None:
                setattr(self, name, check_real(name, getattr(self, name), *interval))
        self.n_min = check_size("n_min", self.n_min)


@dataclass
class AdaptState:
    """Mutable optimizer state shared by all chains between barriers; a
    config's rho_theta None becomes the factor kind's rate."""

    precond: object
    config: AdaptConfig = field(default_factory=AdaptConfig)
    beta: float = 1.0
    gamma: float = GAMMA_BOUNDS[0]
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None
    step: int = 0
    lambda_ma: Optional[float] = None
    skip_count: int = 0

    def __post_init__(self):
        if self.config.rho_theta is None:
            self.config = replace(self.config, rho_theta=RHO_THETA[self.precond.kind])
        n = self.precond.theta.size
        if self.adam_m is None:
            self.adam_m = np.zeros(n)
        if self.adam_v is None:
            self.adam_v = np.zeros(n)
        for name, (lo, hi) in (("beta", BETA_BOUNDS), ("gamma", GAMMA_BOUNDS)):
            setattr(self, name, check_real(name, getattr(self, name), lo, hi, "[]",
                                           f"outside its projection interval [{lo}, {hi}]"))


# -- frozen endpoint pieces ----------------------------------------------


def _endpoint_pieces(traj, precond):
    # x and C^T x for the endpoint q_L = q_0 + Lh C v - C C^T x, where
    # x = h^2 xi + (L h^2 / 2) g_0 and xi = sum_{i=1}^{L-1} (L - i) g_i
    # xi as 0 minus each -(L - i) g_i in step order: a - (-b) rounds as
    # a + b, and a subtract reduction keeps that order where an add one
    # sums pairwise (k d = 1), so xi has the bits of the running sum from 0
    h, L = traj.h, traj.L
    xi = np.subtract.reduce(np.arange(1 - L, 0.0)[:, None, None] * traj.grads[1:L], axis=0,
                            initial=0.0)
    x = h * h * xi + 0.5 * L * h * h * traj.grads[0]
    return x, precond.rmatvec(x)


def _endpoint_terms(traj, precond, ends, u, scale):
    # the terms of scale * d(u^T q_L(theta)) / dtheta for frozen u, from
    # the _endpoint_pieces ends = (x, C^T x)
    x, ct_x = ends
    return [(u, traj.v, scale * traj.L * traj.h), (u, ct_x, -scale),
            (x, precond.rmatvec(u), -scale)]


def _delta_terms(traj, precond, ends, scale):
    # the terms of scale * dDelta/dtheta with all potential gradients frozen:
    # w = v - C^T m for the theta-free m below, so d(0.5 ||w||^2) = -m^T dC w
    h, L = traj.h, traj.L
    m = 0.5 * h * (traj.grads[0] + traj.grads[L]) + h * traj.grads[1:L].sum(axis=0)
    return _endpoint_terms(traj, precond, ends, traj.grads[L], scale) + [(m, traj.w, -scale)]


def _contract(precond, terms, out):
    # add the terms (u, w: (k, d) or k rows; scale: a number or (k,)) into
    # the block out in one call, each zeroed on the rows where its scale is 0
    U, W = np.empty((2, len(out), len(terms), precond.dim))
    S = np.empty((len(out), len(terms)))
    for t, (u, w, s) in enumerate(terms):
        U[:, t], W[:, t], S[:, t] = u, w, s
    off = S == 0.0
    if off.any():
        U[off] = 0.0
        W[off] = 0.0
    precond.accumulate_bilinear_grad(U, W, out, S)


# -- penalised generalized-speed-measure objective -----------------------


def gsm_gradient(traj, draws, state, precond):
    """Analytic gradient of the penalised loss under frozen-value semantics,
    one row per chain of the block traj.

    The loss is max(0, Delta) - beta (d log h + log|det C| + y^T D eps
    - gamma pen(|b^T D b|)), with D the midpoint surrogate operator.  The
    energy part enters only for rows whose energy error is positive; the
    entropy part back-propagates through both C factors of the surrogate
    operator; the penalty differentiates through the operator only, with
    b frozen.  draws holds one draw per row, each from a roulette pass
    over a MidpointOperator, which keeps H C eps, H C b and H C y, and
    whose mu is the b^T D b the caller's penalty reads; so no hvp call is
    made here, and a GSM chain-step costs the pass's N + 1 products.
    """
    out = np.zeros((len(draws), precond.theta.size))
    # log-det part: d log h is theta-free
    precond.accumulate_logdet_grad(out, -state.beta)
    positive = np.isfinite(traj.delta) & (traj.delta > 0.0)
    ends = _endpoint_pieces(traj, precond)
    terms = _delta_terms(traj, precond, ends, positive.astype(float))
    if traj.L > 1:
        c = dl_coeff(traj.h, traj.L)
        # a degenerate draw keeps no H C b: there b = 0, so mu = 0 and the
        # penalty is inactive
        b = np.stack([dr.b for dr in draws])
        hvp_b = np.stack([np.zeros_like(dr.b) if dr.hvp_b is None else dr.hvp_b
                          for dr in draws])
        delta = state.config.penalty_delta
        coeff = [state.beta * state.gamma * penalty_h(abs(dr.mu), delta)[1] * np.sign(dr.mu)
                 * c * 2.0 for dr in draws]
        terms += [([dr.hvp_eps for dr in draws], [dr.y for dr in draws], -state.beta * c),
                  ([dr.hvp_y for dr in draws], [dr.epsilon for dr in draws], -state.beta * c),
                  (hvp_b, b, coeff)]
    _contract(precond, terms, out)
    return out


# -- competing objectives ------------------------------------------------


def jump_value(traj):
    """Acceptance-weighted squared jump J = a ||q_L - q_0||^2, one per row
    of the block traj."""
    jump = traj.q[traj.L] - traj.q[0]
    return traj.accept_prob * row_dot(jump, jump)


def _jump_gradient(traj, precond, scale):
    # scale * dJ/dtheta for the block traj, one row per chain, with
    # dJ = a dr + r da for r the squared jump and da = -a dDelta on the
    # rows where the exponential binds; scale is a number or one per row
    a = traj.accept_prob
    jump = traj.q[traj.L] - traj.q[0]
    r = row_dot(jump, jump)
    binds = np.isfinite(traj.delta) & (traj.delta > 0.0) & (a > 0.0)
    ends = _endpoint_pieces(traj, precond)
    out = np.zeros((a.size, precond.theta.size))
    _contract(precond, _endpoint_terms(traj, precond, ends, jump, scale * a * 2.0)
              + _delta_terms(traj, precond, ends, np.where(binds, scale * r * (-a), 0.0)), out)
    return out


def esjd_gradient(traj, precond):
    """Gradient of the ESJD loss -J, one row per chain of the block traj."""
    return _jump_gradient(traj, precond, -1.0)


def l2hmc_gradient(traj, jumps, state, precond):
    """Gradient of the L2HMC loss -(J / lambda - lambda / max(J, L2HMC_FLOOR)),
    one row per chain of the block traj, whose jump_value is jumps; lambda
    is the moving average state.lambda_ma, which the caller sets first."""
    lam = state.lambda_ma
    dloss_dj = np.full(jumps.size, -1.0 / lam)
    far = jumps > L2HMC_FLOOR
    dloss_dj[far] -= lam / (jumps[far] * jumps[far])
    return _jump_gradient(traj, precond, dloss_dj)


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
