"""Shared independent oracles and helpers for the test suite.

Everything here is deliberately written against dense numpy arrays and
textbook formulas, not against the package's own fast paths, so the two
routes stay independent.
"""

import numpy as np

from ehmc.precond import Preconditioner


def with_theta(precond, theta):
    """Fresh preconditioner of the same kind at a different parameter point."""
    return Preconditioner(precond.kind, precond.dim, np.asarray(theta, dtype=float))


def fd_theta_gradient(f, theta, eps=1e-6):
    """Central finite differences of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        tp = theta.copy()
        tp[j] += eps
        tm = theta.copy()
        tm[j] -= eps
        out[j] = (f(tp) - f(tm)) / (2.0 * eps)
    return out


def relative_error(approx, exact, floor=1.0):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(floor, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def banded_upper_bidiagonal(precond):
    """Dense B for a banded-kind preconditioner (C = B^{-1})."""
    d = precond.dim
    B = np.diag(np.exp(precond.theta[:d]))
    for i in range(d - 1):
        B[i, i + 1] = precond.theta[d + i]
    return B


def dense_lower_factor(precond):
    """Dense C for a dense-kind preconditioner, filled row by row."""
    d = precond.dim
    C = np.diag(np.exp(precond.theta[:d]))
    k = d
    for i in range(1, d):
        C[i, :i] = precond.theta[k : k + i]
        k += i
    return C


def mala_log_accept(q, q_new, v, h, C, grad, potential):
    """Independent preconditioned-MALA acceptance, dense-matrix route.

    Proposal: q' = q - (h^2/2) C C^T grad(q) + h C v with v standard
    normal, i.e. N(mean(q), h^2 C C^T).  Returns log alpha computed from
    the classic ratio with explicit quadratic forms.
    """
    M_inv = C @ C.T

    def log_kernel(dst, src):
        mean = src - 0.5 * h * h * (M_inv @ grad(src))
        resid = np.linalg.solve(C, dst - mean)
        return -0.5 * float(resid @ resid) / (h * h)

    log_ratio = (
        -potential(q_new)
        + potential(q)
        + log_kernel(q, q_new)
        - log_kernel(q_new, q)
    )
    return min(0.0, log_ratio)


def dual_averaging_replay(target_rate, history, h0=1.0, gamma=0.05, t0=10.0,
                          kappa=0.75, final=False):
    """Replay the dual-averaging recursion over a whole acceptance history.

    Returns the current iterate, or the averaged iterate when final is set.
    """
    mu = np.log(h0)
    g_bar = 0.0
    log_h = mu
    log_h_bar = mu
    for t, a in enumerate(history, start=1):
        eta = 1.0 / (t + t0)
        g_bar = (1.0 - eta) * g_bar + eta * (target_rate - a)
        log_h = mu - np.sqrt(t) / gamma * g_bar
        w = t ** (-kappa)
        log_h_bar = w * log_h + (1.0 - w) * log_h_bar
    return float(np.exp(log_h_bar if final else log_h))
