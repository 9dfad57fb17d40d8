"""Entropy surrogate machinery: the midpoint-Hessian operator, the
Russian-roulette series with spectral normalization, and the eigenvalue
penalty, whose value and slope ``penalty_h`` gives together.

The operator D(w) = -h^2 (L^2 - 1)/6 * C^T H(q_mid) C w costs one
Hessian-vector product per application.  One roulette pass per adaptation
step serves both the entropy surrogate and the penalty's power-iteration
eigenvalue estimate with N + 1 products: N series terms and the mu probe.
It hands H C eps, H C b and H C y (summed from its products like y) on to
the gradient, which makes none.  A MidpointOperator binds the factor's
one-vector maps and the target's hvp once, at construction (the sampler
builds one per pass).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .targets import check_real

N_MIN = 3
DELTA_PRIME = 0.99
PENALTY_DELTA = 0.75


@dataclass
class RouletteDraw:
    """One truncated-series draw.

    epsilon: Rademacher probe (+-1 entries)
    n_terms: truncation level N (>= n_min)
    survival: p_k = P(N >= k) for k = 1..N, nonincreasing, positive
    y: alternating-series accumulator sum_k ((-1)^k / p_k) eta_k
    b: unit eigenvector estimate, zero when an iterate hit exactly zero
    mu: b^T D b, the dominant-eigenvalue estimate
    eps_eta: epsilon^T eta_k for k = 1..N (for the log-det estimate)
    clamp_count: how many iterations the spectral clamp fired
    hvp_eps: the raw product H C epsilon of the first term
    hvp_b: H C b, the raw product of the mu probe (zero when b is)
    hvp_y: H C y = sum_k ((-1)^k / p_k) H C eta_k, summed from the
        products of the following applications, the last one's from hvp_b
    (the last three are kept only from a MidpointOperator, else None)
    """

    epsilon: np.ndarray
    n_terms: int
    survival: np.ndarray
    y: np.ndarray
    b: np.ndarray
    mu: float
    eps_eta: np.ndarray
    clamp_count: int
    hvp_eps: Optional[np.ndarray] = None
    hvp_b: Optional[np.ndarray] = None
    hvp_y: Optional[np.ndarray] = None


def dl_coeff(h, L):
    """Scalar prefactor -h^2 (L^2 - 1) / 6 of the surrogate operator."""
    return -h * h * (L * L - 1) / 6.0


class MidpointOperator:
    """w -> D w at a frozen midpoint, one hvp call per application.

    Exactly zero for L = 1.  Raises on non-finite output (tested entrywise
    only when out.dot(out) is not finite) so the adaptation step can skip the
    update.  ``last_hvp`` is the raw product H(q_mid) C w of the latest
    application (None before the first and for L = 1).  w is one (d,)
    vector (ValueError otherwise); the maps are those of the factor's theta
    at construction (``Preconditioner.bound_maps``).
    """

    def __init__(self, q_mid, precond, model, h, L):
        self.q_mid, self.precond, self.model = q_mid, precond, model
        self.L = L
        self.coeff = dl_coeff(h, L)
        self.last_hvp = None
        self._matvec, self._rmatvec = precond.bound_maps()
        self._hvp = model.hvp

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.precond.dim,):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.precond.dim},)")
        if self.L == 1:
            return np.zeros_like(w)
        self.last_hvp = self._hvp(self.q_mid, self._matvec(w))
        out = self.coeff * self._rmatvec(self.last_hvp)
        if not math.isfinite(out.dot(out)) and not np.isfinite(out).all():
            raise FloatingPointError("non-finite Hessian-vector product")
        return out


def sample_truncation(rng, n_min=N_MIN):
    """Truncation level N = n_min + Geometric(1/2) on {0,1,...} and its
    survival probabilities p_k = P(N >= k)."""
    extra = int(rng.geometric(0.5)) - 1
    p = np.ones(n_min + extra)
    p[n_min:] = 0.5 ** np.arange(1, extra + 1)
    return n_min + extra, p


def roulette_pass(dl, dim, rng, delta_prime=DELTA_PRIME, n_min=N_MIN):
    """Run the alternating power series with spectral normalization.

    Iterates eta_k = (D eta_{k-1}) * min{1, delta' ||eta_{k-1}|| / ||D eta_{k-1}||},
    so iterates contract whenever the clamp fires and can never overflow.
    Accumulates y and the probe inner products, then spends one extra
    operator application on mu = b^T D b: N + 1 applications in all.
    When dl exposes ``last_hvp`` (as MidpointOperator does), the raw
    products of the first term and of the mu probe are kept on the draw,
    and so is H C y: application k + 1 adds ((-1)^k / p_k) H C eta_k, and
    the mu probe adds ((-1)^N / p_N) ||eta_N|| H C b.  A degenerate pass
    stops at its last nonzero term, with no mu probe: b, mu and H C b are
    zero.  A norm is sqrt(x.dot(x)), the bits of ``np.linalg.norm``, and
    ||eta|| is carried over unless the clamp fired.
    """
    epsilon = rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0
    n, survival = sample_truncation(rng, n_min)
    eta = epsilon.copy()
    en = math.sqrt(eta.dot(eta))
    y = np.zeros(dim)
    eps_eta = np.zeros(n)
    clamps, degenerate = 0, False
    hvp_eps = hvp_b = hvp_y = None
    for k in range(1, n + 1):
        z = dl(eta)
        if k == 1:
            hvp_eps = getattr(dl, "last_hvp", None)
            hvp_y = None if hvp_eps is None else np.zeros(dim)
        elif hvp_y is not None:
            hvp_y += weight * dl.last_hvp
        zn = math.sqrt(z.dot(z))
        if zn == 0.0:
            eta = np.zeros(dim)
            degenerate = True
            break
        if zn > delta_prime * en:
            z = z * (delta_prime * en / zn)
            clamps += 1
            zn = math.sqrt(z.dot(z))
        eta, en = z, zn
        weight = (-1.0) ** k / survival[k - 1]
        y += weight * eta
        eps_eta[k - 1] = epsilon.dot(eta)
    if degenerate or en == 0.0:
        b, mu = np.zeros(dim), 0.0
        hvp_b = None if hvp_y is None else np.zeros(dim)
    else:
        b = eta / en
        mu = float(b.dot(dl(b)))
        hvp_b = getattr(dl, "last_hvp", None)
        if hvp_y is not None:
            hvp_y += (weight * en) * hvp_b
    return RouletteDraw(epsilon=epsilon, n_terms=n, survival=survival, y=y, b=b, mu=mu,
                        eps_eta=eps_eta, clamp_count=clamps, hvp_eps=hvp_eps,
                        hvp_b=hvp_b, hvp_y=hvp_y)


def penalty_h(x, delta=PENALTY_DELTA):
    """Hinge-like eigenvalue penalty and its slope, as (value, slope): zero
    up to delta, quadratic on (delta, delta2], linear beyond, with
    delta2 = 1 + delta.  Continuous, with slope 0 at delta and matched at
    delta2 (a kink takes the slope on its left).  Once 1 + delta rounds to
    delta, both pieces vanish and both are 0."""
    check_real("delta", delta, 0, math.inf, "()")
    delta2 = 1.0 + delta
    if x <= delta:
        return 0.0, 0.0
    if x <= delta2:
        return (x - delta) ** 2, 2.0 * (x - delta)
    w = delta2 - delta
    return w * w + w * w * (x - delta2), (delta2 - delta) ** 2
