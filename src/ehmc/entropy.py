"""Entropy surrogate machinery: the midpoint-Hessian operator, the
Russian-roulette series with spectral normalization, and the eigenvalue
penalty, whose value and slope ``penalty_h`` gives together.

The operator maps w to the pair (D w, H(q_mid) C w), for
D = -h^2 (L^2 - 1)/6 * C^T H(q_mid) C, with one Hessian-vector product,
or to two zero vectors and none at L = 1.  One roulette pass per adaptation
step serves both the entropy surrogate and the penalty's power-iteration
eigenvalue estimate with N + 1 applications: N series terms and the mu
probe.  Its draw keeps H C eps, H C b and H C y (summed from the products
like y) for the gradient, which makes none.  A MidpointOperator binds the
factor's one-vector maps and the target's hvp once, at construction (the
sampler builds one per pass).
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import check_real, check_size

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
    hvp_eps: H C epsilon, the product of the first application
    hvp_b: H C b, the product of the mu probe (zero when b is)
    hvp_y: H C y = sum_k ((-1)^k / p_k) H C eta_k, summed from the
        products of the following applications, the last one's from hvp_b
    """

    epsilon: np.ndarray
    n_terms: int
    survival: np.ndarray
    y: np.ndarray
    b: np.ndarray
    mu: float
    eps_eta: np.ndarray
    clamp_count: int
    hvp_eps: np.ndarray
    hvp_b: np.ndarray
    hvp_y: np.ndarray


def dl_coeff(h, L):
    """Scalar prefactor -h^2 (L^2 - 1) / 6 of the surrogate operator."""
    return -h * h * (L * L - 1) / 6.0


class MidpointOperator:
    """w -> (D w, H(q_mid) C w) at a frozen midpoint, one hvp call per
    application.

    At L = 1, D is exactly zero: both vectors are zeros and no hvp call is
    made.  Outputs are not checked for finiteness; ``roulette_pass`` does
    that.  w is one (d,) vector (ValueError otherwise); the maps are those
    of the factor's theta at construction (``Preconditioner.bound_maps``).
    """

    def __init__(self, q_mid, precond, model, h, L):
        self.q_mid, self.precond, self.model = q_mid, precond, model
        self.L = L
        self.coeff = dl_coeff(h, L)
        self._matvec, self._rmatvec = precond.bound_maps()
        self._hvp = model.hvp

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.precond.dim,):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.precond.dim},)")
        if self.L == 1:
            return np.zeros_like(w), np.zeros_like(w)
        hcw = self._hvp(self.q_mid, self._matvec(w))
        return self.coeff * self._rmatvec(hcw), hcw


def sample_truncation(rng, n_min=N_MIN):
    """Truncation level N = n_min + Geometric(1/2) on {0,1,...} and its
    survival probabilities p_k = P(N >= k); n_min is an integer >= 1."""
    n_min = check_size("n_min", n_min)
    extra = int(rng.geometric(0.5)) - 1
    p = np.ones(n_min + extra)
    p[n_min:] = 0.5 ** np.arange(1, extra + 1)
    return n_min + extra, p


def _checked_sq_norm(z):
    # z.dot(z) of an operator output z; FloatingPointError if an entry of z
    # is not finite (the dot alone also overflows for some finite z)
    zz = z.dot(z)
    if not math.isfinite(zz) and not np.isfinite(z).all():
        raise FloatingPointError("non-finite Hessian-vector product")
    return zz


def roulette_pass(dl, dim, rng, delta_prime=DELTA_PRIME, n_min=N_MIN):
    """Run the alternating power series with spectral normalization.

    dl maps w to the pair (D w, H C w), as MidpointOperator does.  Iterates
    eta_k = (D eta_{k-1}) * min{1, delta' ||eta_{k-1}|| / ||D eta_{k-1}||},
    so iterates contract whenever the clamp fires and can never overflow.
    Accumulates y and the probe inner products, then spends one extra
    operator application on mu = b^T D b: N + 1 applications in all.  The
    products H C eps and H C b are kept on the draw, and so is H C y:
    application k + 1 adds ((-1)^k / p_k) H C eta_k, and the mu probe adds
    ((-1)^N / p_N) ||eta_N|| H C b.  An application whose D w has a
    non-finite entry raises FloatingPointError, so the adaptation step can
    skip the update.  A degenerate pass stops at its last nonzero term,
    with no mu probe: b, mu and H C b are zero.  A norm is sqrt(x.dot(x)),
    the bits of ``np.linalg.norm``, and ||eta|| is carried over unless the
    clamp fired.
    """
    epsilon = rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0
    n, survival = sample_truncation(rng, n_min)
    eta = epsilon.copy()
    en = math.sqrt(eta.dot(eta))
    y, hvp_y = np.zeros(dim), np.zeros(dim)
    eps_eta = np.zeros(n)
    clamps = 0
    for k in range(1, n + 1):
        z, hcw = dl(eta)
        zn = math.sqrt(_checked_sq_norm(z))
        if k == 1:
            hvp_eps = hcw
        else:
            hvp_y += weight * hcw
        if zn == 0.0:
            en = 0.0
            break
        if zn > delta_prime * en:
            z = z * (delta_prime * en / zn)
            clamps += 1
            zn = math.sqrt(z.dot(z))
        eta, en = z, zn
        weight = (-1.0) ** k / survival[k - 1]
        y += weight * eta
        eps_eta[k - 1] = epsilon.dot(eta)
    if en == 0.0:
        b, mu, hvp_b = np.zeros(dim), 0.0, np.zeros(dim)
    else:
        b = eta / en
        z, hvp_b = dl(b)
        _checked_sq_norm(z)
        mu = float(b.dot(z))
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
