"""Post-run diagnostics: effective sample size, split R-hat, and the
condition number of the preconditioned precision."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def ess(series):
    """Effective sample size of one scalar series.

    Autocorrelations are truncated by the initial-positive-sequence rule:
    consecutive pairs (rho_1 + rho_2), (rho_3 + rho_4), ... are summed
    while each pair is positive.  A zero-variance series reports 0.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 8:
        raise ValueError("need at least 8 samples for an ESS estimate")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    if np.all(x == x[0]):
        # constant series: centering would leave only roundoff residue
        return 0.0
    x = x - x.mean()
    if float(x @ x) == 0.0:
        return 0.0
    nfft = 1 << int(2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov[0]
    total = 0.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        total += pair
        k += 2
    return float(n / (1.0 + 2.0 * total))


def split_rhat(chains):
    """Potential scale reduction on half-chains.

    Each chain is split in half; the statistic compares between-segment
    and within-segment variances: sqrt((n-1)/n + B/(nW)) for segment
    length n.  Returns nan when fewer than two segments carry variance.
    """
    arrs = [np.asarray(c, dtype=float).ravel() for c in chains]
    if not arrs:
        raise ValueError("need at least one chain")
    m = min(a.size for a in arrs) // 2
    if m < 2:
        raise ValueError("chains too short to split")
    segs = []
    for a in arrs:
        segs.append(a[:m])
        segs.append(a[m : 2 * m])
    segs = np.stack(segs)
    seg_vars = segs.var(axis=1, ddof=1)
    if np.count_nonzero(seg_vars > 0) < 2:
        return float("nan")
    w = float(seg_vars.mean())
    b = m * float(segs.mean(axis=1).var(ddof=1))
    if w == 0.0:
        return float("nan")
    return float(np.sqrt((m - 1) / m + b / (m * w)))


def condition_number(precond, sigma_inv):
    """Extreme-eigenvalue ratio of C^T Sigma^{-1} C, symmetrized first."""
    c = precond.dense()
    a = c.T @ (np.asarray(sigma_inv, dtype=float) @ c)
    a = 0.5 * (a + a.T)
    evals = np.linalg.eigvalsh(a)
    if not np.all(np.isfinite(evals)) or evals[0] <= 0:
        raise FloatingPointError("preconditioned precision is not positive definite")
    return float(evals[-1] / evals[0])


@dataclass
class RunReport:
    """Summary of one experiment run.

    ess_per_dim sums per-chain ESS values across chains, so its entries
    are bounded by the total retained draw count.  degenerate_dims flags
    coordinates where every chain had zero variance.
    """

    draws: np.ndarray
    ess_per_dim: np.ndarray
    min_ess: float
    mean_ess: float
    median_ess: float
    split_rhat_per_dim: np.ndarray
    max_rhat: float
    median_rhat: float
    acceptance_rate: float
    divergences: int
    mu_trace: np.ndarray
    wall_seconds: float
    cond_number: Optional[float] = None
    degenerate_dims: np.ndarray = None
    extras: dict = field(default_factory=dict)


def build_report(draws, acceptance_rate, divergences, mu_trace, wall_seconds,
                 cond_number=None, extras=None):
    """Assemble a RunReport.  With fewer than 8 draws per chain (an empty or
    too-short sampling phase) every ESS and R-hat statistic is NaN."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3:
        raise ValueError("draws must have shape (chains, n, d)")
    n_chains, n, d = draws.shape
    ess_pd = np.full(d, np.nan)
    rhat_pd = np.full(d, np.nan)
    degen = np.zeros(d, dtype=bool)
    if n >= 8:
        for j in range(d):
            per_chain = [ess(draws[c, :, j]) for c in range(n_chains)]
            ess_pd[j] = sum(per_chain)
            degen[j] = all(v == 0.0 for v in per_chain)
            rhat_pd[j] = split_rhat(draws[:, :, j])
    finite_rhat = rhat_pd[np.isfinite(rhat_pd)]
    return RunReport(
        draws=draws,
        ess_per_dim=ess_pd,
        min_ess=float(np.min(ess_pd)),
        mean_ess=float(np.mean(ess_pd)),
        median_ess=float(np.median(ess_pd)),
        split_rhat_per_dim=rhat_pd,
        max_rhat=float(np.max(finite_rhat)) if finite_rhat.size else np.nan,
        median_rhat=float(np.median(finite_rhat)) if finite_rhat.size else np.nan,
        acceptance_rate=acceptance_rate,
        divergences=divergences,
        mu_trace=np.asarray(mu_trace, dtype=float),
        wall_seconds=wall_seconds,
        cond_number=cond_number,
        degenerate_dims=degen,
        extras=extras or {},
    )
