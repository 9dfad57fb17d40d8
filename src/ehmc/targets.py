"""Target models: potential energy, gradient and Hessian-vector products.

Every model's target is fixed at construction and safe to evaluate from
multiple chains.  Its inputs must be finite; it keeps private copies of
its data, and those and the matrices it builds (Gaussian ``precision``,
``extras`` priors) are read-only.  Dense prior precisions (correlated
Gaussian, Cox) are inverted once at construction through numpy's
Cholesky factor; the module needs numpy alone.  The logistic design is
column-major, so X q and X^T r run over contiguous memory.  The one
mutable state is the logistic ``hvp``'s one-entry memo: the curvature
weights s (1 - s) at the last position it was given, reused while the
position stays equal.  ``check_size`` and ``check_real`` are every
module's one rule for an integer and for a real setting (a bool is neither).
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class IngestionError(ValueError):
    """Raised when a data file cannot be turned into a design matrix."""


@dataclass
class TargetModel:
    """Bundle of dimension, potential U, gradient and Hessian-vector product.

    ``precision`` carries the dense precision matrix for Gaussian targets
    (used by condition-number diagnostics); ``extras`` holds model-specific
    arrays such as the Cox prior pieces.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hvp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""
    precision: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)


def default_hvp(model, q, w):
    """Central-difference Hessian-vector product from the model gradient."""
    w = np.asarray(w, dtype=float)
    wmax = np.max(np.abs(w)) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros_like(w)
    eps = 1e-5 * (1.0 + np.max(np.abs(q))) / max(wmax, 1e-12)
    return (model.grad(q + eps * w) - model.grad(q - eps * w)) / (2.0 * eps)


def _frozen(a, order="K"):
    """Private read-only float copy of a data array."""
    a = np.array(a, dtype=float, order=order)
    a.flags.writeable = False
    return a


def _cholesky_upper(a):
    """Upper Cholesky factor U, U^T U = S, of the symmetric S that the
    upper triangle of ``a`` defines, as LAPACK's potrf with uplo "U" reads
    it; raises np.linalg.LinAlgError when S is not positive definite or
    ``a`` has a non-finite entry."""
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    # numpy's cholesky reads the lower triangle, which of a.T is a's upper
    return np.linalg.cholesky(a.T).T


def _spd_inverse(U):
    """Symmetrized inverse P = U^{-1} U^{-T} of the dense SPD matrix whose
    upper Cholesky factor is U."""
    U_inv = np.linalg.solve(U, np.eye(U.shape[0]))
    P = U_inv @ U_inv.T
    return 0.5 * (P + P.T)


def _check_symmetric(a, name):
    """Raise ValueError naming ``name`` unless the square matrix a equals its
    transpose up to rounding (1e-12 of its largest entry); non-finite
    entries pass here."""
    if np.isfinite(a).all() and np.max(np.abs(a - a.T)) > 1e-12 * np.max(np.abs(a)):
        raise ValueError(f"{name} is not symmetric")


def check_size(arg, value, minimum=1):
    """int(value) if ``value`` is an integer >= ``minimum``, not a bool;
    else ValueError starting with ``arg``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{arg}: must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{arg}: must be at least {minimum}, got {value}")
    return int(value)


# the rule an interval states where its default "must lie in (low, high]" reads worse
_RULES = {(0, math.inf, "()"): "must be finite and positive",
          (0, math.inf, "[)"): "must be finite and nonnegative",
          (-math.inf, math.inf, "[]"): "must be a number"}


def check_real(arg, value, low=-math.inf, high=math.inf, ends="[]", rule=None):
    """float(value) if ``value`` is a real number, not a bool, in the interval
    from ``low`` to ``high`` with the ends ``ends`` ("[]", "[)", "(]" or "()"),
    none of which holds NaN; else ValueError "arg: rule, got value", by
    default with the interval's rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{arg}: must be a number, got {value!r}")
    x = float(value)
    if (low <= x if ends[0] == "[" else low < x) and (x <= high if ends[1] == "]" else x < high):
        return x
    rule = rule or _RULES.get((low, high, ends), f"must lie in {ends[0]}{low}, {high}{ends[1]}")
    raise ValueError(f"{arg}: {rule}, got {value}")


def gaussian_target(precision=None, covariance=None, mean=None, name="gaussian"):
    """Gaussian with U(q) = 0.5 (q - mean)^T P (q - mean).

    Exactly one of ``precision`` or ``covariance`` must be given, as a
    finite, positive diagonal vector or a dense SPD matrix.  The gradient
    is P (q - mean) and the Hessian-vector product P w, independent of q.
    """
    if (precision is None) == (covariance is None):
        raise ValueError("give exactly one of precision, covariance")
    arg, a = ("precision", precision) if covariance is None else ("covariance", covariance)
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError(f"{arg}: must not be empty")
    if a.ndim == 1:
        if not np.all((a > 0) & (a < np.inf)):
            raise ValueError(f"diagonal {arg} entries must be finite and positive")
        P = np.diag(1.0 / a if arg == "covariance" else a)
    elif a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{arg} must be a vector or a square matrix")
    else:
        _check_symmetric(a, arg)
        try:
            U = _cholesky_upper(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{arg} is not positive definite") from exc
        P = _spd_inverse(U) if arg == "covariance" else a.copy()
    P.flags.writeable = False
    d = P.shape[0]
    mu = _frozen(np.zeros(d) if mean is None else mean)
    if mu.shape != (d,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"mean: must be a finite vector of length {d}")

    def potential(q):
        r = q - mu
        return 0.5 * float(r.dot(P.dot(r)))

    def grad(q):
        return P.dot(q - mu)

    def hvp(q, w):
        return P.dot(w)

    return TargetModel(d, potential, grad, hvp, name=name, precision=P,
                       extras={"mean": mu})


def anisotropic_gaussian(d, c):
    """Diagonal Gaussian with variances exp(c (i-1)/(d-1) log 10), i = 1..d.

    Marginal standard deviations grow geometrically from 1 to 10^(c/2);
    the largest variance is 10^c.
    """
    check_size("d", d, 2)
    with np.errstate(over="ignore"):  # an infinite variance is refused below
        variances = np.exp(c * np.arange(d) / (d - 1) * np.log(10.0))
    return gaussian_target(covariance=variances, name=f"anisotropic(d={d},c={c})")


def correlated_gaussian(grid_points=51):
    """Zero-mean Gaussian with a squared-exponential kernel plus white noise.

    Covariance k(x_i, x_j) = exp(-0.5 (x_i - x_j)^2 / 0.4^2) + 0.01 delta_ij
    on a regular grid over [0, 4].  The precision comes from one dense SPD
    factorization at construction.
    """
    check_size("grid_points", grid_points, 2)
    x = np.linspace(0.0, 4.0, grid_points)
    diff = x[:, None] - x[None, :]
    K = np.exp(-0.5 * diff**2 / 0.4**2) + 0.01 * np.eye(grid_points)
    try:
        model = gaussian_target(covariance=K, name=f"correlated(d={grid_points})")
    except ValueError as exc:
        raise RuntimeError("kernel matrix factorization failed") from exc
    K.flags.writeable = False
    model.extras["covariance"] = K
    return model


def _log1pexp(t):
    # log(1 + e^t) = log1p(e^-|t|) + max(t, 0) never overflows, and runs numpy's
    # vectorised loops; within 1 ulp of logaddexp(0, t), equal at 0, +-inf, NaN
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)


def logistic_target(X, y, prior_cov=1.0):
    """Bayesian logistic regression posterior (negative log, unnormalized).

    U(q) = sum_i [ -y_i x_i^T q + log(1 + e^{x_i^T q}) ] + 0.5 q^T P0 q
    with P0 = I / prior_cov, for a scalar prior variance prior_cov.
    """
    X = _frozen(X, order="F")
    y = _frozen(y)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"X: must be a nonempty 2-d design matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    n, d = X.shape
    if y.shape != (n,):
        raise ValueError("y length does not match X")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0 or 1")
    P0 = np.eye(d) / check_real("prior_cov", prior_cov, 0, math.inf, "()")
    P0.flags.writeable = False
    XT = X.T

    def potential(q):
        t = X.dot(q)
        return float((_log1pexp(t) - y * t).sum() + (0.5 * q).dot(P0.dot(q)))

    def grad(q):
        s = _sigmoid(X.dot(q))
        return XT.dot(s - y) + P0.dot(q)

    # (copy of q, s (1 - s) at q): the sampler applies several Hessian-vector
    # products at one frozen midpoint; equal positions give equal weights.
    # The pair is replaced as one tuple, so a concurrent caller never reads
    # weights that belong to another position.
    memo = None

    def hvp(q, w):
        nonlocal memo
        cached = memo
        if cached is None or not np.array_equal(q, cached[0]):
            s = _sigmoid(X.dot(q))
            cached = memo = (np.array(q, dtype=float), s * (1.0 - s))
        return XT.dot(cached[1] * X.dot(w)) + P0.dot(w)

    return TargetModel(d, potential, grad, hvp, name=f"logistic(n={n},d={d})",
                       extras={"prior_precision": P0})


def _sigmoid(t):
    # one exp of -|t| and one division serve both branches without overflow:
    # max(e, t >= 0) is 1 for t >= 0, giving 1 / (1 + e^-t), and e^t below
    e = np.exp(-np.abs(t))
    return np.maximum(e, t >= 0) / (1.0 + e)


def _read_csv(path):
    """The rows of a numeric CSV as a (rows, fields) array, and each row's
    line in the file.  Blank lines and ``#`` comments, whole-line or
    trailing, are skipped.  Errors name the offending row (its line in the
    file) and column; a NaN or infinite field is one."""
    rows = {}  # file line number -> fields
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    for i, line in enumerate(lines):
        line = line.partition("#")[0]
        if not line.strip():
            continue
        row = []
        for j, f in enumerate(line.split(",")):
            try:
                row.append(float(f))
                bad = None if math.isfinite(row[-1]) else "non-finite"
            except ValueError:
                bad = "non-numeric"
            if bad:
                raise IngestionError(f"{path}: {bad} field at row {i + 1}, column {j + 1}")
        rows[i + 1] = row
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(next(iter(rows.values())))
    for n, r in rows.items():
        if len(r) != width:
            raise IngestionError(f"{path}: row {n} has {len(r)} fields, expected {width}")
    return np.asarray(list(rows.values()), dtype=float), list(rows)


def load_logistic_csv(path, intercept=True, standardize=True):
    """Read a numeric CSV with the binary label in the last column, as
    ``_read_csv`` does; the covariates go through ``prepare_design``."""
    data, lines = _read_csv(path)
    X, y = data[:, :-1], data[:, -1]
    bad = np.where(~np.isin(y, (0.0, 1.0)))[0]
    if bad.size:
        raise IngestionError(f"{path}: label outside {{0,1}} at row {lines[bad[0]]}")
    return prepare_design(X, intercept, standardize), y


def prepare_design(X, intercept=True, standardize=True):
    """Optionally z-score the covariate columns (a constant column maps to
    all zeros), then optionally append a constant-1 intercept column."""
    if standardize:
        std = X.std(axis=0)
        X = np.where(std > 0, (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0), 0.0)
    if intercept:
        X = np.column_stack([X, np.ones(len(X))])
    return X


def simulate_logistic_data(n, d, seed=0):
    """Synthetic logistic-regression data: standard-normal covariates and
    labels from a random coefficient vector of scale 1.5 / sqrt(d)."""
    check_size("n", n)
    check_size("d", d)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = 1.5 * rng.standard_normal(d) / np.sqrt(d)
    y = (rng.uniform(size=n) < _sigmoid(X @ beta)).astype(float)
    return X, y


# -- log-Gaussian Cox process on an n x n grid ---------------------------

COX_SIGMA2 = 1.91
COX_BETA = 1.0 / 33.0
COX_MU = float(np.log(126.0)) - COX_SIGMA2 / 2.0


def _cox_prior_cov(n):
    idx = np.arange(n)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    dist = np.sqrt((ii[:, None] - ii[None, :]) ** 2 + (jj[:, None] - jj[None, :]) ** 2)
    return COX_SIGMA2 * np.exp(-dist / (n * COX_BETA))


def cox_target(n, y):
    """Log-Gaussian Cox process posterior on an n-by-n grid (d = n^2).

    Counts are Poisson with intensity per cell m exp(x_ij), m = n^{-2};
    the latent field has mean COX_MU and exponential-decay covariance
    COX_SIGMA2 * exp(-dist / (n COX_BETA)).  The prior precision is
    factored once; the likelihood Hessian is diagonal with entries
    m exp(x_ij).
    """
    check_size("n", n)
    d = n * n
    y = _frozen(np.ravel(y))
    if y.shape != (d,):
        raise ValueError(f"y must have n^2 = {d} entries")
    if np.any(y < 0) or np.any(y != np.round(y)):
        raise ValueError("counts must be nonnegative integers")
    m = 1.0 / d
    cov = _cox_prior_cov(n)
    try:
        P = _spd_inverse(_cholesky_upper(cov))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Cox prior covariance is not positive definite") from exc
    P.flags.writeable = cov.flags.writeable = False
    mu_vec = np.full(d, COX_MU)

    def potential(x):
        r = x - mu_vec
        return float((m * np.exp(x) - y * x).sum() + (0.5 * r).dot(P.dot(r)))

    def grad(x):
        return m * np.exp(x) - y + P.dot(x - mu_vec)

    def hvp(x, w):
        return m * np.exp(x) * w + P.dot(w)

    return TargetModel(d, potential, grad, hvp, name=f"cox(n={n})",
                       extras={"prior_precision": P, "prior_cov": cov,
                               "mu": COX_MU, "m": m})


def simulate_cox_data(n, seed=0):
    """Draw a latent field from the Cox prior and counts from the Poisson likelihood."""
    check_size("n", n)
    d = n * n
    rng = np.random.default_rng(seed)
    cov = _cox_prior_cov(n)
    L = np.linalg.cholesky(cov + 1e-12 * np.eye(d))
    x = COX_MU + L @ rng.standard_normal(d)
    lam = np.exp(x) / d
    y = rng.poisson(lam)
    return x, y


# -- stochastic volatility model -----------------------------------------


def sv_target(returns):
    """Stochastic volatility posterior in unconstrained coordinates.

    State q = (h_1..h_T, mu, a, b) with persistence phi = 2 sigmoid(a) - 1
    and noise scale sigma = softplus(b).  Latent log-volatilities follow an
    AR(1) process, h_1 ~ N(0, sigma^2/(1 - phi^2)); observations are
    y_t ~ N(0, exp(mu + h_t)).  Priors: (phi+1)/2 ~ Beta(20, 1.5),
    mu ~ Cauchy(0, 2), sigma ~ Half-Cauchy(0, 1); the potential includes
    the log-Jacobians of both transforms.  The Hessian-vector product uses
    the central-difference fallback.
    """
    y = _frozen(returns)
    T = y.size
    check_size("returns", T, 2)
    if not np.all(np.isfinite(y)):
        raise ValueError("returns contain non-finite values")
    d = T + 3

    def transforms(q):
        # the quantities U and its gradient share, as numpy scalars: once phi
        # rounds to +-1, 1 - phi^2 is 0 and both turn non-finite (a divergence
        # the sampler rejects) instead of raising ZeroDivisionError
        h, mu, a, b = q[:T], q[T], q[T + 1], q[T + 2]
        z = _sigmoid(np.asarray(a))[()]
        phi = 2.0 * z - 1.0
        sigma = _log1pexp(b)
        return (h, mu, z, phi, sigma, _sigmoid(np.asarray(b))[()], sigma * sigma,
                1.0 - phi * phi, h[1:] - phi * h[:-1])

    def potential(q):
        h, mu, z, phi, sigma, sb, s2, one_m_phi2, r = transforms(q)
        # observations
        u = np.sum(0.5 * (mu + h) + 0.5 * y**2 * np.exp(-(mu + h)))
        # AR(1) prior on the latent path
        u += 0.5 * np.log(s2 / one_m_phi2) + 0.5 * h[0] ** 2 * one_m_phi2 / s2
        u += (T - 1) * np.log(sigma) + 0.5 * np.sum(r**2) / s2
        # transformed priors: Beta(20, 1.5) on (phi+1)/2 = sigmoid(a)
        u += -20.0 * np.log(z) - 1.5 * np.log1p(-z)
        # mu ~ Cauchy(0, 2)
        u += np.log1p((mu / 2.0) ** 2)
        # sigma ~ Half-Cauchy(0, 1) with softplus Jacobian
        u += np.log1p(s2) - np.log(sb)
        return float(u)

    def grad(q):
        h, mu, z, phi, sigma, sb, s2, one_m_phi2, r = transforms(q)
        g = np.zeros(d)
        e = 0.5 - 0.5 * y**2 * np.exp(-(mu + h))
        g[:T] += e
        g[T] += float(np.sum(e)) + (mu / 2.0) / (1.0 + (mu / 2.0) ** 2)
        # latent-path terms
        g[0] += h[0] * one_m_phi2 / s2
        g[1:T] += r / s2
        g[: T - 1] += -phi * r / s2
        # phi chain (through h1 prior and transitions), then to a
        with np.errstate(divide="ignore", invalid="ignore"):
            du_dphi = phi / one_m_phi2 - phi * h[0] ** 2 / s2 - float(np.sum(r * h[:-1])) / s2
            g[T + 1] += du_dphi * 2.0 * z * (1.0 - z) - 20.0 * (1.0 - z) + 1.5 * z
        # sigma chain, then to b
        du_dsigma = (
            1.0 / sigma
            - h[0] ** 2 * one_m_phi2 / (s2 * sigma)
            + (T - 1) / sigma
            - float(np.sum(r**2)) / (s2 * sigma)
            + 2.0 * sigma / (1.0 + s2)
        )
        g[T + 2] += du_dsigma * sb - (1.0 - sb)
        return g

    model = TargetModel(d, potential, grad, None, name=f"sv(T={T})",
                        extras={"returns": y})
    model.hvp = lambda q, w: default_hvp(model, q, w)
    return model


def simulate_sv_data(T, seed=0):
    """Simulate a return series from the stochastic volatility model with
    persistence phi = 0.98, noise scale sigma = 0.15 and mean mu = -1."""
    check_size("T", T, 2)
    phi, sigma, mu = 0.98, 0.15, -1.0
    rng = np.random.default_rng(seed)
    h = np.empty(T)
    h[0] = rng.normal(0.0, sigma / np.sqrt(1.0 - phi**2))
    for t in range(T - 1):
        h[t + 1] = phi * h[t] + rng.normal(0.0, sigma)
    y = rng.normal(0.0, np.exp(0.5 * (mu + h)))
    return y


def load_returns_csv(path):
    """Read a single-column CSV of log-returns, as ``_read_csv`` does."""
    values, _ = _read_csv(path)
    if values.shape[1] != 1:
        raise IngestionError(f"{path}: expected a single column of returns")
    return values[:, 0]
