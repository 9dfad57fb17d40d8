"""Target models: gradients and Hessian products against finite differences."""

import re

import numpy as np
import pytest

from ehmc import targets
from ehmc.targets import (
    IngestionError,
    anisotropic_gaussian,
    correlated_gaussian,
    cox_target,
    gaussian_target,
    load_logistic_csv,
    load_returns_csv,
    logistic_target,
    prepare_design,
    simulate_cox_data,
    simulate_logistic_data,
    simulate_sv_data,
    sv_target,
)

from _oracles import cholesky_inverse, masked_sigmoid, textbook_logistic


def fd_grad(model, q, eps=1e-6):
    out = np.zeros_like(q)
    for j in range(q.size):
        qp = q.copy()
        qp[j] += eps
        qm = q.copy()
        qm[j] -= eps
        out[j] = (model.potential(qp) - model.potential(qm)) / (2 * eps)
    return out


def check_model(model, rng, n_points=20, grad_tol=5e-5, hvp_tol=5e-4, scale=1.0):
    for _ in range(n_points):
        q = scale * rng.standard_normal(model.dim)
        g = model.grad(q)
        fd = fd_grad(model, q)
        err = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
        assert err < grad_tol, f"gradient mismatch {err}"
        w = rng.standard_normal(model.dim)
        hv = model.hvp(q, w)
        eps = 1e-6
        hv_fd = (model.grad(q + eps * w) - model.grad(q - eps * w)) / (2 * eps)
        err = np.max(np.abs(hv - hv_fd)) / max(1.0, np.max(np.abs(hv_fd)))
        assert err < hvp_tol, f"hvp mismatch {err}"


def check_hvp_symmetry(model, rng, tol=1e-8):
    for _ in range(5):
        q = rng.standard_normal(model.dim)
        u = rng.standard_normal(model.dim)
        w = rng.standard_normal(model.dim)
        lhs = float(u @ model.hvp(q, w))
        rhs = float(w @ model.hvp(q, u))
        assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs))


def test_gaussian_basic():
    m = gaussian_target(precision=np.array([2.0, 0.5]))
    q = np.array([1.0, 2.0])
    assert np.isclose(m.potential(q), 0.5 * (2.0 + 0.5 * 4.0))
    assert np.allclose(m.grad(q), [2.0, 1.0])
    assert np.allclose(m.hvp(q, np.ones(2)), [2.0, 0.5])
    assert m.precision is not None


def test_gaussian_input_validation():
    with pytest.raises(ValueError):
        gaussian_target()
    with pytest.raises(ValueError):
        gaussian_target(precision=np.ones(2), covariance=np.ones(2))
    with pytest.raises(ValueError):
        gaussian_target(covariance=np.array([1.0, -1.0]))
    for bad in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((2, 2)) - 2 * np.eye(2),
                np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[1.0, np.inf], [1.0, 1.0]])):
        with pytest.raises(ValueError, match="^covariance is not positive definite$"):
            gaussian_target(covariance=bad)
        with pytest.raises(ValueError, match="^precision is not positive definite$"):
            gaussian_target(precision=bad)


@pytest.mark.parametrize("arg", ["precision", "covariance"])
def test_gaussian_rejects_nonsymmetric_matrix(arg):
    # P = [[2, 1], [0, 2]] read as given has gradient P (q - mu) = (-0.1, -1.4)
    # at q = (0.3, -0.7), while its potential's finite difference is
    # (0.25, -1.25); read as a covariance only its upper triangle counted.
    # upper_bad's upper triangle is indefinite and its lower one positive
    # definite: neither it nor its transpose is read by one triangle alone
    upper_bad = np.array([[1.0, 2.0], [0.5, 1.0]])
    for bad in (np.array([[2.0, 1.0], [0.0, 2.0]]), upper_bad, upper_bad.T):
        with pytest.raises(ValueError, match=f"^{arg} is not symmetric$"):
            gaussian_target(**{arg: bad})
    with pytest.raises(ValueError, match=f"^{arg} "):
        gaussian_target(**{arg: np.ones((2, 3))})
    # a rounding-level asymmetry, 1e-13 of the largest entry, is accepted
    # and the matrix is used as given
    S = np.array([[2.0, 0.5], [0.5, 2.0]])
    S[0, 1] += 2e-13
    m = gaussian_target(**{arg: S})
    expected = S if arg == "precision" else np.linalg.inv(S)
    assert np.allclose(m.precision, expected, rtol=0.0, atol=1e-12)
    # the exactly symmetric presets pass
    K = correlated_gaussian(9).extras["covariance"]
    assert np.array_equal(K, K.T)
    gaussian_target(**{arg: K})


def test_gaussian_mean_and_factor():
    rng = np.random.default_rng(0)
    F = np.tril(rng.standard_normal((3, 3))) + 3 * np.eye(3)
    mu = rng.standard_normal(3)
    m = gaussian_target(covariance=F @ F.T, mean=mu)
    assert np.allclose(m.grad(mu), 0.0)
    check_model(m, rng, n_points=5)


def test_anisotropic_spectrum():
    m = anisotropic_gaussian(10, 3.0)
    variances = 1.0 / np.diag(m.precision)
    assert np.isclose(variances[0], 1.0)
    # stated formula: largest variance is 10^c
    assert np.isclose(variances[-1], 1000.0)
    ratios = variances[1:] / variances[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ValueError):
        anisotropic_gaussian(1, 2.0)


def test_correlated_gaussian_kernel():
    m = correlated_gaussian(25)
    assert m.dim == 25
    K = m.extras["covariance"]
    assert np.isclose(K[0, 0], 1.01)
    x = np.linspace(0.0, 4.0, 25)
    assert np.isclose(K[0, 3], np.exp(-0.5 * (x[0] - x[3]) ** 2 / 0.16))
    # precision is the kernel's inverse
    assert np.allclose(m.precision @ K, np.eye(25), atol=1e-8)
    rng = np.random.default_rng(1)
    check_model(m, rng, n_points=3)


def test_logistic_model():
    rng = np.random.default_rng(2)
    X, y = simulate_logistic_data(40, 3, seed=9)
    m = logistic_target(X, y)
    assert m.dim == 3
    check_model(m, rng)
    check_hvp_symmetry(m, rng)


def test_logistic_validation():
    X = np.ones((4, 2))
    with pytest.raises(ValueError):
        logistic_target(X, np.array([0.0, 1.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        logistic_target(X, np.zeros(3))
    bad = X.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        logistic_target(bad, np.zeros(4))
    for prior_cov in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="prior_cov"):
            logistic_target(X, np.zeros(4), prior_cov=prior_cov)


def test_size_validation():
    # an empty or negative size fails with a message naming its argument
    cases = [
        ("covariance", lambda: gaussian_target(covariance=np.zeros(0))),
        ("precision", lambda: gaussian_target(precision=np.zeros((0, 0)))),
        ("n", lambda: cox_target(0, np.zeros(0))),
        ("n", lambda: cox_target(-2, np.zeros(4))),
        ("n", lambda: simulate_cox_data(0)),
        ("n", lambda: simulate_logistic_data(-1, 3)),
        ("n", lambda: simulate_logistic_data(0, 3)),
        ("d", lambda: simulate_logistic_data(5, 0)),
        ("X", lambda: logistic_target(np.zeros((0, 3)), np.zeros(0))),
        ("X", lambda: logistic_target(np.zeros((4, 0)), np.zeros(4))),
    ]
    for name, make in cases:
        with pytest.raises(ValueError, match=f"^{name}: "):
            make()


def test_logistic_stability_large_inputs():
    # potential must not overflow for large linear predictors
    X = np.array([[100.0], [-100.0]])
    m = logistic_target(X, np.array([1.0, 0.0]), prior_cov=10.0)
    q = np.array([5.0])
    assert np.isfinite(m.potential(q))
    assert np.all(np.isfinite(m.grad(q)))


def test_load_logistic_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,1\n3.0,4.0,0\n5.0,6.0,1\n")
    X, y = load_logistic_csv(path, intercept=True, standardize=True)
    assert X.shape == (3, 3)
    assert np.allclose(X[:, -1], 1.0)
    assert np.allclose(X[:, 0].mean(), 0.0)
    assert np.allclose(y, [1.0, 0.0, 1.0])
    X2, _ = load_logistic_csv(path, intercept=False, standardize=False)
    assert X2.shape == (3, 2)
    assert np.allclose(X2[0], [1.0, 2.0])


def test_load_logistic_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops,1\n")
    with pytest.raises(IngestionError, match="row 1, column 2"):
        load_logistic_csv(bad)
    bad.write_text("1.0,2.0,1\n1.0,2.0\n")
    with pytest.raises(IngestionError, match="row 2"):
        load_logistic_csv(bad)
    bad.write_text("1.0,2.0,3.0\n")
    with pytest.raises(IngestionError, match="label"):
        load_logistic_csv(bad)
    # rows are counted in file lines, blank lines included
    bad.write_text("1,2,1\n\n1,2\n")
    with pytest.raises(IngestionError, match="row 3 has 2 fields, expected 3"):
        load_logistic_csv(bad)
    bad.write_text("1,2,1\n\n1,2,3\n")
    with pytest.raises(IngestionError, match="label outside .* at row 3$"):
        load_logistic_csv(bad)
    bad.write_text("")
    with pytest.raises(IngestionError, match="no data"):
        load_logistic_csv(bad)
    # a NaN or infinite covariate is named, not standardized into a zero
    # column; the first one in reading order counts
    bad.write_text("0.1,2.0,1\n\n0.3,inf,0\nnan,-inf,1\n0.4,1.0,0\n")
    with pytest.raises(IngestionError, match="non-finite field at row 3, column 2"):
        load_logistic_csv(bad)
    for field in ("nan", "NaN", "inf", "-Infinity"):
        bad.write_text(f"0.1,2.0,1\n{field},1.0,0\n")
        with pytest.raises(IngestionError, match="non-finite field at row 2, column 1"):
            load_logistic_csv(bad, standardize=False)
    with pytest.raises(IngestionError):
        load_logistic_csv(tmp_path / "missing.csv")


def test_constant_column_standardizes_to_zero(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("5.0,1.0,1\n5.0,2.0,0\n5.0,3.0,1\n")
    X, _ = load_logistic_csv(path, intercept=False, standardize=True)
    assert np.allclose(X[:, 0], 0.0)


def test_cox_model(monkeypatch):
    n = 4
    x, y = simulate_cox_data(n, seed=5)
    assert x.shape == (16,)
    assert y.shape == (16,)
    assert np.all(y >= 0)
    m = cox_target(n, y)
    assert m.dim == 16
    rng = np.random.default_rng(3)
    # evaluate near the prior mean where the field is well-scaled
    mu = m.extras["mu"]
    for _ in range(5):
        q = mu + 0.5 * rng.standard_normal(16)
        fd = fd_grad(m, q)
        g = m.grad(q)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-4
    check_hvp_symmetry(m, rng)
    with pytest.raises(ValueError):
        cox_target(n, y[:-1])
    with pytest.raises(ValueError):
        cox_target(n, np.full(16, -1.0))
    with pytest.raises(ValueError):
        cox_target(n, y + 0.5)
    monkeypatch.setattr(targets, "_cox_prior_cov", lambda n: -np.eye(n * n))
    with pytest.raises(RuntimeError, match="^Cox prior covariance is not positive definite$"):
        cox_target(n, y)


def test_cox_covariance_structure():
    m = cox_target(3, np.zeros(9))
    cov = m.extras["prior_cov"]
    assert np.isclose(cov[0, 0], targets.COX_SIGMA2)
    # neighbors on the grid: distance 1, decay exp(-1/(n beta))
    assert np.isclose(cov[0, 1], targets.COX_SIGMA2 * np.exp(-1.0 / (3 * targets.COX_BETA)))


def test_cox_determinism():
    x1, y1 = simulate_cox_data(5, seed=42)
    x2, y2 = simulate_cox_data(5, seed=42)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    x3, _ = simulate_cox_data(5, seed=43)
    assert not np.array_equal(x1, x3)


def test_spd_inverse_matches_scipy_cholesky():
    from scipy.linalg import cho_factor, cho_solve

    # the cond-1207 kernel and the 8 x 8 Cox prior
    kernel = correlated_gaussian(51)
    cox = cox_target(8, np.zeros(64))
    for cov, P in ((kernel.extras["covariance"], kernel.precision),
                   (cox.extras["prior_cov"], cox.extras["prior_precision"])):
        d = cov.shape[0]
        ref = cho_solve(cho_factor(cov), np.eye(d))
        assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(P @ cov - np.eye(d))) <= 1e-12
        assert np.array_equal(P, P.T)


def test_sv_model():
    y = simulate_sv_data(12, seed=1)
    m = sv_target(y)
    assert m.dim == 15
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = 0.5 * rng.standard_normal(m.dim)
        fd = fd_grad(m, q)
        g = m.grad(q)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-4
    check_hvp_symmetry(m, rng, tol=1e-4)


def test_sv_grad_nonfinite_when_phi_rounds_to_one():
    # at a = 40, phi = 2 sigmoid(a) - 1 rounds to 1 and 1 - phi^2 to 0: the
    # gradient is non-finite (a divergence for the sampler), not an error
    m = sv_target(simulate_sv_data(12, seed=1))
    q = np.zeros(m.dim)
    q[13] = 40.0
    assert not np.isfinite(m.grad(q)).all()


def test_sv_grad_nonfinite_when_sigma_underflows():
    # at b = -800, sigma = softplus(b) underflows to 0: the gradient is
    # non-finite like the potential, not a ZeroDivisionError
    m = sv_target(simulate_sv_data(12, seed=1))
    q = np.zeros(m.dim)
    q[14] = -800.0
    with np.errstate(all="ignore"):
        assert not np.isfinite(m.grad(q)).all()
        assert not np.isfinite(m.potential(q))


def test_sv_determinism_and_validation():
    a = simulate_sv_data(20, seed=7)
    b = simulate_sv_data(20, seed=7)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sv_target(np.array([1.0]))
    with pytest.raises(ValueError):
        sv_target(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        simulate_sv_data(1)


def test_load_returns_csv(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("0.01\n-0.02\n0.005\n")
    r = load_returns_csv(path)
    assert np.allclose(r, [0.01, -0.02, 0.005])
    with pytest.raises(IngestionError):
        load_returns_csv(tmp_path / "nope.csv")


def test_default_hvp_zero_direction():
    m = gaussian_target(precision=np.eye(2))
    assert np.allclose(targets.default_hvp(m, np.ones(2), np.zeros(2)), 0.0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: gaussian_target(precision=np.array([1.0, 4.0, 0.25])),
        lambda: anisotropic_gaussian(5, 2.0),
    ],
)
def test_gaussian_family_fd(factory):
    rng = np.random.default_rng(8)
    model = factory()
    check_model(model, rng)
    check_hvp_symmetry(model, rng)


def test_sigmoid_bits_match_masked_form():
    rng = np.random.default_rng(31)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300])
    for t in (3.0 * rng.standard_normal(5000), 40.0 * rng.standard_normal(500), special):
        assert np.array_equal(targets._sigmoid(t), masked_sigmoid(t))
    for x in (-2.5, -0.0, 0.0, 0.7, 900.0):
        t0 = np.asarray(x)
        s = targets._sigmoid(t0)
        assert s.shape == ()
        assert np.array_equal(s, masked_sigmoid(t0))
    assert np.isnan(targets._sigmoid(np.array([np.nan]))[0])


def test_log1pexp_matches_logaddexp():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(targets._log1pexp(special), np.logaddexp(0.0, special),
                              equal_nan=True)
        for x in special:
            v = targets._log1pexp(np.asarray(x))
            assert np.shape(v) == ()
            assert np.array_equal(v, np.logaddexp(0.0, x), equal_nan=True)
    # each form is within one ulp of the exact value (against 120-bit
    # arithmetic on these draws), so they may round one ulp apart either way
    t = 3.0 * np.random.default_rng(5).standard_normal(20000)
    ref = np.logaddexp(0.0, t)
    assert np.all(np.abs(targets._log1pexp(t) - ref) <= 2.0 * np.spacing(ref))


@pytest.mark.parametrize("design", ["standardised", "raw"])
def test_logistic_matches_textbook_oracle(design):
    if design == "standardised":
        X, y = simulate_logistic_data(600, 8, seed=4)
        X = prepare_design(X)
    else:
        # columns on scales up to 300, so that |x^T q| > 700 on some rows at
        # the test positions: saturated sigmoid and log(1 + e^t)
        rng = np.random.default_rng(17)
        X = rng.standard_normal((400, 5)) * np.array([1.0, 10.0, 300.0, 0.1, 50.0])
        y = (rng.uniform(size=400) < 0.5).astype(float)
    m, ref = logistic_target(X, y, prior_cov=2.0), textbook_logistic(X, y, prior_cov=2.0)
    rng = np.random.default_rng(6)
    big = 0
    for _ in range(5):
        q = 1.5 * rng.standard_normal(m.dim)
        w = rng.standard_normal(m.dim)
        big += int(np.sum(np.abs(X @ q) > 700.0))
        assert m.potential(q) == pytest.approx(ref.potential(q), rel=1e-12)
        np.testing.assert_allclose(m.grad(q), ref.grad(q), rtol=1e-12)
        np.testing.assert_allclose(m.hvp(q, w), ref.hvp(q, w), rtol=1e-12)
    assert (big > 0) == (design == "raw")
    # a non-finite position gives a non-finite gradient: the divergence path
    for bad in (np.nan, np.inf, -np.inf):
        q = rng.standard_normal(m.dim)
        q[1] = bad
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(m.grad(q)))


def test_logistic_layout_independent():
    X, y = simulate_logistic_data(300, 5, seed=2)
    wide = np.zeros((600, 10))
    wide[::2, ::2] = X
    models = [logistic_target(Z, y) for Z in (X, np.asfortranarray(X), wide[::2, ::2])]
    first = models[0]
    rng = np.random.default_rng(3)
    for _ in range(3):
        q, w = rng.standard_normal(5), rng.standard_normal(5)
        for m in models[1:]:
            assert m.potential(q) == first.potential(q)
            assert np.array_equal(m.grad(q), first.grad(q))
            assert np.array_equal(m.hvp(q, w), first.hvp(q, w))


def _target_with_inputs(name):
    # (model, the caller's arrays it was built from, a position shift)
    if name == "logistic":
        X, y = simulate_logistic_data(100, 3, seed=1)
        return logistic_target(X, y), [X, y], 0.0
    if name == "gaussian":
        mean = np.array([1.0, -2.0, 0.5])
        return gaussian_target(covariance=np.array([1.0, 2.0, 3.0]), mean=mean), [mean], 0.0
    if name == "cox":
        x, counts = simulate_cox_data(3, seed=1)
        counts = counts.astype(float)
        return cox_target(3, counts), [counts], x
    returns = simulate_sv_data(30, seed=1)
    return sv_target(returns), [returns], 0.0


@pytest.mark.parametrize("name", ["logistic", "gaussian", "cox", "sv"])
def test_target_keeps_its_own_data(name):
    # the caller changing its arrays after construction changes no target
    model, inputs, shift = _target_with_inputs(name)
    rng = np.random.default_rng(11)
    q = shift + rng.standard_normal(model.dim)
    w = rng.standard_normal(model.dim)
    before = (model.potential(q), model.grad(q), model.hvp(q, w))
    for a in inputs:
        a[...] = 1 - a
    after = (model.potential(q), model.grad(q), model.hvp(q, w))
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1])
    assert np.array_equal(after[2], before[2])


def test_logistic_hvp_memo_matches_fresh_model():
    X, y = simulate_logistic_data(200, 4, seed=3)
    m = logistic_target(X, y)
    rng = np.random.default_rng(8)
    q1, q2 = rng.standard_normal(4), rng.standard_normal(4)
    w = rng.standard_normal(4)
    # interleaved points: each call equals a fresh model's first call
    for q in (q1, q2, q1, q1):
        assert np.array_equal(m.hvp(q, w), logistic_target(X, y).hvp(q, w))
    # the caller mutating its position in place must not reuse stale weights
    q = q1 + q2
    m.hvp(q, w)
    q[2] += 0.5
    assert np.array_equal(m.hvp(q, w), logistic_target(X, y).hvp(q, w))
    assert not np.array_equal(m.hvp(q, w), m.hvp(q1, w))


def _matmul_forms(name):
    """(target, potential, grad, hvp): a target and its textbook ``@`` forms
    over the target's own arrays, in the target's own memory layout."""
    if name in ("gaussian", "correlated"):
        m = (correlated_gaussian(51) if name == "correlated" else
             gaussian_target(covariance=np.array([1.0, 2.0, 3.0]), mean=[1.0, -2.0, 0.5]))
        P, mu = m.precision, m.extras["mean"]

        def potential(q):
            r = q - mu
            return 0.5 * float(r @ (P @ r))

        return m, potential, lambda q: P @ (q - mu), lambda q, w: P @ w
    if name == "cox":
        x, y = simulate_cox_data(4, seed=2)
        m = cox_target(4, y)
        P, c, mu = m.extras["prior_precision"], m.extras["m"], np.full(16, m.extras["mu"])

        def potential(x):
            r = x - mu
            return float(np.sum(c * np.exp(x) - y * x) + 0.5 * r @ (P @ r))

        return (m, potential, lambda x: c * np.exp(x) - y + P @ (x - mu),
                lambda x, w: c * np.exp(x) * w + P @ w)
    X, y = simulate_logistic_data(300, 6, seed=5)
    m = logistic_target(X, y, prior_cov=2.0)
    X, P0 = np.asfortranarray(X), m.extras["prior_precision"]

    def potential(q):
        t = X @ q
        return float(np.sum(targets._log1pexp(t) - y * t) + 0.5 * q @ (P0 @ q))

    def hvp(q, w):
        s = targets._sigmoid(X @ q)
        return X.T @ (s * (1.0 - s) * (X @ w)) + P0 @ w

    return m, potential, lambda q: X.T @ (targets._sigmoid(X @ q) - y) + P0 @ q, hvp


@pytest.mark.parametrize("name", ["gaussian", "correlated", "cox", "logistic"])
def test_targets_equal_matmul_forms_bit_for_bit(name):
    # the targets contract through ndarray.dot; a numpy whose dot and
    # matmul round differently would change every draw, and fails here
    m, potential, grad, hvp = _matmul_forms(name)
    rng = np.random.default_rng(23)
    shift = m.extras["mu"] if name == "cox" else 0.0
    for _ in range(6):
        q = shift + rng.standard_normal(m.dim)
        w = rng.standard_normal(m.dim)
        assert m.potential(q) == potential(q)
        assert np.array_equal(m.grad(q), grad(q))
        assert np.array_equal(m.hvp(q, w), hvp(q, w))


SPD = np.array([[2.0, 0.3, -0.4], [0.3, 1.5, 0.2], [-0.4, 0.2, 0.9]])


@pytest.mark.parametrize("make, expected", [
    (lambda: gaussian_target(precision=[2.0, 0.5, 3.0]), lambda: np.diag([2.0, 0.5, 3.0])),
    (lambda: gaussian_target(covariance=[1.0, 2.0, 0.3]),
     lambda: np.diag(1.0 / np.array([1.0, 2.0, 0.3]))),
    (lambda: gaussian_target(precision=SPD), lambda: SPD),
    (lambda: gaussian_target(covariance=SPD), lambda: cholesky_inverse(SPD)),
    (lambda: anisotropic_gaussian(7, 2.5),
     lambda: np.diag(1.0 / np.exp(2.5 * np.arange(7) / 6 * np.log(10.0)))),
    (lambda: correlated_gaussian(51),
     lambda: cholesky_inverse(correlated_gaussian(51).extras["covariance"])),
], ids=["precision-vector", "covariance-vector", "precision-matrix", "covariance-matrix",
        "anisotropic", "correlated"])
def test_gaussian_precision_bits_per_input_form(make, expected):
    # every valid input form builds P by the same numpy operations, bit for bit
    m = make()
    assert m.precision.dtype == np.float64
    assert np.array_equal(m.precision, expected())


def test_gaussian_matrix_precision_is_a_private_copy():
    S = SPD.copy()
    m = gaussian_target(precision=S)
    S[0, 0] = 50.0
    assert np.array_equal(m.precision, SPD)


@pytest.mark.parametrize("arg", ["precision", "covariance"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_gaussian_diagonal_entries_must_be_finite_and_positive(arg, bad):
    # a NaN covariance used to build a NaN precision, and +inf a singular one
    with pytest.raises(ValueError, match=f"^diagonal {arg} entries must be finite and positive$"):
        gaussian_target(**{arg: np.array([1.0, bad])})


@pytest.mark.parametrize("arg", ["precision", "covariance"])
@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), ()], ids=["2x3", "2x2x2", "scalar"])
def test_gaussian_neither_vector_nor_square_matrix(arg, shape):
    with pytest.raises(ValueError, match=f"^{arg} must be a vector or a square matrix$"):
        gaussian_target(**{arg: np.ones(shape)})


@pytest.mark.parametrize("mean", [[0.0, np.nan], [np.inf, 0.0], [0.0, 1.0, 2.0]],
                         ids=["nan", "inf", "long"])
def test_gaussian_mean_must_be_finite_of_its_length(mean):
    with pytest.raises(ValueError, match="^mean: must be a finite vector of length 2$"):
        gaussian_target(covariance=[1.0, 2.0], mean=mean)


def test_model_arrays_are_read_only():
    # the arrays a model exposes are the ones its closures read: a write
    # fails and leaves the model as it was
    X, y = simulate_logistic_data(50, 3, seed=1)
    _, counts = simulate_cox_data(3, seed=1)
    cases = [(gaussian_target(covariance=[1.0, 2.0, 3.0]), "precision"),
             (correlated_gaussian(9), "precision"),
             (correlated_gaussian(9), "covariance"),
             (logistic_target(X, y), "prior_precision"),
             (cox_target(3, counts), "prior_precision"),
             (cox_target(3, counts), "prior_cov")]
    rng = np.random.default_rng(12)
    for m, name in cases:
        a = m.precision if name == "precision" else m.extras[name]
        q = rng.standard_normal(m.dim)
        before = m.grad(q)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 100.0
        assert np.array_equal(m.grad(q), before)


@pytest.mark.parametrize("name, make", [
    ("d", lambda: anisotropic_gaussian(1, 2.0)),
    ("grid_points", lambda: correlated_gaussian(1)),
    ("returns", lambda: sv_target(np.array([0.1]))),
    ("T", lambda: simulate_sv_data(1)),
])
def test_minimum_two_sizes_name_their_argument(name, make):
    with pytest.raises(ValueError, match=f"^{name}: must be at least 2, got 1$"):
        make()


@pytest.mark.parametrize("text, kind, row, column", [
    ("1.0,oops,1\n", "non-numeric", 1, 2),
    ("1.0,2.0,1\n\n3.0,,0\n", "non-numeric", 3, 2),
    ("1.0,2.0,1\n0x1p3,2.0,0\n", "non-numeric", 2, 1),
    ("1.0,2.0,1\n1.0,2.0,nan\n", "non-finite", 2, 3),
    ("1.0,2.0,1\n1.0,-inf,0\n", "non-finite", 2, 2),
    ("1e999,2.0,1\n", "non-finite", 1, 1),
], ids=["word", "empty", "hex", "nan-label", "minus-inf", "overflow"])
def test_load_logistic_csv_field_messages(tmp_path, text, kind, row, column):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    message = f"{path}: {kind} field at row {row}, column {column}"
    with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
        load_logistic_csv(path)


@pytest.mark.parametrize("fields, kind, column", [
    ("nan,oops,1", "non-finite", 1),
    ("oops,inf,1", "non-numeric", 1),
    ("0.5,inf,oops", "non-finite", 2),
])
def test_load_logistic_csv_names_first_bad_field(tmp_path, fields, kind, column):
    # a row with several bad fields names the first one in column order
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0,1\n{fields}\n")
    with pytest.raises(IngestionError, match=f"{kind} field at row 2, column {column}$"):
        load_logistic_csv(path)
