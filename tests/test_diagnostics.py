"""ESS, split R-hat, condition numbers, and report assembly."""

import warnings

import numpy as np
import pytest

from ehmc.diagnostics import build_report, condition_number, ess, split_rhat
from ehmc.precond import Preconditioner, make_preconditioner


# --------------------------------------------------------------------- ess


def test_ess_iid():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10000)
    assert 0.9 <= ess(x) / 10000 <= 1.1


def test_ess_constant_series():
    assert ess(np.full(100, 3.7)) == 0.0


def test_ess_ar1():
    rng = np.random.default_rng(1)
    n, rho = 100000, 0.5
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * np.sqrt(1 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    ratio = ess(x) / n
    assert abs(ratio - 1.0 / 3.0) / (1.0 / 3.0) < 0.15


def test_ess_affine_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5000)
    x = np.cumsum(x) * 0.2 + x  # something autocorrelated
    assert np.isclose(ess(x), ess(5.0 * x - 11.0), rtol=1e-10)


def test_ess_tracks_thinning():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20000)
    full = ess(x)
    half = ess(x[::2])
    assert abs(half / (full / 2) - 1.0) < 0.15


def test_ess_bounded_by_n_reasonably():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2000)
    assert 0 < ess(x) <= 2000 * 1.2


def test_ess_input_validation():
    with pytest.raises(ValueError):
        ess(np.ones(4))
    with pytest.raises(ValueError):
        ess(np.array([1.0, np.nan] + [0.0] * 10))


# -------------------------------------------------------------- split rhat


def test_rhat_iid_chains():
    rng = np.random.default_rng(5)
    chains = [rng.standard_normal(10000) for _ in range(4)]
    r = split_rhat(chains)
    assert 0.99 <= r <= 1.01


def test_rhat_separated_means():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(5000)
    b = rng.standard_normal(5000) + 10.0
    assert split_rhat([a, b]) > 1.5


def test_rhat_duplicated_chain():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(10000)
    r = split_rhat([a, a.copy()])
    # between-variance only from the split halves; stays near 1
    assert r < 1.02


def test_rhat_affine_invariance():
    rng = np.random.default_rng(8)
    chains = [np.cumsum(rng.standard_normal(4000)) for _ in range(3)]
    r1 = split_rhat(chains)
    r2 = split_rhat([3.0 * c + 7.0 for c in chains])
    assert np.isclose(r1, r2, rtol=1e-10)


def test_rhat_degenerate_and_short():
    assert np.isnan(split_rhat([np.ones(100), np.ones(100)]))
    with pytest.raises(ValueError):
        split_rhat([np.ones(3)])
    with pytest.raises(ValueError):
        split_rhat([])


# --------------------------------------------------------- condition number


def test_cond_perfect_preconditioning():
    # C = Sigma^{1/2} for diagonal Sigma
    sigma = np.array([4.0, 0.25, 9.0])
    p = Preconditioner("diagonal", 3, 0.5 * np.log(sigma))
    assert np.isclose(condition_number(p, np.diag(1.0 / sigma)), 1.0)


def test_cond_identity_factor():
    p = make_preconditioner("diagonal", 2)
    sigma_inv = np.diag([1.0, 1.0 / 100.0])
    assert np.isclose(condition_number(p, sigma_inv), 100.0)


def test_cond_scale_invariance():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    sigma_inv = a @ a.T + 3 * np.eye(3)
    p = Preconditioner("diagonal", 3, np.array([0.1, -0.4, 0.7]))
    c1 = condition_number(p, sigma_inv)
    p2 = Preconditioner("diagonal", 3, p.theta + np.log(5.0))
    c2 = condition_number(p2, sigma_inv)
    assert np.isclose(c1, c2, rtol=1e-10)
    assert c1 >= 1.0


def test_cond_rejects_indefinite():
    p = make_preconditioner("diagonal", 2)
    with pytest.raises(FloatingPointError):
        condition_number(p, np.diag([1.0, -1.0]))


# ------------------------------------------------------------------ report


def test_build_report_sums_ess_across_chains():
    rng = np.random.default_rng(10)
    draws = rng.standard_normal((4, 5000, 2))
    report = build_report(draws, acceptance_rate=0.8, divergences=0,
                          mu_trace=np.array([]), wall_seconds=1.0)
    # iid in each of 4 chains: summed ESS near 4 * 5000
    assert np.all(report.ess_per_dim > 0.9 * 20000)
    assert np.all(report.ess_per_dim < 1.1 * 20000)
    assert report.min_ess <= report.mean_ess <= 1.1 * 20000
    assert np.all(report.split_rhat_per_dim < 1.01)
    assert not report.degenerate_dims.any()


def test_build_report_degenerate_dimension():
    rng = np.random.default_rng(11)
    draws = rng.standard_normal((2, 1000, 2))
    draws[:, :, 1] = 4.2
    report = build_report(draws, acceptance_rate=0.5, divergences=1,
                          mu_trace=np.array([0.1]), wall_seconds=0.1)
    assert not report.degenerate_dims[0]
    assert report.degenerate_dims[1]
    assert report.ess_per_dim[1] == 0.0


def test_build_report_empty_phase():
    report = build_report(np.zeros((3, 0, 4)), acceptance_rate=0.7,
                          divergences=0, mu_trace=np.array([]), wall_seconds=0.2)
    assert np.all(np.isnan(report.ess_per_dim))
    assert np.isnan(report.min_ess)
    assert np.isnan(report.max_rhat)


@pytest.mark.parametrize("n", range(1, 8))
def test_build_report_short_phase(n):
    # fewer than 8 draws per chain: every statistic is NaN and no dimension,
    # not even a constant one, is flagged degenerate, with no warning
    draws = np.random.default_rng(12).standard_normal((3, n, 2))
    draws[:, :, 1] = 4.2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = build_report(draws, acceptance_rate=0.6, divergences=0,
                              mu_trace=np.array([]), wall_seconds=0.1)
    for per_dim in (report.ess_per_dim, report.split_rhat_per_dim):
        assert per_dim.shape == (2,) and np.all(np.isnan(per_dim))
    for value in (report.min_ess, report.mean_ess, report.median_ess,
                  report.max_rhat, report.median_rhat):
        assert np.isnan(value)
    assert report.degenerate_dims.dtype == bool and report.degenerate_dims.shape == (2,)
    assert not report.degenerate_dims.any()


def test_build_report_shape_check():
    with pytest.raises(ValueError):
        build_report(np.zeros((3, 4)), 0.5, 0, np.array([]), 0.0)
