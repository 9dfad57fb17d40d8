"""Acceptance suite: twelve end-to-end criteria, one test function each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every tolerance here is load-bearing; none may be loosened
without revisiting the derivations they freeze.
"""

import time

import numpy as np

from ehmc.diagnostics import ess, split_rhat
from ehmc.entropy import dl_coeff, MidpointOperator, roulette_logdet_estimate, roulette_pass
from ehmc.integrator import trajectory_reparam
from ehmc.objective import (
    esjd_gradient,
    gsm_gradient,
    jump_value,
    l2hmc_gradient,
    make_adapt_state,
)
from ehmc.precond import Preconditioner, make_preconditioner, n_params
from ehmc.sampler import SamplerSettings, hmc_transition, make_chains, run_experiment
from ehmc.targets import (
    anisotropic_gaussian,
    gaussian_target,
    logistic_target,
    simulate_logistic_data,
)

from _oracles import (
    ds_recursion,
    esjd_surrogate_loss,
    fd_theta_gradient,
    gsm_surrogate_loss,
    l2hmc_surrogate_loss,
    leapfrog_direct,
    logdet,
    mala_log_accept,
    relative_error,
    residual_jacobian_fd,
    with_theta,
)

KINDS = ("diagonal", "dense", "banded")


def random_gaussian(rng, d, spread=0.6):
    return gaussian_target(covariance=np.exp(rng.normal(0.0, spread, d)))


def random_precond(rng, kind, d, scale=0.2):
    return Preconditioner(kind, d, rng.normal(0.0, scale, n_params(kind, d)))


def test_criterion_01_reparameterization_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 21))
        L = int(rng.integers(1, 21))
        h = float(rng.uniform(0.01, 0.2))
        if trial % 3 == 0:
            X, y = simulate_logistic_data(30, d, seed=trial)
            model = logistic_target(X, y)
        else:
            model = random_gaussian(rng, d)
        p = random_precond(rng, KINDS[trial % 3], d)
        q0 = rng.standard_normal(d)
        v = rng.standard_normal(d)
        traj = trajectory_reparam(q0, v, h, L, p, model)
        q_direct, _ = leapfrog_direct(q0, p.solve_t(v), h, L, p, model)
        scale = max(1.0, float(np.max(np.abs(q_direct))))
        worst = max(worst, float(np.max(np.abs(traj.q[-1] - q_direct))) / scale)
    assert worst <= 1e-8, f"max relative endpoint mismatch {worst:.3e}"


def test_criterion_02_residual_jacobian_oracle():
    rng = np.random.default_rng(102)
    worst_fd = 0.0
    worst_sym = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 5))
        L = int(rng.integers(2, 7))
        if trial % 2 == 0:
            model = random_gaussian(rng, d, spread=0.4)
            h = float(rng.uniform(0.02, 0.08))
        else:
            X, y = simulate_logistic_data(25, d, seed=1000 + trial)
            model = logistic_target(X, y)
            h = float(rng.uniform(0.01, 0.04))
        p = random_precond(rng, KINDS[trial % 3], d, scale=0.15)
        q0 = rng.standard_normal(d)
        v = rng.standard_normal(d)
        traj = trajectory_reparam(q0, v, h, L, p, model)
        ds = ds_recursion(traj, p, model)
        worst_sym = max(worst_sym, float(np.max(np.abs(ds - ds.T))))
        jac = residual_jacobian_fd(q0, v, h, L, p, model)
        denom = max(float(np.max(np.abs(jac))), 1e-8)
        worst_fd = max(worst_fd, float(np.max(np.abs(ds - jac))) / denom)
    assert worst_fd <= 1e-4, f"max FD mismatch {worst_fd:.3e}"
    assert worst_sym <= 1e-10, f"max asymmetry {worst_sym:.3e}"


def test_criterion_03_gaussian_surrogate_exactness():
    rng = np.random.default_rng(103)
    for trial in range(12):
        d = int(rng.integers(1, 11))
        L = int(rng.integers(2, 9))
        h = float(rng.uniform(0.05, 0.5))
        model = random_gaussian(rng, d)
        p = random_precond(rng, KINDS[trial % 3], d)
        C = p.dense()
        expected = dl_coeff(h, L) * C.T @ model.precision @ C
        dl = MidpointOperator(rng.standard_normal(d), p, model, h, L)
        mat = np.column_stack([dl(e) for e in np.eye(d)])
        assert np.max(np.abs(mat - expected)) <= 1e-12
        dl1 = MidpointOperator(rng.standard_normal(d), p, model, h, 1)
        w = rng.standard_normal(d)
        assert np.array_equal(dl1(w), np.zeros(d))


def test_criterion_04_roulette_unbiasedness():
    rng = np.random.default_rng(104)
    d = 10
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.linspace(-0.5, 0.45, d)  # spectral radius exactly 0.5
    D = Q @ np.diag(lam) @ Q.T
    truth = float(np.sum(np.log1p(lam)))
    vals = np.empty(100000)
    for i in range(vals.size):
        vals[i] = roulette_logdet_estimate(roulette_pass(lambda w: D @ w, d, rng))
    err = abs(vals.mean() - truth)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert err < 3 * se, f"mean off by {err:.4f} vs 3*SE {3 * se:.4f}"
    assert err < 0.02, f"mean off by {err:.4f} (absolute cap 0.02)"


def test_criterion_05_contraction_bound():
    rng = np.random.default_rng(105)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        L = int(rng.integers(2, 9))
        model = random_gaussian(rng, d)
        p = random_precond(rng, KINDS[int(rng.integers(3))], d)
        C = p.dense()
        bound = float(np.linalg.norm(C.T @ model.precision @ C, 2))
        h = 0.95 / (L * np.sqrt(4.0 * bound))  # L^2 h^2 < 1/(4 |A|)
        traj = trajectory_reparam(rng.standard_normal(d), rng.standard_normal(d),
                                  h, L, p, model)
        for ell in range(1, L + 1):
            ds = ds_recursion(traj, p, model, upto=ell)
            assert np.linalg.norm(ds, 2) < 0.125


def test_criterion_06_gradient_engine():
    rng = np.random.default_rng(106)
    worst = 0.0
    for kind in KINDS:
        d = 5 if kind == "diagonal" else 6
        model = random_gaussian(rng, d)
        p = random_precond(rng, kind, d)
        state = make_adapt_state(p)
        state.beta = 0.8
        state.gamma = 2e3
        state.lambda_ma = 1.1
        for seed in (1, 2, 3):
            chains = make_chains(model, 1, seed=seed)
            chain = chains[0]
            _, block, _ = hmc_transition([chain], p, model, 0.35, 4)
            traj = block.row(0)
            draw = roulette_pass(MidpointOperator(traj.midpoint, p, model, 0.35, 4), d,
                                 chain.rng_roulette)
            checks = (
                (gsm_gradient(block, [draw], state, p)[0],
                 lambda th: gsm_surrogate_loss(traj, draw, state, with_theta(p, th), model)[0]),
                (esjd_gradient(block, p)[0],
                 lambda th: esjd_surrogate_loss(traj, with_theta(p, th), model)),
                (l2hmc_gradient(block, jump_value(block), state, p)[0],
                 lambda th: l2hmc_surrogate_loss(traj, state, with_theta(p, th), model)),
            )
            for grad, f in checks:
                worst = max(worst, relative_error(grad, fd_theta_gradient(f, p.theta)))
    assert worst <= 1e-5, f"max gradient mismatch {worst:.3e}"


def test_criterion_07_kernel_correctness():
    model = gaussian_target(precision=np.array([1.0]))
    settings = SamplerSettings(model=model, kind="diagonal", h=0.9, L=3,
                               objective="none", adapt_steps=0,
                               sample_steps=10000, chains=10, seed=107)
    report = run_experiment(settings)
    draws = report.draws.reshape(-1)
    assert draws.size == 100000
    assert abs(draws.mean()) < 0.02, f"mean {draws.mean():.4f}"
    assert abs(draws.var() - 1.0) < 0.05, f"var {draws.var():.4f}"

    import copy

    rng = np.random.default_rng(117)
    worst = 0.0
    for trial in range(40):
        d = int(rng.integers(1, 5))
        m = random_gaussian(rng, d)
        p = random_precond(rng, KINDS[trial % 3], d, scale=0.3)
        h = float(rng.uniform(0.1, 1.0))
        chain = make_chains(m, 1, seed=500 + trial)[0]
        q_before = chain.q.copy()
        shadow = copy.deepcopy(chain.rng_velocity)
        _, traj, a = hmc_transition(chain, p, m, h, 1)
        v = shadow.standard_normal(d)
        log_a = mala_log_accept(q_before, traj.q[1], v, h, p.dense(), m.grad, m.potential)
        worst = max(worst, abs(a - float(np.exp(log_a))))
    assert worst <= 1e-10, f"max MALA mismatch {worst:.3e}"


def test_criterion_08_energy_error_order():
    model = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    T = 1.0
    hs, errs = [], []
    for L in (4, 8, 16, 32, 64):
        h = T / L
        traj = trajectory_reparam(np.array([1.3]), np.array([0.4]), h, L, p, model)
        hs.append(h)
        errs.append(abs(traj.delta))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert abs(slope - 2.0) < 0.1, f"slope {slope:.3f}"


def test_criterion_09_anisotropic_conditioning():
    model = anisotropic_gaussian(50, 2.0)
    settings = SamplerSettings(model=model, kind="diagonal", h=0.29, L=5,
                               objective="gsm", adapt_steps=5000,
                               sample_steps=500, chains=10, seed=109)
    report = run_experiment(settings)
    assert report.cond_number is not None
    assert report.cond_number < 3.0, f"condition number {report.cond_number:.3f}"
    assert report.acceptance_rate >= 0.6, f"acceptance {report.acceptance_rate:.3f}"


def test_criterion_10_objective_ordering():
    model = anisotropic_gaussian(20, 4.0)  # condition number 10^4
    results = {}
    for objective in ("gsm", "esjd", "l2hmc"):
        settings = SamplerSettings(model=model, kind="diagonal", h=0.2, L=5,
                                   objective=objective, adapt_steps=3000,
                                   sample_steps=2000, chains=10, seed=17)
        results[objective] = run_experiment(settings).min_ess
    assert results["gsm"] >= 5.0 * results["esjd"], (
        f"minESS gsm={results['gsm']:.1f} vs esjd={results['esjd']:.1f}"
    )
    assert results["gsm"] >= 5.0 * results["l2hmc"], (
        f"minESS gsm={results['gsm']:.1f} vs l2hmc={results['l2hmc']:.1f}"
    )


def test_criterion_11_banded_oracle_and_cost():
    rng = np.random.default_rng(111)
    for d in (1, 2, 3, 8, 17, 32):
        p = random_precond(rng, "banded", d, scale=0.3)
        dense_C = p.dense()
        for _ in range(3):
            w = rng.standard_normal(d)
            assert np.max(np.abs(p.matvec(w) - dense_C @ w)) <= 1e-10
            assert np.max(np.abs(p.rmatvec(w) - dense_C.T @ w)) <= 1e-10
            assert np.max(np.abs(p.solve(w) - np.linalg.solve(dense_C, w))) <= 1e-10
            assert np.max(np.abs(p.solve_t(w) - np.linalg.solve(dense_C.T, w))) <= 1e-10
        sign, logabs = np.linalg.slogdet(dense_C)
        assert sign > 0
        assert abs(logdet(p) - logabs) <= 1e-10

    def time_matvec(d, reps):
        p = random_precond(np.random.default_rng(d), "banded", d, scale=0.1)
        w = np.random.default_rng(d + 1).standard_normal(d)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                p.matvec(w)
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    t_small = time_matvec(1000, 400)
    t_big = time_matvec(10000, 40)
    exponent = float(np.log(t_big / t_small) / np.log(10.0))
    assert exponent <= 1.2, f"cost exponent {exponent:.3f}"


def test_criterion_12_diagnostics():
    rng = np.random.default_rng(112)
    series = rng.standard_normal(10000)
    ratio = ess(series) / series.size
    assert 0.9 <= ratio <= 1.1, f"iid ESS/n {ratio:.3f}"
    chains = [rng.standard_normal(10000) for _ in range(4)]
    r = split_rhat(chains)
    assert 0.99 <= r <= 1.01, f"iid split-Rhat {r:.4f}"
    n, rho = 100000, 0.5
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    ar_ratio = ess(x) / n
    assert abs(ar_ratio - 1.0 / 3.0) / (1.0 / 3.0) < 0.15, f"AR(1) ESS/n {ar_ratio:.4f}"
