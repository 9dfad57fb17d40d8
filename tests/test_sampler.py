"""Chain driver: transitions, the adaptive step, run phases, checkpoints."""

import copy
import json

import numpy as np
import pytest
from scipy import stats

from ehmc import sampler
from ehmc.objective import AdaptConfig, make_adapt_state
from ehmc.precond import Preconditioner, make_preconditioner, n_params
from ehmc.sampler import (
    DIVERGENCE_DELTA,
    SamplerSettings,
    adaptive_step,
    hmc_transition,
    load_checkpoint,
    make_chains,
    run_experiment,
    save_checkpoint,
)
from ehmc.targets import TargetModel, gaussian_target

from _oracles import flat_model, mala_log_accept


def counting_model(base):
    """Same target with grad, potential and hvp call counters attached."""
    calls = {"grad": 0, "potential": 0, "hvp": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    model = TargetModel(dim=base.dim, potential=counted("potential", base.potential),
                        grad=counted("grad", base.grad), hvp=counted("hvp", base.hvp),
                        precision=base.precision)
    return model, calls


# ------------------------------------------------------------------ chains


def test_make_chains_validation():
    m = gaussian_target(precision=np.array([1.0]))
    with pytest.raises(ValueError):
        make_chains(m, 0, seed=1)
    with pytest.raises(ValueError):
        make_chains(m, 2, seed=1, init=np.zeros(3))
    chains = make_chains(m, 3, seed=1, init=np.array([2.5]))
    assert all(c.q[0] == 2.5 for c in chains)


def test_chain_streams_disjoint():
    m = gaussian_target(precision=np.eye(2))
    chains = make_chains(m, 4, seed=9)
    starts = [tuple(c.q) for c in chains]
    assert len(set(starts)) == 4


def test_transition_consumes_fixed_rng_budget():
    # one velocity vector and one uniform per call, whatever the outcome
    m = gaussian_target(precision=np.eye(3))
    p = make_preconditioner("diagonal", 3)
    for h in (0.5, 50.0):  # second one rejects essentially always
        chains = make_chains(m, 1, seed=4)
        chain = chains[0]
        shadow_v = copy.deepcopy(chain.rng_velocity)
        shadow_a = copy.deepcopy(chain.rng_accept)
        hmc_transition(chain, p, m, h, 5)
        shadow_v.standard_normal(3)
        shadow_a.uniform()
        assert chain.rng_velocity.bit_generator.state == shadow_v.bit_generator.state
        assert chain.rng_accept.bit_generator.state == shadow_a.bit_generator.state


def test_rejection_preserves_position_bitwise():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    chains = make_chains(m, 1, seed=7)
    chain = chains[0]
    rejected = 0
    for _ in range(200):
        before = chain.q.copy()
        accepts = chain.accept_count
        hmc_transition(chain, p, m, 1.9, 3)
        if chain.accept_count == accepts:
            rejected += 1
            assert np.array_equal(chain.q, before)
    assert rejected > 5
    assert chain.accept_count <= chain.transition_count


def test_flat_potential_always_accepts():
    d = 2
    m = flat_model(d)
    p = make_preconditioner("diagonal", d)
    chains = make_chains(m, 1, seed=3)
    chain = chains[0]
    h, L = 0.2, 5
    increments = []
    for _ in range(2000):
        before = chain.q.copy()
        _, _, a = hmc_transition(chain, p, m, h, L)
        assert a == 1.0
        increments.append(chain.q - before)
    inc = np.asarray(increments)
    # free flight: increments are N(0, (Lh)^2 I)
    assert abs(inc.std() / (L * h) - 1.0) < 0.05


def test_acceptance_in_unit_interval():
    m = gaussian_target(precision=np.array([2.0]))
    p = make_preconditioner("diagonal", 1)
    chains = make_chains(m, 1, seed=5)
    for _ in range(100):
        _, _, a = hmc_transition(chains[0], p, m, 1.2, 4)
        assert 0.0 <= a <= 1.0


def test_l1_matches_mala_oracle():
    rng = np.random.default_rng(12)
    mismatches = []
    for trial in range(40):
        d = int(rng.integers(1, 5))
        cov = np.exp(rng.normal(0, 0.5, d))
        m = gaussian_target(covariance=cov)
        kind = ["diagonal", "dense", "banded"][trial % 3]
        p = Preconditioner(kind, d, rng.normal(0, 0.3, n_params(kind, d)))
        h = float(rng.uniform(0.1, 1.0))
        chains = make_chains(m, 1, seed=100 + trial)
        chain = chains[0]
        q_before = chain.q.copy()
        shadow_v = copy.deepcopy(chain.rng_velocity)
        _, traj, a = hmc_transition(chain, p, m, h, 1)
        v = shadow_v.standard_normal(d)
        log_a = mala_log_accept(q_before, traj.q[1], v, h, p.dense(), m.grad,
                                m.potential)
        mismatches.append(abs(a - np.exp(log_a)))
    assert max(mismatches) < 1e-10


def test_transition_reuses_start_point_evaluations():
    # the first transition evaluates the start point; every later one
    # costs L gradients and one potential, accepted or not
    base = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))
    m, calls = counting_model(base)
    p = make_preconditioner("diagonal", 3)
    chain = make_chains(m, 1, seed=11)[0]
    L = 4
    hmc_transition(chain, p, m, 1.2, L)
    assert (calls["grad"], calls["potential"]) == (L + 1, 2)
    for _ in range(30):
        before = dict(calls)
        hmc_transition(chain, p, m, 1.2, L)
        assert calls["grad"] - before["grad"] == L
        assert calls["potential"] - before["potential"] == 1
    assert 0 < chain.accept_count < chain.transition_count


def test_start_cache_follows_accepts_and_survives_rejects():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    chain = make_chains(m, 1, seed=7)[0]
    hmc_transition(chain, p, m, 1.9, 3)
    accepted = rejected = 0
    for _ in range(200):
        start, accepts = chain.start, chain.accept_count
        hmc_transition(chain, p, m, 1.9, 3)
        if chain.accept_count == accepts:
            rejected += 1
            assert chain.start is start
        else:
            accepted += 1
            assert chain.start[0] is chain.q and chain.start[1] is m
            assert np.array_equal(chain.start[2], m.grad(chain.q))
            assert chain.start[3] == m.potential(chain.q)
    assert accepted > 5 and rejected > 5


def test_start_cache_survives_divergence():
    d = 2

    def grad(q):
        return np.full(d, np.nan) if np.max(np.abs(q)) > 5.0 else q.copy()

    base = TargetModel(dim=d, potential=lambda q: 0.5 * float(q @ q), grad=grad,
                       hvp=lambda q, w: w)
    m, calls = counting_model(base)
    p = make_preconditioner("diagonal", d)
    chain = make_chains(m, 1, seed=2, init=np.array([0.5, -0.5]))[0]
    hmc_transition(chain, p, m, 0.1, 3)
    start, q = chain.start, chain.q
    hmc_transition(chain, p, m, 40.0, 3)
    assert chain.divergence_count == 1
    assert chain.start is start and chain.q is q
    before = dict(calls)
    hmc_transition(chain, p, m, 0.1, 3)
    assert (calls["grad"] - before["grad"], calls["potential"] - before["potential"]) == (3, 1)


def test_reassigned_position_is_evaluated_afresh():
    base = gaussian_target(covariance=np.array([1.0, 3.0]))
    m, calls = counting_model(base)
    p = make_preconditioner("diagonal", 2)
    chain = make_chains(m, 1, seed=4)[0]
    for _ in range(3):
        hmc_transition(chain, p, m, 0.5, 3)
    with pytest.raises(ValueError):
        chain.q[0] = 1.0  # the cached position is read-only
    chain.q = np.array([2.0, -1.0])
    before = dict(calls)
    hmc_transition(chain, p, m, 0.5, 3)
    assert (calls["grad"] - before["grad"], calls["potential"] - before["potential"]) == (4, 2)
    assert chain.start[0] is chain.q
    assert np.array_equal(chain.start[2], m.grad(chain.q))


def test_another_model_is_evaluated_afresh():
    m1, _ = counting_model(gaussian_target(covariance=np.array([1.0, 3.0])))
    m2, calls = counting_model(gaussian_target(covariance=np.array([2.0, 0.5])))
    p = make_preconditioner("diagonal", 2)
    chain = make_chains(m1, 1, seed=4)[0]
    for _ in range(3):
        hmc_transition(chain, p, m1, 0.5, 3)
    q = chain.q
    _, traj, _ = hmc_transition(chain, p, m2, 0.5, 3)
    assert (calls["grad"], calls["potential"]) == (4, 2)
    assert np.array_equal(traj.q[0], q)
    assert np.array_equal(traj.grads[0], m2.grad(q))
    assert traj.u0 == m2.potential(q)
    assert chain.start[1] is m2


# ------------------------------------------------------------ adaptive step


def test_zero_rates_match_plain_transitions():
    m = gaussian_target(covariance=np.array([1.0, 3.0]))
    p1 = make_preconditioner("diagonal", 2)
    p2 = make_preconditioner("diagonal", 2)
    cfg = AdaptConfig(rho_theta=0.0, rho_beta=0.0, rho_gamma=0.0)
    state = make_adapt_state(p1, cfg)
    a_chains = make_chains(m, 3, seed=21)
    b_chains = make_chains(m, 3, seed=21)
    for _ in range(40):
        adaptive_step(a_chains, state, m, 0.5, 3, objective="gsm")
    for _ in range(40):
        for c in b_chains:
            hmc_transition(c, p2, m, 0.5, 3)
    for ca, cb in zip(a_chains, b_chains):
        assert np.array_equal(ca.q, cb.q)
        assert ca.accept_count == cb.accept_count
    assert np.array_equal(state.precond.theta, p2.theta)


def test_esjd_performs_no_hvp_calls():
    base = gaussian_target(covariance=np.array([1.0, 2.0]))
    m, calls = counting_model(base)
    p = make_preconditioner("diagonal", 2)
    state = make_adapt_state(p)
    chains = make_chains(m, 3, seed=2)
    for _ in range(10):
        adaptive_step(chains, state, m, 0.4, 4, objective="esjd")
    assert calls["hvp"] == 0
    # GSM by contrast must touch the Hessian
    for _ in range(2):
        adaptive_step(chains, state, m, 0.4, 4, objective="gsm")
    assert calls["hvp"] > 0


def test_gsm_step_hvp_count(monkeypatch):
    # per live chain: the pass's n_terms products plus its mu probe; the
    # gradient reads H C y from the draw
    base = gaussian_target(covariance=np.array([1.0, 2.0, 0.7]))
    m, calls = counting_model(base)
    draws = []
    real_pass = sampler.roulette_pass

    def recording_pass(*args, **kwargs):
        draws.append(real_pass(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(sampler, "roulette_pass", recording_pass)
    state = make_adapt_state(make_preconditioner("dense", 3))
    chains = make_chains(m, 4, seed=12)
    for _ in range(10):
        draws.clear()
        before = calls["hvp"]
        adaptive_step(chains, state, m, 0.3, 5, objective="gsm")
        assert len(draws) == 4 and not any(d.degenerate for d in draws)
        assert calls["hvp"] - before == sum(d.n_terms + 1 for d in draws)


def test_unknown_objective_rejected():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    chains = make_chains(m, 1, seed=1)
    with pytest.raises(ValueError):
        adaptive_step(chains, state, m, 0.5, 2, objective="nuts")


def test_isotropic_adaptation_finds_scale():
    # Sigma = 4 I: the speed-measure stationary point puts the diagonal
    # factor near 2, squeezed between the entropy pull and the penalty wall
    d = 5
    m = gaussian_target(covariance=np.full(d, 4.0))
    settings = SamplerSettings(model=m, kind="diagonal", h=0.3, L=5,
                               objective="gsm", adapt_steps=1500,
                               sample_steps=0, chains=10, seed=11)
    report = run_experiment(settings)
    c_entries = np.exp(report.extras["final_precond"].theta)
    assert np.all(c_entries > 1.5)
    assert np.all(c_entries < 3.0)
    assert report.cond_number is not None
    assert report.cond_number < 1.1


# ---------------------------------------------------------------- invariance


def test_invariance_1d_moments():
    m = gaussian_target(precision=np.array([1.0]))
    settings = SamplerSettings(model=m, kind="diagonal", h=0.9, L=3,
                               objective="none", adapt_steps=0,
                               sample_steps=6000, chains=10, seed=31)
    report = run_experiment(settings)
    draws = report.draws.reshape(-1)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05


def test_invariance_5d_ks():
    d = 5
    cov = np.array([0.5, 1.0, 2.0, 1.0, 4.0])
    m = gaussian_target(covariance=cov)
    settings = SamplerSettings(model=m, kind="diagonal", h=0.25, L=5,
                               objective="none", adapt_steps=0,
                               sample_steps=4000, chains=10, seed=32, thin=5)
    report = run_experiment(settings)
    for j in range(d):
        sd = np.sqrt(cov[j])
        sample = report.draws[:, :, j].reshape(-1)
        p_val = stats.kstest(sample, "norm", args=(0.0, sd)).pvalue
        assert p_val > 0.01


# ------------------------------------------------------------------ phases


def test_determinism_bit_identical():
    m = gaussian_target(covariance=np.array([1.0, 4.0]))
    mk = lambda: SamplerSettings(model=m, kind="diagonal", h=0.4, L=4,
                                 objective="gsm", adapt_steps=60,
                                 sample_steps=40, chains=3, seed=5)
    r1 = run_experiment(mk())
    r2 = run_experiment(mk())
    assert np.array_equal(r1.draws, r2.draws)
    assert r1.acceptance_rate == r2.acceptance_rate
    assert r1.divergences == r2.divergences
    assert np.array_equal(r1.extras["final_precond"].theta,
                          r2.extras["final_precond"].theta)
    assert np.array_equal(r1.mu_trace, r2.mu_trace)


def test_adapt_zero_keeps_initial_kernel():
    m = gaussian_target(precision=np.eye(2))
    settings = SamplerSettings(model=m, kind="diagonal", h=0.5, L=3,
                               objective="gsm", adapt_steps=0,
                               sample_steps=50, chains=2, seed=6)
    report = run_experiment(settings)
    assert np.array_equal(report.extras["final_precond"].theta, np.zeros(2))
    assert report.draws.shape == (2, 50, 2)


def test_empty_sampling_phase():
    m = gaussian_target(precision=np.array([1.0]))
    settings = SamplerSettings(model=m, kind="diagonal", h=0.5, L=3,
                               objective="gsm", adapt_steps=30,
                               sample_steps=0, chains=2, seed=6)
    report = run_experiment(settings)
    assert report.draws.shape == (2, 0, 1)
    # acceptance falls back to the adaptation phase
    assert 0.0 <= report.acceptance_rate <= 1.0
    assert np.isfinite(report.acceptance_rate)


def test_settings_validation():
    # every bad field fails validate() and run_experiment, before any
    # transition, with a message that starts with the field's name
    m = gaussian_target(precision=np.array([1.0]))
    for bad in (
        dict(h=0.0),
        dict(L=0),
        dict(objective="hamster"),
        dict(chains=0),
        dict(thin=0),
        dict(adapt_steps=-1),
        dict(sample_steps=-1),
        dict(seed=-1),
        dict(init_scale=np.inf),
        dict(kind="cubic"),
        dict(init=np.zeros(3)),
    ):
        settings = SamplerSettings(model=m, **bad)
        with pytest.raises(ValueError, match=f"^{next(iter(bad))}:"):
            settings.validate()
        with pytest.raises(ValueError, match=f"^{next(iter(bad))}:"):
            run_experiment(settings)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergences_counted_and_finite_report():
    # steep quartic bowl with a huge step: transitions blow up, get
    # rejected, and the report must stay finite
    d = 1

    def pot(q):
        return float(0.25 * np.sum(q**4))

    def grad(q):
        return q**3

    m = TargetModel(dim=d, potential=pot, grad=grad, hvp=lambda q, w: 3 * q**2 * w)
    settings = SamplerSettings(model=m, kind="diagonal", h=8.0, L=10,
                               objective="none", adapt_steps=0,
                               sample_steps=200, chains=2, seed=3,
                               init=np.array([3.0]))
    report = run_experiment(settings)
    assert report.divergences > 0
    assert np.all(np.isfinite(report.draws))
    assert np.isfinite(report.acceptance_rate)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("objective", ["gsm", "none"])
def test_sv_run_through_phi_at_one_completes(objective):
    # a large fixed step drives a chain to where phi rounds to 1; the
    # non-finite gradient there is rejected and counted, the run goes on
    from ehmc.targets import _sigmoid, simulate_sv_data, sv_target

    model = sv_target(simulate_sv_data(12, seed=3))
    at_one = []
    real_grad = model.grad

    def grad(q):
        at_one.append(abs(2.0 * _sigmoid(q[-2:-1])[0] - 1.0) == 1.0)
        return real_grad(q)

    model.grad = grad
    settings = SamplerSettings(model=model, kind="diagonal", h=0.8, L=4,
                               objective=objective, adapt_steps=25, sample_steps=20,
                               chains=2, seed=9)
    report = run_experiment(settings)
    assert any(at_one)
    assert report.divergences == sum(c.divergence_count for c in report.extras["chains"])
    assert report.divergences > 0
    assert np.all(np.isfinite(report.draws))


def test_finite_but_huge_delta_is_divergence():
    # delta above the threshold counts as divergent even when finite
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    chains = make_chains(m, 1, seed=8, init=np.array([80.0]))
    chain = chains[0]
    _, traj, a = hmc_transition(chain, p, m, 1.99, 20)
    if np.isfinite(chain.last_delta) and chain.last_delta > DIVERGENCE_DELTA:
        assert a == 0.0
        assert chain.divergence_count == 1
        assert chain.q[0] == 80.0


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_resumes_identically(tmp_path):
    m = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))
    p = make_preconditioner("dense", 3)
    state = make_adapt_state(p)
    chains = make_chains(m, 3, seed=17)
    for _ in range(30):
        adaptive_step(chains, state, m, 0.3, 4, objective="gsm")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, chains, state, 0.3, meta={"phase": "adapt"})
    chains2, state2, h2, meta = load_checkpoint(path)
    assert h2 == 0.3
    assert meta == {"phase": "adapt"}
    assert state2.step == state.step
    assert state2.beta == state.beta
    assert state2.gamma == state.gamma
    assert np.array_equal(state2.precond.theta, state.precond.theta)
    assert np.array_equal(state2.adam_m, state.adam_m)
    for _ in range(20):
        adaptive_step(chains, state, m, 0.3, 4, objective="gsm")
        adaptive_step(chains2, state2, m, 0.3, 4, objective="gsm")
    for ca, cb in zip(chains, chains2):
        assert np.array_equal(ca.q, cb.q)
        assert ca.accept_count == cb.accept_count
        assert ca.divergence_count == cb.divergence_count
    assert np.array_equal(state.precond.theta, state2.precond.theta)
    assert state.beta == state2.beta


def test_checkpoint_preserves_lambda(tmp_path):
    m = gaussian_target(precision=np.eye(2))
    p = make_preconditioner("diagonal", 2)
    state = make_adapt_state(p)
    chains = make_chains(m, 2, seed=19)
    for _ in range(5):
        adaptive_step(chains, state, m, 0.5, 3, objective="l2hmc")
    assert state.lambda_ma is not None
    path = tmp_path / "l2.npz"
    save_checkpoint(path, chains, state, 0.5)
    _, state2, _, _ = load_checkpoint(path)
    assert state2.lambda_ma == state.lambda_ma


# the config_json entries that checkpoints held for the settings that are
# now constants, with the values they always had
RETIRED_ENTRIES = {"beta_bounds": [0.01, 100.0], "gamma_bounds": [1000.0, 100000.0],
                   "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
                   "penalty_delta2": None, "l2hmc_floor": 1e-8}


def checkpoint_with_entries(tmp_path, entries):
    # a fresh checkpoint whose config_json also holds the given entries
    m = gaussian_target(precision=np.eye(2))
    state = make_adapt_state(make_preconditioner("diagonal", 2))
    chains = make_chains(m, 2, seed=29)
    adaptive_step(chains, state, m, 0.5, 3, objective="gsm")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, chains, state, 0.5)
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    config_d = json.loads(str(arrays["config_json"]))
    arrays["config_json"] = np.array(json.dumps({**config_d, **entries}))
    np.savez(path, **arrays)
    return path, state


def test_checkpoint_with_retired_entries_loads(tmp_path):
    path, state = checkpoint_with_entries(tmp_path, RETIRED_ENTRIES)
    _, state2, _, _ = load_checkpoint(path)
    assert state2.config == state.config
    assert np.array_equal(state2.precond.theta, state.precond.theta)


@pytest.mark.parametrize("key,value", [
    ("beta_bounds", [0.0, 100.0]), ("gamma_bounds", [1000.0, 1e6]), ("adam_beta1", 0.8),
    ("adam_beta2", 0.99), ("adam_eps", 1e-6), ("penalty_delta2", 1.75), ("l2hmc_floor", 1e-6),
])
def test_checkpoint_with_other_retired_value_names_it(tmp_path, key, value):
    path, _ = checkpoint_with_entries(tmp_path, {**RETIRED_ENTRIES, key: value})
    with pytest.raises(ValueError, match=f"^{key}:"):
        load_checkpoint(path)


def test_checkpoint_loads_without_pickle(tmp_path):
    m = gaussian_target(precision=np.eye(2))
    state = make_adapt_state(make_preconditioner("banded", 2))
    chains = make_chains(m, 2, seed=23)
    for _ in range(3):
        adaptive_step(chains, state, m, 0.5, 3, objective="gsm")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, chains, state, 0.5)
    with np.load(path, allow_pickle=False) as data:
        for key in data.files:
            assert data[key].dtype != object
        assert data["rng_states"].shape == (2, 3)


CHECKPOINT_ARRAYS = ["positions", "last_delta", "counters", "rng_states", "theta",
                     "precond_kind", "precond_dim", "adam_m", "adam_v", "scalars",
                     "config_json", "meta_json"]


@pytest.mark.parametrize("objective", ["gsm", "l2hmc"], ids=["lambda-unset", "lambda-set"])
@pytest.mark.parametrize("kind", ["diagonal", "dense", "banded"])
def test_checkpoint_resave_writes_equal_arrays(tmp_path, kind, objective):
    # the file layout: saving what load_checkpoint read back writes the same
    # array names, dtypes, shapes and values, RNG state bytes, counters,
    # last_delta and the NaN slot of an unset lambda included
    m = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))
    state = make_adapt_state(make_preconditioner(kind, 3))
    chains = make_chains(m, 3, seed=31)
    for _ in range(6):
        adaptive_step(chains, state, m, 0.4, 3, objective=objective)
    hmc_transition(chains[0], state.precond, m, 0.4, 3)
    assert (state.lambda_ma is None) is (objective == "gsm")
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    save_checkpoint(first, chains, state, 0.4, meta={"seed": 31})
    save_checkpoint(second, *load_checkpoint(first))
    with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
        assert sorted(a.files) == sorted(b.files) == sorted(CHECKPOINT_ARRAYS)
        for key in a.files:
            assert (a[key].dtype, a[key].shape) == (b[key].dtype, b[key].shape), key
            assert np.array_equal(a[key], b[key], equal_nan=a[key].dtype.kind == "f"), key
        assert a["counters"].dtype == np.int64
        assert a["rng_states"].shape == (3, 3) and a["rng_states"].dtype.kind == "S"
        assert a["counters"][0, 1] == 7 and a["counters"][1, 1] == 6
        assert a["scalars"].shape == (6,)
        assert np.isnan(a["scalars"][3]) == (objective == "gsm")


def checkpoint_with_arrays(tmp_path, **arrays):
    # a dense d = 3 checkpoint of 2 chains in which each named array is
    # replaced by its given function of the saved arrays
    m = gaussian_target(precision=np.eye(3))
    state = make_adapt_state(make_preconditioner("dense", 3))
    chains = make_chains(m, 2, seed=37)
    adaptive_step(chains, state, m, 0.5, 3, objective="gsm")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, chains, state, 0.5)
    with np.load(path, allow_pickle=False) as data:
        saved = {key: data[key] for key in data.files}
    np.savez(path, **{**saved, **{k: v(saved) for k, v in arrays.items()}})
    return path


@pytest.mark.parametrize("name, bad", [
    ("positions", lambda ck: np.zeros((2, 7))),
    ("positions", lambda ck: np.zeros(6)),
    ("last_delta", lambda ck: np.zeros(3)),
    ("counters", lambda ck: ck["counters"][:, :2]),
    ("counters", lambda ck: np.zeros((3, 3), dtype=np.int64)),
    ("rng_states", lambda ck: ck["rng_states"][:1]),
    ("rng_states", lambda ck: ck["rng_states"][:, :2]),
    ("adam_m", lambda ck: np.zeros(5)),
    ("adam_v", lambda ck: np.zeros(7)),
    ("scalars", lambda ck: ck["scalars"][:5]),
], ids=["positions-wide", "positions-flat", "last_delta-long", "counters-narrow",
        "counters-long", "rng_states-short", "rng_states-narrow", "adam_m-long",
        "adam_v-long", "scalars-short"])
def test_checkpoint_with_inconsistent_arrays_is_refused(tmp_path, name, bad):
    path = checkpoint_with_arrays(tmp_path, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name}:"):
        load_checkpoint(path)


def test_checkpoint_with_unknown_setting_names_it(tmp_path):
    path, _ = checkpoint_with_entries(tmp_path, {"learning_rate_x": 0.1})
    with pytest.raises(ValueError, match="^learning_rate_x: "):
        load_checkpoint(path)


def _with_nan(name):
    def bad(ck):
        a = ck[name].astype(float)
        a.flat[0] = np.nan
        return a
    return bad


@pytest.mark.parametrize("name, bad", [
    ("counters", lambda ck: ck["counters"] + 0.5),
    ("counters", lambda ck: ck["counters"].astype(float)),
    ("rng_states", lambda ck: ck["rng_states"].astype(str)),
    ("theta", _with_nan("theta")),
    ("adam_m", _with_nan("adam_m")),
    ("adam_v", _with_nan("adam_v")),
    ("positions", _with_nan("positions")),
], ids=["counters-fractional", "counters-float", "rng_states-str", "theta-nan",
        "adam_m-nan", "adam_v-nan", "positions-nan"])
def test_checkpoint_with_wrong_dtype_or_nonfinite_state_is_refused(tmp_path, name, bad):
    path = checkpoint_with_arrays(tmp_path, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name}: "):
        load_checkpoint(path)


def test_checkpoint_keeps_infinite_last_delta_and_unset_lambda(tmp_path):
    # a divergent transition leaves last_delta at +inf; GSM leaves lambda
    # unset, a NaN in the scalars
    path = checkpoint_with_arrays(tmp_path, last_delta=lambda ck: np.array([np.inf, 0.25]))
    chains, state, _, _ = load_checkpoint(path)
    assert chains[0].last_delta == np.inf and chains[1].last_delta == 0.25
    assert state.lambda_ma is None
