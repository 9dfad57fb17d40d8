"""What the benchmark's hooks (benchmarks/tracing.py, worker.py) rely on.

The hooks replace ``sampler`` globals and a model's ``grad``, ``hvp`` and
``potential`` with counting wrappers, so the package must keep calling
them the way the hooks count: a change to the calling pattern fails here,
not as a wrong figure in the benchmark.
"""

import functools
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

from ehmc import cli, diagnostics, objective as objective_module, precond, sampler
from ehmc.entropy import MidpointOperator, dl_coeff, roulette_pass
from ehmc.integrator import trajectory_reparam
from ehmc.objective import (AdaptState, esjd_gradient, gsm_gradient, jump_value,
                            l2hmc_gradient)
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.sampler import ChainState, SamplerSettings, make_chains, run_experiment
from ehmc.targets import TargetModel, gaussian_target

from _oracles import (adaptive_step_per_chain, hazard_model, logged_model, penalty_slopes,
                      scaled_identity)

ADAPT, SAMPLE, CHAINS = 5, 7, 3

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def settings(model, objective="gsm"):
    return SamplerSettings(model=model, kind="dense", h=0.3, L=4, objective=objective,
                           adapt_steps=ADAPT, sample_steps=SAMPLE, chains=CHAINS, seed=4)


def test_transition_calls(monkeypatch):
    # sampling: one hmc_transition call per chain per step, chains in turn
    # (the probe times a sampling step as `chains` consecutive calls);
    # adaptation: one call with the whole list per step, which the probe
    # leaves out of the sampling phase
    calls, in_adapt = [], []
    real_transition, real_step = sampler.hmc_transition, sampler.adaptive_step

    def transition(chain, *args):
        calls.append((bool(in_adapt), chain))
        return real_transition(chain, *args)

    def step(*args, **kwargs):
        in_adapt.append(1)
        try:
            return real_step(*args, **kwargs)
        finally:
            in_adapt.pop()

    monkeypatch.setattr(sampler, "hmc_transition", transition)
    monkeypatch.setattr(sampler, "adaptive_step", step)
    report = run_experiment(settings(gaussian_target(covariance=np.array([1.0, 2.0]))))
    chains = report.extras["chains"]
    adapt = [c for inside, c in calls if inside]
    sample = [c for inside, c in calls if not inside]
    assert len(adapt) == ADAPT and all(c == chains for c in adapt)
    assert len(sample) == SAMPLE * CHAINS
    assert all(isinstance(c, ChainState) for c in sample)
    assert sample == chains * SAMPLE


def load_tracing(monkeypatch):
    # benchmarks/tracing.py as a fresh module, read and never written
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_names_that_exist(monkeypatch):
    # the traced benchmark run wraps its layer boundaries by name; here it
    # wraps copies of the modules and a subclass of Preconditioner, so a
    # deleted or renamed boundary raises AttributeError without a run and
    # the package itself is left unpatched
    tracing = load_tracing(monkeypatch)

    class Traced(Preconditioner):
        pass

    modules = {name: types.SimpleNamespace(**vars(module)) for name, module in
               [("cli", cli), ("sampler", sampler), ("precond", precond),
                ("diagnostics", diagnostics)]}
    modules["precond"].Preconditioner = Traced
    package = [cli, sampler, precond, diagnostics, Preconditioner]
    before = [dict(vars(owner)) for owner in package]
    tracing.install_tracer(tracing.Tracer(), modules, tracing.RouletteStats())
    assert [dict(vars(owner)) for owner in package] == before
    for owner in [modules["cli"], modules["sampler"], modules["diagnostics"], Traced]:
        assert any(hasattr(value, "__wrapped__") for value in vars(owner).values())


def test_roulette_stats_read_the_draw_fields(monkeypatch):
    # the traced run totals each pass's truncation level and clamp count
    # from the draw: on a clamped, an unclamped and a degenerate midpoint
    # pass (D = c H with C = I, for H a multiple of I or nilpotent), the
    # totals are the sums of the draws' n_terms and clamp_count
    d, h, L = 3, 0.5, 3
    c = dl_coeff(h, L)
    draws = []
    for A in (3.0 / c * np.eye(d), 0.3 / c * np.eye(d), np.eye(d, k=1)):
        model = TargetModel(dim=d, potential=lambda q: 0.0, grad=lambda q: np.zeros(d),
                            hvp=lambda q, w, A=A: A @ w)
        op = MidpointOperator(np.zeros(d), make_preconditioner("diagonal", d), model, h, L)
        draws.append(roulette_pass(op, d, np.random.default_rng(len(draws))))
    clamped, unclamped, degenerate = draws
    assert clamped.clamp_count == clamped.n_terms and clamped.b.any()
    assert unclamped.clamp_count == 0 and unclamped.b.any()
    assert not degenerate.b.any() and degenerate.n_terms >= d
    stats = load_tracing(monkeypatch).RouletteStats()
    for draw in draws:
        stats(draw)
    assert stats.passes == len(draws)
    assert stats.terms == sum(draw.n_terms for draw in draws)
    assert stats.clamps == sum(draw.clamp_count for draw in draws)


def test_first_transition_precedes_every_target_call(monkeypatch):
    # the benchmark's set-up mode stops a run at its first hmc_transition
    # call, so no target evaluation may come before it
    model, log = logged_model(gaussian_target(covariance=np.array([1.0, 2.0])))

    class FirstTransition(Exception):
        pass

    def stop(*args):
        raise FirstTransition

    monkeypatch.setattr(sampler, "hmc_transition", stop)
    with pytest.raises(FirstTransition):
        run_experiment(settings(model))
    assert not any(log.values())


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("objective", ["gsm", "esjd", "l2hmc"])
def test_target_calls_are_per_chain_vectors(objective, monkeypatch):
    # every grad, potential and hvp call gets one (d,) vector, and an
    # adaptation step makes as many of each as the one-chain-at-a-time step,
    # also when chains diverge and roulette passes fail; a GSM step runs one
    # roulette pass per live chain, with integer truncation and clamp counts
    passes = []
    real_pass = sampler.roulette_pass

    def roulette(*args, **kwargs):
        passes[-1] += 1
        draw = real_pass(*args, **kwargs)
        assert type(draw.n_terms) is int and type(draw.clamp_count) is int
        return draw

    monkeypatch.setattr(sampler, "roulette_pass", roulette)
    sides = []
    for step_fn in (sampler.adaptive_step, adaptive_step_per_chain):
        model, log = logged_model(hazard_model())
        state = AdaptState(make_preconditioner("diagonal", 3))
        chains = make_chains(model, 4, seed=5)
        counts = []
        for _ in range(14):
            before = {name: len(calls) for name, calls in log.items()}
            passes.append(0)
            step_fn(chains, state, model, 0.45, 5, objective, {})
            counts.append(({name: len(calls) - before[name] for name, calls in log.items()},
                           passes[-1]))
        sides.append(counts)
        # the logged model raises on any call that is not one (d,) vector
    assert sides[0] == sides[1]
    runs = [n for _, n in sides[0]]
    assert sum(runs) > 0 if objective == "gsm" else sum(runs) == 0


@pytest.mark.parametrize("kind", ["diagonal", "dense", "banded"])
@pytest.mark.parametrize("L", [1, 4])
def test_sampling_transition_calls(kind, L, monkeypatch):
    # a sampling transition takes the factor's one-vector maps from one
    # bound_maps call and makes 2L + 1 maps on them (C^T g_0, L leapfrog
    # pairs less one, and the last half-kick, which gives the final
    # velocity), none through Preconditioner.matvec/rmatvec, which the
    # tracer wraps on the class; with L gradients, one potential and no
    # gradient accumulator once the start point is cached
    maps, bindings, checked = [], [], []
    real_bound = Preconditioner.bound_maps

    def bound(self, block=False):
        bindings.append(1)
        return tuple(lambda w, f=f: maps.append(1) or f(w) for f in real_bound(self, block))

    monkeypatch.setattr(Preconditioner, "bound_maps", bound)
    for attr in ("matvec", "rmatvec"):
        real = getattr(Preconditioner, attr)

        def counted(self, w, real=real):
            checked.append(1)
            return real(self, w)

        monkeypatch.setattr(Preconditioner, attr, functools.wraps(real)(counted))
    pieces = []
    real_pieces = objective_module._endpoint_pieces
    monkeypatch.setattr(objective_module, "_endpoint_pieces",
                        lambda *args: pieces.append(1) or real_pieces(*args))
    model, log = logged_model(gaussian_target(covariance=np.array([1.0, 2.0, 0.5])))
    precond = scaled_identity(kind, 3, 0.8)
    chain = make_chains(model, 1, seed=2)[0]
    sampler.hmc_transition(chain, precond, model, 0.3, L)
    for _ in range(3):
        del maps[:], bindings[:]
        before = {name: len(calls) for name, calls in log.items()}
        _, traj, _ = sampler.hmc_transition(chain, precond, model, 0.3, L)
        assert len(maps) == 2 * L + 1 and len(bindings) == 1 and not checked
        assert len(log["grad"]) - before["grad"] == L
        assert len(log["potential"]) - before["potential"] == 1
        assert not pieces and not hasattr(traj, "xi")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("objective", ["gsm", "esjd", "l2hmc"])
def test_adaptation_trajectory_map_calls(kind, objective, monkeypatch):
    # an adaptation step's block trajectory takes the factor's block maps
    # from one bound_maps call and makes 2L + 1 maps on them, none through
    # Preconditioner.matvec/rmatvec; the objective gradient after it still
    # maps through those, so the tracer's precond.maps span keeps firing
    L, maps, bindings, checked, inside = 4, [], [], [], []
    real_bound, real_trajectory = Preconditioner.bound_maps, sampler.trajectory_reparam

    def bound(self, block=False):
        bindings.append((bool(inside), block))
        return tuple(lambda w, f=f: maps.append(bool(inside)) or f(w)
                     for f in real_bound(self, block))

    def trajectory(*args):
        inside.append(1)
        try:
            return real_trajectory(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Preconditioner, "bound_maps", bound)
    monkeypatch.setattr(sampler, "trajectory_reparam", trajectory)
    for attr in ("matvec", "rmatvec"):
        real = getattr(Preconditioner, attr)

        def counted(self, w, real=real):
            checked.append(bool(inside))
            return real(self, w)

        monkeypatch.setattr(Preconditioner, attr, functools.wraps(real)(counted))
    model = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))
    state = AdaptState(make_preconditioner(kind, 3))
    chains = make_chains(model, CHAINS, seed=6)
    for _ in range(3):
        del maps[:], bindings[:], checked[:]
        sampler.adaptive_step(chains, state, model, 0.3, L, objective, {})
        assert [block for inner, block in bindings if inner] == [True]
        assert maps.count(True) == 2 * L + 1
        assert checked and not any(checked)


@pytest.mark.parametrize("objective", ["gsm", "esjd", "l2hmc"])
def test_one_parameter_gradient_call_per_adaptation_step(objective, monkeypatch):
    # the tracer's precond.param_grad span wraps these two methods on the
    # class, and a traced run fails without a span: every adaptation step
    # contracts all its terms in one accumulate_bilinear_grad call, and a
    # GSM step adds its log-det part in one accumulate_logdet_grad call
    calls = {"accumulate_bilinear_grad": 0, "accumulate_logdet_grad": 0}
    for attr in calls:
        real = getattr(Preconditioner, attr)

        def counted(self, *args, attr=attr, real=real):
            calls[attr] += 1
            return real(self, *args)

        monkeypatch.setattr(Preconditioner, attr, functools.wraps(real)(counted))
    model = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))
    state = AdaptState(make_preconditioner("dense", 3))
    chains = make_chains(model, CHAINS, seed=6)
    for _ in range(6):
        before = dict(calls)
        sampler.adaptive_step(chains, state, model, 0.3, 4, objective, {})
        assert calls["accumulate_bilinear_grad"] - before["accumulate_bilinear_grad"] == 1
        assert (calls["accumulate_logdet_grad"] - before["accumulate_logdet_grad"]
                == (objective == "gsm"))


@pytest.mark.parametrize("kind", KINDS)
def test_objective_gradient_map_calls(kind, monkeypatch):
    # the factor maps one gradient makes on a 4-row block, counted through
    # the class attributes the tracer wraps.  C^T x for the endpoint's
    # x = h^2 xi + (L h^2 / 2) g_0 is applied once, so an ESJD or L2HMC
    # gradient makes 3 rmatvec calls (x, the jump, g_L) and GSM 2 (x, g_L);
    # GSM reads mu from its draws and applies C to nothing itself.  The
    # banded contraction adds one rmatvec and one matvec call.
    rng = np.random.default_rng(KINDS.index(kind))
    d, h, L = 5, 0.3, 4
    model = gaussian_target(covariance=np.exp(rng.normal(0.0, 0.5, d)))
    precond = Preconditioner(kind, d, rng.normal(0.0, 0.2, n_params(kind, d)))
    traj = trajectory_reparam(rng.standard_normal((4, d)), rng.standard_normal((4, d)),
                              h, L, precond, model)
    draws = [roulette_pass(MidpointOperator(traj.midpoint[i], precond, model, h, L), d, rng)
             for i in range(4)]
    state = AdaptState(precond)
    state.lambda_ma = 1.3
    calls = {"matvec": 0, "rmatvec": 0}
    for attr in calls:
        real = getattr(Preconditioner, attr)

        def counted(self, w, attr=attr, real=real):
            calls[attr] += 1
            return real(self, w)

        monkeypatch.setattr(Preconditioner, attr, functools.wraps(real)(counted))
    banded = kind == "banded"
    for gradient, rmatvec in (
            (lambda: gsm_gradient(traj, draws, penalty_slopes(draws, state), state, precond), 2),
            (lambda: esjd_gradient(traj, precond), 3),
            (lambda: l2hmc_gradient(traj, jump_value(traj), state, precond), 3)):
        calls.update(matvec=0, rmatvec=0)
        gradient()
        assert calls == {"matvec": banded, "rmatvec": rmatvec + banded}
