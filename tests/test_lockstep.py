"""The adaptive step moves its chains in lockstep as one (k, d) block; it
must match the one-chain-at-a-time reference step bit for bit."""

import re

import numpy as np
import pytest

from ehmc import sampler
from ehmc.integrator import trajectory_reparam
from ehmc.objective import AdaptState
from ehmc.precond import make_preconditioner
from ehmc.sampler import OBJECTIVES, adaptive_step, make_chains
from ehmc.targets import (
    TargetModel,
    correlated_gaussian,
    cox_target,
    gaussian_target,
    logistic_target,
    prepare_design,
    simulate_cox_data,
    simulate_logistic_data,
)

from _oracles import adaptive_step_per_chain, hazard_model, logged_model


def logistic_model():
    X, y = simulate_logistic_data(60, 3, seed=1)
    return logistic_target(prepare_design(X), y)


def cox_model():
    _, y = simulate_cox_data(3, seed=2)
    return cox_target(3, y)


# factor kind -> (model builder, h, L); the logistic target memoises its
# curvature per midpoint, so the order of its hvp calls matters
CASES = {
    "diagonal": (logistic_model, 0.15, 4),
    "dense": (lambda: correlated_gaussian(6), 0.3, 5),
    "banded": (cox_model, 0.2, 3),
}

# step-size multipliers cycled over the steps of a run whose h varies
H_SCHEDULE = (1.0, 1.3, 0.7, 1.6, 0.9)


def snapshot(chains, state, model, record):
    starts = []
    for c in chains:
        if c.start is None:
            starts.append(None)
            continue
        assert c.start[0] is c.q and c.start[1] is model
        starts.append((None if c.start[2] is None else c.start[2].tolist(), c.start[3]))
    return {
        "theta": state.precond.theta.tolist(),
        "adam_m": state.adam_m.tolist(),
        "adam_v": state.adam_v.tolist(),
        "scalars": (state.beta, state.gamma, state.lambda_ma, state.skip_count, state.step),
        "positions": [c.q.tolist() for c in chains],
        "counters": [(c.accept_count, c.transition_count, c.divergence_count,
                      repr(float(c.last_delta))) for c in chains],
        "record": {k: repr(float(v)) for k, v in record.items()},
        "start": starts,
    }


def run_side(step_fn, base, kind, objective, h_varies, h, L, steps, n_chains):
    """Snapshots and target-evaluation logs after every adaptive step."""
    model, log = logged_model(base)
    state = AdaptState(make_preconditioner(kind, base.dim))
    chains = make_chains(model, n_chains, seed=5)
    out = []
    for t in range(steps):
        for calls in log.values():
            calls.clear()
        rec = {}
        step_h = h * H_SCHEDULE[t % len(H_SCHEDULE)] if h_varies else h
        step_fn(chains, state, model, step_h, L, objective, rec)
        out.append((snapshot(chains, state, model, rec),
                    {name: list(calls) for name, calls in log.items()}))
    return out


def assert_lockstep_matches(base, kind, objective, h_varies, h, L, steps=8, n_chains=3):
    block = run_side(adaptive_step, base, kind, objective, h_varies, h, L, steps, n_chains)
    reference = run_side(adaptive_step_per_chain, base, kind, objective, h_varies, h, L,
                         steps, n_chains)
    for t, ((snap, log), (ref_snap, ref_log)) in enumerate(zip(block, reference)):
        assert snap == ref_snap, f"state differs after step {t}"
        # the same evaluation points; Hessian-vector products also in the
        # same order, so a per-midpoint memo sees the same sequence
        for name in ("grad", "potential"):
            assert sorted(log[name]) == sorted(ref_log[name]), f"{name} at step {t}"
        assert log["hvp"] == ref_log["hvp"], f"hvp at step {t}"
    return block


@pytest.mark.parametrize("h_varies", [False, True])
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", sorted(CASES))
def test_lockstep_matches_per_chain(kind, objective, h_varies):
    build, h, L = CASES[kind]
    assert_lockstep_matches(build(), kind, objective, h_varies, h, L)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", sorted(CASES))
def test_lockstep_matches_through_failures(kind, objective, monkeypatch):
    # mid-trajectory divergences of single rows, updates skipped for
    # failed roulette passes, and mixed truncation levels within one step
    model, h, L, steps, n_chains = hazard_model(), 0.45, 5, 14, 4
    blocks, passes, failures = [], [], []
    real_trajectory, real_pass = sampler.trajectory_reparam, sampler.roulette_pass

    def recording_trajectory(q0, *args, **kwargs):
        blocks.append(real_trajectory(q0, *args, **kwargs))
        passes.append([])
        return blocks[-1]

    def recording_pass(*args, **kwargs):
        try:
            draw = real_pass(*args, **kwargs)
        except FloatingPointError:
            failures.append(1)
            raise
        passes[-1].append(draw.n_terms)
        return draw

    monkeypatch.setattr(sampler, "trajectory_reparam", recording_trajectory)
    monkeypatch.setattr(sampler, "roulette_pass", recording_pass)
    seen = run_side(adaptive_step, model, kind, objective, False, h, L, steps, n_chains)
    monkeypatch.undo()
    # some step lost a row after its start point while other rows went on
    assert any(t.live.any() and any(t.grads[0, i].any() for i in np.flatnonzero(~t.live))
               for t in blocks)
    if objective == "gsm":
        # updates skipped exactly for the failed roulette passes (the pass
        # checks every hvp of a GSM step, so a gradient after a pass that
        # went through is finite), other updates taken; truncation levels
        # mixed within a step
        skipped, updates = seen[-1][0]["scalars"][3:5]
        assert skipped == len(failures) > 0 and updates > 0
        assert any(len(set(levels)) > 1 for levels in passes)
    assert_lockstep_matches(model, kind, objective, False, h, L, steps, n_chains)


@pytest.mark.parametrize("objective", ["gsm", "esjd", "l2hmc"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_lockstep_matches_through_non_finite_gradients(kind, objective, monkeypatch):
    # the last entry of each gradient row whose chain drew a positive first
    # velocity entry is made NaN, on the block and on the one-row blocks
    # alike: those rows are skipped and counted, the others averaged
    name = f"{objective}_gradient"
    real = getattr(sampler, name)
    rows = []

    def poisoned(traj, *args):
        out = real(traj, *args)
        bad = traj.v[:, 0] > 0.0
        out[bad, -1] = np.nan
        rows.append((int(bad.sum()), bad.size))
        return out

    monkeypatch.setattr(sampler, name, poisoned)
    build, h, L = CASES[kind]
    block = assert_lockstep_matches(build(), kind, objective, False, h, L)
    skipped, updates = block[-1][0]["scalars"][3:5]
    assert skipped > 0 and updates > 0
    assert any(0 < bad < size for bad, size in rows)


@pytest.mark.parametrize("g", [0.5, [0.5], [0.5, 0.5]], ids=["scalar", "one entry", "d-1"])
def test_block_refuses_wrong_shape_gradient(g):
    # a start gradient, evaluated or given, must be (d,) for a block and for
    # one chain: its row of grads would take a scalar or a (1,) by
    # broadcasting and integrate on
    base = gaussian_target(covariance=np.ones(3))
    model = TargetModel(dim=3, potential=base.potential, grad=lambda q: g, hvp=base.hvp)
    message = re.escape(f"gradient has shape {np.shape(g)}, expected (3,)")
    rng = np.random.default_rng(0)
    q0, v = rng.standard_normal((2, 2, 3))
    pc = make_preconditioner("diagonal", 3)
    with pytest.raises(ValueError, match=message):
        trajectory_reparam(q0, v, 0.1, 2, pc, model)
    with pytest.raises(ValueError, match=message):
        trajectory_reparam(q0[0], v[0], 0.1, 2, pc, base, g0=g, u0=0.0)
    with pytest.raises(ValueError, match=message):
        trajectory_reparam(q0, v, 0.1, 2, pc, base, [base.grad(q0[0]), g], [None, None])
    state = AdaptState(make_preconditioner("diagonal", 3))
    with pytest.raises(ValueError, match=message):
        adaptive_step(make_chains(model, 2, seed=0), state, model, 0.1, 2)
