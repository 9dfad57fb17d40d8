"""Chain driver: HMC transitions, the multi-chain adaptive step, run
orchestration (adapt, freeze, sample) and checkpointing.

The step size h is fixed for the whole run; adaptation learns only the
factor C, whose scale sets the effective step h C.

Every chain owns three RNG substreams (velocity, acceptance uniform,
roulette) spawned from one master seed, so switching the objective on or
off never perturbs the chain path itself.  Updates to the shared
adaptation state happen once per step after all chains have moved, which
makes single-machine runs bit-reproducible.  A chain carries the gradient
and potential at its position, so each transition evaluates the target
only along the new trajectory.

The adaptive step moves its k chains in lockstep: one hmc_transition call
on the list of chains integrates them as one (k, d) block, and the
objective gradients are assembled on the block, with every row getting
the bits of its one-chain computation.  Target calls stay one per chain
on a (d,) array, and the roulette pass stays one per chain, so a target
that memoises per position sees one midpoint at a time.  Sampling moves
each chain on its own.  One divergence rule settles a chain and a block
alike (see hmc_transition).
"""

import json
import math
import time
from dataclasses import dataclass, asdict, field, fields
from typing import Optional

import numpy as np

from .precond import Preconditioner, check_kind, make_preconditioner
from .integrator import trajectory_reparam
from .targets import check_real, check_size
from .entropy import MidpointOperator, roulette_pass, penalty_h
from .objective import (
    RETIRED,
    AdaptConfig,
    AdaptState,
    adam_update,
    esjd_gradient,
    gsm_gradient,
    jump_value,
    l2hmc_gradient,
    update_beta,
    update_gamma,
    update_lambda,
)

DIVERGENCE_DELTA = 1e3

OBJECTIVES = ("gsm", "esjd", "l2hmc", "none")

# a chain's RNG substreams and counters, in the order a checkpoint stores them
STREAMS = ("rng_velocity", "rng_accept", "rng_roulette")
COUNTERS = ("accept_count", "transition_count", "divergence_count")


@dataclass
class ChainState:
    """One chain's position, RNG streams and counters.

    ``start`` is (position array, model, gradient, potential) at the
    position: hmc_transition fills it and makes the array read-only, and
    uses it only while ``q`` is still that same array and the call passes
    that same model, so assigning a new position or passing another model
    forces a fresh evaluation.
    """

    q: np.ndarray
    rng_velocity: np.random.Generator
    rng_accept: np.random.Generator
    rng_roulette: np.random.Generator
    accept_count: int = 0
    transition_count: int = 0
    divergence_count: int = 0
    last_delta: float = 0.0
    start: Optional[tuple] = field(default=None, repr=False, compare=False)


def make_chains(model, n_chains, seed, init=None, init_scale=1.0):
    """Spawn chains with disjoint substreams from one master seed.

    Initial positions come from the velocity stream: init_scale-spread
    standard normals, or copies of an explicit init vector.
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    master = np.random.SeedSequence(seed)
    chains = []
    for child in master.spawn(n_chains):
        rngs = {name: np.random.Generator(np.random.PCG64(ss))
                for name, ss in zip(STREAMS, child.spawn(len(STREAMS)))}
        if init is None:
            q0 = init_scale * rngs["rng_velocity"].standard_normal(model.dim)
        else:
            q0 = np.array(init, dtype=float).copy()
            if q0.shape != (model.dim,):
                raise ValueError(f"init: must have length {model.dim}, got {q0.shape}")
        chains.append(ChainState(q=q0, **rngs))
    return chains


def _totals(chains):
    # each of COUNTERS summed over the chains
    return {name: sum(getattr(c, name) for c in chains) for name in COUNTERS}


def _start_point(chain, model):
    # (gradient, potential) at chain.q from chain.start, or (None, None)
    # after making chain.q a private read-only copy, so the values stored
    # for it later cannot go stale in place
    if chain.start is None or chain.start[0] is not chain.q or chain.start[1] is not model:
        chain.q = np.array(chain.q, dtype=float)
        chain.q.flags.writeable = False
        chain.start = (chain.q, model, None, None)
    return chain.start[2], chain.start[3]


def _settle(chain, model, traj, fresh_start):
    # accept or reject one chain's trajectory, update its counters and its
    # start point (kept when not live); returns the acceptance probability
    if traj.live and fresh_start:
        chain.start = (chain.q, model, traj.grads[0].copy(), traj.u0)
    divergent = not math.isfinite(traj.delta) or traj.delta > DIVERGENCE_DELTA
    a = 0.0 if divergent else traj.accept_prob
    u = chain.rng_accept.uniform()
    chain.transition_count += 1
    chain.last_delta = traj.delta
    if divergent:
        chain.divergence_count += 1
    elif u <= a:
        chain.q = traj.q[traj.L].copy()
        chain.q.flags.writeable = False
        chain.start = (chain.q, model, traj.grads[traj.L].copy(), traj.u_end)
        chain.accept_count += 1
    return a


def hmc_transition(chain, precond, model, h, L):
    """One Metropolis-adjusted leapfrog proposal.

    One divergence rule for a chain and a block: a proposal whose
    trajectory is not live or whose energy error is non-finite or above
    DIVERGENCE_DELTA is rejected and counted, leaving the position array
    and the start point untouched.  Exactly one velocity draw and one
    acceptance uniform are consumed per call regardless of outcome.  The
    gradient and potential at the start come from chain.start when it
    belongs to chain.q and model; an accept replaces them with the
    endpoint's.  After the call chain.q is a read-only array: move a
    chain by assigning a new array to chain.q, not by writing into it.

    Returns (chain, trajectory, acceptance probability).  Given a list of
    chains, moves them in lockstep as one (k, d) block, with per-chain
    draws, target calls and outcomes equal to k separate calls, and
    returns (chains, block trajectory, list of acceptance probabilities).
    """
    if isinstance(chain, ChainState):
        v = chain.rng_velocity.standard_normal(model.dim)
        g0, u0 = _start_point(chain, model)
        traj = trajectory_reparam(chain.q, v, h, L, precond, model, g0, u0)
        return chain, traj, _settle(chain, model, traj, g0 is None)
    chains = chain
    v = np.stack([c.rng_velocity.standard_normal(model.dim) for c in chains])
    starts = [_start_point(c, model) for c in chains]
    traj = trajectory_reparam(np.stack([c.q for c in chains]), v, h, L, precond, model,
                              [g0 for g0, _ in starts], [u0 for _, u0 in starts])
    a_vals = [_settle(c, model, traj.row(i), g0 is None)
              for i, (c, (g0, _)) in enumerate(zip(chains, starts))]
    return chains, traj, a_vals


def adaptive_step(chains, state, model, h, L, objective="gsm", record=None):
    """Advance every chain once, then apply one shared parameter update.

    The chains move in lockstep as one block (see hmc_transition).  GSM
    runs one roulette pass per chain and updates theta, beta, gamma; ESJD
    and L2HMC update theta (and lambda) only; "none" disables all
    adaptation.  Chains whose trajectory failed outright are left out of
    the averages; if no chain produced a usable gradient the parameters
    stay untouched for this step.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    precond = state.precond
    cfg = state.config
    before = _totals(chains)["divergence_count"]
    _, traj, a_vals = hmc_transition(chains, precond, model, h, L)
    mean_a = float(np.mean(a_vals))
    stats = {"accept": mean_a,
             "divergences": _totals(chains)["divergence_count"] - before,
             "mu": np.nan, "pen": np.nan}
    live = np.flatnonzero(traj.live)
    traj = traj.rows(live)
    grads = np.zeros((0, precond.theta.size))
    if objective == "gsm":
        kept, draws = [], []
        for j, i in enumerate(live):
            dl = MidpointOperator(traj.midpoint[j], precond, model, h, L)
            try:
                draw = roulette_pass(dl, model.dim, chains[i].rng_roulette,
                                     cfg.delta_prime, cfg.n_min)
            except FloatingPointError:
                state.skip_count += 1
                continue
            kept.append(j)
            draws.append(draw)
        if kept:
            grads = gsm_gradient(traj.rows(kept), draws, state, precond)
    elif objective == "esjd" and live.size:
        grads = esjd_gradient(traj, precond)
    elif objective == "l2hmc" and live.size:
        jumps = jump_value(traj)
        fresh_lambda = state.lambda_ma is None
        if fresh_lambda:
            update_lambda(state, float(np.mean(jumps)))
        grads = l2hmc_gradient(traj, jumps, state, precond)
    finite = np.isfinite(grads).all(axis=1)
    state.skip_count += int(finite.size - finite.sum())
    if finite.any():
        adam_update(state, np.mean(grads[finite], axis=0))
    if objective == "gsm":
        update_beta(state, mean_a)
        if draws:
            mus = [abs(draw.mu) for draw in draws]
            stats["mu"] = float(np.mean(mus))
            stats["pen"] = float(np.mean([penalty_h(mu, cfg.penalty_delta)[0] for mu in mus]))
            update_gamma(state, stats["pen"])
    elif objective == "l2hmc" and live.size and not fresh_lambda:
        update_lambda(state, float(np.mean(jumps)))
    if record is not None:
        record.update(stats)
    return chains, state


@dataclass
class SamplerSettings:
    """Everything run_experiment needs, independent of any config file."""

    model: object
    objective: str = "gsm"
    kind: str = "diagonal"
    h: float = 0.1
    L: int = 5
    adapt_steps: int = 1000
    sample_steps: int = 1000
    chains: int = 10
    seed: int = 0
    thin: int = 1
    init: Optional[np.ndarray] = None
    init_scale: float = 1.0
    adapt_config: Optional[AdaptConfig] = None

    def validate(self):
        """Range checks of the run fields, then the factor kind and the
        shape of init; each ValueError message starts with the field it
        names."""
        check_run_fields(self)
        check_kind(self.kind)
        if self.init is not None and np.shape(self.init) != (self.model.dim,):
            raise ValueError(f"init: must have length {self.model.dim}, "
                             f"got {np.shape(self.init)}")


def check_run_fields(run):
    """Range checks of the run fields that SamplerSettings and the CLI's
    RunConfig share (h, init_scale, objective, and the integers L, step
    counts, chains, seed, thin); each ValueError starts with its field."""
    if run.objective not in OBJECTIVES:
        raise ValueError(f"objective: must be one of {', '.join(OBJECTIVES)}, "
                         f"got {run.objective!r}")
    for name in ("h", "init_scale"):
        check_real(name, getattr(run, name), 0, math.inf, "()")
    for name, minimum in (("L", 1), ("adapt_steps", 0), ("sample_steps", 0), ("chains", 1),
                          ("seed", 0), ("thin", 1)):
        check_size(name, getattr(run, name), minimum)


def run_experiment(settings):
    """Adapt, freeze, sample; return the summary report.

    Phase 1 runs settings.adapt_steps adaptive steps (a no-op kernel-wise
    when the objective is "none").  Phase 2 freezes all parameters and
    records every thin-th position per chain.  Both phases use
    settings.h; only the factor C is learnt.  The report's acceptance
    rate refers to the sampling phase, or to the adaptation phase when no
    sampling ran.
    """
    from .diagnostics import build_report, condition_number

    settings.validate()
    t_start = time.perf_counter()
    model = settings.model
    precond = make_preconditioner(settings.kind, model.dim)
    state = AdaptState(precond, settings.adapt_config or AdaptConfig())
    chains = make_chains(model, settings.chains, settings.seed,
                         settings.init, settings.init_scale)
    mu_trace = []
    for _ in range(settings.adapt_steps):
        rec = {}
        chains, state = adaptive_step(chains, state, model, settings.h, settings.L,
                                      settings.objective, rec)
        if settings.objective == "gsm":
            mu_trace.append(rec["mu"])
    adapt = _totals(chains)

    kept = [[] for _ in chains]
    for step in range(settings.sample_steps):
        for i, chain in enumerate(chains):
            hmc_transition(chain, state.precond, model, settings.h, settings.L)
            if step % settings.thin == 0:
                kept[i].append(chain.q)
    draws = np.array(kept, dtype=float).reshape(settings.chains, -1, model.dim)
    total = _totals(chains)
    sample = {name: total[name] - adapt[name] for name in COUNTERS}
    phase = sample if sample["transition_count"] else adapt
    acceptance = (phase["accept_count"] / phase["transition_count"]
                  if phase["transition_count"] else np.nan)
    cond = None
    if model.precision is not None and model.dim <= 1000:
        cond = condition_number(state.precond, model.precision)
    wall = time.perf_counter() - t_start
    extras = {"adapt_state": state, "chains": chains, "skip_count": state.skip_count}
    return build_report(draws=draws, acceptance_rate=float(acceptance),
                        divergences=int(total["divergence_count"]),
                        mu_trace=np.asarray(mu_trace, dtype=float),
                        wall_seconds=wall, cond_number=cond, extras=extras)


# -- checkpointing --------------------------------------------------------


def save_checkpoint(path, chains, state, h, meta=None):
    """Snapshot chains plus adaptation state to one npz file.

    RNG bit-generator states are JSON-encoded into a fixed-width ASCII
    string array, so the file loads without pickle; target models are not
    stored (the caller recreates them from its own configuration).
    """
    np.savez(
        path,
        positions=np.stack([c.q for c in chains]),
        last_delta=np.array([c.last_delta for c in chains]),
        counters=np.array([[getattr(c, name) for name in COUNTERS] for c in chains],
                          dtype=np.int64),
        rng_states=np.array([[json.dumps(getattr(c, name).bit_generator.state)
                              for name in STREAMS] for c in chains], dtype=np.bytes_),
        theta=state.precond.theta,
        precond_kind=np.array(state.precond.kind),
        precond_dim=np.array(state.precond.dim),
        adam_m=state.adam_m,
        adam_v=state.adam_v,
        scalars=np.array([state.beta, state.gamma, float(state.step),
                          np.nan if state.lambda_ma is None else state.lambda_ma,
                          float(state.skip_count), h]),
        config_json=np.array(json.dumps(asdict(state.config))),
        meta_json=np.array(json.dumps(meta or {})),
    )


def _generator(state_json):
    # a Generator resumed at a JSON-encoded PCG64 state
    bg = np.random.PCG64()
    bg.state = json.loads(state_json)
    return np.random.Generator(bg)


def load_checkpoint(path):
    """Rebuild (chains, state, h, meta) from a checkpoint file.  An unknown
    setting, a wrong shape or dtype, a non-finite position, theta or Adam
    moment, or a bad scalar is refused with a ValueError naming it first."""
    with np.load(path, allow_pickle=False) as data:
        ck = {key: data[key] for key in data.files}
    config_d = json.loads(str(ck["config_json"]))
    for key, value in RETIRED.items():
        old = config_d.pop(key, value)
        if (tuple(old) if isinstance(old, list) else old) != value:
            raise ValueError(f"{key}: checkpoint holds {old!r}, now fixed at {value!r}")
    unknown = sorted(config_d.keys() - {f.name for f in fields(AdaptConfig)})
    if unknown:
        raise ValueError(f"{unknown[0]}: not an adaptation setting")
    precond = Preconditioner(kind=str(ck["precond_kind"]), dim=int(ck["precond_dim"]),
                             theta=ck["theta"])
    k = ck["positions"].shape[0] if ck["positions"].ndim else 0
    expected = {"positions": ((k, precond.dim), np.floating), "last_delta": ((k,), np.floating),
                "counters": ((k, len(COUNTERS)), np.integer),
                "rng_states": ((k, len(STREAMS)), np.bytes_),
                "adam_m": (precond.theta.shape, np.floating),
                "adam_v": (precond.theta.shape, np.floating), "scalars": ((6,), np.floating)}
    for name, (shape, dtype) in expected.items():
        if ck[name].shape != shape:
            raise ValueError(f"{name}: has shape {ck[name].shape}, expected {shape}")
        if not np.issubdtype(ck[name].dtype, dtype):
            raise ValueError(f"{name}: has dtype {ck[name].dtype}, expected {dtype.__name__}")
    for name in ("theta", "adam_m", "adam_v", "positions"):
        if not np.isfinite(ck[name]).all():
            raise ValueError(f"{name}: has a non-finite entry")
    beta, gamma, step, lam, skips, h = ck["scalars"]
    h = check_real("h", h, 0, math.inf, "()")
    for name, count in (("step", step), ("skip_count", skips)):
        if not (count >= 0 and float(count).is_integer()):
            raise ValueError(f"{name}: must be a nonnegative integer, got {count}")
    lam = None if np.isnan(lam) else check_real("lambda_ma", lam, 0, math.inf, "()",
                                                "must be unset (NaN) or finite and positive")
    state = AdaptState(precond=precond, config=AdaptConfig(**config_d), beta=beta, gamma=gamma,
                       adam_m=ck["adam_m"], adam_v=ck["adam_v"], step=int(step), lambda_ma=lam,
                       skip_count=int(skips))
    chains = [ChainState(q=q.copy(), last_delta=float(delta),
                         **{name: _generator(st) for name, st in zip(STREAMS, states)},
                         **{name: int(n) for name, n in zip(COUNTERS, counts)})
              for q, delta, counts, states in zip(ck["positions"], ck["last_delta"],
                                                  ck["counters"], ck["rng_states"])]
    return chains, state, h, json.loads(str(ck["meta_json"]))
