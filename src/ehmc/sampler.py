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
on a (d,) array, and the roulette pass stays one per chain, each followed
by that chain's H C y product, so a target that memoises per position
sees one midpoint at a time.  Sampling moves each chain on its own.
"""

import json
import time
from dataclasses import dataclass, asdict, field
from typing import Optional

import numpy as np

from .precond import Preconditioner, check_kind, make_preconditioner
from .integrator import trajectory_reparam, DivergenceError
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
    make_adapt_state,
    update_beta,
    update_gamma,
    update_lambda,
)

DIVERGENCE_DELTA = 1e3

OBJECTIVES = ("gsm", "esjd", "l2hmc", "none")


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
        vel_ss, acc_ss, rou_ss = child.spawn(3)
        rng_v = np.random.Generator(np.random.PCG64(vel_ss))
        rng_a = np.random.Generator(np.random.PCG64(acc_ss))
        rng_r = np.random.Generator(np.random.PCG64(rou_ss))
        if init is None:
            q0 = init_scale * rng_v.standard_normal(model.dim)
        else:
            q0 = np.array(init, dtype=float).copy()
            if q0.shape != (model.dim,):
                raise ValueError(f"init: must have length {model.dim}, got {q0.shape}")
        chains.append(ChainState(q=q0, rng_velocity=rng_v, rng_accept=rng_a,
                                 rng_roulette=rng_r))
    return chains


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
    # accept or reject one chain's trajectory (None when integration
    # failed), update its counters and start point; returns the
    # acceptance probability
    if traj is not None and fresh_start:
        chain.start = (chain.q, model, traj.grads[0].copy(), traj.u0)
    delta = np.inf if traj is None else traj.delta
    divergent = not np.isfinite(delta) or delta > DIVERGENCE_DELTA
    a = 0.0 if divergent else traj.accept_prob
    u = chain.rng_accept.uniform()
    chain.transition_count += 1
    chain.last_delta = delta
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

    Divergent proposals (integration failure, non-finite energy error, or
    an error above DIVERGENCE_DELTA) are rejected and counted; rejection
    leaves the position array untouched.  Exactly one velocity draw and
    one acceptance uniform are consumed per call regardless of outcome.
    The gradient and potential at the start come from chain.start when it
    belongs to chain.q and model; an accept replaces them with the
    endpoint's.  After the call chain.q is a read-only array: move a chain
    by assigning a new array to chain.q, not by writing into it.

    Returns (chain, trajectory or None on integration failure, acceptance
    probability).  Given a list of chains, moves them in lockstep as one
    (k, d) block, with per-chain draws, target calls and outcomes equal to
    k separate calls, and returns (chains, block trajectory, list of
    acceptance probabilities).
    """
    if isinstance(chain, ChainState):
        v = chain.rng_velocity.standard_normal(model.dim)
        g0, u0 = _start_point(chain, model)
        try:
            traj = trajectory_reparam(chain.q, v, h, L, precond, model, g0, u0)
        except DivergenceError:
            traj = None
        return chain, traj, _settle(chain, model, traj, g0 is None)
    chains = chain
    v = np.stack([c.rng_velocity.standard_normal(model.dim) for c in chains])
    starts = [_start_point(c, model) for c in chains]
    traj = trajectory_reparam(np.stack([c.q for c in chains]), v, h, L, precond, model,
                              [g0 for g0, _ in starts], [u0 for _, u0 in starts])
    a_vals = [_settle(c, model, traj.row(i) if traj.live[i] else None, g0 is None)
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
    before = sum(c.divergence_count for c in chains)
    _, traj, a_vals = hmc_transition(chains, precond, model, h, L)
    mean_a = float(np.mean(a_vals))
    stats = {"accept": mean_a,
             "divergences": sum(c.divergence_count for c in chains) - before,
             "mu": np.nan, "pen": np.nan}
    live = np.flatnonzero(traj.live)
    traj = traj.rows(live)
    grads = np.zeros((0, precond.theta.size))
    if objective == "gsm":
        kept, draws, h_cy = [], [], []
        for j, i in enumerate(live):
            dl = MidpointOperator(traj.midpoint[j], precond, model, h, L)
            try:
                draw = roulette_pass(dl, model.dim, chains[i].rng_roulette,
                                     cfg.delta_prime, cfg.n_min)
                # H C y right after the pass's own products at this midpoint
                h_cy.append(dl.product(draw.y) if L > 1 else None)
            except FloatingPointError:
                state.skip_count += 1
                continue
            kept.append(j)
            draws.append(draw)
        if kept:
            grads = gsm_gradient(traj.rows(kept), draws, state, precond, h_cy)
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
            stats["pen"] = float(np.mean([penalty_h(mu, cfg.penalty_delta) for mu in mus]))
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
    kind: str = "diagonal"
    h: float = 0.1
    L: int = 5
    objective: str = "gsm"
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
    RunConfig share (h, L, objective, step counts, chains, seed, thin,
    init_scale); each ValueError message starts with the field it names."""
    if run.objective not in OBJECTIVES:
        raise ValueError(f"objective: must be one of {', '.join(OBJECTIVES)}, "
                         f"got {run.objective!r}")
    for name in ("h", "init_scale"):
        if not 0 < getattr(run, name) < np.inf:
            raise ValueError(f"{name}: must be finite and positive, got {getattr(run, name)}")
    if run.L < 1:
        raise ValueError(f"L: must be a positive integer, got {run.L}")
    for name in ("adapt_steps", "sample_steps"):
        if getattr(run, name) < 0:
            raise ValueError(f"{name}: must be nonnegative")
    if run.chains < 1:
        raise ValueError(f"chains: must be at least 1, got {run.chains}")
    if run.seed < 0:
        raise ValueError(f"seed: must be nonnegative, got {run.seed}")
    if run.thin < 1:
        raise ValueError(f"thin: must be at least 1, got {run.thin}")


def run_experiment(settings):
    """Adapt, freeze, sample; return the summary report.

    Phase 1 runs settings.adapt_steps adaptive steps (a no-op kernel-wise
    when the objective is "none").  Phase 2 freezes all parameters and
    records every thin-th position per chain.  Both phases use
    settings.h; only the factor C is learnt.  The report's acceptance
    rate refers to the sampling phase when it is nonempty.
    """
    from .diagnostics import build_report, condition_number

    settings.validate()
    t_start = time.perf_counter()
    model = settings.model
    precond = make_preconditioner(settings.kind, model.dim)
    state = make_adapt_state(precond, settings.adapt_config)
    chains = make_chains(model, settings.chains, settings.seed,
                         settings.init, settings.init_scale)
    mu_trace = []
    for _ in range(settings.adapt_steps):
        rec = {}
        chains, state = adaptive_step(chains, state, model, settings.h, settings.L,
                                      settings.objective, rec)
        if settings.objective == "gsm":
            mu_trace.append(rec["mu"])
    adapt_accepts = sum(c.accept_count for c in chains)
    adapt_trans = sum(c.transition_count for c in chains)
    adapt_divs = sum(c.divergence_count for c in chains)

    kept = [[] for _ in chains]
    for step in range(settings.sample_steps):
        for i, chain in enumerate(chains):
            hmc_transition(chain, state.precond, model, settings.h, settings.L)
            if step % settings.thin == 0:
                kept[i].append(chain.q.copy())
    if settings.sample_steps > 0:
        draws = np.stack([np.stack(rows) for rows in kept])
    else:
        draws = np.zeros((settings.chains, 0, model.dim))
    total_accepts = sum(c.accept_count for c in chains)
    total_trans = sum(c.transition_count for c in chains)
    total_divs = sum(c.divergence_count for c in chains)
    sample_trans = total_trans - adapt_trans
    if sample_trans > 0:
        acceptance = (total_accepts - adapt_accepts) / sample_trans
    elif adapt_trans > 0:
        acceptance = adapt_accepts / adapt_trans
    else:
        acceptance = np.nan
    cond = None
    if model.precision is not None and model.dim <= 1000:
        cond = condition_number(state.precond, model.precision)
    wall = time.perf_counter() - t_start
    extras = {
        "final_precond": state.precond,
        "adapt_state": state,
        "chains": chains,
        "adapt_acceptance": adapt_accepts / adapt_trans if adapt_trans else np.nan,
        "adapt_divergences": adapt_divs,
        "skip_count": state.skip_count,
        "settings": settings,
    }
    return build_report(draws=draws, acceptance_rate=float(acceptance),
                        divergences=int(total_divs),
                        mu_trace=np.asarray(mu_trace, dtype=float),
                        wall_seconds=wall, cond_number=cond, extras=extras)


# -- checkpointing --------------------------------------------------------


def save_checkpoint(path, chains, state, h, meta=None):
    """Snapshot chains plus adaptation state to one npz file.

    RNG bit-generator states are JSON-encoded into a fixed-width ASCII
    string array, so the file loads without pickle; target models are not
    stored (the caller recreates them from its own configuration).
    """
    rng_states = [
        [json.dumps(c.rng_velocity.bit_generator.state),
         json.dumps(c.rng_accept.bit_generator.state),
         json.dumps(c.rng_roulette.bit_generator.state)]
        for c in chains
    ]
    counters = np.array(
        [[c.accept_count, c.transition_count, c.divergence_count] for c in chains],
        dtype=np.int64,
    )
    np.savez(
        path,
        positions=np.stack([c.q for c in chains]),
        last_delta=np.array([c.last_delta for c in chains]),
        counters=counters,
        rng_states=np.array(rng_states, dtype=np.bytes_),
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


def load_checkpoint(path):
    """Rebuild (chains, state, h, meta) from a checkpoint file."""
    with np.load(path, allow_pickle=False) as data:
        positions = data["positions"]
        last_delta = data["last_delta"]
        counters = data["counters"]
        rng_states = data["rng_states"]
        kind = str(data["precond_kind"])
        dim = int(data["precond_dim"])
        theta = data["theta"]
        adam_m = data["adam_m"]
        adam_v = data["adam_v"]
        scalars = data["scalars"]
        config_d = json.loads(str(data["config_json"]))
        meta = json.loads(str(data["meta_json"]))
    for key, value in RETIRED.items():
        old = config_d.pop(key, value)
        if (tuple(old) if isinstance(old, list) else old) != value:
            raise ValueError(f"{key}: checkpoint holds {old!r}, now fixed at {value!r}")
    config = AdaptConfig(**config_d)
    precond = Preconditioner(kind=kind, dim=dim, theta=theta)
    lam = None if np.isnan(scalars[3]) else float(scalars[3])
    state = AdaptState(precond=precond, config=config, beta=float(scalars[0]),
                       gamma=float(scalars[1]), adam_m=adam_m.copy(),
                       adam_v=adam_v.copy(), step=int(scalars[2]),
                       lambda_ma=lam, skip_count=int(scalars[4]))
    chains = []
    for i in range(positions.shape[0]):
        gens = []
        for st in rng_states[i]:
            bg = np.random.PCG64()
            bg.state = json.loads(st)
            gens.append(np.random.Generator(bg))
        chains.append(ChainState(
            q=positions[i].copy(), rng_velocity=gens[0], rng_accept=gens[1],
            rng_roulette=gens[2], accept_count=int(counters[i, 0]),
            transition_count=int(counters[i, 1]),
            divergence_count=int(counters[i, 2]),
            last_delta=float(last_delta[i]),
        ))
    return chains, state, float(scalars[5]), meta
