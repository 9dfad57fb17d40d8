"""Hooks that the benchmark installs around ehmc's public functions.

Nothing here edits the package: every hook replaces a module attribute,
a class attribute or a model's callable with a wrapper, so the package's
own code paths run unchanged underneath.

``Probe`` is the light hook of the measured (untraced) runs.  It records
the CPU time of every adaptation step and every sampling step,
host-speed readings (hostspeed.py) among the steps, the time of the
first transition, and gradient / Hessian-vector-product counts.  Its
cost is a few attribute lookups per call, against milliseconds per
transition; the readings take about 5 ms every 0.15 s, between steps.

``Tracer`` is the traced run's hook.  It opens a span around each call at
a layer boundary and keeps, per (parent span, span) pair, the call count,
the inclusive time and the self time (inclusive time minus the time of
its child spans).  Spans are aggregated in memory, not stored one by one:
a traced run makes millions of them.
"""

import functools
import time

import numpy as np

import hostspeed


BLOCKS = 16
READING_SPACING_S = 0.15


class Phase:
    """Per-step CPU times of one phase, with host-speed readings between
    steps: one before each of BLOCKS contiguous blocks of steps, one
    whenever READING_SPACING_S of CPU time has passed since the last, and
    one after the last step."""

    def __init__(self, steps):
        self.steps = steps
        self.block_starts = [int(b[0]) for b in np.array_split(np.arange(steps), BLOCKS)
                             if len(b)]
        self._starts = set(self.block_starts)
        self.step_cpu = []
        self.readings = []  # (index of the next step, reference CPU seconds)
        self.wall = [None, None]  # monotonic start of the first step, end of the last
        self.closed_cpu = None  # process time after the last reading
        self._start = None
        self._last_reading = 0.0

    def _read(self):
        self.readings.append((len(self.step_cpu), hostspeed.reading()))
        self._last_reading = time.process_time()

    def begin(self):
        if (len(self.step_cpu) in self._starts
                or time.process_time() - self._last_reading >= READING_SPACING_S):
            self._read()
        if self.wall[0] is None:
            self.wall[0] = time.monotonic()
        self._start = time.process_time()

    def end(self):
        self.step_cpu.append(time.process_time() - self._start)
        if len(self.step_cpu) == self.steps:
            self.wall[1] = time.monotonic()
            self._read()
            self.closed_cpu = time.process_time()

    def dump(self):
        return {"block_starts": self.block_starts, "step_cpu": self.step_cpu,
                "readings": self.readings, "wall": self.wall}


class Probe:
    """Phase timings and target-evaluation counts for one experiment."""

    def __init__(self, chains, adapt_steps, sample_steps):
        self.chains = chains
        # (time.monotonic(), time.process_time()); the monotonic clock is
        # comparable across processes
        self.first_transition = None
        self.setup_reading = None
        self.adapt = Phase(adapt_steps)
        self.sample = Phase(sample_steps)
        self.grads = 0
        self.hvps = 0
        self.hvp_inner_grads = 0
        self._in_adapt = False
        self._in_hvp = False
        self._sample_calls = 0

    def mark_first_transition(self):
        """Time the start of the first transition, then take a host-speed
        reading for the set-up time."""
        self.first_transition = (time.monotonic(), time.process_time())
        self.setup_reading = hostspeed.reading(repeats=3)

    def install(self, sampler):
        adaptive_step = sampler.adaptive_step
        hmc_transition = sampler.hmc_transition
        adapt, sample, chains = self.adapt, self.sample, self.chains

        @functools.wraps(adaptive_step)
        def adapt_hook(*args, **kwargs):
            if self.first_transition is None:
                self.mark_first_transition()
            adapt.begin()
            self._in_adapt = True
            try:
                return adaptive_step(*args, **kwargs)
            finally:
                self._in_adapt = False
                adapt.end()

        @functools.wraps(hmc_transition)
        def transition_hook(*args, **kwargs):
            if self.first_transition is None:
                self.mark_first_transition()
            if self._in_adapt:
                return hmc_transition(*args, **kwargs)
            if self._sample_calls % chains == 0:
                sample.begin()
            out = hmc_transition(*args, **kwargs)
            self._sample_calls += 1
            if self._sample_calls % chains == 0:
                sample.end()
            return out

        sampler.adaptive_step = adapt_hook
        sampler.hmc_transition = transition_hook

    def count_model(self, model):
        """Count gradient-equivalent evaluations on a built TargetModel.

        An hvp call counts one gradient, except the finite-difference
        fallback, whose inner grad calls are counted instead.
        """
        grad, hvp = model.grad, model.hvp

        def counted_grad(q):
            if self._in_hvp:
                self.hvp_inner_grads += 1
            else:
                self.grads += 1
            return grad(q)

        def counted_hvp(q, w):
            self._in_hvp = True
            before = self.hvp_inner_grads
            try:
                return hvp(q, w)
            finally:
                self._in_hvp = False
                if self.hvp_inner_grads == before:
                    self.hvps += 1

        model.grad = counted_grad
        model.hvp = counted_hvp

    @property
    def gradient_equivalents(self):
        return self.grads + self.hvps + self.hvp_inner_grads


class Tracer:
    """Aggregated spans keyed by (parent name, name)."""

    def __init__(self):
        self.edges = {}  # (parent, name) -> [calls, inclusive_s, self_s]
        self._stack = []  # [name, child_s] per open span

    def wrap(self, name, fn, on_result=None):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def dump(self):
        return [
            {"parent": p, "name": n, "calls": c, "s": i, "self_s": s}
            for (p, n), (c, i, s) in sorted(self.edges.items())
        ]


class RouletteStats:
    """Truncation levels and clamp counts of the roulette passes."""

    def __init__(self):
        self.passes = 0
        self.terms = 0
        self.clamps = 0

    def __call__(self, draw):
        self.passes += 1
        self.terms += draw.n_terms
        self.clamps += draw.clamp_count


def install_tracer(tracer, modules, roulette_stats):
    """Wrap the layer boundaries of every ehmc module except targets.

    ``sampler`` binds the integrator, entropy and objective functions it
    calls by name at import time, so those are wrapped where sampler
    looks them up.  ``run_experiment`` imports the diagnostics functions
    at call time, so those are wrapped on their own module.
    """
    cli, sampler, precond, diagnostics = (
        modules["cli"], modules["sampler"], modules["precond"], modules["diagnostics"],
    )
    tracer.patch(cli, "build_model", "cli.build_model")
    tracer.patch(cli, "emit_report", "cli.emit")
    cls = precond.Preconditioner
    for attr in ("matvec", "rmatvec", "solve", "solve_t"):
        tracer.patch(cls, attr, "precond.maps")
    for attr in ("accumulate_bilinear_grad", "accumulate_logdet_grad"):
        tracer.patch(cls, attr, "precond.param_grad")
    tracer.patch(sampler, "trajectory_reparam", "integrator.trajectory")
    tracer.patch(sampler, "roulette_pass", "entropy.roulette", roulette_stats)
    for attr in ("gsm_gradient", "esjd_gradient", "l2hmc_gradient"):
        tracer.patch(sampler, attr, "objective.gradient")
    for attr in ("adam_update", "update_beta", "update_gamma", "update_lambda"):
        tracer.patch(sampler, attr, "objective.update")
    tracer.patch(sampler, "adaptive_step", "sampler.adapt_step")
    tracer.patch(sampler, "hmc_transition", "sampler.transition")
    tracer.patch(diagnostics, "build_report", "diagnostics.report")
    tracer.patch(diagnostics, "condition_number", "diagnostics.condition")


def trace_model(tracer, model):
    """Wrap a built TargetModel's potential, gradient and hvp."""
    for attr in ("grad", "hvp", "potential"):
        tracer.patch(model, attr, f"targets.{attr}")
