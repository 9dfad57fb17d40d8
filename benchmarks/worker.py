"""One experiment of one workload, in its own process, through the CLI path.

    python3 benchmarks/worker.py --config benchmarks/workloads/<name>.ini \
        --seed N --out DIR --mode setup|run|trace --spawned T

The path is the one ``ehmc --config`` takes: ``cli.parse_config`` ->
``cli.build_model`` -> ``cli.to_settings`` -> ``sampler.run_experiment``
-> ``cli.emit_report``.  The worker adds hooks from ``tracing.py`` and,
after the outputs are written, saves the draws (``draws.npy``) and its
measurements (``result.json``) beside them for ``run.py`` to check.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the first transition and is
normalised by a host-speed reading taken right after it (hostspeed.py).
Mode ``setup`` stops at the first transition.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _FirstTransition(Exception):
    pass


def _import_ehmc():
    sys.path.insert(0, SRC)
    import ehmc
    from ehmc import cli, diagnostics, precond, sampler

    if not os.path.abspath(ehmc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ehmc imported from {ehmc.__file__}, not from {SRC}")
    return {"cli": cli, "sampler": sampler, "precond": precond, "diagnostics": diagnostics}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)

    modules = _import_ehmc()
    cli, sampler = modules["cli"], modules["sampler"]
    sys.path.insert(0, HERE)
    import hostspeed
    from tracing import Probe, RouletteStats, Tracer, install_tracer, trace_model

    tracer = roulette = None
    if args.mode == "trace":
        tracer, roulette = Tracer(), RouletteStats()
        install_tracer(tracer, modules, roulette)

    config = cli.parse_config(args.config, {"seed": args.seed, "out": args.out})
    model = cli.build_model(config)
    if tracer is not None:
        trace_model(tracer, model)
    probe = Probe(config.chains, *config.effective_steps())
    probe.count_model(model)
    if args.mode == "setup":
        def stop_at_first(*_args, **_kwargs):
            probe.mark_first_transition()
            raise _FirstTransition

        sampler.hmc_transition = stop_at_first
    else:
        probe.install(sampler)
    settings = cli.to_settings(config, model)

    result = {}
    try:
        report = sampler.run_experiment(settings)
    except _FirstTransition:
        report = None
    result["setup_wall_s"] = probe.first_transition[0] - args.spawned
    result["setup_s"] = result["setup_wall_s"] * hostspeed.REFERENCE_S / probe.setup_reading
    if report is not None:
        paths = cli.emit_report(report, args.out, config)
        t_written = time.monotonic(), time.process_time()
        np.save(os.path.join(args.out, "draws.npy"), report.draws)
        result.update(
            transition_to_output_s=t_written[0] - probe.first_transition[0],
            tail_cpu_s=t_written[1] - probe.sample.closed_cpu,
            adapt=probe.adapt.dump(),
            sample=probe.sample.dump(),
            gradient_equivalents=probe.gradient_equivalents,
            transitions=sum(c.transition_count for c in report.extras["chains"]),
            chains=config.chains,
            skip_count=int(report.extras["skip_count"]),
            emit_bytes=sum(os.path.getsize(p) for p in paths),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            result["spans"] = tracer.dump()
            result["roulette"] = {"passes": roulette.passes, "terms": roulette.terms,
                                  "clamps": roulette.clamps}
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
