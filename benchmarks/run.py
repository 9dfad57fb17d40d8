"""Benchmark of ehmc: adaptation and sampling throughput, median ESS per
second and per gradient, set-up time and memory, per-layer costs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are the INI files in
benchmarks/workloads/ (each also runs as ``ehmc --config FILE``).  Every
experiment runs in its own process (worker.py) with one BLAS thread.
Timings are normalised for host drift by host-speed readings taken
among the measured work (hostspeed.py); README.md explains how.

--trace 0: SETUP_RUNS processes that stop at the first transition, then
one experiment per EXPERIMENT_SECONDS of --seconds (seeds 100 N + k).
Prints the end-to-end metrics, each the median over the experiments.
--trace 1: one untraced and one traced experiment at seed 100 N.  Prints
the per-layer metrics of the traced one and its overhead.

Either way, the outputs of every experiment are checked (checks.py) and
the last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  Operations are chain transitions; failed
ones are the divergent transitions the sampler counts.  The exit code is
0 when a result is printed, 1 otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import configparser
import json
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402

# min_ess / max_rhat: floor and ceiling on the run's min ESS and max split
# R-hat, set well outside the values seen over seeds 0-9 (README.md).
WORKLOADS = {
    "correlated-dense-gsm": {"min_ess": 30, "max_rhat": 1.2},
    "logistic-diagonal-gsm": {"min_ess": 500, "max_rhat": 1.1},
    "cox-banded-esjd": {"min_ess": 10, "max_rhat": 1.5},
}
SETUP_RUNS = 3
EXPERIMENT_SECONDS = 25
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def workload_config(name):
    path = os.path.join(HERE, "workloads", f"{name}.ini")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return path, parser


def spawn(ini, seed, out, mode, deadline):
    """Run worker.py to completion and return its result.json."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--config", ini,
           "--seed", str(seed), "--out", out, "--mode", mode]
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        raise BenchError("out of time before starting an experiment")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} experiment (seed {seed}) exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} experiment (seed {seed}) exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def phase_rate(phase, chains):
    """Host-normalised chain-steps per second of one phase: the median over
    its blocks of the mean CPU time per step, each block's times scaled by
    REFERENCE_S over the mean of the host-speed readings taken within it.

    A slowdown that covers fewer than half of the blocks does not move the
    median; work that grows along the phase does, because with a per-step
    cost rising steadily the median block is the mean block.
    """
    steps = np.array(phase["step_cpu"])
    starts = phase["block_starts"] + [len(steps)]
    at = np.array([i for i, _ in phase["readings"]])
    speed = np.array([r for _, r in phase["readings"]])
    per_step = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        inside = (at >= lo) & (at < hi)
        per_step.append(steps[lo:hi].mean() * hostspeed.REFERENCE_S / speed[inside].mean())
    return chains / float(np.median(per_step))


def normalised_seconds(result):
    """Host-normalised time from the first transition to the written
    outputs: both phases at their normalised rates, plus the diagnostics
    and output writing after the last transition."""
    chains = result["chains"]
    phases = sum(chains * len(result[p]["step_cpu"]) / phase_rate(result[p], chains)
                 for p in ("adapt", "sample"))
    last_reading = result["sample"]["readings"][-1][1]
    return phases + result["tail_cpu_s"] * hostspeed.REFERENCE_S / last_reading


def wall_rate(phase, chains):
    return chains * len(phase["step_cpu"]) / (phase["wall"][1] - phase["wall"][0])


def verify(name, parser, out, result):
    """Run the workload's checks on one experiment; return (ok, the
    summary.csv row, one line per check)."""
    limits = WORKLOADS[name]
    o = checks.load_outputs(out)
    s = o["summary"]
    run, target = parser["run"], parser["target"]
    chains, steps = int(run["chains"]), int(run["sample_steps"])
    results = []
    shape_ok = o["draws"].shape[:2] == (chains, steps)
    results.append((shape_ok, f"draws {o['draws'].shape}"))
    results.append(checks.check_mixing(float(s["min_ess"]), float(s["max_rhat"]),
                                       limits["min_ess"], limits["max_rhat"]))
    draws = o["draws"]
    if run["target"] == "correlated":
        cov = checks.correlated_covariance(int(target["grid_points"]))
        results.append(checks.check_gaussian_moments(draws, o["ess"], cov))
        C = checks.dense_factor(o["theta"], cov.shape[0])
        results.append(checks.check_condition_drop(C, cov, float(s["cond_number"])))
    elif run["target"] == "logistic":
        X, y = checks.logistic_data(int(target["n"]), int(target["d"]),
                                    int(target["data_seed"]))
        mode, cov = checks.laplace_fit(X, y)
        grads = checks.logistic_grad(X, y, draws.reshape(-1, X.shape[1])).reshape(draws.shape)
        results.append(checks.check_stein(draws, grads, mode))
        results.append(checks.check_posterior_mean(
            draws, o["ess"], checks.laplace_mean(X, y, mode, cov), cov))
    elif run["target"] == "cox":
        y, precision, mu = checks.cox_data(int(target["n"]), int(target["data_seed"]))
        grads = checks.cox_grad(y, precision, mu, draws.reshape(-1, y.size)).reshape(draws.shape)
        results.append(checks.check_stein(draws, grads, mu))
    ok = all(r[0] for r in results)
    return ok, o["summary"], ["  " + ("ok   " if r[0] else "FAIL ") + r[1] for r in results]


def experiment_metrics(result, summary):
    chains = result["chains"]
    median_ess = float(summary["median_ess"])
    return {
        "setup_s": result["setup_s"],
        "adapt_steps_per_s": phase_rate(result["adapt"], chains),
        "sample_steps_per_s": phase_rate(result["sample"], chains),
        "median_ess_per_s": median_ess / normalised_seconds(result),
        "median_ess_per_kgrad": median_ess / (result["gradient_equivalents"] / 1000.0),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def describe(k, seed, result, summary, m):
    chains = result["chains"]
    ess = float(summary["median_ess"])
    return (
        f"experiment {k} seed {seed}: adapt {m['adapt_steps_per_s']:.1f}/s "
        f"(whole phase, wall clock {wall_rate(result['adapt'], chains):.1f}/s), "
        f"sample {m['sample_steps_per_s']:.1f}/s "
        f"(whole phase, wall clock {wall_rate(result['sample'], chains):.1f}/s), "
        f"median ESS/s {m['median_ess_per_s']:.3f} "
        f"(wall clock {ess / result['transition_to_output_s']:.3f}), "
        f"median ESS {ess:.1f}, min ESS {float(summary['min_ess']):.1f}, "
        f"max R-hat {float(summary['max_rhat']):.4f}, divergences {summary['divergences']}, "
        f"gradient equivalents {result['gradient_equivalents']}"
    )


UNITS = {
    "setup_s": "s", "adapt_steps_per_s": "1/s", "sample_steps_per_s": "1/s",
    "median_ess_per_s": "1/s", "median_ess_per_kgrad": "1/kgrad", "peak_rss_mb": "MB",
}


def layer_metrics(result, untraced, run):
    """Per-layer metrics of one traced experiment."""
    spans = collections.defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
    for e in result["spans"]:
        rec = spans[e["name"]]
        rec[0] += e["calls"]
        rec[1] += e["s"]
        rec[2] += e["self_s"]
    expected = {"targets.grad", "targets.potential", "precond.maps", "precond.param_grad",
                "integrator.trajectory", "objective.gradient", "objective.update",
                "sampler.adapt_step", "sampler.transition", "diagnostics.report",
                "cli.build_model", "cli.emit"}
    if run["objective"] == "gsm":
        expected |= {"targets.hvp", "entropy.roulette"}
    if run["target"] in ("correlated", "anisotropic", "gaussian_iso"):
        expected.add("diagnostics.condition")
    silent = sorted(n for n in expected if spans[n][0] == 0)
    if silent:
        raise BenchError("traced run: wrapping points that never fired: " + ", ".join(silent))

    def calls(n):
        return spans[n][0]

    def incl(n):
        return spans[n][1]

    def self_s(n):
        return spans[n][2]

    transitions = calls("sampler.transition")
    adapt_chain_steps = calls("sampler.adapt_step") * result["chains"]
    roulette = result["roulette"]
    summary = result["summary"]
    values = {
        "targets.grad.calls": (calls("targets.grad"), "count"),
        "targets.grad.s": (incl("targets.grad"), "s"),
        "targets.hvp.calls": (calls("targets.hvp"), "count"),
        "targets.hvp.s": (incl("targets.hvp"), "s"),
        "targets.potential.calls": (calls("targets.potential"), "count"),
        "targets.potential.s": (incl("targets.potential"), "s"),
        "targets.grads_per_transition": (calls("targets.grad") / transitions, "1/transition"),
        "targets.potentials_per_transition": (calls("targets.potential") / transitions,
                                              "1/transition"),
        "targets.hvps_per_adapt_step": (calls("targets.hvp") / adapt_chain_steps, "1/chain-step"),
        "precond.maps.calls": (calls("precond.maps"), "count"),
        "precond.maps.s": (incl("precond.maps"), "s"),
        "precond.param_grad.calls": (calls("precond.param_grad"), "count"),
        "precond.param_grad.s": (incl("precond.param_grad"), "s"),
        "integrator.trajectory.calls": (calls("integrator.trajectory"), "count"),
        "integrator.trajectory.self_s": (self_s("integrator.trajectory"), "s"),
        "entropy.roulette.calls": (calls("entropy.roulette"), "count"),
        "entropy.roulette.self_s": (self_s("entropy.roulette"), "s"),
        "entropy.roulette.terms_mean": (roulette["terms"] / max(roulette["passes"], 1), "count"),
        "entropy.roulette.clamps": (roulette["clamps"], "count"),
        "objective.gradient.calls": (calls("objective.gradient"), "count"),
        "objective.gradient.self_s": (self_s("objective.gradient"), "s"),
        "objective.update.s": (incl("objective.update"), "s"),
        "objective.skipped_updates": (result["skip_count"], "count"),
        "sampler.adapt_step.self_s": (self_s("sampler.adapt_step"), "s"),
        "sampler.transition.self_s": (self_s("sampler.transition"), "s"),
        "sampler.divergences": (int(summary["divergences"]), "count"),
        "sampler.acceptance": (float(summary["acceptance"]), "ratio"),
        "diagnostics.report.s": (incl("diagnostics.report"), "s"),
        "diagnostics.condition.s": (incl("diagnostics.condition"), "s"),
        "cli.build_model.s": (incl("cli.build_model"), "s"),
        "cli.emit.s": (incl("cli.emit"), "s"),
        "cli.emit.bytes": (result["emit_bytes"], "bytes"),
        "trace.overhead_pct": (100.0 * (normalised_seconds(result)
                                        / normalised_seconds(untraced) - 1.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ehmc", "__init__.py")):
        print(f"error: no ehmc package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    ini, parser = workload_config(args.workload)
    run = parser["run"]
    work = os.path.join(HERE, "_runs", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    correct = True
    attempted = failed = 0
    try:
        if args.trace:
            seed = 100 * args.seed
            plan = [(seed, "run"), (seed, "trace")]
            setups = []
        else:
            n = max(1, args.seconds // EXPERIMENT_SECONDS)
            plan = [(100 * args.seed + k, "run") for k in range(n)]
            setups = [spawn(ini, 100 * args.seed, os.path.join(work, f"setup{k}"), "setup",
                            deadline) for k in range(SETUP_RUNS)]
        per_exp = []
        results = []
        for k, (seed, mode) in enumerate(plan):
            out = os.path.join(work, f"e{k}")
            result = spawn(ini, seed, out, mode, deadline)
            ok, summary, lines = verify(args.workload, parser, out, result)
            result["summary"] = summary
            m = experiment_metrics(result, summary)
            print(describe(k, seed, result, summary, m) + ("" if mode == "run" else " [traced]"))
            print("\n".join(lines))
            correct = correct and ok
            attempted += result["transitions"]
            failed += int(summary["divergences"])
            per_exp.append(m)
            results.append(result)
        if args.trace:
            metrics = layer_metrics(results[1], results[0], run)
            trace_dir = os.path.join(HERE, "_traces")
            os.makedirs(trace_dir, exist_ok=True)
            with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
                json.dump({"spans": results[1]["spans"], "metrics": metrics}, fh, indent=1)
        else:
            setups += results
            print("set-up times (normalised / wall clock): " + ", ".join(
                f"{r['setup_s']:.3f}/{r['setup_wall_s']:.3f}" for r in setups) + " s")
            metrics = {
                name: {"value": statistics.median([m[name] for m in per_exp]), "unit": unit}
                for name, unit in UNITS.items()
            }
            metrics["setup_s"]["value"] = statistics.median(r["setup_s"] for r in setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
