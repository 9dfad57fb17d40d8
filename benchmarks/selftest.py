"""Show that every check in checks.py accepts a right answer and rejects a
wrong one, on small inputs whose truth is known, and that the targets the
checks rebuild match the program's presets.

    python3 benchmarks/selftest.py

Prints one line per case and exits 1 if any check misjudges its case.
"""

import configparser
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402


def _gaussian_draws(rng, mean, cov, chains=4, n=1000):
    L = np.linalg.cholesky(cov)
    return mean + rng.standard_normal((chains, n, len(mean))) @ L.T


def cases(rng):
    """(name, expected verdict, (ok, detail)) for each case."""
    cov = checks.correlated_covariance(8)
    draws = _gaussian_draws(rng, np.zeros(8), cov)
    ess = np.full(8, draws.shape[0] * draws.shape[1], dtype=float)
    yield "moments, true covariance", True, checks.check_gaussian_moments(draws, ess, cov)
    yield "moments, covariance x 1.5", False, checks.check_gaussian_moments(draws, ess, 1.5 * cov)
    shifted = draws + 0.2 * np.sqrt(np.diag(cov))
    yield "moments, mean shifted 0.2 sd", False, checks.check_gaussian_moments(shifted, ess, cov)

    chol = np.linalg.cholesky(cov)
    cond = checks.preconditioned_condition(chol, cov)
    yield "condition, C = chol(cov)", True, checks.check_condition_drop(chol, cov, cond)
    eye = np.eye(8)
    before = checks.preconditioned_condition(eye, cov)
    yield "condition, C = I", False, checks.check_condition_drop(eye, cov, before)
    yield "condition, misreported", False, checks.check_condition_drop(chol, cov, 1.01 * cond)

    S = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 0.5]])
    a = np.array([1.0, -2.0, 0.5])
    q = _gaussian_draws(rng, a, S)
    grads = (q - a) @ np.linalg.inv(S)
    yield "Stein, exact gradient", True, checks.check_stein(q, grads, a)
    yield "Stein, gradient + 0.1", False, checks.check_stein(q, grads + 0.1, a)
    yield "Stein, gradient x 1.2", False, checks.check_stein(q, 1.2 * grads, a)
    wide = _gaussian_draws(rng, a, 1.5 * S)
    yield "Stein, draws from 1.5 S", False, checks.check_stein(
        wide, (wide - a) @ np.linalg.inv(S), a)

    ess3 = np.full(3, q.shape[0] * q.shape[1], dtype=float)
    yield "mean, true reference", True, checks.check_posterior_mean(q, ess3, a, S)
    yield "mean, reference + 0.2 sd", False, checks.check_posterior_mean(
        q, ess3, a + 0.2 * np.sqrt(np.diag(S)), S)

    X, y = checks.logistic_data(400, 3, data_seed=1)
    mode, lcov = checks.laplace_fit(X, y)
    corrected = checks.laplace_mean(X, y, mode, lcov)
    is_mean = _importance_mean(rng, X, y, mode, lcov)
    gap_mode = np.max(np.abs(mode - is_mean) / np.sqrt(np.diag(lcov)))
    gap_corr = np.max(np.abs(corrected - is_mean) / np.sqrt(np.diag(lcov)))
    yield "Laplace correction beats the mode", True, (
        gap_corr < 0.5 * gap_mode,
        f"max gap to importance sampling {gap_corr:.3f} sd, mode alone {gap_mode:.3f} sd")

    yield "mixing, within limits", True, checks.check_mixing(400.0, 1.01, 100, 1.1)
    yield "mixing, ESS below floor", False, checks.check_mixing(40.0, 1.01, 100, 1.1)
    yield "mixing, R-hat above ceiling", False, checks.check_mixing(400.0, 1.3, 100, 1.1)


def _importance_mean(rng, X, y, mode, cov, draws=200000):
    Q = mode + rng.standard_normal((draws, mode.size)) @ np.linalg.cholesky(cov).T
    T = Q @ X.T
    r = Q - mode
    logw = (-np.sum(np.logaddexp(0.0, T) - y * T, axis=1) - 0.5 * np.sum(Q * Q, axis=1)
            + 0.5 * np.sum((r @ np.linalg.inv(cov)) * r, axis=1))
    w = np.exp(logw - logw.max())
    return (w / w.sum()) @ Q


def preset_cases(rng):
    """The rebuilt targets against the program's presets, as each workload
    configures them."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from ehmc import cli

    for name in sorted(os.listdir(os.path.join(HERE, "workloads"))):
        path = os.path.join(HERE, "workloads", name)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        run, target = parser["run"], parser["target"]
        model = cli.build_model(cli.parse_config(path, {"out": os.path.join(HERE, "_runs")}))
        Q = rng.standard_normal((3, model.dim)) * 0.3
        if run["target"] == "correlated":
            cov = checks.correlated_covariance(int(target["grid_points"]))
            ours = Q @ np.linalg.inv(cov)
        elif run["target"] == "logistic":
            X, y = checks.logistic_data(int(target["n"]), int(target["d"]),
                                        int(target["data_seed"]))
            ours = checks.logistic_grad(X, y, Q)
        else:
            y, precision, mu = checks.cox_data(int(target["n"]), int(target["data_seed"]))
            Q = Q + mu
            ours = checks.cox_grad(y, precision, mu, Q)
        theirs = np.array([model.grad(q) for q in Q])
        err = np.max(np.abs(ours - theirs)) / np.max(np.abs(theirs))
        yield f"preset {name}: rebuilt gradient", True, (err < 1e-8, f"max relative gap {err:.1e}")


def main():
    rng = np.random.default_rng(20211028)
    bad = 0
    for name, expected, (ok, detail) in list(cases(rng)) + list(preset_cases(rng)):
        right = ok == expected
        bad += not right
        verdict = "accepts" if ok else "rejects"
        print(f"{'ok  ' if right else 'BAD '} {name}: {verdict} ({detail})")
    print(f"{bad} misjudged case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
