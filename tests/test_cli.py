"""Configuration parsing, preset registry, output emission, exit codes."""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ehmc import __version__
from ehmc.cli import (
    ConfigError,
    PRESET_PARAMS,
    _fmt,
    build_model,
    main,
    parse_config,
    render_config,
    to_settings,
)
from ehmc.precond import make_preconditioner


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[run]
target = gaussian_iso
h = 0.1
l = 5
out = {out}

[target]
d = 10
"""


# ----------------------------------------------------------------- parsing


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL.format(out=tmp_path)))
    assert cfg.target == "gaussian_iso"
    assert cfg.chains == 10
    assert cfg.objective == "gsm"
    assert cfg.alpha_star == 0.67
    assert cfg.h == 0.1
    assert cfg.L == 5
    assert cfg.target_params["d"] == 10
    assert cfg.target_params["scale"] == 1.0


def test_missing_target_errors():
    with pytest.raises(ConfigError, match="target"):
        parse_config(None, {})


def test_zero_l_names_field(tmp_path):
    path = write_config(tmp_path, f"[run]\ntarget = gaussian_iso\nl = 0\nout = {tmp_path}\n")
    with pytest.raises(ConfigError, match="L"):
        parse_config(path)


def test_unknown_run_key(tmp_path):
    path = write_config(tmp_path, f"[run]\ntarget = gaussian_iso\nstepsize = 0.1\nout = {tmp_path}\n")
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config(path)


def test_unknown_section(tmp_path):
    path = write_config(tmp_path, f"[run]\ntarget = gaussian_iso\nout = {tmp_path}\n\n[plotting]\nx = 1\n")
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(path)


def test_unknown_target_key(tmp_path):
    path = write_config(
        tmp_path, f"[run]\ntarget = gaussian_iso\nout = {tmp_path}\n\n[target]\nbananas = 3\n"
    )
    with pytest.raises(ConfigError, match="bananas"):
        parse_config(path)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        parse_config(None, {"target": "rosenbrock"})


def test_invalid_objective(tmp_path):
    with pytest.raises(ConfigError, match="objective"):
        parse_config(None, {"target": "gaussian_iso", "objective": "nuts",
                            "out": str(tmp_path)})


def test_invalid_numbers():
    with pytest.raises(ConfigError, match="h"):
        parse_config(None, {"target": "gaussian_iso", "h": -0.5})
    with pytest.raises(ConfigError, match="chains"):
        parse_config(None, {"target": "gaussian_iso", "chains": 0})
    with pytest.raises(ConfigError, match="alpha_star"):
        parse_config(None, {"target": "gaussian_iso", "alpha_star": 1.5})


def test_non_numeric_value_in_file(tmp_path):
    path = write_config(tmp_path, f"[run]\ntarget = gaussian_iso\nh = fast\nout = {tmp_path}\n")
    with pytest.raises(ConfigError, match="run.h"):
        parse_config(path)


def test_unreadable_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path/run.ini")


def test_sweep_parsing(tmp_path):
    base = f"[run]\ntarget = gaussian_iso\nout = {tmp_path}\n\n[sweep]\nl_values = %s\n"
    cfg = parse_config(write_config(tmp_path, base % "1..4", "a.ini"))
    assert cfg.sweep_L == (1, 2, 3, 4)
    cfg = parse_config(write_config(tmp_path, base % "1, 3, 7", "b.ini"))
    assert cfg.sweep_L == (1, 3, 7)
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, base % "5..3", "c.ini"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, base % "0,2", "d.ini"))


def test_budget_mode_divides_by_l(tmp_path):
    cfg = parse_config(None, {"target": "gaussian_iso", "adapt_budget": 1000,
                              "sample_budget": 601, "L": 4, "out": str(tmp_path)})
    assert cfg.effective_steps() == (250, 150)
    assert cfg.effective_steps(L=10) == (100, 60)
    settings = to_settings(cfg)
    assert settings.adapt_steps == 250
    assert settings.sample_steps == 150


def test_target_override_parsing(tmp_path):
    cfg = parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path)},
                       {"d": "7", "scale": "2.5"})
    assert cfg.target_params == {"d": 7, "scale": 2.5}


def test_roundtrip_through_render(tmp_path):
    cfg = parse_config(None, {
        "target": "logistic", "objective": "esjd", "precond": "banded",
        "h": 0.07, "L": 3, "adapt_steps": 11, "sample_steps": 22,
        "chains": 4, "seed": 123, "out": str(tmp_path), "rho_beta": 0.01,
        "sweep_L": (2, 4),
    }, {"n": "30", "d": "3"})
    text = render_config(cfg)
    cfg2 = parse_config(write_config(tmp_path, text))
    assert cfg2 == cfg


# ------------------------------------------------------------------ presets


def test_preset_registry_complete():
    assert set(PRESET_PARAMS) == {
        "gaussian_iso", "anisotropic", "correlated", "logistic", "cox", "sv"
    }


def test_anisotropic_preset_default_spread(tmp_path):
    cfg = parse_config(None, {"target": "anisotropic", "out": str(tmp_path)})
    assert cfg.target_params == {"d": 100, "c": 6.0}
    model = build_model(cfg)
    assert model.dim == 100
    variances = 1.0 / np.diag(model.precision)
    assert np.isclose(variances.max(), 1e6, rtol=1e-10)
    assert np.isclose(variances.min(), 1.0, rtol=1e-10)


def test_every_preset_builds(tmp_path):
    small = {
        "gaussian_iso": {"d": "3"},
        "anisotropic": {"d": "4", "c": "2"},
        "correlated": {"grid_points": "5"},
        "logistic": {"n": "20", "d": "3"},
        "cox": {"n": "4"},
        "sv": {"t": "10"},
    }
    for name, params in small.items():
        cfg = parse_config(None, {"target": name, "out": str(tmp_path)}, params)
        model = build_model(cfg)
        assert model.dim >= 1
        q = 0.1 * np.ones(model.dim)
        assert np.isfinite(model.potential(q))
        assert np.all(np.isfinite(model.grad(q)))


def test_cox_runs_start_at_prior_mean(tmp_path):
    cfg = parse_config(None, {"target": "cox", "out": str(tmp_path)}, {"n": "3"})
    settings = to_settings(cfg)
    assert settings.init is not None
    assert settings.init.shape == (9,)


# ----------------------------------------------------------------- emission


def test_fmt_17_digits():
    assert _fmt(1.0 / 3.0) == "0.33333333333333331"
    assert _fmt(None) == "NA"
    assert _fmt(np.nan) == "NA"
    assert _fmt(7) == "7"
    assert _fmt(0.1) == "0.10000000000000001"


def run_main(tmp_path, extra, sub="out"):
    out = tmp_path / sub
    argv = ["--target", "gaussian_iso", "--param", "d=2", "--h", "0.5",
            "--L", "3", "--chains", "2", "--adapt-steps", "20",
            "--sample-steps", "30", "--seed", "7", "--out", str(out)] + extra
    code = main(argv)
    return code, out


def test_main_writes_all_outputs(tmp_path):
    code, out = run_main(tmp_path, [])
    assert code == 0
    for name in ("summary.csv", "per_dim.csv", "mu_trace.csv", "config.echo",
                 "checkpoint.npz"):
        assert (out / name).exists()
    first = (out / "summary.csv").read_text().splitlines()[0]
    assert first == f"# ehmc={__version__} seed=7"
    header, row = (out / "summary.csv").read_text().splitlines()[1:3]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["target"] == "gaussian_iso"
    assert cells["seed"] == "7"
    assert cells["version"] == __version__
    assert cells["divergences"] == "0"
    assert float(cells["acceptance"]) > 0.3
    # config echo parses back to an equivalent run
    cfg = parse_config(str(out / "config.echo"))
    assert cfg.seed == 7
    assert cfg.h == 0.5


def test_main_outputs_deterministic(tmp_path):
    code1, out1 = run_main(tmp_path, [], "a")
    code2, out2 = run_main(tmp_path, [], "b")
    assert code1 == code2 == 0
    for name in ("per_dim.csv", "mu_trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    s1 = (out1 / "summary.csv").read_text().splitlines()
    s2 = (out2 / "summary.csv").read_text().splitlines()
    idx = s1[1].split(",").index("wall_seconds")
    for l1, l2 in zip(s1, s2):
        assert l1.split(",")[:idx] == l2.split(",")[:idx]


def test_main_empty_sampling_reports_na(tmp_path):
    code, out = run_main(tmp_path, ["--sample-steps", "0"])
    assert code == 0
    header, row = (out / "summary.csv").read_text().splitlines()[1:3]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["min_ess"] == "NA"
    assert cells["max_rhat"] == "NA"


def test_main_sweep_mode(tmp_path):
    code, out = run_main(tmp_path, ["--sweep-L", "1..3", "--sample-steps", "20"])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 2 + 3  # provenance + header + one row per L
    l_col = lines[1].split(",").index("L")
    assert [ln.split(",")[l_col] for ln in lines[2:]] == ["1", "2", "3"]
    for L in (1, 2, 3):
        assert (out / f"L{L}" / "summary.csv").exists()


def test_main_objective_none_keeps_theta(tmp_path):
    code, out = run_main(tmp_path, ["--objective", "none", "--precond", "dense"])
    assert code == 0
    with np.load(out / "checkpoint.npz") as ck:
        assert np.array_equal(ck["theta"], make_preconditioner("dense", 2).theta)
    assert (out / "mu_trace.csv").read_text().splitlines()[2:] == []


def test_diagonal_logistic_run_never_loads_scipy(tmp_path):
    # parses, builds the model, runs and writes every output
    argv = ["--target", "logistic", "--param", "n=30", "--param", "d=2", "--L", "2",
            "--chains", "1", "--adapt-steps", "3", "--sample-steps", "8", "--out", str(tmp_path)]
    script = ("import sys\nfrom ehmc import cli\nassert cli.main(sys.argv[1:]) == 0\n"
              "assert 'scipy' not in sys.modules, [m for m in sys.modules if 'scipy' in m]\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "checkpoint.npz").exists()


def test_main_validation_exit_code(tmp_path, capsys):
    code, _ = run_main(tmp_path, ["--L", "0"])
    assert code == 1
    assert "L" in capsys.readouterr().err


def test_main_bad_param_syntax(tmp_path, capsys):
    code = main(["--target", "gaussian_iso", "--param", "d:2", "--out", str(tmp_path)])
    assert code == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_main_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import ehmc.cli as cli_mod

    def explode(settings):
        raise FloatingPointError("synthetic blow-up")

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    code, _ = run_main(tmp_path, [])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_main_list_presets(capsys):
    assert main(["--list-presets"]) == 0
    text = capsys.readouterr().out
    for name in PRESET_PARAMS:
        assert name in text


def test_flag_overrides_file(tmp_path):
    path = write_config(tmp_path, MINIMAL.format(out=tmp_path / "o"))
    code = main(["--config", path, "--h", "0.4", "--adapt-steps", "5",
                 "--sample-steps", "10", "--chains", "2", "--param", "d=2"])
    assert code == 0
    cfg = parse_config(str(tmp_path / "o" / "config.echo"))
    assert cfg.h == 0.4
    assert cfg.target_params["d"] == 2


def test_out_colliding_with_file_rejected(tmp_path):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("x")
    with pytest.raises(ConfigError, match="out"):
        parse_config(None, {"target": "gaussian_iso", "out": str(blocker / "sub")})
    with pytest.raises(ConfigError, match="out"):
        parse_config(None, {"target": "gaussian_iso", "out": str(blocker)})


# ------------------------------------------------------------ README examples

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_command_line_example_runs(tmp_path):
    block = re.search(r"```sh\n(ehmc --target .*?)```", README, re.S).group(1)
    argv = shlex.split(block.replace("\\\n", " "))
    assert argv[0] == "ehmc"
    argv = argv[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "demo")
    assert main(argv) == 0
    assert (tmp_path / "demo" / "summary.csv").exists()


def test_readme_config_example_parses(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    cfg = parse_config(write_config(tmp_path, block))
    assert cfg.target == "anisotropic"
    assert cfg.target_params == {"d": 20, "c": 4.0}
    assert cfg.sweep_L == tuple(range(1, 33))


# ------------------------------------------------------------ benchmark hooks

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("objective", ["gsm", "esjd", "l2hmc"])
def test_benchmark_trace_hooks_fire(tmp_path, monkeypatch, objective):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    cfg = parse_config(None, {"target": "gaussian_iso", "objective": objective, "h": 0.3,
                              "L": 3, "adapt_steps": 6, "sample_steps": 8, "chains": 2,
                              "out": str(tmp_path)}, {"d": "3"})
    out = str(tmp_path / "out")
    result = run.spawn(write_config(tmp_path, render_config(cfg)), 0, out, "trace",
                       time.monotonic() + 120)
    result["summary"] = run.checks.load_outputs(out)["summary"]
    # raises BenchError naming each span run.py expects that never fired
    metrics = run.layer_metrics(result, result, {"objective": objective,
                                                 "target": "gaussian_iso"})
    # adaptation integrates and assembles both chains as one block per
    # step; sampling integrates each chain on its own
    assert metrics["integrator.trajectory.calls"]["value"] == 6 + 2 * 8
    assert metrics["objective.gradient.calls"]["value"] == 6
