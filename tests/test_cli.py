"""Configuration parsing, preset registry, output emission, exit codes."""

import argparse
import importlib.util
import os
import pickle
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ehmc import __version__
from ehmc.cli import (
    _FIELDS,
    ConfigError,
    PRESETS,
    _add_flags,
    _fmt,
    _parse,
    build_model,
    emit_report,
    main,
    parse_config,
    render_config,
    to_settings,
)
from ehmc.diagnostics import RunReport
from ehmc.entropy import penalty_h
from ehmc.objective import AdaptConfig, AdaptState
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.sampler import SamplerSettings, load_checkpoint, run_experiment
from ehmc.targets import gaussian_target, logistic_target

from _oracles import cholesky_inverse


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
    with pytest.raises(ConfigError, match="^run.l: must be at least 1, got 0$"):
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


# values that cannot run, each with the field it belongs to
UNRUNNABLE = [
    ("h", float("nan")), ("h", float("inf")), ("init_scale", -1.0),
    ("init_scale", float("nan")), ("rho_theta", -1.0), ("rho_beta", float("nan")),
    ("rho_gamma", -1.0), ("alpha_star", 1.5), ("penalty_delta", float("nan")),
    ("delta_prime", 1.5), ("n_min", 0), ("n_min", 2.5), ("lambda_rate", 5.0), ("lambda_rate", 0.0),
]


@pytest.mark.parametrize("name,value", UNRUNNABLE)
def test_unrunnable_value_names_its_field(tmp_path, name, value):
    # parse_config names the setting by its INI name, the library by its field
    adapt = name in {f.name for f in fields(AdaptConfig)}
    with pytest.raises(ConfigError, match=f"^{'adapt' if adapt else 'run'}.{name.lower()}:"):
        parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path), name: value})
    with pytest.raises(ValueError, match=f"^{name}:"):
        if adapt:
            AdaptConfig(**{name: value})
        else:
            run_experiment(SamplerSettings(model=gaussian_target(precision=np.ones(2)),
                                           adapt_steps=1, sample_steps=0, chains=1,
                                           **{name: value}))


# counts given as values, not text, that are not integers (a bool is none)
NON_INTEGER = [
    ("L", 2.5), ("L", True), ("adapt_steps", 10.0), ("sample_steps", 2.5), ("chains", 1.5),
    ("seed", False), ("thin", 2.0), ("adapt_budget", 1.5), ("sample_budget", True),
    ("sweep_L", (2, 2.5)),
]


@pytest.mark.parametrize("name,value", NON_INTEGER)
def test_non_integer_count_names_its_field(tmp_path, name, value):
    label = "sweep.l_values" if name == "sweep_L" else f"run.{name.lower()}"
    bad = value[-1] if name == "sweep_L" else value
    with pytest.raises(ConfigError, match=f"^{label}: must be an integer, got {bad!r}$"):
        parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path), name: value})


@pytest.mark.parametrize("value", [5, None])
def test_sweep_values_must_be_a_sequence(tmp_path, value):
    with pytest.raises(ConfigError, match="^sweep.l_values: expected a sequence of L values"):
        parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path), "sweep_L": value})


def _parsed(target, label):
    # a parse_config call for the preset target that gives the setting
    # INI-named label the value v
    section, key = label.split(".")
    if section == "target":
        return lambda v: parse_config(None, {"target": target}, {key: v})
    return lambda v: parse_config(None, {"target": target, key: v})


_MODEL = gaussian_target(precision=np.ones(2))
_REAL_ADAPT = [f.name for f in fields(AdaptConfig) if f.type is float]
# each real-valued setting at each entry point that takes one: the name its
# error starts with, the entry point, and a call that passes it the value v
REAL_SETTINGS = [
    ("h", "settings", lambda v: SamplerSettings(model=_MODEL, h=v).validate()),
    ("init_scale", "settings", lambda v: SamplerSettings(model=_MODEL, init_scale=v).validate()),
    *((name, "AdaptConfig", lambda v, name=name: AdaptConfig(**{name: v}))
      for name in _REAL_ADAPT),
    ("beta", "AdaptState", lambda v: AdaptState(make_preconditioner("diagonal", 2), beta=v)),
    ("gamma", "AdaptState", lambda v: AdaptState(make_preconditioner("diagonal", 2), gamma=v)),
    ("delta", "penalty_h", lambda v: penalty_h(0.5, v)),
    ("prior_cov", "logistic_target",
     lambda v: logistic_target(np.ones((2, 1)), np.array([0.0, 1.0]), prior_cov=v)),
]
# the same through parse_config by INI name, [target] keys included; text is
# read there as in a file, so a list stands for the typed non-number
REAL_KEYS = [(label, "parse_config", _parsed("gaussian_iso", label))
             for label in ["run.h", "run.init_scale", "target.scale",
                           *(f"adapt.{name}" for name in _REAL_ADAPT)]]
REAL_KEYS.append(("target.c", "parse_config", _parsed("anisotropic", "target.c")))
# integer settings: the factor's dimension and a preset's sizes and seeds
SIZE_SETTINGS = [
    ("dim", "Preconditioner", lambda v: Preconditioner("diagonal", v, np.zeros(1))),
    ("dim", "make_preconditioner", lambda v: make_preconditioner("dense", v)),
    ("dim", "n_params", lambda v: n_params("banded", v)),
    ("target.d", "parse_config", _parsed("gaussian_iso", "target.d")),
    ("target.data_seed", "parse_config", _parsed("cox", "target.data_seed")),
]
TYPED_NUMBERS = [pytest.param(name, call, value, id=f"{where}-{name}-{value!r}")
                 for cases, values in ((REAL_SETTINGS, (True, "0.1", np.nan)),
                                       (REAL_KEYS, (True, [0.1], np.nan)),
                                       (SIZE_SETTINGS, (True, 2.0)))
                 for name, where, call in cases for value in values]


@pytest.mark.parametrize("name, call, value", TYPED_NUMBERS)
def test_typed_number_is_refused_by_name(name, call, value):
    # a bool, a non-number or NaN for a real setting, and a bool or a float
    # for an integer one, is refused at every entry point, named first
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        call(value)


def test_every_adapt_setting_has_a_key_and_a_flag():
    # an AdaptConfig field that no INI key or flag can set fails here
    adapt = [(key, name) for section, key, name, _ in _FIELDS if section == "adapt"]
    assert [f.name for f in fields(AdaptConfig)] == [name for _, name in adapt]
    assert all(key == name for key, name in adapt)
    parser = argparse.ArgumentParser()
    _add_flags(parser)
    flags = {opt for action in parser._actions for opt in action.option_strings}
    for _, name in adapt:
        assert "--" + name.replace("_", "-") in flags


def test_every_run_setting_comes_from_the_cli(tmp_path, monkeypatch):
    # a SamplerSettings field that to_settings does not pass is a run
    # setting only library callers can reach; it fails here
    import ehmc.cli as cli_mod

    passed = {}

    def recording_settings(**kwargs):
        passed.update(kwargs)
        return SamplerSettings(**kwargs)

    monkeypatch.setattr(cli_mod, "SamplerSettings", recording_settings)
    to_settings(parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path)}))
    assert sorted(passed) == sorted(f.name for f in fields(SamplerSettings))


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
    assert replace(cfg, L=10).effective_steps() == (100, 60)
    settings = to_settings(cfg)
    assert settings.adapt_steps == 250
    assert settings.sample_steps == 150


def test_target_override_parsing(tmp_path):
    cfg = parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path), "h": "0.5",
                              "L": "5"}, {"d": "7", "scale": "2.5"})
    assert cfg.target_params == {"d": 7, "scale": 2.5}
    # a run setting given as text is read as its INI key is
    assert (cfg.h, cfg.L) == (0.5, 5)


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
    assert pickle.loads(pickle.dumps(cfg)) == cfg


# values a library caller passes typed (out: the run's directory as a Path):
# each becomes its setting's plain Python type, which the report's
# config.echo and the checkpoint's JSON can hold
TYPED = [("out", None), ("sweep_L", [1, 2]), ("seed", np.int64(3)),
         ("rho_beta", np.float32(0.02))]


@pytest.mark.parametrize("name, value", TYPED,
                         ids=["out-path", "sweep_L-list", "seed-int64", "rho_beta-float32"])
def test_typed_value_runs_and_writes_every_output(tmp_path, name, value):
    out = tmp_path / "out"
    cfg = parse_config(None, {"target": "gaussian_iso", "L": 2, "adapt_steps": 2,
                              "sample_steps": 8, "chains": 2, "out": str(out),
                              name: out if name == "out" else value}, {"d": "2"})
    assert type(getattr(cfg, name)) is {"out": str, "sweep_L": tuple, "seed": int,
                                         "rho_beta": float}[name]
    paths = emit_report(run_experiment(to_settings(cfg)), cfg.out, cfg)
    assert [os.path.basename(p) for p in paths] == ["summary.csv", "per_dim.csv",
                                                   "mu_trace.csv", "config.echo",
                                                   "checkpoint.npz"]
    assert parse_config(str(out / "config.echo")) == cfg
    assert load_checkpoint(str(out / "checkpoint.npz"))[1].config.rho_beta == cfg.rho_beta


def test_typed_text_setting_must_be_a_path():
    with pytest.raises(ConfigError, match="^run.out: expected text, got 5$"):
        parse_config(None, {"target": "gaussian_iso", "out": 5})
    with pytest.raises(ConfigError, match="^target.csv: expected text, got 5$"):
        parse_config(None, {"target": "logistic"}, {"csv": 5})


# ------------------------------------------------------------------ presets


def test_preset_registry_complete():
    assert set(PRESETS) == {
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


def correlated_kernel(grid_points):
    x = np.linspace(0.0, 4.0, grid_points)
    return np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2 / 0.4**2) + 0.01 * np.eye(grid_points)


@pytest.mark.parametrize("name, params, expected", [
    ("gaussian_iso", {}, lambda: np.eye(10)),
    # 2.759 ** 2 and 2.759 * 2.759 round apart under glibc's pow: the
    # preset squares a Python float
    ("gaussian_iso", {"d": "4", "scale": "2.759"}, lambda: np.diag(1.0 / np.full(4, 2.759**2))),
    ("anisotropic", {"d": "6", "c": "3"},
     lambda: np.diag(1.0 / np.exp(3.0 * np.arange(6) / 5 * np.log(10.0)))),
    ("correlated", {"grid_points": "12"}, lambda: cholesky_inverse(correlated_kernel(12))),
], ids=["gaussian_iso-default", "gaussian_iso-scale", "anisotropic", "correlated"])
def test_gaussian_preset_precision_bits(tmp_path, name, params, expected):
    cfg = parse_config(None, {"target": name, "out": str(tmp_path)}, params)
    assert np.array_equal(build_model(cfg).precision, expected())


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


def hand_report():
    # three dimensions, the last degenerate (every chain constant, so its
    # R-hat is NaN); NaN, inf and None cells are written NA
    return RunReport(
        draws=np.zeros((2, 4, 3)), ess_per_dim=np.array([12.5, 1.0 / 3.0, 0.0]),
        min_ess=0.0, mean_ess=0.1 + 0.2, median_ess=1.0 / 3.0,
        split_rhat_per_dim=np.array([1.0000000000000002, 0.99, np.nan]),
        max_rhat=np.nan, median_rhat=None, acceptance_rate=0.7, divergences=np.int64(3),
        mu_trace=np.array([0.5, np.inf, 2.0 / 3.0]), wall_seconds=1.25,
        degenerate_dims=np.array([False, False, True]))


def test_emit_report_bytes(tmp_path):
    cfg = parse_config(None, {"target": "gaussian_iso", "seed": 5, "h": 0.1, "L": 3,
                              "adapt_budget": 10, "sample_steps": 7, "chains": 2,
                              "out": str(tmp_path)}, {"d": "3"})
    head = f"# ehmc={__version__} seed=5\n"
    columns = ("version,seed,target,objective,precond,h,L,adapt_steps,sample_steps,chains,"
               "min_ess,mean_ess,median_ess,max_rhat,median_rhat,acceptance,divergences,"
               "cond_number,wall_seconds\n")
    row = (f"{__version__},5,gaussian_iso,gsm,diagonal,0.10000000000000001,3,3,7,2,0,"
           "0.30000000000000004,0.33333333333333331,NA,NA,0.69999999999999996,3,NA,1.25\n")
    paths = emit_report(hand_report(), str(tmp_path / "one"), cfg)
    assert [os.path.basename(p) for p in paths] == ["summary.csv", "per_dim.csv",
                                                   "mu_trace.csv", "config.echo"]
    one = tmp_path / "one"
    assert (one / "summary.csv").read_text() == head + columns + row
    assert (one / "per_dim.csv").read_text() == head + (
        "dim,ess,split_rhat,degenerate\n"
        "0,12.5,1.0000000000000002,0\n"
        "1,0.33333333333333331,0.98999999999999999,0\n"
        "2,0,NA,1\n")
    assert (one / "mu_trace.csv").read_text() == head + (
        "step,mu_abs_mean\n0,0.5\n1,NA\n2,0.66666666666666663\n")
    # a sweep's summary takes its rows as given, one line each
    emit_report(hand_report(), str(tmp_path / "sweep"), cfg,
                sweep_rows=[["a", "1"], ["b", "NA"]])
    assert (tmp_path / "sweep" / "summary.csv").read_text() == head + columns + "a,1\nb,NA\n"


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


def test_main_sweep_points_are_ordinary_runs(tmp_path):
    def argv(out, *extra):
        return ["--target", "gaussian_iso", "--param", "d=2", "--h", "0.3",
                "--adapt-budget", "60", "--sample-budget", "120", "--chains", "2",
                "--seed", "1", "--out", str(tmp_path / out), *extra]

    assert main(argv("sweep", "--L", "3", "--sweep-L", "1,4")) == 0
    sweep = parse_config(str(tmp_path / "sweep" / "config.echo"))
    for L, steps in ((1, ["60", "120"]), (4, ["15", "30"])):
        point = tmp_path / "sweep" / f"L{L}"
        header, row = (point / "summary.csv").read_text().splitlines()[1:3]
        cells = dict(zip(header.split(","), row.split(",")))
        assert [cells["L"], cells["adapt_steps"], cells["sample_steps"]] == [str(L)] + steps
        assert parse_config(str(point / "config.echo")) == replace(sweep, L=L, sweep_L=())
        # the point draws what a plain run at that L draws
        assert main(argv(f"plain{L}", "--L", str(L))) == 0
        plain = (tmp_path / f"plain{L}" / "per_dim.csv").read_bytes()
        assert (point / "per_dim.csv").read_bytes() == plain


def test_main_objective_none_keeps_theta(tmp_path):
    code, out = run_main(tmp_path, ["--objective", "none", "--precond", "dense"])
    assert code == 0
    with np.load(out / "checkpoint.npz") as ck:
        assert np.array_equal(ck["theta"], make_preconditioner("dense", 2).theta)
    assert (out / "mu_trace.csv").read_text().splitlines()[2:] == []


@pytest.mark.parametrize("target, params, precond, loads_scipy", [
    ("logistic", ["n=30", "d=2"], "diagonal", False),
    ("correlated", ["grid_points=6"], "dense", False),
    ("cox", ["n=2"], "diagonal", False),
    ("anisotropic", ["d=3", "c=2"], "dense", False),
    # the banded factor's LAPACK pair is the one use of scipy
    ("cox", ["n=2"], "banded", True),
], ids=["logistic-diagonal", "correlated-dense", "cox-diagonal", "anisotropic-dense",
        "cox-banded"])
def test_run_loads_scipy_only_for_banded_factor(tmp_path, target, params, precond,
                                                loads_scipy):
    # parses, builds the model, runs and writes every output
    argv = ["--target", target, "--precond", precond, "--L", "2", "--chains", "1",
            "--adapt-steps", "3", "--sample-steps", "8", "--out", str(tmp_path)]
    for param in params:
        argv += ["--param", param]
    script = ("import sys\nfrom ehmc import cli\nassert cli.main(sys.argv[1:]) == 0\n"
              f"assert ('scipy' in sys.modules) is {loads_scipy}, "
              "[m for m in sys.modules if 'scipy' in m]\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "checkpoint.npz").exists()


def test_main_huge_penalty_delta_runs(tmp_path):
    # with 1 + delta == delta the penalty's quadratic piece is empty and
    # the penalty is 0 everywhere, not an error
    code, out = run_main(tmp_path, ["--penalty-delta", "1e17"])
    assert code == 0
    assert (out / "checkpoint.npz").exists()


def test_main_validation_exit_code(tmp_path, capsys):
    # a bad setting exits with 1, writes nothing and names its field
    for flag, value, name in (("--L", "0", "run.l"), ("--seed", "-1", "run.seed")):
        code, out = run_main(tmp_path, [flag, value], sub=name)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {name}:")
        assert not out.exists()


# a bad value of each type of setting, with the error it gives alike from
# its flag and from its INI key
BAD_SETTINGS = [
    ("--h", "run", "h", "abc", "run.h: expected a number, got 'abc'"),
    ("--chains", "run", "chains", "1.5", "run.chains: expected an integer, got '1.5'"),
    ("--h", "run", "h", "-1", "run.h: must be finite and positive, got -1.0"),
    ("--L", "run", "l", "0", "run.l: must be at least 1, got 0"),
    ("--adapt-budget", "run", "adapt_budget", "-1",
     "run.adapt_budget: must be at least 0, got -1"),
    ("--precond", "run", "precond", "cubic",
     "run.precond: must be one of diagonal, dense, banded, got 'cubic'"),
    ("--objective", "run", "objective", "foo",
     "run.objective: must be one of gsm, esjd, l2hmc, none, got 'foo'"),
    ("--n-min", "adapt", "n_min", "0", "adapt.n_min: must be at least 1, got 0"),
    ("--rho-theta", "adapt", "rho_theta", "x", "adapt.rho_theta: expected a number, got 'x'"),
    ("--sweep-L", "sweep", "l_values", "x", "sweep.l_values: expected an integer, got 'x'"),
    ("--sweep-L", "sweep", "l_values", "0..2", "sweep.l_values: must be at least 1, got 0"),
]


@pytest.mark.parametrize("flag, section, key, value, message", BAD_SETTINGS,
                         ids=[f"{flag}={value}" for flag, _, _, value, _ in BAD_SETTINGS])
def test_bad_setting_exit_code_from_flag_and_file(tmp_path, capsys, flag, section, key, value,
                                                  message):
    code, out = run_main(tmp_path, [flag, value])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not out.exists()
    blocks = {"run": f"target = gaussian_iso\nout = {out}\n"}
    blocks[section] = blocks.get(section, "") + f"{key} = {value}\n"
    path = write_config(tmp_path, "".join(f"[{s}]\n{b}\n" for s, b in blocks.items()))
    assert main(["--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_main_usage_error_and_help_exit_codes(tmp_path, capsys):
    # an unknown flag is a configuration error like an unknown key, and so
    # is a prefix of a known flag, as a prefix of an INI key is
    for flag, value in (("--hh", "1"), ("--init", "2"), ("--thi", "3"), ("--sweep", "1,2"),
                        ("--lambda", "0.1")):
        code, out = run_main(tmp_path, [flag, value])
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for choices in ("gsm | esjd | l2hmc | none", "diagonal | dense | banded"):
        assert choices in text


@pytest.mark.parametrize("target,params,name", [
    ("gaussian_iso", ["d=0"], "d"),
    ("cox", ["n=0"], "n"),
    ("logistic", ["d=0", "intercept=false"], "d"),
    ("logistic", ["n=-1"], "n"),
])
def test_main_bad_preset_size_exit_code(tmp_path, capsys, target, params, name):
    # an empty or negative preset size is a settings error naming its
    # argument, not a traceback
    argv = ["--target", target, "--out", str(tmp_path / "out")]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target, param, message", [
    ("gaussian_iso", "d=-1", "d: must be at least 1, got -1"),
    ("gaussian_iso", "d=0", "d: must be at least 1, got 0"),
    ("sv", "t=1", "t: must be at least 2, got 1"),
    ("sv", "t=-3", "t: must be at least 2, got -3"),
])
def test_main_preset_size_names_its_parameter(tmp_path, capsys, target, param, message):
    # a preset size is checked under the name the user gave, before numpy
    # or a library argument of another name sees it
    assert main(["--target", target, "--param", param, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target, param, message", [
    ("gaussian_iso", "scale=1e200", "scale: its square overflows, got 1e+200"),
    ("gaussian_iso", "scale=nan", "diagonal covariance entries must be finite and positive"),
    ("anisotropic", "c=400", "diagonal covariance entries must be finite and positive"),
])
def test_main_nonfinite_preset_value_exit_code(tmp_path, monkeypatch, capsys, target, param,
                                               message):
    # a preset value that squares past the float range or gives a NaN or
    # infinite variance is a settings error before any transition runs
    import ehmc.cli as cli_mod

    def no_run(settings):
        raise AssertionError("a transition ran")

    monkeypatch.setattr(cli_mod, "run_experiment", no_run)
    assert main(["--target", target, "--param", param, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_main_bad_param_syntax(tmp_path, capsys):
    code = main(["--target", "gaussian_iso", "--param", "d:2", "--out", str(tmp_path)])
    assert code == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_main_nonfinite_csv_exit_code(tmp_path, capsys):
    # a NaN or infinite covariate is a data error (exit 1) naming its row
    # and column, not a zero column in the standardized design
    data = tmp_path / "data.csv"
    data.write_text("0.5,nan,inf,1\n-0.2,1.0,2.0,0\n0.1,0.3,-1.0,1\n1.5,0.2,0.7,0\n")
    code = main(["--target", "logistic", "--param", f"csv={data}", "--adapt-steps", "2",
                 "--sample-steps", "2", "--chains", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "non-finite field at row 1, column 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    for name in PRESETS:
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


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["draws"].shape == (4, 2000, 20)
    assert np.isfinite(scope["report"].min_ess)
    assert np.isfinite(scope["report"].max_rhat)


def test_readme_config_example_parses(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    cfg = parse_config(write_config(tmp_path, block))
    assert cfg.target == "anisotropic"
    assert cfg.target_params == {"d": 20, "c": 4.0}
    assert cfg.sweep_L == tuple(range(1, 33))


def test_readme_presets_and_columns_match_the_code(tmp_path):
    # the Presets table lists exactly the presets, each with its parameter
    # defaults, and the Outputs column list is the summary header written
    section = README.split("### Presets", 1)[1].split("###", 1)[0]
    table = {name: dict(p.strip("`").split("=", 1) for p in params.split(", "))
             for name, params in re.findall(r"^\| `(\w+)` \| (.*?) \|", section, re.M)}
    assert set(table) == set(PRESETS)
    for name, preset in PRESETS.items():
        assert set(table[name]) == set(preset.params), name
        for key, (typ, default) in preset.params.items():
            assert _parse(typ, table[name][key], key) == default, (name, key)
    listed = re.search(r"columns `([^`]*)`", README.split("### Outputs", 1)[1]).group(1)
    cfg = parse_config(None, {"target": "gaussian_iso", "out": str(tmp_path)})
    emit_report(hand_report(), str(tmp_path), cfg)
    header = (tmp_path / "summary.csv").read_text().splitlines()[1]
    assert re.split(r",\s+", listed) == header.split(",")


# ------------------------------------------------------------ benchmark hooks

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


TRACE_CASES = [(kind, objective) for kind in KINDS for objective in ("gsm", "esjd", "l2hmc")]


@pytest.mark.parametrize("precond,objective", TRACE_CASES,
                         ids=[o if k == "diagonal" else f"{k}-{o}" for k, o in TRACE_CASES])
def test_benchmark_trace_hooks_fire(tmp_path, monkeypatch, precond, objective):
    # every factor kind, so a traced run through each kind's maps, and the
    # deletion of any name the tracer wraps, fails here
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    cfg = parse_config(None, {"target": "gaussian_iso", "precond": precond,
                              "objective": objective, "h": 0.3,
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
