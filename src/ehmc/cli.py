"""Command-line front end: INI configuration, experiment presets, sweep
and budget modes, and CSV/checkpoint emission.

Each preset is declared once, as an entry of PRESETS; parsing,
--list-presets, build_model and to_settings read that table.

Grammar: an INI file with sections [run], [target], [adapt], [sweep] and
an optional [meta] block (written by config.echo, ignored on re-parse).
Every key and flag is matched whole against a closed list, so typos fail
loudly.  Each [run], [adapt] and [sweep] key has a flag (--sweep-L for
l_values) that overrides the file and is read and checked exactly like
the key; a bad flag value, like an unknown flag, is a config error (exit 1).
"""

import argparse
import configparser
import os
import sys
from collections import namedtuple
from dataclasses import field, fields, make_dataclass, replace

import numpy as np

from . import __version__, targets
from .objective import AdaptConfig
from .precond import KINDS, check_kind
from .sampler import (OBJECTIVES, SamplerSettings, check_run_fields, run_experiment,
                      save_checkpoint)


class ConfigError(ValueError):
    """Invalid or unknown configuration input: exit code 1 territory."""


# the SamplerSettings fields a config sets: the plain-valued ones, as the
# model, init and adapt_config are built from the config; a config names
# the factor kind precond
_RUN = tuple(f for f in fields(SamplerSettings) if f.type in (str, int, float))
_RENAMED = {"kind": "precond"}


def _effective_steps(self):
    """(adapt, sample) step counts after applying any gradient budget."""
    adapt = self.adapt_budget // self.L if self.adapt_budget > 0 else self.adapt_steps
    sample = self.sample_budget // self.L if self.sample_budget > 0 else self.sample_steps
    return adapt, sample


RunConfig = make_dataclass("RunConfig", [
    ("target", str),
    ("target_params", dict, field(default_factory=dict)),
    *((_RENAMED.get(f.name, f.name), f.type, field(default=f.default)) for f in _RUN),
    ("out", str, field(default="results")),
    ("adapt_budget", int, field(default=0)),
    ("sample_budget", int, field(default=0)),
    *((f.name, f.type, field(default=f.default)) for f in fields(AdaptConfig)),
    ("sweep_L", tuple, field(default=())),
], namespace={"__doc__": "Flat, fully-validated run description; round-trips through INI.",
              "__module__": __name__, "effective_steps": _effective_steps})


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}


def _parse(typ, raw, name):
    """The INI or flag text raw as a typ, where a tuple is L values given
    as a range lo..hi or a comma list; a ConfigError naming `name` if it
    is none."""
    raw = raw.strip()
    if typ is str:
        return raw
    if typ is tuple:
        lo, dots, hi = raw.partition("..")
        if not dots:
            return tuple(_parse(int, tok, name) for tok in raw.split(",") if tok.strip())
        values = tuple(range(_parse(int, lo, name), _parse(int, hi, name) + 1))
        if not values:
            raise ConfigError(f"{name}: empty range {raw!r}")
        return values
    try:
        return _BOOLS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{name}: expected {_EXPECTED[typ]}, got {raw!r}") from None


def _read(keys, label, raw):
    # (name, value) of the setting INI-named label among keys: text is read
    # as in a file, and a typed value becomes its setting's plain Python type
    # or a ValueError naming label: a text setting takes a path-like's text; a
    # number, through check_size or check_real, an int or a float of any sign
    # (the range checks follow); the L values, a sequence of ints
    if label not in keys:
        raise ConfigError(f"unknown key {label}")
    name, typ = keys[label]
    if raw is None and name == "rho_theta":  # its default: the factor kind's rate
        return name, raw
    if isinstance(raw, str):
        return name, _parse(typ, raw, label)
    if typ is str:
        if not isinstance(raw, os.PathLike):
            raise ConfigError(f"{label}: expected text, got {raw!r}")
        return name, os.fspath(raw)
    if typ is tuple:
        if np.ndim(raw) != 1:
            raise ConfigError(f"{label}: expected a sequence of L values, got {raw!r}")
        return name, tuple(targets.check_size(label, v, -np.inf) for v in raw)
    if typ is int:
        return name, targets.check_size(label, raw, -np.inf)
    return name, targets.check_real(label, raw) if typ is float else raw


# every setting: (section, INI key, RunConfig field, type); the INI parser,
# the command-line flags and render_config all read this
_ADAPT_NAMES = {f.name for f in fields(AdaptConfig)}
_FIELDS = tuple(("adapt" if f.name in _ADAPT_NAMES else "sweep" if f.name == "sweep_L" else "run",
                 "l_values" if f.name == "sweep_L" else f.name.lower(), f.name, f.type)
                for f in fields(RunConfig) if f.name != "target_params")
# each setting's INI name section.key -> (RunConfig field, type), and back
_KEYS = {f"{section}.{key}": (name, typ) for section, key, name, typ in _FIELDS}
_LABELS = {name: label for label, (name, _) in _KEYS.items()}
_BUDGET_HELP = ("leapfrog gradients per chain (GSM's Hessian-vector products not counted); "
                "steps = budget // L")
_HELP = {"target": "target preset name", "objective": " | ".join(OBJECTIVES),
         "precond": " | ".join(KINDS), "out": "output directory",
         "adapt_budget": _BUDGET_HELP, "sample_budget": _BUDGET_HELP,
         "sweep_L": "comma list or lo..hi range of L values"}


# a target preset: its parameters as name -> (type, default), the builder
# of its model from their values, and the start point of every chain given
# the model (by default None: random starts)
Preset = namedtuple("Preset", "params build init", defaults=(lambda model: None,))


def _gaussian_iso(p):
    targets.check_size("d", p["d"])
    try:  # a float's ** raises OverflowError where numpy's gives inf
        variance = np.full(p["d"], p["scale"] ** 2)
    except OverflowError:
        raise ValueError(f"scale: its square overflows, got {p['scale']}") from None
    return targets.gaussian_target(covariance=variance, name=f"gaussian_iso(d={p['d']})")


def _logistic(p):
    if p["csv"]:
        X, y = targets.load_logistic_csv(p["csv"], intercept=p["intercept"],
                                         standardize=p["standardize"])
    else:
        X, y = targets.simulate_logistic_data(p["n"], p["d"], seed=p["data_seed"])
        X = targets.prepare_design(X, p["intercept"], p["standardize"])
    return targets.logistic_target(X, y)


def _cox(p):
    _, y = targets.simulate_cox_data(p["n"], seed=p["data_seed"])
    return targets.cox_target(p["n"], y)


def _sv(p):
    if p["csv"]:
        return targets.sv_target(targets.load_returns_csv(p["csv"]))
    targets.check_size("t", p["t"], 2)
    return targets.sv_target(targets.simulate_sv_data(p["t"], seed=p["data_seed"]))


PRESETS = {
    "gaussian_iso": Preset({"d": (int, 10), "scale": (float, 1.0)}, _gaussian_iso),
    "anisotropic": Preset({"d": (int, 100), "c": (float, 6.0)},
                          lambda p: targets.anisotropic_gaussian(p["d"], p["c"])),
    "correlated": Preset({"grid_points": (int, 51)},
                         lambda p: targets.correlated_gaussian(p["grid_points"])),
    "logistic": Preset({
        "csv": (str, ""),
        "n": (int, 100),
        "d": (int, 10),
        "data_seed": (int, 0),
        "intercept": (bool, True),
        "standardize": (bool, True),
    }, _logistic),
    # every chain starts at the prior mean
    "cox": Preset({"n": (int, 16), "data_seed": (int, 0)}, _cox,
                  init=lambda model: np.full(model.dim, model.extras["mu"])),
    "sv": Preset({"csv": (str, ""), "t": (int, 100), "data_seed": (int, 0)}, _sv),
}

_SECTIONS = ("run", "target", "adapt", "sweep", "meta")


def parse_config(file=None, overrides=None, target_overrides=None):
    """Validate an INI file and/or flag overrides into a RunConfig.

    Every setting, [target] keys included, is read by its INI name; an
    unknown section or key raises ConfigError naming it.  The output
    directory is probed for writability so a bad path fails before any
    compute starts.
    """
    given = []  # (INI name, text or value): the file's settings, then the overrides
    if file is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(file)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {file}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {file}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            if section != "meta":
                given += [(f"{section}.{key}", raw) for key, raw in parser.items(section)]
    given += [(_LABELS.get(name, name), raw) for name, raw in (overrides or {}).items()]
    given += [(f"target.{key.lower()}", raw) for key, raw in (target_overrides or {}).items()]
    # the preset, whose parameters are the [target] keys
    _, name = _read(_KEYS, "run.target", dict(given).get("run.target", ""))
    if not name:
        raise ConfigError("run.target: required field is missing")
    if name not in PRESETS:
        raise ConfigError(f"run.target: unknown preset {name!r} "
                          f"(choose from {', '.join(sorted(PRESETS))})")
    schema = PRESETS[name].params
    keys = {**_KEYS, **{f"target.{key}": (key, typ) for key, (typ, _) in schema.items()}}
    values, target_params = {}, {key: default for key, (_, default) in schema.items()}
    # every ValueError, its leading field named by its INI name, is a ConfigError
    try:
        for label, raw in given:
            key, value = _read(keys, label, raw)
            (target_params if label.startswith("target.") else values)[key] = value
        config = RunConfig(target_params=target_params, **values)
        check_run_fields(config)
        _adapt_config(config)
        for budget in ("adapt_budget", "sample_budget"):
            targets.check_size(budget, getattr(config, budget), 0)
        for L in config.sweep_L:
            targets.check_size("sweep_L", L)
        check_kind(config.precond)
        _check_writable(config.out)
    except ValueError as exc:
        name, sep, rest = str(exc).partition(": ")
        raise ConfigError(_LABELS.get(_RENAMED.get(name, name), name) + sep + rest) from None
    return config


def _check_writable(path):
    # probe the nearest existing ancestor without creating anything
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    if os.path.exists(probe) and not os.path.isdir(probe):
        raise ConfigError(f"out: {path!r} collides with a non-directory")
    if not os.access(probe, os.W_OK):
        raise ConfigError(f"out: directory {path!r} is not writable")


def build_model(config):
    """Instantiate the preset target for a validated config."""
    return PRESETS[config.target].build(config.target_params)


def _adapt_config(config):
    # the [adapt] values, range-checked by AdaptConfig; an AdaptState
    # resolves rho_theta None to the factor kind's rate
    return AdaptConfig(**{name: getattr(config, name) for section, _, name, _ in _FIELDS
                          if section == "adapt"})


def to_settings(config, model=None):
    """Map a RunConfig onto SamplerSettings for one run."""
    if model is None:
        model = build_model(config)
    run = {f.name: getattr(config, _RENAMED.get(f.name, f.name)) for f in _RUN}
    run["adapt_steps"], run["sample_steps"] = config.effective_steps()
    return SamplerSettings(model=model, init=PRESETS[config.target].init(model),
                           adapt_config=_adapt_config(config), **run)


# -- emission -------------------------------------------------------------


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        return "NA"
    return format(x, ".17g")


# summary.csv's columns in order, each with what it reads from the run's
# RunReport r and RunConfig c (step counts after any budget)
SUMMARY_COLUMNS = {
    "version": lambda r, c: __version__,
    "seed": lambda r, c: c.seed,
    "target": lambda r, c: c.target,
    "objective": lambda r, c: c.objective,
    "precond": lambda r, c: c.precond,
    "h": lambda r, c: c.h,
    "L": lambda r, c: c.L,
    "adapt_steps": lambda r, c: c.effective_steps()[0],
    "sample_steps": lambda r, c: c.effective_steps()[1],
    "chains": lambda r, c: c.chains,
    "min_ess": lambda r, c: r.min_ess,
    "mean_ess": lambda r, c: r.mean_ess,
    "median_ess": lambda r, c: r.median_ess,
    "max_rhat": lambda r, c: r.max_rhat,
    "median_rhat": lambda r, c: r.median_rhat,
    "acceptance": lambda r, c: r.acceptance_rate,
    "divergences": lambda r, c: r.divergences,
    "cond_number": lambda r, c: r.cond_number,
    "wall_seconds": lambda r, c: r.wall_seconds,
}


def summary_row(report, config):
    return [source(report, config) for source in SUMMARY_COLUMNS.values()]


def emit_report(report, out_dir, config, sweep_rows=None):
    """Write summary.csv, per_dim.csv, mu_trace.csv, config.echo and the
    final checkpoint under out_dir.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    # file -> (header, rows); every cell goes through _fmt
    tables = {
        "summary.csv": (SUMMARY_COLUMNS, sweep_rows if sweep_rows is not None
                        else [summary_row(report, config)]),
        "per_dim.csv": (("dim", "ess", "split_rhat", "degenerate"),
                        zip(range(report.ess_per_dim.size), report.ess_per_dim,
                            report.split_rhat_per_dim, report.degenerate_dims.astype(int))),
        "mu_trace.csv": (("step", "mu_abs_mean"), enumerate(report.mu_trace)),
    }
    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# ehmc={__version__} seed={config.seed}\n" + ",".join(header) + "\n")
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
        paths.append(path)

    path = os.path.join(out_dir, "config.echo")
    with open(path, "w") as fh:
        fh.write(render_config(config))
    paths.append(path)

    state = report.extras.get("adapt_state")
    chains = report.extras.get("chains")
    if state is not None and chains is not None:
        path = os.path.join(out_dir, "checkpoint.npz")
        save_checkpoint(path, chains, state, config.h,
                        meta={"version": __version__, "seed": config.seed,
                              "target": config.target})
        paths.append(path)
    return paths


def render_config(config):
    """Serialize a RunConfig as INI text that parse_config accepts back."""
    blocks = {"run": {}, "target": dict(sorted(config.target_params.items())), "adapt": {},
              "sweep": {}, "meta": {"version": __version__}}
    for section, key, name, typ in _FIELDS:
        # rho_theta None is the factor kind's rate, and an empty sweep is none
        if getattr(config, name) is not None and (typ is not tuple or getattr(config, name)):
            blocks[section][key] = getattr(config, name)
    lines = []
    for section, block in blocks.items():
        if block:
            lines += [f"[{section}]", *(f"{key} = {_fmt(val)}" for key, val in block.items()), ""]
    return "\n".join(lines)


# -- entry point ----------------------------------------------------------


def _add_flags(parser):
    parser.add_argument("--config", help="INI configuration file")
    for _, _, name, _ in _FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, help=_HELP.get(name))
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="target parameter override")
    parser.add_argument("--list-presets", action="store_true")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ehmc", allow_abbrev=False,
        description="Adaptive HMC with entropy-guided mass-matrix learning",
    )
    _add_flags(parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is a configuration error
        return 0 if exc.code == 0 else 1
    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {', '.join(sorted(PRESETS[name].params))}")
        return 0
    overrides = {name: getattr(args, name) for _, _, name, _ in _FIELDS
                 if getattr(args, name) is not None}
    target_overrides = {}
    try:
        for item in args.param:
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
            target_overrides[key.strip().lower()] = val.strip()
        config = parse_config(args.config, overrides, target_overrides)
        model = build_model(config)
    except ValueError as exc:  # ConfigError, targets.IngestionError, bad model input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if config.sweep_L:
            rows = []
            for L in config.sweep_L:
                one = replace(config, L=L, sweep_L=())
                report = run_experiment(to_settings(one, model))
                rows.append(summary_row(report, one))
                emit_report(report, os.path.join(config.out, f"L{L}"), one)
            emit_report(report, config.out, config, sweep_rows=rows)
        else:
            report = run_experiment(to_settings(config, model))
            emit_report(report, config.out, config)
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote results to {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
