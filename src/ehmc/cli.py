"""Command-line front end: INI configuration, experiment presets, sweep
and budget modes, and CSV/checkpoint emission.

Each preset is declared once, as an entry of PRESETS; parsing,
--list-presets, build_model and to_settings read that table.

Grammar: an INI file with sections [run], [target], [adapt], [sweep] and
an optional [meta] block (written by config.echo, ignored on re-parse).
Every key is validated against a closed list, so typos fail loudly.
Command-line flags mirror [run]/[adapt] keys and override the file.
"""

import argparse
import configparser
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, targets
from .objective import AdaptConfig, default_adapt_config
from .precond import KINDS
from .sampler import (OBJECTIVES, SamplerSettings, check_run_fields, run_experiment,
                      save_checkpoint)


class ConfigError(ValueError):
    """Invalid or unknown configuration input: exit code 1 territory."""


@dataclass
class RunConfig:
    """Flat, fully-validated run description; round-trips through INI.

    Defaults are those of SamplerSettings and AdaptConfig; rho_theta None
    means the per-kind default of objective.default_adapt_config.
    """

    target: str
    target_params: dict = field(default_factory=dict)
    objective: str = SamplerSettings.objective
    precond: str = SamplerSettings.kind
    h: float = SamplerSettings.h
    L: int = SamplerSettings.L
    adapt_steps: int = SamplerSettings.adapt_steps
    sample_steps: int = SamplerSettings.sample_steps
    chains: int = SamplerSettings.chains
    seed: int = SamplerSettings.seed
    thin: int = SamplerSettings.thin
    init_scale: float = SamplerSettings.init_scale
    out: str = "results"
    adapt_budget: int = 0
    sample_budget: int = 0
    rho_theta: float = None
    rho_beta: float = AdaptConfig.rho_beta
    rho_gamma: float = AdaptConfig.rho_gamma
    alpha_star: float = AdaptConfig.alpha_star
    penalty_delta: float = AdaptConfig.penalty_delta
    delta_prime: float = AdaptConfig.delta_prime
    n_min: int = AdaptConfig.n_min
    lambda_rate: float = AdaptConfig.lambda_rate
    sweep_L: tuple = ()

    def effective_steps(self):
        """(adapt, sample) step counts after applying any gradient budget."""
        adapt = self.adapt_budget // self.L if self.adapt_budget > 0 else self.adapt_steps
        sample = self.sample_budget // self.L if self.sample_budget > 0 else self.sample_steps
        return adapt, sample


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}


def _parse(typ, raw, name):
    """The INI value raw as a typ; a ConfigError naming `name` if it is none."""
    if typ is str:
        return raw.strip()
    try:
        return _BOOLS[raw.strip().lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{name}: expected {_EXPECTED[typ]}, got {raw!r}") from None


def _parse_l_values(raw, name):
    raw = raw.strip()
    if not raw:
        return ()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        lo = _parse(int, lo, name)
        hi = _parse(int, hi, name)
        if hi < lo:
            raise ConfigError(f"{name}: empty range {raw!r}")
        return tuple(range(lo, hi + 1))
    return tuple(_parse(int, tok, name) for tok in raw.split(",") if tok.strip())


# every [run] and [adapt] setting: (section, INI key, RunConfig field, type);
# the INI parser, the command-line flags and render_config all read this
_ADAPT_NAMES = {f.name for f in fields(AdaptConfig)}
_FIELDS = tuple(("adapt" if f.name in _ADAPT_NAMES else "run", f.name.lower(), f.name, f.type)
                for f in fields(RunConfig) if f.name not in ("target_params", "sweep_L"))
_KEYS = {(section, key): (name, typ) for section, key, name, typ in _FIELDS}
# the SamplerSettings fields a RunConfig carries under the same name
_SHARED = tuple(f.name for f in fields(SamplerSettings)
                if f.name in {g.name for g in fields(RunConfig)})
_CHOICES = {"objective": OBJECTIVES, "precond": KINDS}
_BUDGET_HELP = ("leapfrog gradients per chain (GSM's Hessian-vector products not counted); "
                "steps = budget // L")
_HELP = {"target": "target preset name", "out": "output directory",
         "adapt_budget": _BUDGET_HELP, "sample_budget": _BUDGET_HELP}


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

    Unknown sections or keys raise ConfigError naming the offender.  The
    output directory is probed for writability here so a bad path fails
    before any compute starts.
    """
    values = {}
    target_params = {}
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
        for section in ("run", "adapt"):
            if not parser.has_section(section):
                continue
            for key, raw in parser.items(section):
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {section}.{key}")
                name, typ = _KEYS[section, key]
                values[name] = _parse(typ, raw, f"{section}.{key}")
        if parser.has_section("target"):
            target_params = dict(parser.items("target"))
        if parser.has_section("sweep"):
            for key, raw in parser.items("sweep"):
                if key != "l_values":
                    raise ConfigError(f"unknown key sweep.{key}")
                values["sweep_L"] = _parse_l_values(raw, "sweep.l_values")
    values.update(overrides or {})
    target_params.update(target_overrides or {})
    name = values.pop("target", None)
    if not name:
        raise ConfigError("target: required field is missing")
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"target: unknown preset {name!r} (choose from {known})")
    schema = PRESETS[name].params
    parsed_params = {key: default for key, (_, default) in schema.items()}
    for key, raw in target_params.items():
        key = key.lower()
        if key not in schema:
            raise ConfigError(f"unknown key target.{key} for preset {name!r}")
        typ, _ = schema[key]
        if isinstance(raw, str) or typ is str:
            raw = _parse(typ, str(raw), f"target.{key}")
        parsed_params[key] = raw
    config = RunConfig(target=name, target_params=parsed_params, **values)
    _validate(config)
    return config


def _validate(config):
    try:
        check_run_fields(config)
        _adapt_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.precond not in KINDS:
        raise ConfigError(f"precond: must be one of {', '.join(KINDS)}, "
                          f"got {config.precond!r}")
    for fieldname in ("adapt_budget", "sample_budget"):
        if getattr(config, fieldname) < 0:
            raise ConfigError(f"{fieldname}: must be nonnegative")
    if any(l < 1 for l in config.sweep_L):
        raise ConfigError("sweep.l_values: entries must be positive integers")
    _check_writable(config.out)


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
    # the per-kind defaults, overridden by each [adapt] value the config
    # sets; AdaptConfig range-checks the result
    return replace(default_adapt_config(config.precond), **{
        name: getattr(config, name) for section, _, name, _ in _FIELDS
        if section == "adapt" and getattr(config, name) is not None
    })


def to_settings(config, model=None):
    """Map a RunConfig onto SamplerSettings for one run."""
    if model is None:
        model = build_model(config)
    shared = {name: getattr(config, name) for name in _SHARED}
    shared["adapt_steps"], shared["sample_steps"] = config.effective_steps()
    return SamplerSettings(model=model, kind=config.precond,
                           init=PRESETS[config.target].init(model),
                           adapt_config=_adapt_config(config), **shared)


# -- emission -------------------------------------------------------------


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, str):
        return x
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
    blocks = {"run": {}, "target": dict(sorted(config.target_params.items())), "adapt": {}}
    for section, key, name, _ in _FIELDS:
        if getattr(config, name) is not None:
            blocks[section][key] = getattr(config, name)
    if config.sweep_L:
        blocks["sweep"] = {"l_values": ",".join(str(l) for l in config.sweep_L)}
    blocks["meta"] = {"version": __version__}
    lines = []
    for section, block in blocks.items():
        lines += [f"[{section}]", *(f"{key} = {_fmt(val)}" for key, val in block.items()), ""]
    return "\n".join(lines)


# -- entry point ----------------------------------------------------------


def _add_flags(parser):
    parser.add_argument("--config", help="INI configuration file")
    for _, _, name, typ in _FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=typ,
                            choices=_CHOICES.get(name), help=_HELP.get(name))
    parser.add_argument("--sweep-L", dest="sweep_L",
                        help="comma list or lo..hi range of L values")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="target parameter override")
    parser.add_argument("--list-presets", action="store_true")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ehmc",
        description="Adaptive HMC with entropy-guided mass-matrix learning",
    )
    _add_flags(parser)
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {', '.join(sorted(PRESETS[name].params))}")
        return 0
    overrides = {name: getattr(args, name) for _, _, name, _ in _FIELDS
                 if getattr(args, name) is not None}
    target_overrides = {}
    try:
        if args.sweep_L is not None:
            overrides["sweep_L"] = _parse_l_values(args.sweep_L, "sweep_L")
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
