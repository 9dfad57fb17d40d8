"""Command-line front end: INI configuration, experiment presets, sweep
and budget modes, and CSV/checkpoint emission.

Grammar: an INI file with sections [run], [target], [adapt], [sweep] and
an optional [meta] block (written by config.echo, ignored on re-parse).
Every key is validated against a closed list, so typos fail loudly.
Command-line flags mirror [run]/[adapt] keys and override the file.
"""

import argparse
import configparser
import os
import sys
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


def _parse_bool(raw, name):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {raw!r}")


def _parse_int(raw, name):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None


def _parse_float(raw, name):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from None


def _parse_l_values(raw, name):
    raw = raw.strip()
    if not raw:
        return ()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        lo = _parse_int(lo, name)
        hi = _parse_int(hi, name)
        if hi < lo:
            raise ConfigError(f"{name}: empty range {raw!r}")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_int(tok, name) for tok in raw.split(",") if tok.strip())


# value parsers by type, for every INI key
_PARSERS = {str: lambda raw, name: raw.strip(), int: _parse_int, float: _parse_float,
            bool: _parse_bool}

# every [run] and [adapt] setting: (section, INI key, RunConfig field, type);
# the INI parser, the command-line flags and render_config all read this
_ADAPT_NAMES = {f.name for f in fields(AdaptConfig)}
_FIELDS = tuple(("adapt" if f.name in _ADAPT_NAMES else "run", f.name.lower(), f.name, f.type)
                for f in fields(RunConfig) if f.name not in ("target_params", "sweep_L"))
_KEYS = {(section, key): (name, typ) for section, key, name, typ in _FIELDS}
_CHOICES = {"objective": OBJECTIVES, "precond": KINDS}
_HELP = {"target": "target preset name", "out": "output directory",
         "adapt_budget": "gradient-evaluation budget; adapt steps = budget // L"}

# per-preset target parameters: name -> (type, default)
PRESET_PARAMS = {
    "gaussian_iso": {"d": (int, 10), "scale": (float, 1.0)},
    "anisotropic": {"d": (int, 100), "c": (float, 6.0)},
    "correlated": {"grid_points": (int, 51)},
    "logistic": {
        "csv": (str, ""),
        "n": (int, 100),
        "d": (int, 10),
        "data_seed": (int, 0),
        "intercept": (bool, True),
        "standardize": (bool, True),
    },
    "cox": {"n": (int, 16), "data_seed": (int, 0)},
    "sv": {"csv": (str, ""), "t": (int, 100), "data_seed": (int, 0)},
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
    sweep = ()
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
                values[name] = _PARSERS[typ](raw, f"{section}.{key}")
        if parser.has_section("target"):
            target_params = dict(parser.items("target"))
        if parser.has_section("sweep"):
            for key, raw in parser.items("sweep"):
                if key != "l_values":
                    raise ConfigError(f"unknown key sweep.{key}")
                sweep = _parse_l_values(raw, "sweep.l_values")
    if overrides:
        for key, val in overrides.items():
            values[key] = val
    if target_overrides:
        target_params.update(target_overrides)
    if "target" not in values or not values["target"]:
        raise ConfigError("target: required field is missing")
    name = values["target"]
    if name not in PRESET_PARAMS:
        known = ", ".join(sorted(PRESET_PARAMS))
        raise ConfigError(f"target: unknown preset {name!r} (choose from {known})")
    parsed_params = {}
    schema = PRESET_PARAMS[name]
    for key, raw in target_params.items():
        key = key.lower()
        if key not in schema:
            raise ConfigError(f"unknown key target.{key} for preset {name!r}")
        typ, _ = schema[key]
        if isinstance(raw, str) or typ is str:
            raw = _PARSERS[typ](str(raw), f"target.{key}")
        parsed_params[key] = raw
    for key, (_, default) in schema.items():
        parsed_params.setdefault(key, default)
    if sweep and "sweep_L" not in values:
        values["sweep_L"] = sweep
    config = RunConfig(target=name, target_params=parsed_params, **{
        k: v for k, v in values.items() if k != "target"
    })
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
    p = config.target_params
    name = config.target
    if name == "gaussian_iso":
        cov = np.full(p["d"], p["scale"] ** 2)
        return targets.gaussian_target(covariance=cov, name=f"gaussian_iso(d={p['d']})")
    if name == "anisotropic":
        return targets.anisotropic_gaussian(p["d"], p["c"])
    if name == "correlated":
        return targets.correlated_gaussian(p["grid_points"])
    if name == "logistic":
        if p["csv"]:
            X, y = targets.load_logistic_csv(p["csv"], intercept=p["intercept"],
                                             standardize=p["standardize"])
        else:
            X, y = targets.simulate_logistic_data(p["n"], p["d"], seed=p["data_seed"])
            X = targets.prepare_design(X, p["intercept"], p["standardize"])
        return targets.logistic_target(X, y)
    if name == "cox":
        _, y = targets.simulate_cox_data(p["n"], seed=p["data_seed"])
        return targets.cox_target(p["n"], y)
    if name == "sv":
        if p["csv"]:
            returns = targets.load_returns_csv(p["csv"])
        else:
            returns = targets.simulate_sv_data(p["t"], seed=p["data_seed"])
        return targets.sv_target(returns)
    raise ConfigError(f"target: unknown preset {name!r}")


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
    adapt_steps, sample_steps = config.effective_steps()
    init = None
    if config.target == "cox":
        init = np.full(model.dim, model.extras["mu"])
    return SamplerSettings(
        model=model,
        kind=config.precond,
        h=config.h,
        L=config.L,
        objective=config.objective,
        adapt_steps=adapt_steps,
        sample_steps=sample_steps,
        chains=config.chains,
        seed=config.seed,
        thin=config.thin,
        init=init,
        init_scale=config.init_scale,
        adapt_config=_adapt_config(config),
    )


# -- emission -------------------------------------------------------------


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        return "NA"
    return format(x, ".17g")


SUMMARY_COLUMNS = (
    "version", "seed", "target", "objective", "precond", "h", "L",
    "adapt_steps", "sample_steps", "chains", "min_ess", "mean_ess",
    "median_ess", "max_rhat", "median_rhat", "acceptance", "divergences",
    "cond_number", "wall_seconds",
)


def summary_row(report, config):
    adapt_steps, sample_steps = config.effective_steps()
    vals = {
        "version": __version__,
        "seed": config.seed,
        "target": config.target,
        "objective": config.objective,
        "precond": config.precond,
        "h": config.h,
        "L": config.L,
        "adapt_steps": adapt_steps,
        "sample_steps": sample_steps,
        "chains": config.chains,
        "min_ess": report.min_ess,
        "mean_ess": report.mean_ess,
        "median_ess": report.median_ess,
        "max_rhat": report.max_rhat,
        "median_rhat": report.median_rhat,
        "acceptance": report.acceptance_rate,
        "divergences": report.divergences,
        "cond_number": report.cond_number,
        "wall_seconds": report.wall_seconds,
    }
    return [_fmt(vals[c]) for c in SUMMARY_COLUMNS]


def _provenance(config):
    return f"# ehmc={__version__} seed={config.seed}\n"


def emit_report(report, out_dir, config, sweep_rows=None):
    """Write summary.csv, per_dim.csv, mu_trace.csv, config.echo and the
    final checkpoint under out_dir.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    path = os.path.join(out_dir, "summary.csv")
    rows = sweep_rows if sweep_rows is not None else [summary_row(report, config)]
    with open(path, "w") as fh:
        fh.write(_provenance(config))
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    paths.append(path)

    path = os.path.join(out_dir, "per_dim.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(config))
        fh.write("dim,ess,split_rhat,degenerate\n")
        for j in range(report.ess_per_dim.size):
            fh.write(
                f"{j},{_fmt(report.ess_per_dim[j])},"
                f"{_fmt(report.split_rhat_per_dim[j])},"
                f"{int(report.degenerate_dims[j])}\n"
            )
    paths.append(path)

    path = os.path.join(out_dir, "mu_trace.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(config))
        fh.write("step,mu_abs_mean\n")
        for i, val in enumerate(report.mu_trace):
            fh.write(f"{i},{_fmt(val)}\n")
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
    blocks = {"run": ["[run]"], "adapt": ["[adapt]"]}
    for section, key, name, _ in _FIELDS:
        val = getattr(config, name)
        if val is not None:
            blocks[section].append(f"{key} = {_fmt(val)}")
    lines = blocks["run"] + ["", "[target]"]
    for key, val in sorted(config.target_params.items()):
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = _fmt(val)
        lines.append(f"{key} = {val}")
    lines += [""] + blocks["adapt"] + [""]
    if config.sweep_L:
        lines.append("[sweep]")
        lines.append("l_values = " + ",".join(str(l) for l in config.sweep_L))
        lines.append("")
    lines.append("[meta]")
    lines.append(f"version = {__version__}")
    lines.append("")
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
        for name in sorted(PRESET_PARAMS):
            keys = ", ".join(sorted(PRESET_PARAMS[name]))
            print(f"{name}: {keys}")
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
            last = None
            for L in config.sweep_L:
                one = replace(config, L=L, sweep_L=())
                report = run_experiment(to_settings(one, model))
                rows.append(summary_row(report, one))
                emit_report(report, os.path.join(config.out, f"L{L}"), one)
                last = report
            emit_report(last, config.out, config, sweep_rows=rows)
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
