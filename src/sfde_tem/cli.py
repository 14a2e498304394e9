"""Command-line front end: config parsing, experiment dispatch, CSV artifacts.

Commands
    simulate     one truncated-scheme path          -> t,y_1..y_n
    convergence  coupled strong-error table         -> delta,rms_error,std_error
    stability    decay of log E|Y(t)|^p             -> t,log_moment,sample_mean_1..n
    moments      E|Y(t)|^p curve and running max    -> t,moment_p,running_max
    nu           admissible decay constant          (summary line only)

Configuration comes from a flat ``key = value`` file (``#`` comments) with
command-line flags overriding file values.  Numbers are serialized with 17
significant digits, and identical config + seed reproduces identical CSV
bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from . import brownian, experiments, scheme
from .errors import ConfigurationError, DegenerateFitError, NumericalError, SfdeTemError
from .model import MODEL_REGISTRY, get_model

COMMANDS = ("simulate", "convergence", "stability", "moments", "nu")

DEFAULTS = {
    "horizon": 10.0,
    "samples": 1000,
    "seed": 42,
    "p": 2.0,
    "ref_exponent": 14,
}
DEFAULT_STEPS = {"convergence": [5, 6, 7, 8, 10]}
DEFAULT_STEPS_SINGLE = [6]
DEFAULT_OUTPUT = {
    "simulate": "trajectory.csv",
    "convergence": "convergence.csv",
    "stability": "stability.csv",
    "moments": "moments.csv",
    "nu": "",
}

_PARAM_KEYS = ("a", "b", "x0", "b1", "b2", "b3", "b4", "tau")


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    command: str
    model_name: str = "example1"
    model_params: Dict[str, float] = field(default_factory=dict)
    step_exponents: List[int] = field(default_factory=list)
    ref_exponent: int = DEFAULTS["ref_exponent"]
    horizon: float = DEFAULTS["horizon"]
    samples: int = DEFAULTS["samples"]
    seed: int = DEFAULTS["seed"]
    p_exponent: float = DEFAULTS["p"]
    output_path: str = ""


def _parse_steps(raw: str) -> List[int]:
    try:
        return [int(item) for item in raw.replace(" ", "").split(",") if item]
    except ValueError as exc:
        raise ConfigurationError(f"key 'steps' expects comma-separated integers, got '{raw}'") from exc


def _parse_scalar(key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key '{key}' expects {kind.__name__}, got '{raw}'") from exc


_KEY_PARSERS = {
    "command": lambda k, v: str(v),
    "model": lambda k, v: str(v),
    "steps": lambda k, v: _parse_steps(v),
    "ref_exponent": lambda k, v: _parse_scalar(k, v, int),
    "horizon": lambda k, v: _parse_scalar(k, v, float),
    "samples": lambda k, v: _parse_scalar(k, v, int),
    "seed": lambda k, v: _parse_scalar(k, v, int),
    "p": lambda k, v: _parse_scalar(k, v, float),
    "output": lambda k, v: str(v),
    **{key: (lambda k, v: _parse_scalar(k, v, float)) for key in _PARAM_KEYS},
}


def parse_config(text: Optional[str] = None, overrides: Optional[Mapping[str, object]] = None) -> RunConfig:
    """Build a RunConfig from config-file text plus flag overrides (flags win)."""
    values: Dict[str, object] = {}
    for lineno, line in enumerate((text or "").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError(f"config line {lineno} is not 'key = value': '{line.strip()}'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigurationError(f"unknown config key '{key}' (line {lineno})")
        values[key] = _KEY_PARSERS[key](key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _KEY_PARSERS:
            raise ConfigurationError(f"unknown config key '{key}'")
        values[key] = _KEY_PARSERS[key](key, val) if isinstance(val, str) else val

    command = values.get("command")
    if command is None:
        raise ConfigurationError("key 'command' is required")
    if command not in COMMANDS:
        raise ConfigurationError(f"key 'command' must be one of {COMMANDS}, got '{command}'")

    config = RunConfig(
        command=command,
        model_name=values.get("model", "example1"),
        model_params={k: values[k] for k in _PARAM_KEYS if k in values},
        step_exponents=list(values.get("steps", DEFAULT_STEPS.get(command, DEFAULT_STEPS_SINGLE))),
        ref_exponent=values.get("ref_exponent", DEFAULTS["ref_exponent"]),
        horizon=values.get("horizon", DEFAULTS["horizon"]),
        samples=values.get("samples", DEFAULTS["samples"]),
        seed=values.get("seed", DEFAULTS["seed"]),
        p_exponent=values.get("p", DEFAULTS["p"]),
        output_path=values.get("output", DEFAULT_OUTPUT[command]),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.model_name not in MODEL_REGISTRY:
        raise ConfigurationError(
            f"key 'model': unknown model '{config.model_name}'; available: {sorted(MODEL_REGISTRY)}"
        )
    if not config.step_exponents:
        raise ConfigurationError("key 'steps' must list at least one exponent")
    if any(j < 0 for j in config.step_exponents):
        raise ConfigurationError("key 'steps' exponents must be nonnegative (step = 2^-j <= 1)")
    if config.command == "convergence" and config.ref_exponent <= max(config.step_exponents):
        raise ConfigurationError(
            f"key 'ref_exponent' ({config.ref_exponent}) must exceed every step exponent "
            f"(max {max(config.step_exponents)})"
        )
    if config.horizon <= 0:
        raise ConfigurationError(f"key 'horizon' must be positive, got {config.horizon}")
    if config.samples < 1:
        raise ConfigurationError(f"key 'samples' must be positive, got {config.samples}")
    if config.seed < 0:
        raise ConfigurationError(f"key 'seed' must be nonnegative, got {config.seed}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def run(config: RunConfig) -> int:
    """Dispatch a validated config; writes CSV artifacts and prints one summary line."""
    model = get_model(config.model_name, config.model_params)
    step0 = 2.0 ** (-config.step_exponents[0])

    if config.command == "simulate":
        grid = brownian.generate(config.seed, 0, model.dim_noise, step0, config.horizon)
        record = scheme.simulate(model, scheme.SchemeConfig(step=step0, horizon=config.horizon), grid)
        rows = ((t,) + tuple(state) for t, state in zip(record.times, record.states))
        _write_csv(config.output_path, "t," + ",".join(f"y_{i+1}" for i in range(model.dim_state)), rows)
        print(f"truncation_hits={record.truncation_hits}")
    elif config.command == "convergence":
        table = experiments.strong_error(
            model,
            step_list=[2.0**-j for j in config.step_exponents],
            step_ref=2.0**-config.ref_exponent,
            horizon=config.horizon,
            samples=config.samples,
            seed=config.seed,
        )
        rows = zip(table.steps, table.rms_errors, table.std_errors)
        _write_csv(config.output_path, "delta,rms_error,std_error", rows)
        print("slope=degenerate" if table.fitted_slope is None else f"slope={_fmt(table.fitted_slope)}")
    elif config.command == "stability":
        report = experiments.stability_decay(
            model,
            scheme.SchemeConfig(step=step0, horizon=config.horizon),
            p_exponent=config.p_exponent,
            samples=config.samples,
            seed=config.seed,
        )
        header = "t,log_moment," + ",".join(f"sample_mean_{i+1}" for i in range(model.dim_state))
        rows = (
            (t, lm) + tuple(mean)
            for t, lm, mean in zip(report.times, report.log_moment, report.sample_mean)
        )
        _write_csv(config.output_path, header, rows)
        print(f"moment_rate={_fmt(report.moment_rate)}")
    elif config.command == "moments":
        curve = experiments.moment_estimate(
            model,
            scheme.SchemeConfig(step=step0, horizon=config.horizon),
            p_exponent=config.p_exponent,
            samples=config.samples,
            seed=config.seed,
        )
        cumulative = np.fmax.accumulate(curve.moments)
        rows = zip(curve.times, curve.moments, cumulative)
        _write_csv(config.output_path, "t,moment_p,running_max", rows)
        print(f"running_max={_fmt(curve.running_max)}")
    elif config.command == "nu":
        params = config.model_params
        if all(k in params for k in ("b1", "b2", "b3", "b4")):
            b1, b2, b3, b4 = (params[k] for k in ("b1", "b2", "b3", "b4"))
            tau = params.get("tau", model.tau)
        else:
            declared = get_model("example2").assumption_constants
            b1, b2, b3, b4 = (declared[k] for k in ("b1", "b2", "b3", "b4"))
            tau = params.get("tau", 0.5)
        nu = experiments.admissible_nu(b1, b2, b3, b4, config.p_exponent, tau)
        print(f"nu={_fmt(nu)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfde-tem",
        description="Truncated Euler-Maruyama experiments for delay SFDEs",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--model", help="model registry name (example1, example2, gbm)")
    parser.add_argument("--steps", help="comma-separated step exponents j (step = 2^-j)")
    parser.add_argument("--ref-exponent", dest="ref_exponent", help="reference step exponent")
    parser.add_argument("--horizon", help="time horizon T")
    parser.add_argument("--samples", help="Monte Carlo replica count M")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--p", help="moment exponent p")
    parser.add_argument("--output", help="CSV output path")
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", help=f"model parameter {key}")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in _KEY_PARSERS
        if key != "command" and getattr(args, key, None) is not None
    }
    overrides["command"] = args.command
    try:
        text = None
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        return run(parse_config(text, overrides))
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateFitError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
