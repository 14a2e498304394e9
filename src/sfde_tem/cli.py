"""Command-line front end: config parsing, experiment dispatch, CSV artifacts.

Commands
    simulate     one truncated-scheme path          -> t,y_1..y_n
    convergence  coupled strong-error table         -> delta,rms_error,std_error
    stability    decay of log E|Y(t)|^p             -> t,log_moment,sample_mean_1..n
    moments      E|Y(t)|^p curve and running max    -> t,moment_p,running_max
    nu           admissible decay constant          (summary line only)

Configuration comes from a flat ``key = value`` file (``#`` comments) with
command-line flags overriding file values.  Each key is declared once, in
``_KEYS`` (its ``RunConfig`` field, parser and flag help; ``ref_exponent``
is the flag ``--ref-exponent``), and each command once, in ``_COMMANDS``
(its default output and steps); ``RunConfig`` holds every other default.
A model parameter is read by gbm (a, b, x0) or by ``nu`` (b1..b4, tau),
as ``_PARAM_READERS`` says; passing one that neither the model nor the
command reads is a configuration error that names it.  ``nu`` takes all
of b1..b4 or none (then example2's constants).  Each
command writes its CSV, then prints one summary line.  Numbers are
serialized with 17 significant digits, and identical config + seed
reproduces identical CSV bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from . import brownian, experiments, scheme
from .errors import ConfigurationError, DegenerateFitError, NumericalError, SfdeTemError
from .model import MODEL_REGISTRY, get_model

# model parameter -> the models and commands that read it; any other model or command rejects it
_PARAM_READERS = {
    **{key: ("gbm",) for key in ("a", "b", "x0")},
    **{key: ("nu",) for key in ("b1", "b2", "b3", "b4", "tau")},
}


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    command: str
    model_name: str = "example1"
    model_params: Dict[str, float] = field(default_factory=dict)
    step_exponents: List[int] = field(default_factory=list)
    ref_exponent: int = 14
    horizon: float = 10.0
    samples: int = 1000
    seed: int = 42
    p_exponent: float = 2.0
    output_path: str = ""


def _parse_steps(raw: str) -> List[int]:
    return [int(item) for item in raw.replace(" ", "").split(",") if item]


# key -> (RunConfig field, or None for a model parameter; parser; what it expects; flag help)
_KEYS = {
    "command": ("command", str, "str", None),
    "model": ("model_name", str, "str", "model registry name (example1, example2, gbm)"),
    "steps": ("step_exponents", _parse_steps, "comma-separated integers",
              "comma-separated step exponents j (step = 2^-j)"),
    "ref_exponent": ("ref_exponent", int, "int", "reference step exponent"),
    "horizon": ("horizon", float, "float", "time horizon T"),
    "samples": ("samples", int, "int", "Monte Carlo replica count M"),
    "seed": ("seed", int, "int", "master seed"),
    "p": ("p_exponent", float, "float", "moment exponent p"),
    "output": ("output_path", str, "str", "CSV output path"),
    **{key: (None, float, "float", f"model parameter {key}") for key in _PARAM_READERS},
}

# command -> (default output path, default step exponents)
_COMMANDS = {
    "simulate": ("trajectory.csv", (6,)),
    "convergence": ("convergence.csv", (5, 6, 7, 8, 10)),
    "stability": ("stability.csv", (6,)),
    "moments": ("moments.csv", (6,)),
    "nu": ("", (6,)),
}
COMMANDS = tuple(_COMMANDS)


def _parse(key: str, raw: str):
    _, parser, expects, _ = _KEYS[key]
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key '{key}' expects {expects}, got '{raw}'") from exc


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
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key '{key}' (line {lineno})")
        values[key] = _parse(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key '{key}'")
        values[key] = _parse(key, val) if isinstance(val, str) else val

    command = values.get("command")
    if command is None:
        raise ConfigurationError("key 'command' is required")
    if command not in COMMANDS:
        raise ConfigurationError(f"key 'command' must be one of {COMMANDS}, got '{command}'")

    output, steps = _COMMANDS[command]
    fields = {"output_path": output, "step_exponents": steps}
    fields.update((_KEYS[key][0], val) for key, val in values.items() if key not in _PARAM_READERS)
    fields["step_exponents"] = list(fields["step_exponents"])
    config = RunConfig(model_params={k: values[k] for k in _PARAM_READERS if k in values}, **fields)
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
    if not 0 < config.horizon < math.inf:
        raise ConfigurationError(f"key 'horizon' must be positive and finite, got {config.horizon}")
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
    """Dispatch a validated config; writes the command's CSV, then prints one summary line."""
    unread = [
        key for key in config.model_params
        if config.model_name not in _PARAM_READERS[key] and config.command not in _PARAM_READERS[key]
    ]
    if unread:
        raise ConfigurationError(
            f"model '{config.model_name}' and command '{config.command}' read no parameter "
            + ", ".join(f"'{key}'" for key in unread)
        )
    model = get_model(config.model_name, config.model_params)
    step0 = 2.0 ** (-config.step_exponents[0])
    header = None  # nu writes no CSV

    if config.command == "simulate":
        grid = brownian.generate(config.seed, 0, model.dim_noise, step0, config.horizon)
        record = scheme.simulate(model, scheme.SchemeConfig(step=step0, horizon=config.horizon), grid)
        header = "t," + ",".join(f"y_{i+1}" for i in range(model.dim_state))
        rows = ((t,) + tuple(state) for t, state in zip(record.times, record.states))
        summary = f"truncation_hits={record.truncation_hits}"
    elif config.command == "convergence":
        table = experiments.strong_error(
            model,
            step_list=[2.0**-j for j in config.step_exponents],
            step_ref=2.0**-config.ref_exponent,
            horizon=config.horizon,
            samples=config.samples,
            seed=config.seed,
        )
        header = "delta,rms_error,std_error"
        rows = zip(table.steps, table.rms_errors, table.std_errors)
        summary = "slope=degenerate" if table.fitted_slope is None else f"slope={_fmt(table.fitted_slope)}"
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
        summary = f"moment_rate={_fmt(report.moment_rate)}"
    elif config.command == "moments":
        curve = experiments.moment_estimate(
            model,
            scheme.SchemeConfig(step=step0, horizon=config.horizon),
            p_exponent=config.p_exponent,
            samples=config.samples,
            seed=config.seed,
        )
        header = "t,moment_p,running_max"
        rows = zip(curve.times, curve.moments, np.fmax.accumulate(curve.moments))
        summary = f"running_max={_fmt(curve.running_max)}"
    elif config.command == "nu":
        names, params = ("b1", "b2", "b3", "b4"), config.model_params
        missing = [k for k in names if k not in params]
        if 0 < len(missing) < len(names):
            raise ConfigurationError(f"nu takes all of b1..b4 or none; missing {', '.join(missing)}")
        constants = get_model("example2").assumption_constants if missing else params
        tau = params.get("tau", 0.5 if missing else model.tau)
        nu = experiments.admissible_nu(*(constants[k] for k in names), config.p_exponent, tau)
        summary = f"nu={_fmt(nu)}"

    if header is not None:
        _write_csv(config.output_path, header, rows)
    print(summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfde-tem",
        description="Truncated Euler-Maruyama experiments for delay SFDEs",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, (_, _, _, help_text) in _KEYS.items():
        if key != "command":
            parser.add_argument("--" + key.replace("_", "-"), help=help_text)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _KEYS}
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
