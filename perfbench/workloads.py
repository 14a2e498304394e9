"""The three benchmark workloads, each a call into a public sfde_tem experiment.

A workload is prepared once per process (model construction and grid
resolution: the set-up the benchmark times) and then called repeatedly
with the workload seed.  Calls pass no ``threads=`` or ``chunk_size=``
argument, so they measure the library's default batching and threading.

Each prepared workload knows how many replica-steps one call advances
(summed over every step-size level, the reference included), how to check
a result, and how to reduce it to a digest that must be bit-identical for
every call with the same seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

SAMPLES = 1000

# converge-ex1: acceptance criterion 1 with the horizon cut from 10 to 0.25,
# so that one call takes seconds instead of a minute.  The reference level
# keeps N = 8192 history slots.
CONVERGE_EXPONENTS = (5, 6, 7, 8, 10)
CONVERGE_REF_EXPONENT = 14
CONVERGE_HORIZON = 0.25

# moments-ex1 and stability-ex2 run criteria 4 and 5 exactly, so their
# bounds (tests/test_acceptance.py) apply to every call.
MOMENT_EXPONENTS = (5, 6, 7)
MOMENT_P = 8.0
MOMENT_HORIZON = 10.0
MOMENT_REPORT_EVERY = 8
MOMENT_MAX_RATIO = 2.0

STABILITY_EXPONENT = 6
STABILITY_P = 2.0
STABILITY_HORIZON = 10.0
STABILITY_TAIL = 0.6
STABILITY_MAX_RATE = -1.0
STABILITY_MAX_MEAN = 0.05
STABILITY_MIN_NEG_FRAC = 0.95


@dataclass(frozen=True)
class Level:
    """One step-size level a call runs: step, history slots N, steps K."""

    step: float
    n_hist: int
    n_steps: int


@dataclass(frozen=True)
class Prepared:
    """A workload after set-up; ``run(model, seed)`` makes one call."""

    model: object
    levels: Tuple[Level, ...]
    run: Callable
    check: Callable  # result -> list of problems, empty when correct
    arrays: Callable  # result -> arrays that make up the digest

    @property
    def replica_steps(self) -> int:
        return SAMPLES * sum(level.n_steps for level in self.levels)

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for a in self.arrays(result):
            a = np.ascontiguousarray(np.asarray(a, dtype=float))
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]


def _levels(st, model, steps, horizon) -> Tuple[Level, ...]:
    out = []
    for step in steps:
        _, n_hist, n_steps = st.scheme.resolve_grid(model, st.SchemeConfig(step=step, horizon=horizon))
        out.append(Level(step, n_hist, n_steps))
    return tuple(out)


def _non_finite(names_arrays) -> List[str]:
    return [f"{name} is not finite" for name, a in names_arrays if not np.all(np.isfinite(a))]


def converge_ex1(st) -> Prepared:
    model = st.builtin_example1()
    steps = [2.0**-j for j in CONVERGE_EXPONENTS]
    step_ref = 2.0**-CONVERGE_REF_EXPONENT

    def run(model, seed):
        return st.strong_error(model, steps, step_ref, CONVERGE_HORIZON, SAMPLES, seed)

    def check(table) -> List[str]:
        problems = _non_finite([("rms_errors", table.rms_errors), ("std_errors", table.std_errors)])
        if len(table.rms_errors) != len(steps):
            problems.append(f"{len(table.rms_errors)} error levels, expected {len(steps)}")
        if not np.all(table.rms_errors > 0.0):
            problems.append(f"non-positive RMS error in {table.rms_errors.tolist()}")
        return problems

    return Prepared(
        model=model,
        levels=_levels(st, model, steps + [step_ref], CONVERGE_HORIZON),
        run=run,
        check=check,
        arrays=lambda t: [t.steps, t.rms_errors, t.std_errors],
    )


def moments_ex1(st) -> Prepared:
    model = st.builtin_example1()
    steps = [2.0**-j for j in MOMENT_EXPONENTS]
    configs = [st.SchemeConfig(step=s, horizon=MOMENT_HORIZON) for s in steps]

    def run(model, seed):
        return [
            st.moment_estimate(model, cfg, MOMENT_P, SAMPLES, seed, report_every=MOMENT_REPORT_EVERY)
            for cfg in configs
        ]

    def check(curves) -> List[str]:
        maxima = np.array([c.running_max for c in curves])
        problems = _non_finite([("running maxima", maxima)] + [("moments", c.moments) for c in curves])
        diverged = sum(c.diverged for c in curves)
        if diverged:
            problems.append(f"{diverged} diverged replicas")
        if not problems and maxima.max() / maxima.min() > MOMENT_MAX_RATIO:
            problems.append(f"moment maxima {maxima.tolist()} differ by more than {MOMENT_MAX_RATIO}x")
        return problems

    return Prepared(
        model=model,
        levels=_levels(st, model, steps, MOMENT_HORIZON),
        run=run,
        check=check,
        arrays=lambda curves: [a for c in curves for a in (c.times, c.moments, [c.running_max, c.diverged])],
    )


def stability_ex2(st) -> Prepared:
    model = st.builtin_example2()
    step = 2.0**-STABILITY_EXPONENT
    config = st.SchemeConfig(step=step, horizon=STABILITY_HORIZON)

    def run(model, seed):
        return st.stability_decay(model, config, STABILITY_P, SAMPLES, seed, tail_fraction=STABILITY_TAIL)

    def check(report) -> List[str]:
        problems = _non_finite(
            [
                ("log_moment", report.log_moment),
                ("pathwise_rates", report.pathwise_rates),
                ("sample_mean", report.sample_mean),
            ]
        )
        if problems:
            return problems
        if not report.moment_rate <= STABILITY_MAX_RATE:
            problems.append(f"moment rate {report.moment_rate} > {STABILITY_MAX_RATE}")
        mean_t = float(np.max(np.abs(report.sample_mean[-1])))
        if not mean_t <= STABILITY_MAX_MEAN:
            problems.append(f"|mean(T)| = {mean_t} > {STABILITY_MAX_MEAN}")
        neg = float((report.pathwise_rates < 0).mean())
        if not neg >= STABILITY_MIN_NEG_FRAC:
            problems.append(f"negative pathwise rates {neg} < {STABILITY_MIN_NEG_FRAC}")
        return problems

    return Prepared(
        model=model,
        levels=_levels(st, model, [step], STABILITY_HORIZON),
        run=run,
        check=check,
        arrays=lambda r: [r.times, r.log_moment, [r.moment_rate], r.pathwise_rates, r.sample_mean],
    )


WORKLOADS = {
    "converge-ex1": converge_ex1,
    "moments-ex1": moments_ex1,
    "stability-ex2": stability_ex2,
}
