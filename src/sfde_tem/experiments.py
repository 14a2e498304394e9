"""Monte Carlo harnesses: strong-error tables, moment bounds, decay rates.

Replica r of a run draws its Brownian path from the (seed, r) counter
stream, so every replica's path is the same however replicas are grouped.
Replicas run serially in batches sized so that a history ring of
min(N+1, K) * n floats per replica (history N, K steps) would hold at most
``RING_ENTRIES`` floats; the driver makes that ring only for coefficients
that read simulated states.  Increments are streamed a block at a time
and no batch holds a whole Brownian path; ``strong_error`` steps the
reference and every coarse level in lock-step over each block.  Batch
results are reduced in index order, so a seed reproduces every number bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .brownian import IncrementStream, _block_sums, _CoarseningStream, _integer, ratio_as_int

# bound only for perfbench/tracing.py's patch points, so its brownian.sample_s, coarsen_s and
# normals read 0 on converge-ex1: a blind spot, not a measurement (delete with ROADMAP item 4)
from .brownian import sample_increments  # noqa: F401
from .errors import ConfigurationError, DegenerateFitError, NumericalError
from .model import SfdeModel
from .scheme import CLASSIC_EM, TRUNCATED_EM, SchemeConfig, _Driver, _History, _run_batch, resolve_grid
from .segment import Segment, _sum_last_axis, constant_weight

RING_ENTRIES = 2**22
MOMENT_FLOOR = 1e-300
MIN_SAMPLES = 100


@dataclass
class ErrorTable:
    """Per-step-size RMS terminal errors and the fitted log-log slope.

    ``degenerate`` marks a table no slope can be fitted to (a single step
    size, or a zero RMS error); its ``fitted_slope`` is None.
    """

    steps: np.ndarray
    rms_errors: np.ndarray
    std_errors: np.ndarray
    fitted_slope: Optional[float]
    samples: int
    degenerate: bool = False
    truncation_hits: Optional[np.ndarray] = None  # per entry of ``steps``
    reference_hits: Optional[int] = None  # None when an exact terminal is the reference


@dataclass
class MomentCurve:
    """E|Y(t)|^p estimates on the reporting grid plus the running maximum over all steps."""

    times: np.ndarray
    moments: np.ndarray
    running_max: float
    diverged: int
    samples: int


@dataclass
class StabilityReport:
    """Decay diagnostics: log-moment curve, fitted tail rate, pathwise rates, sample mean."""

    times: np.ndarray
    log_moment: np.ndarray
    moment_rate: float
    pathwise_rates: np.ndarray
    sample_mean: np.ndarray
    clamped: bool
    p_exponent: float
    samples: int


def _sample_count(samples, harness: str) -> int:
    """``samples`` as an int of at least ``MIN_SAMPLES``, else ``ConfigurationError``."""
    samples = _integer(samples, "samples")
    if samples < MIN_SAMPLES:
        raise ConfigurationError(f"{harness} needs at least {MIN_SAMPLES} samples, got {samples}")
    return samples


def _batches(samples: int, n_hist: int, dim: int, n_steps: int) -> Iterator[Tuple[int, int]]:
    """Yield (start, count) per batch of replicas in index order.

    A batch holds at most RING_ENTRIES // (rows * dim) replicas, where rows
    is the length of a history ring over K steps (``scheme._History.rows``);
    the fewest batches within that bound share the replicas evenly.  The
    bound is for the worst case, coefficients that read simulated states;
    the driver makes no ring for coefficients that read only the head and
    running integrals, and their batches are sized the same.
    """
    most = max(1, RING_ENTRIES // (_History.rows(n_hist, n_steps) * dim))
    size = -(-samples // -(-samples // most))
    for start in range(0, samples, size):
        yield start, min(size, samples - start)


def strong_error(
    model: SfdeModel,
    step_list: Sequence[float],
    step_ref: float,
    horizon: float,
    samples: int,
    seed: int,
    *,
    exact_terminal: Optional[Callable] = None,
) -> ErrorTable:
    """RMS terminal error per coarse step against a coupled reference path.

    Every replica draws one fine Brownian path at ``step_ref``; the
    reference is the truncated scheme on that path and each coarse run
    consumes block-summed increments of the same path, in one streamed pass
    per batch.  ``exact_terminal``, when a closed form is known, replaces
    the reference: it maps B(T) as a one-step path of shape (B, 1, d),
    bit-identical to ``total_increment`` of each whole fine path, and the
    horizon to (B, n) terminal states.
    """
    samples = _sample_count(samples, "strong_error")
    steps = sorted({float(s) for s in step_list}, reverse=True)
    if not steps or len(steps) != len(step_list):
        raise ConfigurationError(f"step_list must hold distinct steps, got {list(step_list)}")
    factors = []
    for s in steps:
        f = ratio_as_int(s, step_ref, "step/step_ref")
        if f < 2 or f & (f - 1) != 0:
            raise ConfigurationError(f"step {s} is not step_ref * 2^j for j >= 1 (factor {f})")
        factors.append(f)
    ref_config = SchemeConfig(step=step_ref, horizon=horizon, variant=TRUNCATED_EM)
    _, n_hist, n_ref = resolve_grid(model, ref_config)
    coarse_configs = [SchemeConfig(step=s, horizon=horizon, variant=TRUNCATED_EM) for s in steps]

    err_sq = np.empty((len(steps), samples))
    hits = np.zeros(len(steps), dtype=np.int64)
    ref_hits = 0
    for start, count in _batches(samples, n_hist, model.dim_state, n_ref):
        levels = [_Driver(model, cfg, count, replica_offset=start) for cfg in coarse_configs]
        stream = _CoarseningStream(
            seed, start, count, model.dim_noise, step_ref, n_ref,
            [(f, level.advance) for f, level in zip(factors[::-1], levels[::-1])],
        )
        if exact_terminal is not None:
            for _ in stream.blocks():
                pass  # no reference run: the coarse levels follow the stream alone
            b_total = _block_sums(stream.totals, len(stream.totals), axis=0)[0]
            ref_term = np.asarray(exact_terminal(b_total[:, None], horizon))
        else:
            ref = _run_batch(model, ref_config, stream, replica_offset=start)
            ref_term = ref.terminal
            ref_hits += int(ref.truncation_hits.sum())
        for i, level in enumerate(levels):
            res = level.result()
            err_sq[i, start : start + count] = np.sum((res.terminal - ref_term) ** 2, axis=-1)
            hits[i] += int(res.truncation_hits.sum())
    mean_sq = err_sq.mean(axis=1)
    rms = np.sqrt(mean_sq)
    se_mean = err_sq.std(axis=1, ddof=1) / math.sqrt(samples)
    std_errors = np.where(rms > 0, se_mean / np.where(rms > 0, 2.0 * rms, 1.0), 0.0)
    table = ErrorTable(
        steps=np.array(steps),
        rms_errors=rms,
        std_errors=std_errors,
        fitted_slope=None,
        samples=samples,
        degenerate=len(steps) < 2 or bool(np.any(rms <= 0.0)),
        truncation_hits=hits,
        reference_hits=None if exact_terminal is not None else ref_hits,
    )
    if not table.degenerate:
        table.fitted_slope = fit_rate(table)
    return table


def fit_rate(table: ErrorTable) -> float:
    """Ordinary least-squares slope of log(rms) against log(step)."""
    steps = np.asarray(table.steps, dtype=float)
    errors = np.asarray(table.rms_errors, dtype=float)
    if steps.size < 2:
        raise DegenerateFitError(f"need at least 2 error levels, got {steps.size}")
    if np.any(errors <= 0.0) or not np.all(np.isfinite(errors)):
        raise DegenerateFitError("rate fit requires strictly positive finite errors")
    slope, _ = np.polyfit(np.log(steps), np.log(errors), 1)
    return float(slope)


def _report_index(n_steps: int, report_every: int) -> np.ndarray:
    """Grid indices 0, r, 2r, ... of the reported points, always ending at the last index K."""
    idx = np.arange(0, n_steps + 1, max(1, int(report_every)))
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx


def moment_estimate(
    model: SfdeModel,
    config: SchemeConfig,
    p_exponent: float,
    samples: int,
    seed: int,
    report_every: int = 1,
) -> MomentCurve:
    """Monte Carlo estimate of E|Y(t_k)|^p on the grid, with its running maximum.

    Classic-scheme replicas that diverge are dropped from the estimate from
    their divergence step onward and counted separately.
    """
    if not 2 <= p_exponent < math.inf:
        raise ConfigurationError(f"moment exponent must be finite and >= 2, got {p_exponent}")
    samples = _sample_count(samples, "moment_estimate")
    delta, n_hist, n_steps = resolve_grid(model, config)
    classic = config.variant == CLASSIC_EM

    sums = np.zeros(n_steps + 1)
    counts = np.zeros(n_steps + 1, dtype=np.int64)
    diverged = 0

    def observe(k0, states, alive):
        # each step's row is reduced as a (B,) array would be: numpy sums a
        # C-order row pairwise whether or not other rows lie before it
        rows = slice(k0, k0 + len(states))
        sq, _ = _observed_sums(states, columns=False)
        pow_p = sq ** (0.5 * p_exponent)
        if classic:
            pow_p = np.where(alive, pow_p, 0.0)
            counts[rows] += alive.sum(axis=1)
        else:
            counts[rows] += states.shape[1]
        sums[rows] += pow_p.sum(axis=1)

    for start, count in _batches(samples, n_hist, model.dim_state, n_steps):
        inc = IncrementStream(seed, start, count, model.dim_noise, config.step, n_steps)
        res = _run_batch(model, config, inc, per_block=observe, replica_offset=start)
        diverged += int(res.diverged.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        estimates = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    times = np.arange(n_steps + 1) * delta
    idx = _report_index(n_steps, report_every)
    # NaN marks a step with no live replica; an overflowed estimate, inf, is the maximum
    estimated = estimates[~np.isnan(estimates)]
    running_max = float(estimated.max()) if estimated.size else float("nan")
    return MomentCurve(
        times=times[idx],
        moments=estimates[idx],
        running_max=running_max,
        diverged=diverged,
        samples=samples,
    )


def stability_decay(
    model: SfdeModel,
    config: SchemeConfig,
    p_exponent: float,
    samples: int,
    seed: int,
    tail_fraction: float = 0.6,
    report_every: int = 1,
) -> StabilityReport:
    """Decay diagnostics for the p-th moment and per-replica pathwise rates.

    The moment rate is the least-squares slope of log E|Y(t)|^p over the
    final ``tail_fraction`` of [0, T]; moment estimates below 1e-300 are
    clamped, flagged, and excluded from the fit.  A classic-scheme run in
    which any replica diverges raises ``NumericalError`` with the count,
    since its moments and rates would not be finite.
    """
    if not 0 < p_exponent < math.inf:
        raise ConfigurationError(f"moment exponent must be positive and finite, got {p_exponent}")
    samples = _sample_count(samples, "stability_decay")
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigurationError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    delta, n_hist, n_steps = resolve_grid(model, config)

    sums_p = np.zeros(n_steps + 1)
    sums_state = np.zeros((n_steps + 1, model.dim_state))
    terminal_norms = np.empty(samples)
    diverged = 0

    def observe(k0, states, alive):
        rows = slice(k0, k0 + len(states))
        sq, columns = _observed_sums(states, columns=True)
        sums_p[rows] += (sq ** (0.5 * p_exponent)).sum(axis=1)
        sums_state[rows] += columns

    for start, count in _batches(samples, n_hist, model.dim_state, n_steps):
        inc = IncrementStream(seed, start, count, model.dim_noise, config.step, n_steps)
        res = _run_batch(model, config, inc, per_block=observe, replica_offset=start)
        terminal_norms[start : start + count] = np.sqrt(np.sum(res.terminal**2, axis=-1))
        diverged += int(res.diverged.sum())
    if diverged:
        raise NumericalError(f"{diverged} of {samples} replicas diverged, so the decay diagnostics are undefined")

    moments = sums_p / samples
    clamped = moments < MOMENT_FLOOR
    log_moment = np.log(np.maximum(moments, MOMENT_FLOOR))
    times = np.arange(n_steps + 1) * delta
    horizon = config.horizon
    tail = (times >= horizon * (1.0 - tail_fraction)) & ~clamped
    if tail.sum() < 2:
        raise NumericalError("tail window has fewer than 2 usable points for the rate fit")
    moment_rate, _ = np.polyfit(times[tail], log_moment[tail], 1)

    pathwise_rates = np.log(np.maximum(terminal_norms, MOMENT_FLOOR)) / horizon
    sample_mean = sums_state / samples
    idx = _report_index(n_steps, report_every)
    return StabilityReport(
        times=times[idx],
        log_moment=log_moment[idx],
        moment_rate=float(moment_rate),
        pathwise_rates=pathwise_rates,
        sample_mean=sample_mean[idx],
        clamped=bool(clamped.any()),
        p_exponent=p_exponent,
        samples=samples,
    )


def _observed_sums(states: np.ndarray, columns: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The squared norms (L, B) of (L, B, n) states and, if ``columns``, each step's sums over replicas (L, n).

    They are the bytes of ``_sum_last_axis(states * states)`` and of
    ``states[l].sum(axis=0)`` stacked over l, but for the sign of a NaN.
    The compiled ``observed_sums`` takes both in one pass over a C-ordered
    float64 block of 1 <= n < 8 coordinates, the sums over replicas only for
    n >= 2: numpy sums a C-order (B, n) array of n >= 2 columns down axis 0
    one row after another, starting from 0.0, as C does, but a single column
    pairwise.  Without the library, numpy takes them, a C-ordered block's
    sums of n >= 2 columns in one accumulation, which adds in the same order.
    Other layouts, and a single column, keep ``sum``.
    """
    from . import _native  # here, so that importing the package does not import it

    steps, batch, dim = states.shape
    kernels, flags = _native.kernels(), states.flags
    sums = None
    if kernels is not None and 0 < dim < 8 and states.dtype == np.float64 and flags.c_contiguous and flags.aligned:
        sq = np.empty((steps, batch))
        sums = np.empty((steps, dim)) if columns and dim > 1 else None
        kernels[_native._SUMS](
            steps, batch, dim, states.ctypes.data, sq.ctypes.data, None if sums is None else sums.ctypes.data
        )
    else:
        sq = _sum_last_axis(states * states)
    if not columns or sums is not None:
        return sq, sums
    if batch and dim > 1 and flags.c_contiguous:
        return sq, 0.0 + np.add.accumulate(states, axis=1)[:, -1]
    return sq, np.array([step.sum(axis=0) for step in states]).reshape(steps, dim)


def admissible_nu(b1: float, b2: float, b3: float, b4: float, p_exponent: float, tau: float) -> float:
    """Largest decay constant nu > 0 satisfying the two delay-margin inequalities

        (p/2) (b1 - b2 e^{nu tau}) - nu >= 0   and   b3 - b4 e^{nu tau} >= 0,

    located by bracket doubling and bisection to 1e-9.
    """
    # an infinite constant would keep the bracket doubling from stopping
    if not (math.inf > b1 > b2 >= 0.0):
        raise ValueError(f"need finite b1 > b2 >= 0, got b1={b1}, b2={b2}")
    if not (math.inf > b3 > b4 >= 0.0):
        raise ValueError(f"need finite b3 > b4 >= 0, got b3={b3}, b4={b4}")
    if not 2 <= p_exponent < math.inf:
        raise ValueError(f"moment exponent must be finite and >= 2, got {p_exponent}")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")

    def margin_one(nu: float) -> float:
        return 0.5 * p_exponent * (b1 - b2 * math.exp(min(nu * tau, 700.0))) - nu

    def margin_two(nu: float) -> float:
        return b3 - b4 * math.exp(min(nu * tau, 700.0))

    roots = [_decreasing_root(margin_one)]
    if b4 > 0.0:
        roots.append(_decreasing_root(margin_two))
    return min(roots)


def _decreasing_root(f, tol: float = 1e-9) -> float:
    """Root of a strictly decreasing function with f(0) > 0."""
    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, hi * 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def phi_diagnostic(seg: Segment, epsilon0: float) -> float:
    """Lyapunov-type functional 1 + (1 - e0)|phi(0)|^2 + (e0/tau) int |phi|^2; always >= 1."""
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    head_sq = float(np.sum(seg.head * seg.head))
    mean_sq = seg.weighted_integral(constant_weight(1.0 / seg.tau), lambda v: np.sum(v * v, axis=-1))
    return 1.0 + (1.0 - epsilon0) * head_sq + epsilon0 * float(mean_sq)
