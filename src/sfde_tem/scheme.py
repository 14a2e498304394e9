"""Truncated and classic Euler-Maruyama recursions on interpolated segments.

One step advances the post-truncation state Y via

    pre  = Y_k + f(seg_k) * Delta + g(seg_k) * dB_k
    Y_{k+1} = clip(pre)            (truncated variant; classic keeps pre)

where seg_k is the piecewise-linear history window and clip is the radial
truncation to the ball of radius Gamma^{-1}(K Delta^-lambda).  The driver
below simulates a whole batch of replicas at once: every operation is
elementwise across the batch, so each replica's path is bit-identical no
matter how replicas are grouped into batches.  The batch history is a
time-major ring of shape (N+1, B, n), so reading one history node of every
replica touches one contiguous slot.  Distributed-delay integrals inside
the coefficients are kept as running trapezoid sums, updated in O(1) per
step for constant and boxcar weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .brownian import BrownianGrid, IncrementStream, ratio_as_int
from .errors import ConfigurationError, NumericalError, UnsupportedPointError
from .model import SfdeModel, clip_to_ball, truncate, truncation_radius
from .segment import (
    NODE_SNAP_REL,
    Segment,
    WeightFunction,
    _lerp,
    _per_node,
    _trapezoid_sum,
    _vectorized,
    node_weights,
)

TRUNCATED_EM = "truncated_em"
CLASSIC_EM = "classic_em"
_VARIANTS = (TRUNCATED_EM, CLASSIC_EM)


@dataclass(frozen=True)
class SchemeConfig:
    """Step size, horizon, and scheme variant; tau/step and horizon/step must be integral."""

    step: float
    horizon: float
    variant: str = TRUNCATED_EM

    def __post_init__(self):
        if not 0.0 < self.step <= 1.0:
            raise ConfigurationError(f"step must lie in (0, 1], got {self.step}")
        if not self.horizon > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.variant not in _VARIANTS:
            raise ConfigurationError(f"variant must be one of {_VARIANTS}, got '{self.variant}'")


def resolve_grid(model: SfdeModel, config: SchemeConfig):
    """Snap the grid: N = tau/step, Delta = tau/N exactly, K = horizon/Delta."""
    n_hist = ratio_as_int(model.tau, config.step, "tau/step")
    if n_hist % model.n_steps_multiple != 0:
        raise ConfigurationError(
            f"model '{model.name}' requires tau/step divisible by {model.n_steps_multiple}, got {n_hist}"
        )
    delta = model.tau / n_hist
    n_steps = ratio_as_int(config.horizon, delta, "horizon/step")
    return delta, n_hist, n_steps


@dataclass
class PathRecord:
    """One simulated path: post-truncation states on the grid t_k = k Delta.

    ``pre_truncation[k]`` holds the pre-clip value (the raw initial head at
    k = 0); ``initial_nodes`` are the truncated initial-data nodes, kept so
    history segments can be reconstructed at any grid time.
    """

    times: np.ndarray
    states: np.ndarray
    pre_truncation: np.ndarray
    truncation_hits: int
    diverged: bool
    divergence_step: Optional[int]
    step: float
    n_history: int
    initial_nodes: np.ndarray


def _apply_noise(g: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Contract the diffusion matrix (..., n, d) with increments (..., d)."""
    return np.sum(g * db[..., None, :], axis=-1)


class _IntegralTerm:
    """Running trapezoid state for one (weight, transform) pair.

    ``ring`` holds the transformed history, (N+1, B) in the window's
    physical slot order; only fast (constant and boxcar) terms keep it.
    Whether the transform evaluates whole arrays in one call is decided
    once, on the first values the term sees.
    """

    __slots__ = ("transform", "samples", "fast", "coeff", "m_slot", "ring", "value", "h_new", "version",
                 "vectorized")

    def __init__(self, weight: WeightFunction, transform, window: "_SlidingWindow"):
        self.transform = transform
        self.samples = node_weights(weight, window.tau, window.n_steps)
        self.fast = False
        self.m_slot = 0
        n = window.n_steps
        if weight.kind == "constant":
            self.fast = True
        elif weight.kind == "boxcar" and weight.declared_support is not None:
            lo, hi = weight.declared_support
            m = round(lo / window.step) + n
            on_node = abs(lo - (m - n) * window.step) <= NODE_SNAP_REL * max(1.0, window.tau)
            if hi == 0.0 and on_node and 1 <= m <= n - 1:
                self.fast = True
                self.m_slot = int(m)
        self.coeff = weight.plateau * window.step * 0.5
        values = window.initial if window.version == 0 else window.logical_values()
        h = _vectorized(transform, values)
        self.vectorized = h is not None
        if h is None:
            h = _per_node(transform, values)
        if window.version == 0:
            # every replica still holds the initial nodes: one value serves them all
            self.value = np.full(window.batch, _trapezoid_sum(h * self.samples, window.step))
            h = h[:, None]
        else:
            self.value = _trapezoid_sum(h * self.samples[:, None], window.step, axis=0)
        if self.fast:
            self.ring = np.empty((n + 1, window.batch))
            self.ring[window.phys(np.arange(n + 1))] = h
        else:
            self.ring = None
        self.h_new = None
        self.version = window.version

    def _h(self, values: np.ndarray) -> np.ndarray:
        if self.vectorized:
            out = np.asarray(self.transform(values))
            if out.shape == values.shape[:-1]:
                return out
        return _per_node(self.transform, values)

    def current(self, window: "_SlidingWindow"):
        if not self.fast and self.version != window.version:
            h = self._h(window.logical_values())
            self.value = _trapezoid_sum(h * self.samples[:, None], window.step, axis=0)
            self.version = window.version
        return self.value

    def pre_shift(self, window: "_SlidingWindow", new_states: np.ndarray):
        if not self.fast:
            return
        n = window.n_steps
        h_new = self._h(new_states)
        h_head = self.ring[window.phys(n)]
        h_m = self.ring[window.phys(self.m_slot)]
        h_m1 = self.ring[window.phys(self.m_slot + 1)]
        self.value = self.value + self.coeff * (h_new + h_head - h_m1 - h_m)
        self.h_new = h_new

    def post_shift(self, window: "_SlidingWindow", slot: int):
        if self.fast:
            self.ring[slot] = self.h_new
            self.h_new = None


class _SlidingWindow:
    """Ring-buffered history window of a batch, presenting the Segment evaluation surface.

    ``buf`` is time-major, shape (N+1, B, n): logical node j (0 = oldest,
    N = head) of every replica lives in the contiguous slot
    (start + j) mod (N+1).  Shifting writes the new head over the oldest
    slot and advances ``start``; registered integral terms are updated in
    the same move.  ``initial`` is the (N+1, n) initial data every replica
    starts from.
    """

    def __init__(self, initial: np.ndarray, batch: int, tau: float):
        self.initial = initial
        self._buf = np.empty((initial.shape[0], batch, initial.shape[1]))
        self._buf[:] = initial[:, None, :]
        self.tau = tau
        self._start = 0
        self.version = 0
        self._terms = {}

    @property
    def n_steps(self) -> int:
        return self._buf.shape[0] - 1

    @property
    def batch(self) -> int:
        return self._buf.shape[1]

    @property
    def dim(self) -> int:
        return self._buf.shape[-1]

    @property
    def step(self) -> float:
        return self.tau / self.n_steps

    @property
    def head(self) -> np.ndarray:
        return self._buf[self.phys(self.n_steps)]

    def phys(self, j):
        return (self._start + j) % (self.n_steps + 1)

    def logical_values(self) -> np.ndarray:
        return self._buf[self.phys(np.arange(self.n_steps + 1))]

    def lerp_eval(self, theta: float) -> np.ndarray:
        return _lerp(self, theta, lambda j: self._buf[self.phys(j)])

    def weighted_integral(self, weight: WeightFunction, transform):
        key = (id(weight), id(transform))
        term = self._terms.get(key)
        if term is None:
            term = _IntegralTerm(weight, transform, self)
            self._terms[key] = term
        return term.current(self)

    def shift(self, new_states: np.ndarray) -> None:
        slot = self._start
        for term in self._terms.values():
            term.pre_shift(self, new_states)
        self._buf[slot] = new_states
        self._start = (slot + 1) % (self.n_steps + 1)
        self.version += 1
        for term in self._terms.values():
            term.post_shift(self, slot)


def init_segment(model: SfdeModel, config: SchemeConfig) -> Segment:
    """Truncated initial-data segment: node j holds clip(xi((j - N) Delta))."""
    delta, n_hist, _ = resolve_grid(model, config)
    nodes, _ = _initial_nodes(model, delta, n_hist)
    return Segment(nodes, model.tau)


def _initial_nodes(model: SfdeModel, delta: float, n_hist: int, truncated: bool = True):
    # the classic scheme clips nothing, including its initial data
    raw = np.stack([model.initial_vector((j - n_hist) * delta) for j in range(n_hist + 1)])
    if not truncated:
        return raw, raw
    radius = truncation_radius(model.gamma, delta)
    return truncate(raw, radius), raw


def tem_step(model: SfdeModel, seg, db, radius: float):
    """One recursion step: returns (truncated new head, pre-truncation value)."""
    db = np.asarray(db, dtype=float)
    if not np.all(np.isfinite(db)):
        raise NumericalError("non-finite Brownian increment in step")
    f = np.asarray(model.drift(seg))
    g = np.asarray(model.diffusion(seg))
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise NumericalError("non-finite drift/diffusion output", head_norm=float(np.max(np.abs(seg.head))))
    pre = seg.head + f * seg.step + _apply_noise(g, db)
    return truncate(pre, radius), pre


@dataclass
class BatchResult:
    """Outcome of simulating a batch of replicas (internal driver output)."""

    terminal: np.ndarray          # (B, n)
    truncation_hits: np.ndarray   # (B,)
    diverged: np.ndarray          # (B,) bool
    divergence_step: np.ndarray   # (B,) int, -1 if none
    initial_nodes: np.ndarray     # (N+1, n) truncated initial data


def _run_batch(
    model: SfdeModel,
    config: SchemeConfig,
    increments,
    *,
    per_step: Optional[Callable] = None,
    replica_offset: int = 0,
) -> BatchResult:
    """Simulate a batch of replicas on increments of shape (B, K, d) with variance Delta.

    ``increments`` is an array (a transposed view of time-major (K, B, d)
    storage reads each step's row contiguously) or an ``IncrementStream``.
    ``per_step(k, states, pre, alive)`` is invoked at every grid index
    k = 0..K with the (B, n) post-truncation states and pre-truncation
    values (the raw initial head at k = 0); the arrays are only valid during
    the call.  All arithmetic is elementwise across the batch, so results
    are independent of how replicas are batched.
    """
    delta, n_hist, n_steps = resolve_grid(model, config)
    if isinstance(increments, IncrementStream):
        shape, rows = increments.shape, increments
    else:
        inc = np.asarray(increments, dtype=float)
        if inc.ndim != 3:
            raise ConfigurationError(f"batch increments must have shape (B, K, d), got {inc.shape}")
        shape, rows = inc.shape, inc.transpose(1, 0, 2)
    n_batch = shape[0]
    if shape[1] < n_steps:
        raise ConfigurationError(f"need at least {n_steps} increments per replica, got {shape[1]}")
    if shape[2] != model.dim_noise:
        raise ConfigurationError(f"increments carry {shape[2]} coordinates, model has {model.dim_noise}")

    radius = truncation_radius(model.gamma, delta)
    truncated = config.variant == TRUNCATED_EM
    init_nodes, raw_nodes = _initial_nodes(model, delta, n_hist, truncated=truncated)
    window = _SlidingWindow(init_nodes, n_batch, model.tau)

    dim = model.dim_state
    hits = np.zeros(n_batch, dtype=np.int64)
    alive = np.ones(n_batch, dtype=bool)
    div_step = np.full(n_batch, -1, dtype=np.int64)
    if per_step is not None:
        per_step(0, window.head, np.broadcast_to(raw_nodes[-1], (n_batch, dim)), alive)

    g_shape = (n_batch, dim, model.dim_noise)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, db in zip(range(n_steps), rows):
            head = window.head
            f = np.asarray(model.drift(window))
            g = np.asarray(model.diffusion(window))
            if f.shape != head.shape:
                raise ConfigurationError(f"drift returned shape {f.shape}, expected {head.shape}")
            if g.shape != g_shape:
                raise ConfigurationError(f"diffusion returned shape {g.shape}, expected {g_shape}")
            pre = head + f * delta + _apply_noise(g, db)
            finite = np.isfinite(pre).all(axis=-1)
            if truncated:
                if not finite.all():
                    bad = int(np.argmax(~finite))
                    raise NumericalError(
                        "truncated scheme produced a non-finite state (internal error)",
                        replica=replica_offset + bad,
                        step=k + 1,
                        head_norm=float(np.sqrt(np.sum(head[bad] ** 2))),
                        radius=radius,
                    )
                new, over = clip_to_ball(pre, radius)
                hits += over
            else:
                newly_dead = alive & ~finite
                if newly_dead.any():
                    div_step[newly_dead] = k + 1
                new = np.where(alive[..., None], pre, head)
                alive = alive & finite
            window.shift(new)
            if per_step is not None:
                per_step(k + 1, new, pre, alive)

    return BatchResult(
        terminal=window.head.copy(),
        truncation_hits=hits,
        diverged=~alive,
        divergence_step=div_step,
        initial_nodes=init_nodes,
    )


def _increments_for(model: SfdeModel, config: SchemeConfig, grid) -> np.ndarray:
    if isinstance(grid, BrownianGrid):
        if abs(grid.step_fine - config.step) > 1e-9 * max(grid.step_fine, config.step):
            raise ConfigurationError(
                f"grid step {grid.step_fine} != scheme step {config.step}; coarsen the grid first"
            )
        inc = grid.increments
    else:
        inc = np.asarray(grid, dtype=float)
    if inc.ndim != 2:
        raise ConfigurationError(f"increments must have shape (K, d), got {inc.shape}")
    return inc


def simulate(model: SfdeModel, config: SchemeConfig, grid) -> PathRecord:
    """Run one replica driven by ``grid`` (a BrownianGrid at the scheme step,
    or a (K, d) array of increments with variance Delta) and record the path."""
    inc = _increments_for(model, config, grid)
    delta, n_hist, n_steps = resolve_grid(model, config)
    states = np.empty((n_steps + 1, model.dim_state))
    pre_truncation = np.empty_like(states)

    def record(k, state, pre, alive):
        states[k] = state[0]
        pre_truncation[k] = pre[0]

    res = _run_batch(model, config, inc[None], per_step=record)
    div = bool(res.diverged[0])
    return PathRecord(
        times=np.arange(n_steps + 1) * delta,
        states=states,
        pre_truncation=pre_truncation,
        truncation_hits=int(res.truncation_hits[0]),
        diverged=div,
        divergence_step=int(res.divergence_step[0]) if div else None,
        step=delta,
        n_history=n_hist,
        initial_nodes=res.initial_nodes,
    )


def segment_at(record: PathRecord, k: int) -> Segment:
    """History segment at grid time t_k, rebuilt from the recorded path."""
    n_hist = record.n_history
    if not 0 <= k < record.states.shape[0]:
        raise ValueError(f"grid index {k} outside the recorded path")
    nodes = np.empty((n_hist + 1, record.states.shape[1]))
    for j in range(n_hist + 1):
        i = k + j - n_hist
        nodes[j] = record.states[i] if i >= 0 else record.initial_nodes[n_hist + i]
    return Segment(nodes, n_hist * record.step)


def continuous_extension(record: PathRecord, model: SfdeModel, grid: BrownianGrid, t: float):
    """Evaluate the continuous-time extension at a fine-grid point t in [0, T].

    Between scheme grid points the extension is
    Y(t_k) + f(seg_k)(t - t_k) + g(seg_k)(B(t) - B(t_k)); the Brownian
    displacement is reconstructed from the stored fine increments, so t
    must be a multiple of the fine step (no bridging).
    """
    delta = record.step
    horizon = record.times[-1]
    if t < -1e-12 or t > horizon + 1e-12:
        raise ValueError(f"t={t} outside [0, {horizon}]")
    u = t / delta
    nearest = round(u)
    if abs(u - nearest) < NODE_SNAP_REL:
        return record.states[int(nearest)]
    factor = ratio_as_int(delta, grid.step_fine, "step/step_fine")
    m = t / grid.step_fine
    m_round = round(m)
    if abs(m - m_round) > NODE_SNAP_REL * max(1.0, abs(m)):
        raise UnsupportedPointError(
            f"t={t} is not on the fine grid (step {grid.step_fine}); bridging is not supported"
        )
    m = int(m_round)
    k = m // factor
    seg = segment_at(record, k)
    f = np.asarray(model.drift(seg))
    g = np.asarray(model.diffusion(seg))
    db = grid.increments[k * factor : m].sum(axis=0)
    return record.states[k] + f * ((m - k * factor) * grid.step_fine) + _apply_noise(g, db)
