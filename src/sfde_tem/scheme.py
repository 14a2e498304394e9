"""Truncated and classic Euler-Maruyama recursions on interpolated segments.

One step advances the post-truncation state Y via

    pre  = Y_k + f(seg_k) * Delta + g(seg_k) * dB_k
    Y_{k+1} = clip(pre)            (truncated variant; classic keeps pre)

where seg_k is the piecewise-linear history window and clip is the radial
truncation to the ball of radius Gamma^{-1}(K Delta^-lambda).  The driver
below simulates a whole batch of replicas at once: every operation is
elementwise across the batch, so each replica's path is bit-identical no
matter how replicas are grouped into batches.  History is stored only
where it is read: the (N+1, n) initial path once, and the simulated states
of a run of K steps only if a coefficient reads a history node off the
head (``lerp_eval``) or a full quadrature, then in a time-major ring of
min(N+1, K) rows, shape (rows, B, n), so reading one history node of
every replica touches one contiguous slot.  Such reads must begin within
the first two steps; a first one later raises ``ConfigurationError``, as
the states it needs were not stored.  Distributed-delay integrals inside
the coefficients are kept as running trapezoid sums, one term per
(weight, transform) pair the coefficients read before the first step:
constant and boxcar weights slide in O(1) per step (and keep a ring of
transformed states, recomputed from every N steps, only if a simulated
state leaves the weight's support), other weights are recomputed by full
quadrature after every step, and a pair first read later costs a full
quadrature per read.
``_Driver`` steps a batch over blocks of increment rows; ``_run_batch``
runs one over a whole array or stream.  A step costs a fixed handful of
whole-batch array operations, so the driver keeps per-step overhead down:
one finiteness check per step and column sums over short trailing axes
(``segment._sum_last_axis``).  The builtin coefficients it calls write
cubes as products (``h * h * h``), which numpy evaluates far faster than
``h**3``.
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
    _apply_transform,
    _lerp,
    _sum_last_axis,
    _trapezoid_sum,
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
    return _sum_last_axis(g * db[..., None, :])


def _quadrature(window: "_SlidingWindow", samples: np.ndarray, transform) -> np.ndarray:
    """Full trapezoid of a transform over every replica's window, weights sampled at the nodes."""
    h = _apply_transform(transform, window.logical_values())
    return _trapezoid_sum(h * samples[:, None], window.step, axis=0)


class _IntegralTerm:
    """Running trapezoid state for one (weight, transform) pair, built before the first shift.

    Constant and boxcar weights are fast terms: ``value`` slides in O(1)
    per shift, adding the new head and dropping the node that leaves the
    weight's support (node m of the window; m = 0 for a constant weight).
    ``initial`` is the transformed initial path, shared by every replica,
    and ``head`` the transformed newest node, never a view of the window.
    A fast term keeps a ring of its transformed history, (N+1, B) in the
    window's slot order for N+1 rows, only if a simulated state leaves its
    support during the run (K > N - m); then ``value`` is also recomputed
    from the ring every N shifts (``resync``), so rounding carried over
    from values that have left the window does not pile up.  Otherwise
    every leaving node is initial data, read from ``initial``, and the run
    is shorter than N shifts.  Other weights keep no ring and recompute
    ``value`` by full quadrature after every shift.
    """

    __slots__ = ("weight", "transform", "samples", "coeff", "m_slot", "initial", "head", "ring", "value")

    def __init__(self, weight: WeightFunction, transform, window: "_SlidingWindow"):
        # the window finds terms by the ids of this pair: holding both keeps
        # a later object from taking either id while the term is registered
        self.weight = weight
        self.transform = transform
        self.samples = node_weights(weight, window.tau, window.n_steps)
        self.coeff = weight.plateau * window.step * 0.5
        self.m_slot = None
        n = window.n_steps
        if weight.kind == "constant":
            self.m_slot = 0
        elif weight.kind == "boxcar" and weight.declared_support is not None:
            lo, hi = weight.declared_support
            m = round(lo / window.step) + n
            on_node = abs(lo - (m - n) * window.step) <= NODE_SNAP_REL * max(1.0, window.tau)
            if hi == 0.0 and on_node and 1 <= m <= n - 1:
                self.m_slot = int(m)
        # every replica still holds the initial nodes: one value serves them all
        h = self.initial = _apply_transform(transform, window.initial)
        self.head = h[-1]
        self.value = np.full(window.batch, _trapezoid_sum(h * self.samples, window.step))
        self.ring = None
        if self.m_slot is not None and window.run_steps > n - self.m_slot:
            self.ring = np.empty((n + 1, window.batch))
            self.ring[:] = h[:, None]

    def shift(self, window: "_SlidingWindow", resync: bool):
        """Take in the head the window has just written, its ``window.shifts``-th state."""
        if self.m_slot is None:
            self.value = _quadrature(window, self.samples, self.transform)
            return
        s, m, ring = window.shifts, self.m_slot, self.ring
        h_new = _apply_transform(self.transform, window.head)
        if ring is None:
            # nodes m and m+1 before the shift, at times (s-1-N+m) Delta and
            # (s-N+m) Delta <= 0, are initial data
            h_m, h_m1 = self.initial[s - 1 + m], self.initial[s + m]
        else:
            slots = ring.shape[0]
            slot = (s - 1) % slots  # the slot of the node that has just left
            h_m = ring[(slot + m) % slots]
            h_m1 = ring[(slot + m + 1) % slots]
        self.value = self.value + self.coeff * (h_new + self.head - h_m1 - h_m)
        if ring is None:
            # a transform may return a view of the window (``v[..., 0]``)
            self.head = h_new.copy()
            return
        ring[slot] = h_new
        self.head = ring[slot]
        if resync:
            self.resync((slot + 1) % slots, window.step)

    def resync(self, start: int, step: float):
        """Recompute ``value`` from the ring; the oldest node sits in slot ``start``.

        The trapezoid of ``_trapezoid_sum``, nodes added one after another
        in window order, one ring row at a time: the same arithmetic for
        every replica at any batch size, and no copy of the ring.
        """
        ring, w = self.ring, self.samples
        slots = ring.shape[0]
        m = self.m_slot
        total = w[m] * ring[(start + m) % slots]
        for j in range(m + 1, slots):
            total = total + w[j] * ring[(start + j) % slots]
        self.value = step * (total - 0.5 * (w[0] * ring[start] + w[-1] * ring[start - 1]))


class _SlidingWindow:
    """History window of a batch over a run of K steps, presenting the Segment evaluation surface.

    Logical node j (0 = oldest, N = head) after s shifts sits at grid index
    i = s - N + j.  Nodes at times <= 0 (i <= 0) are read from ``initial``,
    the (N+1, n) initial data every replica starts from, stored once.
    ``head`` is the (B, n) newest node.  Shifting takes in the new head,
    then updates every registered integral term.

    The simulated states Y_1, ..., Y_{K-1} are stored only if a coefficient
    reads them: the window starts with no state ring, and until it has one
    a shift keeps the new head as it is, without a copy (the driver builds
    each step's states afresh).  The first read that could later need a
    stored state, a node off the head (``lerp_eval``) or a full quadrature
    (``logical_values``), makes the ring: min(N+1, K) rows, shape
    (rows, B, n), Y_i in slot (i - 1) mod rows, so one history node of
    every replica is one contiguous slot and no replica holds a copy of the
    initial data.  After at most one shift every simulated state is the
    head, which the new ring takes in; a first such read after the second
    shift raises ``ConfigurationError``, since states it needs were never
    stored.

    Integral terms are registered by the identity of their (weight,
    transform) pair on a read before the first shift.  A pair first read
    after that is evaluated by one full quadrature per read and is not
    registered, so the registry cannot grow during a run.
    """

    def __init__(self, initial: np.ndarray, batch: int, tau: float, run_steps: int):
        self.initial = initial
        self.n_steps = initial.shape[0] - 1
        self.run_steps = run_steps
        self.batch = batch
        self.tau = tau
        self.step = tau / self.n_steps
        self._buf = None
        self.head = np.broadcast_to(initial[-1], (batch, initial.shape[1]))
        self.shifts = 0
        self._terms = {}

    def _ring(self, read: str) -> np.ndarray:
        """The state ring, made on the first read that could later need a stored state."""
        if self._buf is None:
            if self.shifts > 1:
                raise ConfigurationError(
                    f"a coefficient first read {read} at step {self.shifts + 1}; the simulated "
                    f"states it needs were not stored (reads of history nodes must begin "
                    f"within the first two steps)"
                )
            self._buf = np.empty((min(self.n_steps + 1, self.run_steps), self.batch, self.initial.shape[1]))
            if self.shifts:
                self._buf[0] = self.head
                self.head = self._buf[0]
        return self._buf

    def _node(self, j: int) -> np.ndarray:
        if j == self.n_steps:
            return self.head
        buf = self._ring("a history node off the head")
        i = self.shifts - self.n_steps + j
        if i <= 0:
            return np.broadcast_to(self.initial[self.n_steps + i], self.head.shape)
        return buf[(i - 1) % len(buf)]

    def logical_values(self) -> np.ndarray:
        buf = self._ring("a full quadrature of the history")
        n, s = self.n_steps, self.shifts
        old = max(0, n + 1 - s)  # the oldest nodes, still initial data
        out = np.empty((n + 1,) + self.head.shape)
        out[:old] = self.initial[n + 1 - old :, None]
        out[old:] = buf[(np.arange(s - n + old, s + 1) - 1) % len(buf)]
        return out

    def lerp_eval(self, theta: float) -> np.ndarray:
        return _lerp(self, theta, self._node)

    def weighted_integral(self, weight: WeightFunction, transform):
        key = (id(weight), id(transform))
        term = self._terms.get(key)
        if term is not None:
            return term.value
        if self.shifts:
            return _quadrature(self, node_weights(weight, self.tau, self.n_steps), transform)
        term = self._terms[key] = _IntegralTerm(weight, transform, self)
        return term.value

    def shift(self, new_states: np.ndarray) -> None:
        if self._buf is None:
            self.head = new_states
        else:
            slot = self.shifts % len(self._buf)
            self._buf[slot] = new_states
            self.head = self._buf[slot]
        self.shifts += 1
        resync = self.shifts % self.n_steps == 0
        for term in self._terms.values():
            term.shift(self, resync)


def init_segment(model: SfdeModel, config: SchemeConfig) -> Segment:
    """Truncated initial-data segment: node j holds clip(xi((j - N) Delta))."""
    delta, n_hist, _ = resolve_grid(model, config)
    nodes, _ = _initial_nodes(model, delta, n_hist)
    return Segment(nodes, model.tau)


def _initial_nodes(model: SfdeModel, delta: float, n_hist: int, truncated: bool = True):
    # the classic scheme clips nothing, including its initial data
    raw = model.initial_path([(j - n_hist) * delta for j in range(n_hist + 1)])
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


class _Driver:
    """Steps a batch of replicas through one run, a block of increment rows at a time.

    Building the driver sets up the window on the initial data and calls
    ``per_step`` at k = 0; each ``advance(rows)`` takes one step per (B, d)
    row of ``rows``, and ``result()`` returns the outcome once all K steps
    are taken.  The caller hands over exactly K rows in all; a block's rows
    are read only while its ``advance`` runs.
    """

    def __init__(
        self,
        model: SfdeModel,
        config: SchemeConfig,
        batch: int,
        *,
        per_step: Optional[Callable] = None,
        replica_offset: int = 0,
    ):
        delta, n_hist, n_steps = resolve_grid(model, config)
        self.model = model
        self.delta = delta
        self.n_steps = n_steps
        self.per_step = per_step
        self.replica_offset = replica_offset
        self.radius = truncation_radius(model.gamma, delta)
        self.truncated = config.variant == TRUNCATED_EM
        self.initial_nodes, raw_nodes = _initial_nodes(model, delta, n_hist, truncated=self.truncated)
        self.window = _SlidingWindow(self.initial_nodes, batch, model.tau, n_steps)
        self.hits = np.zeros(batch, dtype=np.int64)
        self.alive = np.ones(batch, dtype=bool)
        self.div_step = np.full(batch, -1, dtype=np.int64)
        self.k = 0
        self.new = None
        if per_step is not None:
            per_step(0, self.window.head, np.broadcast_to(raw_nodes[-1], self.window.head.shape), self.alive)

    def advance(self, rows) -> None:
        model, window, per_step = self.model, self.window, self.per_step
        delta, radius, truncated, n_steps = self.delta, self.radius, self.truncated, self.n_steps
        hits, alive, div_step, k, new = self.hits, self.alive, self.div_step, self.k, self.new
        g_shape = (window.batch, model.dim_state, model.dim_noise)
        with np.errstate(over="ignore", invalid="ignore"):
            for db in rows:
                head = window.head
                f = np.asarray(model.drift(window))
                g = np.asarray(model.diffusion(window))
                if f.shape != head.shape:
                    raise ConfigurationError(f"drift returned shape {f.shape}, expected {head.shape}")
                if g.shape != g_shape:
                    raise ConfigurationError(f"diffusion returned shape {g.shape}, expected {g_shape}")
                pre = head + f * delta + _apply_noise(g, db)
                if truncated:
                    if not np.isfinite(pre).all():
                        bad = int(np.argmax(~np.isfinite(pre).all(axis=-1)))
                        raise NumericalError(
                            "truncated scheme produced a non-finite state (internal error)",
                            replica=self.replica_offset + bad,
                            step=k + 1,
                            head_norm=float(np.sqrt(np.sum(head[bad] ** 2))),
                            radius=radius,
                        )
                    new, over = clip_to_ball(pre, radius)
                    hits += over
                else:
                    finite = np.isfinite(pre).all(axis=-1)
                    newly_dead = alive & ~finite
                    if newly_dead.any():
                        div_step[newly_dead] = k + 1
                    new = np.where(alive[..., None], pre, head)
                    alive = alive & finite
                k += 1
                if k < n_steps:
                    # nothing reads the history after the last step: its integral
                    # terms are neither updated nor evaluated on the final state
                    window.shift(new)
                if per_step is not None:
                    per_step(k, new, pre, alive)
        self.k, self.new, self.alive = k, new, alive

    def result(self) -> BatchResult:
        if self.k != self.n_steps:
            raise ConfigurationError(f"driver took {self.k} of {self.n_steps} steps")
        return BatchResult(
            terminal=np.array(self.new),
            truncation_hits=self.hits,
            diverged=~self.alive,
            divergence_step=self.div_step,
            initial_nodes=self.initial_nodes,
        )


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
    storage reads each step's row contiguously; rows past K are ignored) or
    an ``IncrementStream`` of exactly K steps, stepped over block by block.
    ``per_step(k, states, pre, alive)`` is invoked at every grid index
    k = 0..K with the (B, n) post-truncation states and pre-truncation
    values (the raw initial head at k = 0); the arrays are only valid during
    the call and must not be written to, as the states may be the window's
    head.  All arithmetic is elementwise across the batch, so results
    are independent of how replicas are batched.
    """
    _, _, n_steps = resolve_grid(model, config)
    if isinstance(increments, IncrementStream):
        shape, blocks = increments.shape, increments.blocks()
    else:
        inc = np.asarray(increments, dtype=float)
        if inc.ndim != 3:
            raise ConfigurationError(f"batch increments must have shape (B, K, d), got {inc.shape}")
        shape, blocks = inc.shape, [inc.transpose(1, 0, 2)[:n_steps]]
    if shape[1] < n_steps:
        raise ConfigurationError(f"need at least {n_steps} increments per replica, got {shape[1]}")
    if shape[2] != model.dim_noise:
        raise ConfigurationError(f"increments carry {shape[2]} coordinates, model has {model.dim_noise}")
    driver = _Driver(model, config, shape[0], per_step=per_step, replica_offset=replica_offset)
    for block in blocks:
        driver.advance(block)
    return driver.result()


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
