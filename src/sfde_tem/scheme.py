"""Truncated and classic Euler-Maruyama recursions on interpolated segments.

One step advances the post-truncation state Y via

    pre  = Y_k + f(seg_k) * Delta + g(seg_k) * dB_k
    Y_{k+1} = clip(pre)            (truncated variant; classic keeps pre)

where seg_k is the piecewise-linear history window and clip is the radial
truncation to the ball of radius Gamma^{-1}(K Delta^-lambda).  The driver
below simulates a whole batch of replicas at once: every operation is
elementwise across the batch, so each replica's path is bit-identical no
matter how replicas are grouped into batches.  One rule (``_History``)
places every grid index of a batch's history: index i <= 0 is node N + i
of an initial path stored once for all replicas, and a simulated index
i >= 1 is row (i - 1) mod min(N+1, K) of a time-major ring, kept only
where it is read, so one index of every replica is one contiguous row.
The window keeps its states, shape (rows, B, n), only if a coefficient
reads a history node off the head (``lerp_eval``) or a full quadrature,
beginning within the first two steps (a first read later raises
``ConfigurationError``).  A constant or boxcar (weight, transform) pair
the coefficients read before the first step is a running trapezoid sum,
sliding in O(1) per step; it keeps its transformed states, and recomputes
its sum from them every N steps, only if a simulated state leaves the
weight's support.  Every other integral read is a full quadrature.
``_Driver`` steps a batch over blocks of increment rows, through a window
that owns the run's state; ``_run_batch`` runs one over a whole array or
stream.  A step costs a fixed handful of
whole-batch array operations, so the driver keeps per-step overhead down:
no numpy loop over a short trailing axis (the noise is contracted and
short axes are summed one column at a time, ``segment._sum_last_axis``),
and a step whose entries all lie well within radius / sqrt(n) skips the
clip and its finiteness check.  The builtin coefficients it calls write
cubes as products (``h * h * h``), which numpy evaluates far faster than
``h**3``.  A driver of example1's or example2's truncated scheme is
stepped in C alone (``_Compiled``, built from ``_native.c``), with the same
bits, clip and hit counts included, and the same error on a state that is
not finite; the numpy step takes every other driver.  An observer
(``per_block``) is handed the states of each block of rows at once, from a
buffer the driver's step writes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model as _models
from .brownian import BrownianGrid, IncrementStream, _block_sums, ratio_as_int
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
        if not 0.0 < self.horizon < math.inf:
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon}")
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

    ``initial_nodes`` are the truncated initial-data nodes, kept so history
    segments can be reconstructed at any grid time.
    """

    times: np.ndarray
    states: np.ndarray
    truncation_hits: int
    diverged: bool
    divergence_step: Optional[int]
    step: float
    n_history: int
    initial_nodes: np.ndarray


def _apply_noise(g: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Contract the diffusion matrix (..., n, d) with increments (..., d).

    The bytes of ``_sum_last_axis(g * db[..., None, :])``, computed one noise
    column at a time for d < 8: numpy would form the (..., n, d) product
    looping over its short last axis.
    """
    d = g.shape[-1]
    if not 0 < d < 8:
        return _sum_last_axis(g * db[..., None, :])
    out = 0.0 + g[..., 0] * db[..., None, 0]
    for j in range(1, d):
        out += g[..., j] * db[..., None, j]
    return out


class _History:
    """Where grid index i of a batch's history lives.

    ``h[i]`` is node N + i of ``initial``, an (N+1, ...) path shared by every
    replica, for i <= 0, and row (i - 1) mod rows of ``ring`` for i >= 1.
    ``make_ring`` makes the ring for a run of K steps: ``rows(N, K)`` =
    min(N+1, K) rows of shape (B, ...), enough for every node of a window.
    """

    __slots__ = ("initial", "ring")

    def __init__(self, initial: np.ndarray):
        self.initial = initial
        self.ring = None

    @staticmethod
    def rows(n_hist: int, run_steps: int) -> int:
        return min(n_hist + 1, run_steps)

    def make_ring(self, batch: int, run_steps: int) -> None:
        shape = self.initial.shape
        self.ring = np.empty((self.rows(shape[0] - 1, run_steps), batch) + shape[1:])

    def __getitem__(self, i: int) -> np.ndarray:
        if i <= 0:
            return self.initial[i - 1]  # node N + i of N+1 is the (1 - i)-th from the end
        return self.ring[(i - 1) % len(self.ring)]

    def put(self, i: int, value: np.ndarray) -> np.ndarray:
        """Store value ``i`` >= 1 and return the row that holds it."""
        row = self.ring[(i - 1) % len(self.ring)]
        row[...] = value
        return row

    def window_at(self, s: int) -> np.ndarray:
        """A copy of the N+1 nodes s - N..s, stacked on a new leading axis."""
        n = len(self.initial) - 1
        old = max(0, n + 1 - s)  # nodes s - N..0 are initial data
        out = np.empty((n + 1,) + self.ring.shape[1:])
        out[:old] = self.initial[n + 1 - old :, None]
        out[old:] = self.ring[(np.arange(s - n + old, s + 1) - 1) % len(self.ring)]
        return out


class _IntegralTerm:
    """Running trapezoid sum of a constant or boxcar (weight, transform) pair, built before the first shift.

    ``value`` slides in O(1) per shift: it adds the new head and drops the
    node that leaves the support, which starts at window node m
    (``sliding_node``).  ``hist`` holds the transformed history, with a ring
    only if a simulated state leaves the support during the run (K > N - m);
    then ``value`` is also recomputed from it every N shifts (``resync``),
    so rounding carried over from values that have left the window does not
    pile up.  ``head`` is the transformed newest node, never a view of the
    window.  ``samples`` come from the window's cache (``_node_weights``).
    """

    __slots__ = ("transform", "samples", "coeff", "m_node", "hist", "head", "value")

    def __init__(self, weight: WeightFunction, transform, m_node: int, window: "_SlidingWindow"):
        # the window finds terms by the ids of this pair: the term holds the transform,
        # the sample cache the weight, so no later object takes either id during the run
        self.transform = transform
        self.samples = window._node_weights(weight)
        self.coeff = weight.plateau * window.step * 0.5
        self.m_node = m_node
        # every replica still holds the initial nodes: one value serves them all
        h = _apply_transform(transform, window.hist.initial)
        self.hist = _History(h)
        self.head = h[-1]
        self.value = np.full(window.batch, _trapezoid_sum(h * self.samples, window.step))
        if window.run_steps > window.n_steps - m_node:
            self.hist.make_ring(window.batch, window.run_steps)

    @staticmethod
    def sliding_node(weight: WeightFunction, window: "_SlidingWindow") -> Optional[int]:
        """Node m where a constant weight's (m = 0) or a boxcar [(m - N) Delta, 0]'s support starts, else None."""
        if weight.kind == "constant":
            return 0
        if weight.kind == "boxcar" and weight.declared_support is not None:
            lo, hi = weight.declared_support
            n = window.n_steps
            m = round(lo / window.step) + n
            on_node = abs(lo - (m - n) * window.step) <= NODE_SNAP_REL * max(1.0, window.tau)
            if hi == 0.0 and on_node and 1 <= m <= n - 1:
                return int(m)
        return None

    def shift(self, window: "_SlidingWindow", resync: bool):
        """Take in the head the window has just written, its ``window.shifts``-th state."""
        s, n, hist = window.shifts, window.n_steps, self.hist
        i = s - n + self.m_node  # nodes m and m+1 before the shift sit at i - 1 and i
        h_new = _apply_transform(self.transform, window.head)
        self.value = self.value + self.coeff * (h_new + self.head - hist[i] - hist[i - 1])
        # a transform may return a view of the window (``v[..., 0]``); a run
        # that resyncs (K > N) keeps a ring
        self.head = h_new.copy() if hist.ring is None else hist.put(s, h_new)
        if resync:
            self.resync(s, n, window.step)

    def resync(self, s: int, n: int, step: float):
        """Recompute ``value`` from the window s - N..s of ``hist``.

        The trapezoid of ``_trapezoid_sum``, nodes added one after another
        in window order, one row at a time: the same arithmetic for every
        replica at any batch size, and no copy of the ring.
        """
        hist, w, m = self.hist, self.samples, self.m_node
        total = w[m] * hist[s - n + m]
        for j in range(m + 1, n + 1):
            total = total + w[j] * hist[s - n + j]
        self.value = step * (total - 0.5 * (w[0] * hist[s - n] + w[n] * hist[s]))


class _SlidingWindow:
    """History window of a batch over a run of K steps, presenting the Segment evaluation surface.

    It owns the batch's run state: ``shifts`` of ``run_steps`` (K) taken,
    the (B, n) newest states ``head``, ``n_steps`` (N) and ``step`` (Delta).
    Logical node j (0 = oldest, N = head) after s shifts is grid index
    s - N + j of ``hist``, on the (N+1, n) initial data.  ``shift`` takes in
    every step's states, then updates every registered integral term, but
    not on the last shift: nothing reads the history after the last step.

    Until ``hist`` has a ring, a shift keeps the new head as it is, without
    a copy (the driver builds each step's states afresh).  The first read
    that could later need a stored state, a node off the head
    (``lerp_eval``) or a full quadrature (``weighted_integral``), makes the
    ring.  Before the second shift every simulated state is the head, which
    the new ring takes in; a first such read later raises
    ``ConfigurationError``, since states it needs were never stored.

    Integral terms are registered by the identity of their (weight,
    transform) pair, for a constant or boxcar weight read before the first
    shift (``running_term``).  Every other read is one full quadrature, so
    the registry cannot grow during a run; the node samples of a weight
    first met before the first shift are kept for the run, by its identity.
    """

    def __init__(self, initial: np.ndarray, batch: int, tau: float, run_steps: int):
        self.hist = _History(initial)
        self.n_steps = initial.shape[0] - 1
        self.run_steps = run_steps
        self.batch = batch
        self.tau = tau
        self.step = tau / self.n_steps
        self.head = np.broadcast_to(initial[-1], (batch, initial.shape[1]))
        self.shifts = 0
        self._terms = {}
        self._samples = {}

    def _store_states(self, read: str) -> None:
        """Make the state ring on the first read that could later need a stored state."""
        if self.hist.ring is None:
            if self.shifts > 1:
                raise ConfigurationError(
                    f"a coefficient first read {read} at step {self.shifts + 1}; the simulated "
                    f"states it needs were not stored (reads of history nodes must begin "
                    f"within the first two steps)"
                )
            self.hist.make_ring(self.batch, self.run_steps)
            if self.shifts:
                self.head = self.hist.put(1, self.head)

    def _node(self, j: int) -> np.ndarray:
        if j == self.n_steps:
            return self.head
        self._store_states("a history node off the head")
        return np.broadcast_to(self.hist[self.shifts - self.n_steps + j], self.head.shape)

    def lerp_eval(self, theta: float) -> np.ndarray:
        return _lerp(self, theta, self._node)

    def running_term(self, weight: WeightFunction, transform) -> Optional[_IntegralTerm]:
        """The pair's running integral, registered on its first read before the first shift, else None."""
        key = (id(weight), id(transform))
        term = self._terms.get(key)
        if term is None and not self.shifts:
            m = _IntegralTerm.sliding_node(weight, self)
            if m is not None:
                term = self._terms[key] = _IntegralTerm(weight, transform, m, self)
        return term

    def weighted_integral(self, weight: WeightFunction, transform):
        term = self.running_term(weight, transform)
        if term is not None:
            return term.value
        # a full trapezoid over every replica's window
        self._store_states("a full quadrature of the history")
        h = _apply_transform(transform, self.hist.window_at(self.shifts))
        return _trapezoid_sum(h * self._node_weights(weight)[:, None], self.step, axis=0)

    def _node_weights(self, weight: WeightFunction) -> np.ndarray:
        """``node_weights`` of a weight, sampled once for the run if first read before the first shift."""
        known = self._samples.get(id(weight))
        if known is not None:
            return known[1]
        samples = node_weights(weight, self.tau, self.n_steps)
        if not self.shifts:
            self._samples[id(weight)] = (weight, samples)  # holding the weight keeps its id
        return samples

    def shift(self, new_states: np.ndarray) -> None:
        self.shifts += 1
        self.head = new_states if self.hist.ring is None else self.hist.put(self.shifts, new_states)
        if self.shifts < self.run_steps:  # nothing reads the history after the last step
            resync = self.shifts % self.n_steps == 0
            for term in self._terms.values():
                term.shift(self, resync)


def init_segment(model: SfdeModel, config: SchemeConfig) -> Segment:
    """Truncated initial-data segment: node j holds clip(xi((j - N) Delta))."""
    delta, n_hist, _ = resolve_grid(model, config)
    return Segment(_initial_nodes(model, delta, n_hist), model.tau)


def _initial_nodes(model: SfdeModel, delta: float, n_hist: int, truncated: bool = True) -> np.ndarray:
    # the classic scheme clips nothing, including its initial data
    raw = model.initial_path([(j - n_hist) * delta for j in range(n_hist + 1)])
    return truncate(raw, truncation_radius(model.gamma, delta)) if truncated else raw


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
    ``per_block`` at k = 0; each ``advance(rows)`` takes one step per (B, d)
    row of ``rows``, then calls ``per_block`` once with the states of those
    steps, and ``result()`` returns the outcome once all K steps are taken.
    The caller hands over exactly K rows in all; a block's rows are read
    only while its ``advance`` runs.  The window holds the step count, the
    newest states, K and Delta; the driver the per-replica tallies and the
    block buffers an observer reads.  A driver with a compiled step
    (``_Compiled``) is stepped by it alone, every other by ``_advance_numpy``.
    """

    def __init__(
        self,
        model: SfdeModel,
        config: SchemeConfig,
        batch: int,
        *,
        per_block: Optional[Callable] = None,
        replica_offset: int = 0,
    ):
        delta, n_hist, n_steps = resolve_grid(model, config)
        self.model = model
        self.per_block = per_block
        self.replica_offset = replica_offset
        self.radius = truncation_radius(model.gamma, delta)
        # a step whose entries all lie within ``inside`` has norms within the
        # radius, by a margin far wider than their rounding, so it needs no
        # clip and no finiteness check; the radius is capped at the largest
        # float, so a non-finite state still meets the check
        self.inside = 0.999 * min(self.radius, sys.float_info.max) / math.sqrt(model.dim_state)
        self.truncated = config.variant == TRUNCATED_EM
        self.window = _SlidingWindow(
            _initial_nodes(model, delta, n_hist, truncated=self.truncated), batch, model.tau, n_steps
        )
        self.hits = np.zeros(batch, dtype=np.int64)
        self.alive = np.ones(batch, dtype=bool)
        self.div_step = np.full(batch, -1, dtype=np.int64)
        # step k writes its pre-clip states into buffer k % 2, never the head's
        self.pre = np.empty((2, batch, model.dim_state))
        # the states and alive masks of the block being stepped, grown to the longest block
        self.states = np.empty((0, batch, model.dim_state))
        self.alive_rows = np.ones((0, batch), dtype=bool)
        self.compiled = _Compiled.for_driver(self) if self.truncated else None
        if per_block is not None:
            per_block(0, self.window.head[None], self.alive[None])

    def advance(self, rows) -> None:
        observed = self.per_block is not None
        if observed and len(self.states) < len(rows):
            self.states = np.empty((len(rows),) + self.states.shape[1:])
            self.alive_rows = np.ones((len(rows),) + self.alive_rows.shape[1:], dtype=bool)
        k0 = self.window.shifts + 1
        if self.compiled is None:
            self._advance_numpy(rows)
        elif self.compiled.take(rows, self.states if observed else None) < len(rows):
            raise self._non_finite(self.compiled.pre)
        if observed:
            # as the steps do, the observer may meet a diverged classic replica's overflow
            with np.errstate(over="ignore", invalid="ignore"):
                self.per_block(k0, self.states[: len(rows)], self.alive_rows[: len(rows)])

    def _non_finite(self, pre: np.ndarray) -> NumericalError:
        """The error of the next step, whose (B, n) pre-clip states ``pre`` are not all finite."""
        bad = int(np.argmax(~np.isfinite(pre).all(axis=-1)))
        return NumericalError(
            "truncated scheme produced a non-finite state (internal error)",
            replica=self.replica_offset + bad,
            step=self.window.shifts + 1,
            head_norm=float(np.sqrt(np.sum(self.window.head[bad] ** 2))),
            radius=self.radius,
        )

    def _advance_numpy(self, rows) -> None:
        """Step the window over ``rows``, writing the states of row t to block row t if observed."""
        model, window, observed = self.model, self.window, self.per_block is not None
        delta, radius, truncated, inside = window.step, self.radius, self.truncated, self.inside
        hits, alive, div_step, pres = self.hits, self.alive, self.div_step, self.pre
        g_shape = (window.batch, model.dim_state, model.dim_noise)
        with np.errstate(over="ignore", invalid="ignore"):
            for t, db in enumerate(rows):
                head, k = window.head, window.shifts
                f = np.asarray(model.drift(window))
                g = np.asarray(model.diffusion(window))
                if f.shape != head.shape:
                    raise ConfigurationError(f"drift returned shape {f.shape}, expected {head.shape}")
                if g.shape != g_shape:
                    raise ConfigurationError(f"diffusion returned shape {g.shape}, expected {g_shape}")
                # head + f * delta + noise, in that order
                pre = np.multiply(f, delta, out=pres[k % 2])
                pre += head
                pre += _apply_noise(g, db)
                if truncated and np.abs(pre).max(initial=0.0) <= inside:
                    new = pre  # the clip would return it unchanged
                elif truncated:
                    if not np.isfinite(pre).all():
                        raise self._non_finite(pre)
                    new, over = clip_to_ball(pre, radius)
                    hits += over
                else:
                    finite = np.isfinite(pre).all(axis=-1)
                    newly_dead = alive & ~finite
                    if newly_dead.any():
                        div_step[newly_dead] = k + 1
                    new = np.where(alive[..., None], pre, head)
                    alive = alive & finite
                window.shift(new)
                if observed:
                    self.states[t] = window.head
                    self.alive_rows[t] = alive
        self.alive = alive

    def result(self) -> BatchResult:
        window = self.window
        if window.shifts != window.run_steps:
            raise ConfigurationError(f"driver took {window.shifts} of {window.run_steps} steps")
        return BatchResult(
            terminal=np.array(window.head),
            truncation_hits=self.hits,
            diverged=~self.alive,
            divergence_step=self.div_step,
            initial_nodes=window.hist.initial,
        )


class _Compiled:
    """A builtin model's truncated step in C (``_native.c``), for a ``_Driver``.

    ``take(rows, out)`` steps the window over ``rows`` and returns how many
    it took: all of them, unless a pre-clip state is not finite, in which
    case C stops before that row and leaves its pre-clip states in ``pre``
    for the driver's error.  C clips as the numpy step does and counts the
    hits in the driver's ``hits``; ``out``, if not None, receives the states
    of each row taken.  The window's head and each running integral's
    ``value`` and ``head`` are bound at construction to arrays that C
    writes in place, so ``take`` copies no state; the integrals' rings, if
    any, are shared.  Like ``shift``, C updates no integral on the last step.
    """

    def __init__(self, kernel, window: _SlidingWindow, terms, inside: float, radius: float, hits: np.ndarray):
        from . import _native

        batch, dim = window.head.shape
        self.window, self.kernel = window, kernel
        # a fresh C-ordered copy: a one-replica broadcast head would pass as contiguous
        window.head = np.array(window.head, dtype=float, order="C")
        # C's scratch: the pre-clip states, then a resync's sums
        self.pre = np.empty((batch, dim))
        self._keep = []  # C reads these by address
        structs = (_native.Term * len(terms))()
        for struct, term in zip(structs, terms):
            # value is the term's own (B,) array; head, still the initial data's, is one value for all
            term.head = np.full(batch, term.head, dtype=float)
            samples, initial = (np.ascontiguousarray(a, dtype=float) for a in (term.samples, term.hist.initial))
            self._keep += [samples, initial]
            ring = term.hist.ring
            struct.m, struct.coeff = term.m_node, term.coeff
            struct.w, struct.initial, struct.value, struct.head = (
                a.ctypes.data for a in (samples, initial, term.value, term.head)
            )
            struct.ring = None if ring is None else ring.ctypes.data
        self.args = (
            window.run_steps, window.n_steps, window.step, inside, radius, structs,
            window.head.ctypes.data, hits.ctypes.data,
        )

    @staticmethod
    def for_driver(driver: "_Driver") -> Optional["_Compiled"]:
        """The compiled step of a truncated driver of example1 or example2, else None.

        Chosen by the identity of the (drift, diffusion) pair.  The (weight,
        transform) pairs its kernel hard-codes, in the kernel's order, are
        read from the model module on every call, as the coefficients read
        them, and each must be a running term of the window: C has no full
        quadrature.
        """
        model = driver.model
        if model.drift is _models._ex1_drift and model.diffusion is _models._ex1_diffusion:
            name, pairs = "ex1_steps", [(_models._EX1_LEBESGUE, _models._ex1_square)]
        elif model.drift is _models._ex2_drift and model.diffusion is _models._ex2_diffusion:
            name, pairs = "ex2_steps", [
                (_models._EX2_BOX, _models._ex2_second),
                (_models._EX2_LEBESGUE, _models._ex2_first_cubed),
            ]
        else:
            return None
        terms = [driver.window.running_term(weight, transform) for weight, transform in pairs]
        if any(term is None for term in terms):
            return None
        from . import _native  # here, so that importing the package does not import it

        kernels = _native.kernels()
        if kernels is None:
            return None
        return _Compiled(kernels[name], driver.window, terms, driver.inside, driver.radius, driver.hits)

    def take(self, rows, out: Optional[np.ndarray]) -> int:
        # both builtins have as many noise coordinates as state coordinates;
        # only rows that are not aligned float64 are copied
        rows, (batch, dim) = np.require(rows, np.float64, "A"), self.pre.shape
        if rows.shape[1:] != (batch, dim):
            raise ConfigurationError(f"a block of increments must have shape (L, {batch}, {dim}), got {rows.shape}")
        taken = self.kernel(
            len(rows), batch, rows.ctypes.data, *(stride // 8 for stride in rows.strides),
            self.window.shifts, *self.args, None if out is None else out.ctypes.data, self.pre.ctypes.data,
        )
        self.window.shifts += taken
        return taken


def _run_batch(
    model: SfdeModel,
    config: SchemeConfig,
    increments,
    *,
    per_block: Optional[Callable] = None,
    replica_offset: int = 0,
) -> BatchResult:
    """Simulate a batch of replicas on increments of shape (B, K, d) with variance Delta.

    ``increments`` is an array (a transposed view of time-major (K, B, d)
    storage reads each step's row contiguously; rows past K are ignored) or
    an ``IncrementStream`` of exactly K steps, stepped over block by block.
    ``per_block(k0, states, alive)`` is invoked once at k0 = 0 and once per
    block of rows, with the (L, B, n) post-truncation states of grid indices
    k0..k0+L-1 and the (L, B) mask of replicas still alive (all True in the
    truncated variant); the arrays are only valid during the call and must
    not be written to, as they are the driver's buffers or the window's
    head.  All arithmetic is elementwise across the batch, so results are
    independent of how replicas are batched.
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
    driver = _Driver(model, config, shape[0], per_block=per_block, replica_offset=replica_offset)
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

    def record(k0, block, alive):
        states[k0 : k0 + len(block)] = block[:, 0]

    res = _run_batch(model, config, inc[None], per_block=record)
    div = bool(res.diverged[0])
    return PathRecord(
        times=np.arange(n_steps + 1) * delta,
        states=states,
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
    # grid indices k - N..k: initial nodes up to index -1, then recorded states from index 0
    nodes = np.concatenate([record.initial_nodes[k:n_hist], record.states[max(0, k - n_hist) : k + 1]])
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
    db = _block_sums(grid.increments[k * factor : m], m - k * factor, axis=0)[0]
    return record.states[k] + f * ((m - k * factor) * grid.step_fine) + _apply_noise(g, db)
