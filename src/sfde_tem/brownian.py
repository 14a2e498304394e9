"""Seeded Brownian increments on a fine grid, with exact dyadic coarsening.

Each (master seed, replica index) pair keys an independent Philox counter
stream, so replicas can be generated in any order or in parallel and still
reproduce bit-identically.  Coarse-step increments are block sums of the
fine ones, and every sum of increments, whole-path totals included, is
ordered by one rule (``_block_sums``): within a block, neighbouring pairs
are added while its length is even, then what is left is added in order.
So coarsening by 2^a * b (b odd) equals coarsening by 2^a and then by b
exactly (no floating-point reassociation), and a path's total equals the
total of any dyadic coarsening of it.

``IncrementStream`` hands a batch of replicas' increments to the driver
time-major, one reused block of at most ``STREAM_BYTES`` at a time, with
the same draws as ``sample_increments``: a replica's generator gives the
same normals however its draws are split into blocks.  The block is stored
replica-major and handed over as a transposed view.  Its replica stride is
padded by one 64-byte cache line when it would be a whole number of 4 KiB
pages, as a 512-step block of one coordinate is: the driver reads a row
across replicas, and at such a stride every read of the row falls in the
same few cache sets.  A ``_CoarseningStream`` (blocks of at most
``SWEEP_BYTES``) also hands each used block, summed in place level by
level, to coarser consumers of the same paths, so a strong-error sweep
holds one block and no whole path.

Every draw goes through ``_fill``, the one place that picks the compiled
or the numpy draws.  The compiled library (``_native.c``, ``draw_normals``)
fills a block for all replicas in one call, each replica from its own
88-byte Philox state (``_philox_states``), with the bits of numpy's Philox
and ziggurat; it needs no ``numpy.random``, so neither ``generate`` nor a
CLI ``simulate`` run imports it.  Its ``halve_rows`` sums a block into a
coarser level in one call per level, pairwise in ``_block_sums``'s order;
without the library numpy does (``_coarsen_in_place``), with the same
bits.  If the library cannot be built, each replica fills its rows with
one ``standard_normal(out=...)`` call per block, from a Philox bit generator
keyed by a seed sequence (``_key_type``) that hands over [seed, replica]
as it is: ``Philox(key=...)``'s state at a third of its cost, as the keyed
constructor first draws OS entropy that the key then replaces.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

RATIO_REL_TOL = 1e-9
STREAM_BYTES = 2**20
SWEEP_BYTES = 2**22


def ratio_as_int(numerator: float, denominator: float, what: str = "ratio") -> int:
    """Round numerator/denominator to an integer, requiring 1e-9 relative closeness."""
    ratio = numerator / denominator if denominator else math.inf  # a step may underflow to 0.0
    if not math.isfinite(ratio):
        raise ConfigurationError(f"{what} {numerator}/{denominator} = {ratio} is not a positive integer")
    k = round(ratio)
    if k < 1 or abs(ratio - k) > RATIO_REL_TOL * max(1.0, abs(ratio)):
        raise ConfigurationError(f"{what} {numerator}/{denominator} = {ratio} is not a positive integer")
    return int(k)


@dataclass(frozen=True)
class BrownianGrid:
    """Fine-grid Brownian increments for one replica.

    ``increments[k]`` is B(t_{k+1}) - B(t_k) at spacing ``step_fine``; each
    entry is N(0, step_fine) i.i.d. per coordinate.
    """

    seed: int
    replica: int
    dim_noise: int
    step_fine: float
    horizon: float
    increments: np.ndarray  # (horizon/step_fine, dim_noise)


def generate(seed: int, replica: int, dim_noise: int, step_fine: float, horizon: float) -> BrownianGrid:
    """Generate the increments for one replica from its counter-based stream."""
    if step_fine <= 0 or horizon <= 0:
        raise ConfigurationError(f"step_fine={step_fine} and horizon={horizon} must be positive")
    dim_noise = _integer(dim_noise, "dim_noise")
    if dim_noise < 1:
        raise ConfigurationError(f"dim_noise must be at least 1, got {dim_noise}")
    n = ratio_as_int(horizon, step_fine, "horizon/step_fine")
    inc = sample_increments(seed, replica, dim_noise, step_fine, n)
    inc.setflags(write=False)
    return BrownianGrid(seed, replica, dim_noise, step_fine, horizon, inc)


@functools.lru_cache(maxsize=None)
def _key_type():
    """The seed-sequence class of ``_bit_generators``, made on first use.

    It subclasses ``ISeedSequence``; importing ``numpy.random`` for it when
    this module is imported would cost every process about 6 MB and 10 ms,
    whether it draws or not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """Hands a Philox generator ``words``, the key [seed, replica], as they are.

        ``Philox(Key(seed, replica), counter=0)`` starts in the state of ``Philox(key=[seed, replica])``:
        it takes its two key words from ``generate_state(2, np.uint64)``.  Meant for Philox only.
        """

        __slots__ = ("words",)

        def __init__(self, seed: int, replica: int):
            self.words = np.array([seed, replica], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Key


_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def _integer(value, name: str) -> int:
    """``value`` as an int, through ``operator.index``; ``ConfigurationError`` naming ``name`` if not, or if a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _check_key(seed: int, first: int, count: int) -> None:
    """Raise unless every key [seed, r] of replicas first..first+count-1 is two 64-bit words."""
    try:
        operator.index(seed), operator.index(first)
    except TypeError:
        raise ConfigurationError(f"seed and replica must be integers, got {seed!r} and {first!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    if not 0 <= first <= first + count <= 2**64:
        raise ConfigurationError(f"replicas {first}..{first + count - 1} must lie in [0, 2^64)")


def _bit_generators(seed: int, first: int, count: int) -> list:
    """Philox bit generators of replicas first..first+count-1, each in the state of ``Philox(key=[seed, r])``.

    They share one key, re-pointed before each is built; a Philox
    copies its key words when it is built and never reads them again.
    """
    key = _key_type()(seed, first)
    bits = []
    for replica in range(first, first + count):
        key.words[1] = replica
        bits.append(np.random.Philox(key, counter=_ZERO_COUNTER))
    return bits


def _philox_states(seed: int, first: int, count: int) -> np.ndarray:
    """``struct philox`` of ``_native.c`` for replicas first..first+count-1, as a (count, 11) uint64 array.

    Row r is the state of a new ``Philox(key=[seed, first + r])``: counter
    0 (words 0-3), the key (4-5), an empty buffer (6-9) and position 4,
    no buffered word left (10).
    """
    state = np.zeros((count, 11), dtype=np.uint64)
    state[:, 4] = seed
    state[:, 5] = np.arange(count, dtype=np.uint64) + np.uint64(first)
    state[:, 10] = 4
    return state


def _fill(seed: int, first: int, count: int, step: float):
    """``fill(rows)`` writes the next L N(0, step) draws of replicas first..first+count-1 over a (count, L) buffer.

    The compiled draws when the library loads, else numpy's ``Generator``: the same bits either way.
    """
    from . import _native  # here, so that importing the package does not import it

    _check_key(seed, first, count)
    scale = np.sqrt(step)
    kernels = _native.kernels()
    if kernels is None:
        # the state lives in the bit generator: wrapping it anew for each block
        # is cheap, and holding a Generator per replica would add 224 bytes each
        bits = _bit_generators(seed, first, count)

        def fill(rows):
            for bit, out in zip(bits, rows):
                np.random.Generator(bit).standard_normal(out=out)
            rows *= scale

        return fill
    draw, state = kernels["draw_normals"], _philox_states(seed, first, count)
    address = state.ctypes.data

    def fill(rows, state=state):  # the default keeps the states alive as long as the fill
        draw(count, address, rows.ctypes.data, rows.strides[0] // 8, rows.shape[1], scale)

    return fill


def sample_increments(seed: int, replica: int, dim_noise: int, step: float, count: int) -> np.ndarray:
    """Raw (count, dim_noise) N(0, step) draws from the (seed, replica) stream."""
    out = np.empty((1, count * dim_noise))
    _fill(seed, replica, 1, step)(out)
    return out.reshape(count, dim_noise)


class IncrementStream:
    """Increments of replicas first..first+count-1, handed over time-major in blocks.

    ``blocks()`` yields ``n_steps`` rows of shape (count, dim_noise) as
    (block, count, dim_noise) views of one reused replica-major buffer (the
    last block may be shorter), each valid until the next is requested; row k, column
    i equals ``sample_increments(seed, first + i, dim_noise, step,
    n_steps)[k]`` bit for bit.  ``block`` is the most steps whose rows fit
    in ``STREAM_BYTES`` (at least one, at most ``n_steps``), read when the
    stream is built.  ``stride`` is the buffer's replica stride in floats:
    a block's ``block * dim_noise`` floats, plus 8 when those make a
    multiple of 4 KiB.  ``shape`` is (count, n_steps, dim_noise) and
    ``nbytes`` the buffer's size, pad included.  Each call of ``blocks()``
    restarts the replicas' streams; ``_fill`` fills each block.
    """

    def __init__(self, seed: int, first: int, count: int, dim_noise: int, step: float, n_steps: int):
        self.seed = seed
        self.first = first
        self.step = step
        self.shape = (count, n_steps, dim_noise)
        self.block = self._block_steps()
        row = self.block * dim_noise
        self.stride = row + 8 * (row % 512 == 0)

    def _block_steps(self) -> int:
        count, n_steps, dim = self.shape
        return max(1, min(n_steps, STREAM_BYTES // (8 * count * dim)))

    @property
    def nbytes(self) -> int:
        return 8 * self.shape[0] * self.stride

    def blocks(self):
        count, n_steps, dim = self.shape
        fill = _fill(self.seed, self.first, count, self.step)
        buf = np.empty((count, self.stride))
        for start in range(0, n_steps, self.block):
            rows = buf[:, : min(self.block, n_steps - start) * dim]
            fill(rows)
            yield rows.reshape(count, -1, dim).transpose(1, 0, 2)


class _CoarseningStream(IncrementStream):
    """An ``IncrementStream`` whose blocks, once used, drive coarser levels of the same paths.

    ``levels`` pairs each power-of-two factor, ascending, with a callable
    taking that level's (rows, count, dim_noise) increments.  A block is
    the largest factor F times the largest power of two that divides
    n_steps / F and keeps the block within ``SWEEP_BYTES`` (at least F
    steps; read when the stream is built), so it holds whole steps of every
    level.  ``blocks()`` yields each block; once the consumer asks for the
    next one, the block it has used is summed in place, each level from the
    one before (by the compiled ``halve_rows``, or by numpy without the
    library), and handed to that level's callable.  Blocks are aligned
    powers of two, so every level is bit-identical to ``coarsen`` of the
    fine path.  ``totals[b]`` is block b's sum, one node of the pairs
    ``total_increment`` adds over the whole path.
    """

    def __init__(self, seed, first, count, dim_noise, step, n_steps, levels):
        self.levels = levels
        super().__init__(seed, first, count, dim_noise, step, n_steps)
        self.totals = np.empty((n_steps // self.block, count, dim_noise))

    def blocks(self):
        from . import _native

        kernels = _native.kernels()
        count, _, dim = self.shape
        for b, rows in enumerate(super().blocks()):
            yield rows
            done = 1
            for factor, advance in self.levels:
                if kernels is None:
                    rows = _coarsen_in_place(rows, factor // done)
                else:
                    halvings = (factor // done).bit_length() - 1
                    kernels["halve_rows"](count, rows.ctypes.data, self.stride, len(rows), dim, halvings)
                    rows = rows[: len(rows) >> halvings]
                done = factor
                advance(rows)
            self.totals[b] = _block_sums(rows, len(rows), axis=0)[0]

    def _block_steps(self) -> int:
        count, n_steps, dim = self.shape
        block = self.levels[-1][0]
        while n_steps % (2 * block) == 0 and 8 * 2 * block * count * dim <= SWEEP_BYTES:
            block *= 2
        return block


def _coarsen_in_place(rows: np.ndarray, factor: int) -> np.ndarray:
    """``_block_sums`` of ``rows`` by ``factor`` along axis 0, written over its first rows.

    A slab of about 2^16 input floats at a time, so the sums allocate only
    a slab's worth of temporaries; each slab's sums overwrite rows no later
    slab reads.
    """
    n = len(rows) // factor
    slab = max(1, 2**16 // (factor * rows[0].size))
    for lo in range(0, n, slab):
        hi = min(lo + slab, n)
        rows[lo:hi] = _block_sums(rows[lo * factor : hi * factor], factor, axis=0)
    return rows[:n]


def coarsen(grid, factor: int) -> np.ndarray:
    """Block sums of fine increments: output[k] = sum of fine block k of size ``factor``.

    Summed by ``_block_sums``, so coarsening by 2^a * b (b odd) equals
    coarsening by 2^a and then by b exactly.  Factor 1 gives a view of the
    increments.
    """
    inc = grid.increments if isinstance(grid, BrownianGrid) else np.asarray(grid)
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    n = inc.shape[0]
    if n % factor != 0:
        raise ValueError(f"increment count {n} is not divisible by factor {factor}")
    return _block_sums(inc, factor, axis=0)


def _block_sums(inc: np.ndarray, factor: int, axis: int) -> np.ndarray:
    """Sums of consecutive groups of ``factor`` entries along ``axis``: the order of every Brownian sum.

    Within each group, neighbouring pairs are added while the group's length
    is even, then what is left is added in order.  A whole-axis total is
    ``factor`` = the axis length, leaving that axis with one entry.  ``axis``
    counts from 0.
    """

    def every(start: int, stride: int) -> tuple:
        return (slice(None),) * axis + (slice(start, None, stride),)

    out = inc
    while factor > 1 and factor % 2 == 0:
        out = out[every(0, 2)] + out[every(1, 2)]
        factor //= 2
    total = out[every(0, factor)]
    for i in range(1, factor):
        total = total + out[every(i, factor)]
    return total


def total_increment(increments: np.ndarray) -> np.ndarray:
    """B(T) - B(0) per coordinate: ``coarsen`` of the whole path.

    It equals the total of any dyadic coarsening of the same path bit for bit.
    """
    inc = np.asarray(increments)
    return coarsen(inc, len(inc))[0]
