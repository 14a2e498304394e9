"""Seeded Brownian increments on a fine grid, with exact dyadic coarsening.

Each (master seed, replica index) pair keys an independent Philox counter
stream, so replicas can be generated in any order or in parallel and still
reproduce bit-identically.  Coarse-step increments are block sums of the
fine ones, computed with a fixed pairwise-halving tree so that coarsening
by a*b equals coarsening by a then by b exactly (no floating-point
reassociation) whenever the factors are powers of two.

``IncrementStream`` hands a batch of replicas' increments to the driver
time-major, one reused block of at most ``STREAM_BYTES`` at a time, with
the same draws as ``sample_increments``: a replica's generator gives the
same normals however its draws are split into blocks.  A
``_CoarseningStream`` (blocks of at most ``SWEEP_BYTES``) also hands each
used block, summed in place level by level, to coarser consumers of the
same paths, so a strong-error sweep holds one block and no whole path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

RATIO_REL_TOL = 1e-9
STREAM_BYTES = 2**20
SWEEP_BYTES = 2**22


def ratio_as_int(numerator: float, denominator: float, what: str = "ratio") -> int:
    """Round numerator/denominator to an integer, requiring 1e-9 relative closeness."""
    ratio = numerator / denominator
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
    n = ratio_as_int(horizon, step_fine, "horizon/step_fine")
    inc = sample_increments(seed, replica, dim_noise, step_fine, n)
    inc.setflags(write=False)
    return BrownianGrid(
        seed=seed,
        replica=replica,
        dim_noise=dim_noise,
        step_fine=step_fine,
        horizon=horizon,
        increments=inc,
    )


def _bit_generator(seed: int, replica: int) -> np.random.Philox:
    return np.random.Philox(key=np.array([seed, replica], dtype=np.uint64))


def _generator(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(_bit_generator(seed, replica))


def sample_increments(seed: int, replica: int, dim_noise: int, step: float, count: int) -> np.ndarray:
    """Raw (count, dim_noise) N(0, step) draws from the (seed, replica) stream."""
    return _generator(seed, replica).standard_normal((count, dim_noise)) * np.sqrt(step)


class IncrementStream:
    """Increments of replicas first..first+count-1, drawn time-major in blocks.

    ``blocks()`` yields ``n_steps`` rows of shape (count, dim_noise) as
    (block, count, dim_noise) views of one reused buffer (the last block
    may be shorter), each valid until the next is requested; row k, column
    i equals ``sample_increments(seed, first + i, dim_noise, step,
    n_steps)[k]`` bit for bit.  ``block`` is the most steps whose rows fit
    in ``STREAM_BYTES`` (at least one, at most ``n_steps``), read when the
    stream is built.  ``shape`` is (count, n_steps, dim_noise) and
    ``nbytes`` the buffer's size.  Each call of ``blocks()`` restarts the
    replicas' streams.
    """

    def __init__(self, seed: int, first: int, count: int, dim_noise: int, step: float, n_steps: int):
        self.seed = seed
        self.first = first
        self.step = step
        self.shape = (count, n_steps, dim_noise)
        self.block = self._block_steps()

    def _block_steps(self) -> int:
        count, n_steps, dim = self.shape
        return max(1, min(n_steps, STREAM_BYTES // (8 * count * dim)))

    @property
    def nbytes(self) -> int:
        count, _, dim = self.shape
        return 8 * self.block * count * dim

    def blocks(self):
        count, n_steps, dim = self.shape
        # the state lives in the bit generator: wrapping it anew for each block
        # is cheap, and holding a Generator per replica would add 224 bytes each
        bits = [_bit_generator(self.seed, self.first + i) for i in range(count)]
        scale = np.sqrt(self.step)
        buf = np.empty((self.block, count, dim))
        for start in range(0, n_steps, self.block):
            block = buf[: min(self.block, n_steps - start)]
            for i, bit in enumerate(bits):
                block[:, i] = np.random.Generator(bit).standard_normal((len(block), dim))
            block *= scale
            yield block


class _CoarseningStream(IncrementStream):
    """An ``IncrementStream`` whose blocks, once used, drive coarser levels of the same paths.

    ``levels`` pairs each power-of-two factor, ascending, with a callable
    taking that level's (rows, count, dim_noise) increments.  A block is
    the largest factor F times the largest power of two that divides
    n_steps / F and keeps the block within ``SWEEP_BYTES`` (at least F
    steps; read when the stream is built), so it holds whole steps of every
    level.  ``blocks()`` yields each block; once the consumer asks for the
    next one, the block it has used is summed in place, each level from the
    one before, and handed to that level's callable.  Aligned blocks sum the same pairwise tree as a
    whole path, so every level is bit-identical to ``coarsen`` of the fine
    path.  ``totals[b]`` is block b's tree sum, one node of the tree
    ``total_increment`` sums over the whole path.
    """

    def __init__(self, seed, first, count, dim_noise, step, n_steps, levels):
        self.levels = levels
        super().__init__(seed, first, count, dim_noise, step, n_steps)
        self.totals = np.empty((n_steps // self.block, count, dim_noise))

    def blocks(self):
        for b, rows in enumerate(super().blocks()):
            yield rows
            done = 1
            for factor, advance in self.levels:
                rows = _coarsen_in_place(rows, factor // done)
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

    A slab of about 2^16 input floats at a time, so the tree allocates only
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

    Power-of-two factors use pairwise halving (the tree that makes dyadic
    coarsening compose exactly); other factors sum blocks left to right.
    """
    inc = grid.increments if isinstance(grid, BrownianGrid) else np.asarray(grid)
    if factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    n = inc.shape[0]
    if n % factor != 0:
        raise ValueError(f"increment count {n} is not divisible by factor {factor}")
    return _block_sums(inc, factor, axis=0)


def _halve(a: np.ndarray, axis: int) -> np.ndarray:
    """One level of the pairwise tree: element 2i plus element 2i+1 along ``axis``."""
    even = [slice(None)] * a.ndim
    odd = [slice(None)] * a.ndim
    even[axis] = slice(0, None, 2)
    odd[axis] = slice(1, None, 2)
    return a[tuple(even)] + a[tuple(odd)]


def _block_sums(inc: np.ndarray, factor: int, axis: int) -> np.ndarray:
    if factor == 1:
        return inc.copy()
    if factor & (factor - 1) == 0:
        out = inc
        while factor > 1:
            out = _halve(out, axis)
            factor //= 2
        return out
    shape = list(inc.shape)
    blocks = shape[axis] // factor
    reshaped = inc.reshape(shape[:axis] + [blocks, factor] + shape[axis + 1 :])
    out = reshaped.take(0, axis=axis + 1)
    for i in range(1, factor):
        out = out + reshaped.take(i, axis=axis + 1)
    return out


def total_increment(increments: np.ndarray) -> np.ndarray:
    """B(T) - B(0) per coordinate, summed with the same halving tree as coarsen.

    Halving while the length is even reproduces every dyadic coarsening
    level bit-exactly, so the total agrees with the total of any coarsened
    sequence of the same path.
    """
    return _tree_total(np.asarray(increments), axis=0)


def _tree_total(inc: np.ndarray, axis: int) -> np.ndarray:
    out = inc
    while out.shape[axis] > 1 and out.shape[axis] % 2 == 0:
        out = _halve(out, axis)
    total = out.take(0, axis=axis)
    for i in range(1, out.shape[axis]):
        total = total + out.take(i, axis=axis)
    return total
