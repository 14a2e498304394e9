"""Seeded Brownian increments on a fine grid, with exact dyadic coarsening.

Each (master seed, replica index) pair keys an independent Philox counter
stream, so replicas can be generated in any order or in parallel and still
reproduce bit-identically.  Coarse-step increments are block sums of the
fine ones, computed with a fixed pairwise-halving tree so that coarsening
by a*b equals coarsening by a then by b exactly (no floating-point
reassociation) whenever the factors are powers of two.

``IncrementStream`` hands a batch of replicas' increments to the driver
time-major, one reused block of ``STREAM_BLOCK`` steps at a time, with the
same draws as ``sample_increments``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

RATIO_REL_TOL = 1e-9
STREAM_BLOCK = 64


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


def _generator(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))


def sample_increments(seed: int, replica: int, dim_noise: int, step: float, count: int) -> np.ndarray:
    """Raw (count, dim_noise) N(0, step) draws from the (seed, replica) stream."""
    return _generator(seed, replica).standard_normal((count, dim_noise)) * np.sqrt(step)


class IncrementStream:
    """Increments of replicas first..first+count-1, drawn time-major in blocks.

    Iterating yields ``n_steps`` rows of shape (count, dim_noise); row k,
    column i equals ``sample_increments(seed, first + i, dim_noise, step,
    n_steps)[k]`` bit for bit.  Rows are views of one reused (block, count,
    dim_noise) buffer, valid until the next row is requested, where block is
    ``STREAM_BLOCK`` steps (fewer for shorter runs).  ``shape`` is (count,
    n_steps, dim_noise) and ``nbytes`` the buffer's size.  Each iteration
    restarts the replicas' streams.
    """

    def __init__(self, seed: int, first: int, count: int, dim_noise: int, step: float, n_steps: int):
        self.seed = seed
        self.first = first
        self.step = step
        self.shape = (count, n_steps, dim_noise)
        self._buf = np.empty((max(1, min(STREAM_BLOCK, n_steps)), count, dim_noise))

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def __iter__(self):
        count, n_steps, dim = self.shape
        gens = [_generator(self.seed, self.first + i) for i in range(count)]
        scale = np.sqrt(self.step)
        for start in range(0, n_steps, len(self._buf)):
            block = self._buf[: min(len(self._buf), n_steps - start)]
            for i, gen in enumerate(gens):
                block[:, i] = gen.standard_normal((len(block), dim))
            block *= scale
            yield from block


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
