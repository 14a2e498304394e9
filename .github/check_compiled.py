"""Build and load the compiled library, and check that its draws and coarsening have numpy's bits.

Run with ``PYTHONPATH=src``; exits non-zero if the library does not build or
load, if a stream's first block differs from ``sample_increments``, or if a
level of a coarsening stream's block differs from ``coarsen`` of those
increments.
"""

import sys

from sfde_tem import _native, brownian

kernels = _native.kernels()
if kernels is None:
    sys.exit("the compiled library did not build or load; see the RuntimeWarning")
missing = [name for name in (*_native._STEPS, _native._DRAW, _native._HALVE) if name not in kernels]
if missing:
    sys.exit(f"the compiled library lacks {missing}")
seed, first, count, dim, step, n_steps = 1, 2**32, 3, 2, 2.0**-6, 4096
rows = next(brownian.IncrementStream(seed, first, count, dim, step, n_steps).blocks())
for i in range(count):
    expected = brownian.sample_increments(seed, first + i, dim, step, len(rows))
    if rows[:, i].tobytes() != expected.tobytes():
        sys.exit(f"replica {first + i}: the compiled draws differ from numpy's")
# one block of 256 steps of 2 coordinates, 4 KiB per replica and so a padded
# stride, summed in place by the compiled halving at every level
factors, n_steps = (2, 8, 16, 256), 256
levels = {f: [] for f in factors}
stream = brownian._CoarseningStream(
    seed, first, count, dim, step, n_steps, [(f, lambda rows, f=f: levels[f].append(rows.copy())) for f in factors]
)
if (stream.block, stream.stride) != (n_steps, n_steps * dim + 8):
    sys.exit(f"the coarsening stream has blocks of {stream.block} and stride {stream.stride}")
for _ in stream.blocks():
    pass
for i in range(count):
    path = brownian.sample_increments(seed, first + i, dim, step, n_steps)
    for f, (got,) in levels.items():
        if got[:, i].tobytes() != brownian.coarsen(path, f).tobytes():
            sys.exit(f"replica {first + i}: the compiled halving by {f} differs from coarsen")
print(f"compiled steps, draws and halving load; {rows.size} draws and {len(factors)} coarser levels match numpy's")
