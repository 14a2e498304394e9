"""Build and load the compiled library, check that the builtins' truncated drivers take its steps, and that its
draws, coarsening and observed sums have numpy's bits.

Run with ``PYTHONPATH=src``; exits non-zero if the library does not build or
load, if a truncated example1 or example2 driver does not take the compiled
step (the numpy step gives the same bits, so no digest would show it), if a stream's first block or ``generate``'s path differs from numpy's
``Generator(Philox(key=[seed, r]))``, if a level of a coarsening stream's
block differs from ``coarsen`` of those increments, or if the squared norms or per-step sums of an observed block of
example2 differ from the numpy expressions they replace.
"""

import sys

import numpy as np

from sfde_tem import _native, brownian, builtin_example1, builtin_example2, generate
from sfde_tem.scheme import SchemeConfig, _Driver, _run_batch
from sfde_tem.segment import _sum_last_axis

kernels = _native.kernels()
if kernels is None:
    sys.exit("the compiled library did not build or load; see the RuntimeWarning")
missing = [name for name in (*_native._STEPS, _native._DRAW, _native._HALVE, _native._SUMS) if name not in kernels]
if missing:
    sys.exit(f"the compiled library lacks {missing}")
for model in (builtin_example1(), builtin_example2()):
    # C has no full quadrature: every integral of the kernel must be a running term
    if _Driver(model, SchemeConfig(2.0**-5, 1.0), 3).compiled is None:
        sys.exit(f"a truncated {model.name} driver does not take the compiled step")


def numpy_draws(seed, replica, dim, step, count):
    generator = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
    return generator.standard_normal((count, dim)) * np.sqrt(step)


seed, first, count, dim, step, n_steps = 1, 2**32, 3, 2, 2.0**-6, 4096
rows = next(brownian.IncrementStream(seed, first, count, dim, step, n_steps).blocks())
for i in range(count):
    expected = numpy_draws(seed, first + i, dim, step, len(rows))
    if rows[:, i].tobytes() != expected.tobytes():
        sys.exit(f"replica {first + i}: the compiled draws differ from numpy's")
    path = generate(seed, first + i, dim, step, n_steps * step).increments
    if path.tobytes() != numpy_draws(seed, first + i, dim, step, n_steps).tobytes():
        sys.exit(f"replica {first + i}: generate's draws differ from numpy's")
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
    path = numpy_draws(seed, first + i, dim, step, n_steps)
    for f, (got,) in levels.items():
        if got[:, i].tobytes() != brownian.coarsen(path, f).tobytes():
            sys.exit(f"replica {first + i}: the compiled halving by {f} differs from coarsen")
# one observed block of stability-ex2's shape, (8, 1000, 2): the steps 33..40
# of 1000 replicas of example2, reduced in C and by numpy
blocks = []
step, n_steps, count = 2.0**-6, 40, 1000
stream = brownian.IncrementStream(seed, 0, count, 2, step, n_steps)
_run_batch(
    builtin_example2(), SchemeConfig(step, n_steps * step), stream,
    per_block=lambda k0, states, alive: blocks.append(states.copy()),
)
states = blocks[-1]
if states.shape != (8, count, 2):
    sys.exit(f"the last observed block has shape {states.shape}")
sq, cols = np.empty((8, count)), np.empty((8, 2))
kernels[_native._SUMS](8, count, 2, states.ctypes.data, sq.ctypes.data, cols.ctypes.data)
if sq.tobytes() != _sum_last_axis(states * states).tobytes():
    sys.exit("the compiled squared norms of an observed block differ from numpy's")
if cols.tobytes() != np.array([row.sum(axis=0) for row in states]).tobytes():
    sys.exit("the compiled sums over replicas of an observed block differ from numpy's")
print(
    f"compiled steps, draws, halving and sums load; example1 and example2 take the compiled step; {rows.size} stream draws, generate's paths, "
    f"{len(factors)} coarser levels and an observed block's sums match numpy's"
)
