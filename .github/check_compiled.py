"""Build and load the compiled library, and check that its draws have numpy's bits.

Run with ``PYTHONPATH=src``; exits non-zero if the library does not build or
load, or if a stream's first block differs from ``sample_increments``.
"""

import sys

from sfde_tem import _native, brownian

kernels = _native.kernels()
if kernels is None:
    sys.exit("the compiled library did not build or load; see the RuntimeWarning")
missing = [name for name in (*_native._STEPS, _native._DRAW) if name not in kernels]
if missing:
    sys.exit(f"the compiled library lacks {missing}")
seed, first, count, dim, step, n_steps = 1, 2**32, 3, 2, 2.0**-6, 4096
rows = next(brownian.IncrementStream(seed, first, count, dim, step, n_steps).blocks())
for i in range(count):
    expected = brownian.sample_increments(seed, first + i, dim, step, len(rows))
    if rows[:, i].tobytes() != expected.tobytes():
        sys.exit(f"replica {first + i}: the compiled draws differ from numpy's")
print(f"compiled steps and draws load; {rows.size} draws match numpy's")
