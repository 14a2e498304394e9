"""numpy's own draws of a (seed, replica) stream: what the library's draws are compared with, bit for bit."""

import numpy as np


def reference_increments(seed, replica, dim, step, count):
    """(count, dim) N(0, step) draws of ``Generator(Philox(key=[seed, replica]))``."""
    generator = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
    return generator.standard_normal((count, dim)) * np.sqrt(step)
