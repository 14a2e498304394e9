"""The compiled steps, draws and coarsening of ``_native.c``, built on first use and loaded with ctypes.

``_native.c`` holds the builtin models' truncated steps (``ex1_steps``,
``ex2_steps``), ``draw_normals``, which fills a block of Brownian
increments for a batch of replicas with the bits of numpy's
``Generator(Philox(key=[seed, r])).standard_normal`` (numpy's Philox and
ziggurat, with numpy's ziggurat tables vendored as exact literals),
``halve_rows``, which sums a stream block's rows pairwise in place, in the
order of ``brownian._block_sums``, and ``observed_sums``, which reduces a
block of observed states to the squared norms and per-step state sums the
moment and stability observers take, in the order of the numpy expressions
they replace (``experiments._observed_sums``).  It is one C file with no
dependency but the C library.  It is built with ``-O3``, so that the
steps' loops over the batch are vectorised, and on x86-64 with glibc and
gcc 12 or later the steps carry an AVX2 (x86-64-v3) clone besides the
baseline one, of which the loader picks one by CPUID when the library is
loaded.  Both keep the
numpy driver's bits: the vectors run across replicas, elementwise.

``kernels()`` compiles the source with the C compiler the first time a
process asks for it, into a per-user cache directory (``$XDG_CACHE_HOME``,
else ``~/.cache``, then ``sfde-tem``).  The library's name is keyed by the
checksums of the source, the compiler, its flags and the machine type, so a
library built from other source is never loaded.  It is written to a
temporary file and renamed into place, so a crash or a concurrent build
never leaves a partial library under that name.  If the compiler is
missing, or the build or the load fails, ``kernels()`` warns once with a
``RuntimeWarning`` that names the failure and returns None: every driver
then runs on numpy alone, numpy's ``Generator`` draws the increments and
numpy sums the coarser levels and the observed blocks, with the same bits.
Nothing here runs when the package is imported.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "gcc"
# -O3 vectorises the steps' loops over the batch; no -ffast-math, and no
# contraction of a * b + c into one fused multiply-add: either would change
# the bits the numpy driver gives
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)  # the draws call log1p and exp; after the source, so that the library records it
_STEPS = ("ex1_steps", "ex2_steps")
_DRAW = "draw_normals"
_HALVE = "halve_rows"
_SUMS = "observed_sums"


class Term(ctypes.Structure):
    """``struct term`` of ``_native.c``: one running integral, its arrays by address."""

    _fields_ = [("m", ctypes.c_int64), ("coeff", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in ("w", "initial", "ring", "value", "head")
    ]


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "sfde-tem"


def _library(source: bytes) -> Path:
    """The cached library built from ``source``, compiled if it is not there yet."""
    import platform
    import subprocess
    import tempfile
    import zlib

    # zlib's two checksums make a 64-bit key; numpy has loaded zlib already,
    # while hashlib would map OpenSSL, about 4 MB more peak memory
    keyed = b"\0".join([source, _COMPILER.encode(), " ".join(_FLAGS + _LIBS).encode(), platform.machine().encode()])
    key = f"{zlib.crc32(keyed):08x}{zlib.adler32(keyed):08x}"
    cache = _cache_dir()
    path = cache / f"steps-{key}.so"
    if path.is_file():
        return path
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-o", tmp, "-x", "c", "-", *_LIBS],
            input=source, capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.lru_cache(maxsize=None)
def kernels():
    """``{name: ctypes function}`` for the steps, draw, halving and sums of ``_native.c``, or None if it cannot be built.

    Every step takes the same arguments: rows, batch, the increments' address
    and their row, replica and coordinate strides (in floats), the steps
    taken, K, N, Delta, ``inside``, the radius, the running integrals
    (``Term`` array), and the addresses of the states, the hit counts, the
    block of states written (or None) and a scratch buffer of n * B floats,
    which holds the pre-clip states of the row a step stops before.  It
    returns the rows taken: all of them, unless a pre-clip state is not
    finite.

    ``draw_normals`` takes the replica count, the address of their Philox
    states (a (count, 11) uint64 array laid out as ``struct philox``), the
    output's address and replica stride (in floats), the draws per replica
    and the scale each draw is multiplied by.

    ``halve_rows`` takes the replica count, the address of their rows and
    their replica stride (in floats), the rows, the floats per row and the
    halvings: each replica's first rows / 2^halvings rows become the sums
    of its 2^halvings-row blocks, summed pairwise.

    ``observed_sums`` takes the steps L, the replica count B and the
    coordinates n of a C-ordered (L, B, n) float64 block, its address, and
    the addresses of an (L, B) output for the squared norms and of an (L, n)
    output for the per-step sums over replicas (or None, to skip them).
    """
    import subprocess

    try:
        lib = ctypes.CDLL(str(_library(_SOURCE.read_bytes())))
        found = {name: getattr(lib, name) for name in (*_STEPS, _DRAW, _HALVE, _SUMS)}
    except subprocess.CalledProcessError as exc:
        reason = f"{_COMPILER} exited with status {exc.returncode}: {exc.stderr.decode(errors='replace').strip()}"
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        for name in _STEPS:
            found[name].argtypes = [i64, i64, ptr, *[i64] * 6, dbl, dbl, dbl, ctypes.POINTER(Term), *[ptr] * 4]
            found[name].restype = i64
        found[_DRAW].argtypes = [i64, ptr, ptr, i64, i64, dbl]
        found[_DRAW].restype = None
        found[_HALVE].argtypes = [i64, ptr, *[i64] * 4]
        found[_HALVE].restype = None
        found[_SUMS].argtypes = [i64, i64, i64, ptr, ptr, ptr]
        found[_SUMS].restype = None
        return found
    warnings.warn(
        f"the compiled steps are unavailable ({reason}); example1 and example2 run on the numpy driver, "
        "numpy's Generator draws the increments and numpy sums the coarser levels",
        RuntimeWarning,
        stacklevel=3,
    )
    return None
