"""The compiled steps of ``_native.c``, built on first use and loaded with ctypes.

``kernels()`` compiles the source with the C compiler the first time a
process asks for it, into a per-user cache directory (``$XDG_CACHE_HOME``,
else ``~/.cache``, then ``sfde-tem``).  The library's name is keyed by the
checksums of the source, the compiler, its flags and the machine type, so a
library built from other source is never loaded.  It is written to a
temporary file and renamed into place, so a crash or a concurrent build
never leaves a partial library under that name.  If the compiler is
missing, or the build or the load fails, ``kernels()`` warns once with a
``RuntimeWarning`` that names the failure and returns None: every driver
then runs on numpy alone.  Nothing here runs when the package is imported.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "gcc"
# no -ffast-math, and no contraction of a * b + c into one fused multiply-add:
# either would change the bits the numpy driver gives
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KERNELS = ("ex1_steps", "ex2_steps")


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
    keyed = b"\0".join([source, _COMPILER.encode(), " ".join(_FLAGS).encode(), platform.machine().encode()])
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
            [_COMPILER, *_FLAGS, "-o", tmp, "-x", "c", "-"],
            input=source, capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.lru_cache(maxsize=None)
def kernels():
    """``{name: ctypes function}`` for each step of ``_native.c``, or None if it cannot be built or loaded.

    Every step takes the same arguments: rows, batch, the increments' address
    and their row, replica and coordinate strides (in floats), the steps
    taken, K, N, Delta, ``inside``, the radius, the running integrals
    (``Term`` array), and the addresses of the states, the hit counts, the
    block of states written (or None) and a scratch buffer of n * B floats,
    which holds the pre-clip states of the row a step stops before.  It
    returns the rows taken: all of them, unless a pre-clip state is not
    finite.
    """
    import subprocess

    try:
        lib = ctypes.CDLL(str(_library(_SOURCE.read_bytes())))
        found = {name: getattr(lib, name) for name in _KERNELS}
    except subprocess.CalledProcessError as exc:
        reason = f"{_COMPILER} exited with status {exc.returncode}: {exc.stderr.decode(errors='replace').strip()}"
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        for fn in found.values():
            fn.argtypes = [i64, i64, ptr, i64, i64, i64, i64, i64, i64, dbl, dbl, dbl, ctypes.POINTER(Term)] + [ptr] * 4
            fn.restype = i64
        return found
    warnings.warn(
        f"the compiled steps are unavailable ({reason}); example1 and example2 run on the numpy driver",
        RuntimeWarning,
        stacklevel=3,
    )
    return None
