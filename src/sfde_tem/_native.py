"""The compiled example1 step of ``_native.c``, built on first use and loaded with ctypes.

``ex1_step()`` compiles the source with the C compiler the first time a
process asks for it, into a per-user cache directory (``$XDG_CACHE_HOME``,
else ``~/.cache``, then ``sfde-tem``).  The library's name is keyed by the
checksums of the source, the compiler, its flags and the machine type, so a
library built from other source is never loaded.  It is written to a
temporary file and renamed into place, so a crash or a concurrent build
never leaves a partial library under that name.  If the compiler is
missing, or the build or the load fails, ``ex1_step()`` warns once with a
``RuntimeWarning`` that names the failure and returns None: the driver
then runs on numpy alone.  Nothing here runs when the package is imported.
"""

from __future__ import annotations

import functools
import os
import warnings
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "gcc"
# no -ffast-math, and no contraction of a * b + c into one fused multiply-add:
# either would change the bits the numpy driver gives
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


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
    path = cache / f"ex1_step-{key}.so"
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
def ex1_step():
    """``ex1_steps`` of ``_native.c`` as a ctypes function, or None if it cannot be built or loaded."""
    import ctypes
    import subprocess

    try:
        lib = ctypes.CDLL(str(_library(_SOURCE.read_bytes())))
        fn = lib.ex1_steps
    except subprocess.CalledProcessError as exc:
        reason = f"{_COMPILER} exited with status {exc.returncode}: {exc.stderr.decode(errors='replace').strip()}"
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn.argtypes = [i64, i64, ptr] + [i64] * 5 + [dbl] * 4 + [ptr] * 7
        fn.restype = i64
        return fn
    warnings.warn(
        f"the compiled example1 step is unavailable ({reason}); example1 runs on the numpy driver",
        RuntimeWarning,
        stacklevel=3,
    )
    return None
