"""The numeric environment of a stretch of many small factorisations: one
BLAS thread, and subnormals flushed to zero.

numpy and scipy each link an OpenBLAS (numpy's 64-bit-integer build and
scipy's 32-bit one), each with one thread count for the whole process.
Where neither links OpenBLAS (MKL, Accelerate) nothing is found or changed.
"""

import ctypes
import functools
import importlib
import platform
import sys
import threading
from contextlib import contextmanager

# extension modules linking the BLAS of numpy (at this path since numpy 1.x)
# and of scipy, and the thread-count symbols an OpenBLAS build may export
_LINKERS = ("numpy.linalg._umath_linalg", "scipy.linalg._flapack")
_SYMBOLS = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
            for p in ("scipy_openblas", "openblas") for s in ("64_", "")]

_lock = threading.Lock()
_depth = 0  # single_thread blocks open in the process
_prior: list = []  # (set, count) pairs to restore when the last block ends


@functools.cache
def _openblas() -> list:
    """(get, set) thread-count functions of each OpenBLAS linked."""
    found = []
    for module in _LINKERS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


@contextmanager
def single_thread():
    """Run the block with every OpenBLAS of the process on one thread.

    The counts are process-global, so blocks open in several Python threads
    share one setting: the first to open saves the counts, the last to close
    restores them, and BLAS calls elsewhere meanwhile run on one thread.
    """
    global _depth, _prior
    with _lock:
        if _depth == 0:
            _prior = [(put, get()) for get, put in _openblas()]
            for put, _ in _prior:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, count in _prior:
                    put(count)


_Fenv = ctypes.c_ubyte * 32  # glibc's x86-64 fenv_t: the x87 environment, then MXCSR
_MXCSR = 28  # byte offset of __mxcsr in it
_FTZ_DAZ = 0x8040  # MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6)


@functools.cache
def _fenv():
    """glibc libm's (fegetenv, fesetenv) on Linux x86-64, where the layout
    above holds; None elsewhere."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        return None
    try:
        libm = ctypes.CDLL("libm.so.6")
    except OSError:  # no glibc
        return None
    for function in (libm.fegetenv, libm.fesetenv):
        function.argtypes, function.restype = [ctypes.POINTER(_Fenv)], ctypes.c_int
    return libm.fegetenv, libm.fesetenv


@contextmanager
def flush_subnormals():
    """Run the block with SSE arithmetic reading subnormal inputs as zero and
    writing subnormal results as zero (MXCSR's DAZ and FTZ bits), on Linux
    x86-64; elsewhere change nothing.

    A subnormal operand costs a microcode assist, in the Gram build and in
    LAPACK's factorisation alike.  MXCSR belongs to the calling thread: other
    threads keep theirs, and a thread started inside the block inherits it.
    The environment saved on entry comes back when the block ends, by an
    exception too.
    """
    fenv = _fenv()
    if fenv is None:
        yield
        return
    get, put = fenv
    saved = _Fenv()
    get(saved)
    flushed = _Fenv.from_buffer_copy(saved)
    ctypes.c_uint32.from_buffer(flushed, _MXCSR).value |= _FTZ_DAZ
    put(flushed)
    try:
        yield
    finally:
        put(saved)
