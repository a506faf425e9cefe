"""Trial-parallel worker threads for the per-trial O(m³) LAPACK/BLAS kernels.

``map_trials(fn, count, size)`` runs ``fn(lo, hi)`` on contiguous slices of
``range(count)`` and returns once every slice is done.  Each ``fn`` writes
its slice of an output its caller preallocated, and every trial is computed
by the same single-threaded kernel whichever slice holds it, so results do
not depend on the slice count.  Random draws never happen here: callers
draw on their own thread first.  A slice must not itself call
``map_trials``; such a call raises ``RuntimeError`` instead of waiting for
the fan-out it runs in.  Callers walk each slice in sub-blocks of at most
``_SUB_BLOCK`` array elements (``_sub_blocks``), where a trial holds `size`
elements, which bounds the temporaries each slice holds.

The slice rule: a fan-out runs min(workers, count, ⌈count·size /
_SUB_BLOCK⌉) slices, so no slice of a split holds less than half a
sub-block.  A smaller slice is a few short numpy calls that hold the
interpreter lock between their loops, and two of them finish no sooner than
one thread running both.  A lone slice runs on the calling thread.

The workers are threads, one per CPU in the process's affinity mask; the
LAPACK, BLAS and ufunc loops they run release the interpreter lock.  At
these matrix sizes OpenBLAS's own threads cost more than they give, so
every slice, a lone one on the calling thread included, runs every OpenBLAS
library that numpy and scipy ship at one thread.  The pool finds scipy's
library without importing scipy and loads it by path, so a fan-out that
first imports ``scipy.linalg`` (``matgen._orgqr``) finds its OpenBLAS
mapped once and already limited.  OpenBLAS keeps that count per
process (``openblas_set_num_threads_local`` sets the same process-wide
count), so it is set to 1 only while a fan-out runs and restored before
``map_trials`` returns: the calling thread's kernels between fan-outs keep
the count it had.  Fan-outs from different calling threads take turns.
Where numpy or scipy ships no OpenBLAS whose thread count can be set,
``map_trials`` runs one slice on the calling thread.

``_scratch(key, shape, dtype)`` hands a kernel a per-thread array that is
reused across sub-blocks and calls, so a sub-block maps no fresh pages.  It
lives as long as its thread (a worker lives as long as the pool) and grows
only to the largest request that thread has made; nothing a kernel returns
may alias it.  So the bond terms and kept m×m arrays of
``spectra._chunk_pass`` are arrays of their slice instead, which are freed
when the fan-out returns.

The pool is created on first use, so importing the package starts no thread.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

__all__ = ["map_trials", "describe"]

_SUB_BLOCK = 1 << 18             # array elements per worker-side temporary

_thread = threading.local()      # .in_slice while a slice runs; .scratch arrays


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity mask on this platform
        return os.cpu_count() or 1


def _thread_count_functions(path):
    """(get, set) of one OpenBLAS library's thread count, or None."""
    try:
        dll = ctypes.CDLL(str(path))
    except OSError:
        return None
    # symbol names in the scipy-openblas builds with 64- and 32-bit integers
    for suffix in ("64_", ""):
        get = getattr(dll, f"scipy_openblas_get_num_threads{suffix}", None)
        put = getattr(dll, f"scipy_openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _openblas_controls() -> list:
    """(get, set) pairs of numpy's and scipy's OpenBLAS thread counts, or [].

    Empty unless both packages ship such a library: a fan-out that could
    limit only one of them would oversubscribe the cores through the other.
    The packages are found, not imported: scipy is imported by the first
    Haar matrix, whose LAPACK then uses the library loaded here.
    """
    controls = []
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.util.find_spec(pkg).origin).parent.parent / f"{pkg}.libs"
        found = [fns for lib in sorted(libdir.glob("*openblas*"))
                 if (fns := _thread_count_functions(lib)) is not None]
        if not found:
            return []
        controls += found
    return controls


def _run_slice(fn, lo, hi):
    _thread.in_slice = True
    try:
        fn(lo, hi)
    finally:
        _thread.in_slice = False


class _Pool:
    """`workers` threads running OpenBLAS at one thread; serial if `blas` is empty."""

    def __init__(self, workers: int, blas: list):
        self.one_blas_thread = bool(blas)
        self.workers = max(1, workers) if self.one_blas_thread else 1
        self._blas = blas
        self._lock = threading.Lock()
        # ThreadPoolExecutor starts its threads on the first submit
        self._executor = ThreadPoolExecutor(self.workers, "spinmix-worker")

    def map(self, fn, count: int, size: int):
        if getattr(_thread, "in_slice", False):
            raise RuntimeError("map_trials called from a slice of a fan-out: a slice "
                               "must not itself call map_trials")
        n = max(1, min(self.workers, count, -(-count * size // _SUB_BLOCK)))
        with self._lock:
            saved = [get() for get, _ in self._blas]
            futures = []
            try:
                for _, put in self._blas:
                    put(1)
                if n == 1:
                    _run_slice(fn, 0, count)
                else:
                    bounds = [count * i // n for i in range(n + 1)]
                    for lo, hi in zip(bounds, bounds[1:]):
                        futures.append(self._executor.submit(_run_slice, fn, lo, hi))
            finally:
                # no slice may outlive the fan-out: the caller reads (or frees)
                # the output next, and the thread count is restored
                wait(futures)
                for (_, put), k in zip(self._blas, saved):
                    put(k)
        for f in futures:
            f.result()

    def shutdown(self):
        self._executor.shutdown()


_lock = threading.Lock()
_default = None


def _pool() -> _Pool:
    global _default
    with _lock:
        if _default is None:
            _default = _Pool(_cpu_count(), _openblas_controls())
        return _default


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _default, _lock
    _default, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_trials(fn, count: int, size: int):
    """Run fn(lo, hi) over contiguous slices covering range(count); re-raise errors.

    `size` is the number of array elements a trial holds, as `fn` passes it
    to ``_sub_blocks``; it sets the slice count (see the module docstring).
    """
    _pool().map(fn, count, size)


def _sub_blocks(lo: int, hi: int, size: int):
    """(s, e) ranges covering lo..hi, of at most _SUB_BLOCK elements at `size` a trial."""
    step = max(1, _SUB_BLOCK // size)
    for s in range(lo, hi, step):
        yield s, min(hi, s + step)


def _scratch(key: str, shape, dtype) -> np.ndarray:
    """This thread's reusable array `key`, of `shape` and `dtype`, contents undefined."""
    arrays = _thread.__dict__.setdefault("scratch", {})
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if key not in arrays or arrays[key].size < nbytes:
        arrays[key] = np.empty(nbytes, np.uint8)
    return arrays[key][:nbytes].view(dtype).reshape(shape)


def describe() -> dict:
    """Worker count, whether the workers run OpenBLAS at one thread each, and
    the OpenBLAS thread counts outside a fan-out (one per library, read only)."""
    pool = _pool()
    return {"workers": pool.workers, "openblas_one_thread_per_worker": pool.one_blas_thread,
            "openblas_threads": [get() for get, _ in pool._blas]}
