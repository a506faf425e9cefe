"""Trial-parallel worker threads for the per-trial O(m³) LAPACK/BLAS kernels.

``map_trials(fn, count)`` runs ``fn(lo, hi)`` on contiguous slices of
``range(count)``, one slice per worker, and returns once every slice is done.
Each ``fn`` writes its slice of an output its caller preallocated, and every
trial is computed by the same single-threaded kernel whichever slice holds
it, so results do not depend on the worker count.  Random draws never happen
here: callers draw on their own thread first.  ``fn`` must not itself call
``map_trials``.

The workers are threads, one per CPU in the process's affinity mask; the
LAPACK, BLAS and ufunc loops they run release the interpreter lock.  At
these matrix sizes OpenBLAS's own threads cost more than they give, so each
fan-out runs every OpenBLAS library numpy and scipy load at one thread.
OpenBLAS keeps that count per process (``openblas_set_num_threads_local``
sets the same process-wide count), so it is set to 1 only while a fan-out
runs and restored before ``map_trials`` returns: the calling thread's
kernels between fan-outs keep the count it had.  Fan-outs from different
calling threads take turns.  Where numpy or scipy loads no OpenBLAS whose
thread count can be set, ``map_trials`` runs one slice on the calling
thread.

The pool is created on first use, so importing the package starts no thread.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

__all__ = ["map_trials", "describe"]


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

    Empty unless both packages load such a library: a fan-out that could
    limit only one of them would oversubscribe the cores through the other.
    """
    controls = []
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        found = [fns for lib in sorted(libdir.glob("*openblas*"))
                 if (fns := _thread_count_functions(lib)) is not None]
        if not found:
            return []
        controls += found
    return controls


class _Pool:
    """`workers` threads running OpenBLAS at one thread; serial if `blas` is empty."""

    def __init__(self, workers: int, blas: list):
        self.one_blas_thread = bool(blas)
        self.workers = max(1, workers) if self.one_blas_thread else 1
        self._blas = blas
        self._lock = threading.Lock()
        # ThreadPoolExecutor starts its threads on the first submit
        self._executor = ThreadPoolExecutor(self.workers, "spinmix-worker") \
            if self.one_blas_thread else None

    def map(self, fn, count: int):
        if self._executor is None:
            fn(0, count)
            return
        n = max(1, min(self.workers, count))
        bounds = [count * i // n for i in range(n + 1)]
        with self._lock:
            saved = [get() for get, _ in self._blas]
            futures = []
            try:
                for _, put in self._blas:
                    put(1)
                for lo, hi in zip(bounds, bounds[1:]):
                    futures.append(self._executor.submit(fn, lo, hi))
            finally:
                # no slice may outlive the fan-out: the caller reads (or frees)
                # the output next, and the thread count is restored
                wait(futures)
                for (_, put), k in zip(self._blas, saved):
                    put(k)
        for f in futures:
            f.result()

    def shutdown(self):
        if self._executor is not None:
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


def map_trials(fn, count: int):
    """Run fn(lo, hi) over contiguous slices covering range(count); re-raise errors."""
    _pool().map(fn, count)


def describe() -> dict:
    """Worker count and whether the workers run OpenBLAS at one thread each."""
    pool = _pool()
    return {"workers": pool.workers, "openblas_one_thread_per_worker": pool.one_blas_thread}
