"""Trial-parallel worker threads for the per-trial O(m³) LAPACK/BLAS kernels.

``stream(count, step, draw, work, fold)`` runs ``range(count)`` as work
items of `step` trials, lo..hi, in order.  The calling thread draws each
item, ``draw(lo, hi)``, in trial order; a worker takes it as soon as it is
drawn and runs ``work(lo, hi, drawn)``; and the calling thread folds the
results, ``fold(lo, hi, result)``, in item order, as soon as the finished
prefix grows.  At most 2 × workers items are in flight, drawn but not yet
folded, and only as many as fit in ``_FLIGHT_DRAWS`` elements of draws,
one at least, so a run holds only their draws however long it is.  The
stream counts the elements each item's draws hold (``_elements``), and
before it draws the next item it folds the oldest while either bound
would be passed.  Every item of a run is drawn alike and only the last
one is smaller, so the last item's count stands for the next one's.  Every
trial is computed by the same single-threaded kernel whichever worker
runs its item, and random draws happen only in ``draw``, on the calling
thread, so results do not depend on the worker count.  A run of one item,
and every run on a pool of one worker, run their items on the calling
thread.  An item must not itself start a stream; such a call raises
``RuntimeError`` instead of waiting for the stream it runs in.  The first
error, in item order, is re-raised once every item in flight has
finished.  How many trials an item holds, and so the temporaries each
worker holds, is the caller's choice.

The workers are threads, one per CPU in the process's affinity mask; the
LAPACK, BLAS and ufunc loops they run release the interpreter lock.  At
these matrix sizes OpenBLAS's own threads cost more than they give, so the
OpenBLAS that numpy ships runs at one thread while a stream runs, on the
calling thread as on the workers.  OpenBLAS keeps that count per process
(``openblas_set_num_threads_local`` sets the same process-wide count), so
it is set to 1 only while a stream runs and restored before ``stream``
returns: the calling thread's kernels between streams keep the count it
had.  Streams from different calling threads take turns.  Where numpy
ships no OpenBLAS whose thread count can be set, every item runs on the
calling thread.

``_scratch(key, shape, dtype)`` hands a kernel a per-thread array that is
reused across items and calls, so an item maps no fresh pages.  It
lives as long as its thread (a worker lives as long as the pool) and grows
only to the largest request that thread has made; nothing a kernel returns
may alias it.  So the bond terms and kept m×m arrays of
``spectra._chunk_pass`` are arrays of their item instead, which are freed
when the item is done.

The pool is created on first use, so importing the package starts no thread.
"""

from __future__ import annotations

import collections
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

__all__ = ["stream", "describe"]

_thread = threading.local()      # .in_stream while a stream or an item runs; .scratch arrays
_FLIGHT_DRAWS = 1 << 23          # elements the draws of the items in flight hold, at most


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
    """(get, set) pairs of the thread counts of numpy's OpenBLAS, or []."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    return [fns for lib in sorted(libdir.glob("*openblas*"))
            if (fns := _thread_count_functions(lib)) is not None]


def _elements(drawn) -> int:
    """Elements of the arrays in `drawn`: an array, None, or tuples and lists of them."""
    if drawn is None:
        return 0
    if isinstance(drawn, (tuple, list)):
        return sum(map(_elements, drawn))
    return np.size(drawn)


def _run_item(work, lo, hi, drawn):
    _thread.in_stream = True
    try:
        return work(lo, hi, drawn)
    finally:
        _thread.in_stream = False


class _Pool:
    """`workers` threads running OpenBLAS at one thread; serial if `blas` is empty."""

    def __init__(self, workers: int, blas: list):
        self.one_blas_thread = bool(blas)
        self.workers = max(1, workers) if self.one_blas_thread else 1
        self._blas = blas
        self._lock = threading.Lock()
        # ThreadPoolExecutor starts its threads on the first submit
        self._executor = ThreadPoolExecutor(self.workers, "spinmix-worker")

    def stream(self, count: int, step: int, draw, work, fold):
        if getattr(_thread, "in_stream", False):
            raise RuntimeError("stream called from inside a stream: an item must not "
                               "itself start a stream")
        pending = collections.deque()      # (lo, hi, elements drawn, future) in item order
        last = 0                           # elements the last item drew

        def fold_head():
            lo, hi, _, future = pending.popleft()
            fold(lo, hi, future.result())

        with self._lock:
            saved = [get() for get, _ in self._blas]
            _thread.in_stream = True
            try:
                for _, put in self._blas:
                    put(1)
                inline = self.workers == 1 or count <= step
                for lo in range(0, count, step):
                    hi = min(count, lo + step)
                    if inline:
                        fold(lo, hi, work(lo, hi, draw(lo, hi)))
                        continue
                    while pending and (len(pending) == 2 * self.workers
                                       or sum(p[2] for p in pending) + last > _FLIGHT_DRAWS):
                        fold_head()
                    drawn = draw(lo, hi)
                    last = _elements(drawn)
                    pending.append((lo, hi, last, self._executor.submit(
                        _run_item, work, lo, hi, drawn)))
                    del drawn       # else it is held while the next item is drawn
                    while pending and pending[0][3].done():
                        fold_head()
                while pending:
                    fold_head()
            finally:
                # no item may outlive the stream: the caller reads (or frees)
                # the output next, and the thread count is restored
                if pending:
                    wait([future for *_, future in pending])
                for (_, put), k in zip(self._blas, saved):
                    put(k)
                _thread.in_stream = False

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


def stream(count: int, step: int, draw, work, fold):
    """Draw, work on and fold range(count) in items of `step` trials; re-raise errors.

    See the module docstring: draw(lo, hi) and fold(lo, hi, result) run on
    the calling thread in item order, work(lo, hi, drawn) on the workers.
    """
    _pool().stream(count, step, draw, work, fold)


def _scratch(key: str, shape, dtype) -> np.ndarray:
    """This thread's reusable array `key`, of `shape` and `dtype`, contents undefined."""
    arrays = _thread.__dict__.setdefault("scratch", {})
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if key not in arrays or arrays[key].size < nbytes:
        arrays[key] = np.empty(nbytes, np.uint8)
    return arrays[key][:nbytes].view(dtype).reshape(shape)


def describe() -> dict:
    """Worker count, whether the workers run OpenBLAS at one thread each, and
    the OpenBLAS thread counts outside a stream (one per library, read only)."""
    pool = _pool()
    return {"workers": pool.workers, "openblas_one_thread_per_worker": pool.one_blas_thread,
            "openblas_threads": [get() for get, _ in pool._blas]}
