"""The trial-parallel worker pool: lazy start, BLAS thread count, errors, fork."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spinmix import _workers

SRC = Path(__file__).resolve().parent.parent / "src"
# a trial of a whole sub-block, so that a fan-out runs one slice per worker
SPLIT = _workers._SUB_BLOCK


@pytest.fixture()
def blas():
    controls = _workers._openblas_controls()
    if not controls:
        pytest.skip("numpy or scipy loads no OpenBLAS whose thread count can be set")
    return controls


def _counts(blas):
    return [get() for get, _ in blas]


def test_import_starts_no_thread():
    code = "import threading, spinmix; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("threaded", [True, False])
def test_slices_cover_every_trial_once(threaded):
    blas = _workers._openblas_controls() if threaded else []
    if threaded and not blas:
        pytest.skip("numpy or scipy loads no OpenBLAS whose thread count can be set")
    pool = _workers._Pool(3, blas)
    try:
        for count in (0, 1, 2, 3, 7, 100):
            hits = np.zeros(count, dtype=int)

            def mark(lo, hi):
                hits[lo:hi] += 1

            for size in (1, SPLIT):
                hits[:] = 0
                pool.map(mark, count, size)
                assert np.all(hits == 1), (count, size)
    finally:
        pool.shutdown()


def test_workers_run_openblas_at_one_thread_and_the_caller_keeps_its_count(blas):
    before = _counts(blas)
    pool = _workers._Pool(2, blas)
    seen = []
    gen = np.random.default_rng(0)
    mats = gen.standard_normal((4, 256, 256))

    def work(lo, hi):
        seen.append(_counts(blas))
        np.linalg.eigvalsh(mats[lo:hi] + mats[lo:hi].swapaxes(-1, -2))

    try:
        pool.map(work, 4, SPLIT)
        assert len(seen) == 2 and all(c == [1] * len(blas) for c in seen)
        assert _counts(blas) == before
        with pytest.raises(ZeroDivisionError):
            pool.map(lambda lo, hi: 1 / 0, 4, SPLIT)
        assert _counts(blas) == before
    finally:
        pool.shutdown()


def test_slice_count_follows_the_rule(blas, monkeypatch):
    # min(workers, count, ⌈count·size / _SUB_BLOCK⌉) slices, at least one
    monkeypatch.setattr(_workers, "_SUB_BLOCK", 100)
    pools = {k: _workers._Pool(k, blas) for k in (1, 2, 3)}
    try:
        for workers, pool in pools.items():
            for count in (0, 1, 2, 5, 40):
                for size in (1, 7, 33, 50, 100, 250):
                    slices = []
                    pool.map(lambda lo, hi: slices.append((lo, hi)), count, size)
                    expected = max(1, min(workers, count, math.ceil(count * size / 100)))
                    assert len(slices) == expected, (workers, count, size)
                    assert sorted(slices)[0][0] == 0 and sorted(slices)[-1][1] == count
    finally:
        for pool in pools.values():
            pool.shutdown()


def test_lone_slice_runs_on_the_calling_thread_at_one_blas_thread(blas):
    before = _counts(blas)
    pool = _workers._Pool(3, blas)
    seen = []

    def work(lo, hi):
        seen.append((lo, hi, threading.get_ident(), _counts(blas)))

    try:
        for _, put in blas:
            put(2)
        outside = _counts(blas)
        pool.map(work, 5, 1)
        assert seen == [(0, 5, threading.get_ident(), [1] * len(blas))]
        assert _counts(blas) == outside
        with pytest.raises(ZeroDivisionError):
            pool.map(lambda lo, hi: 1 / 0, 5, 1)
        assert _counts(blas) == outside
    finally:
        for (_, put), k in zip(blas, before):
            put(k)
        pool.shutdown()


def _nested(pool, size):
    def outer(lo, hi):
        pool.map(lambda a, b: None, 2, SPLIT)

    pool.map(outer, 4, size)


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("size", [1, SPLIT], ids=["lone", "split"])
def test_nested_fan_out_raises(threaded, size):
    # the outer fan-out holds the pool while its slices run, so a slice that
    # waited for a fan-out of its own would never return
    blas = _workers._openblas_controls() if threaded else []
    if threaded and not blas:
        pytest.skip("numpy or scipy loads no OpenBLAS whose thread count can be set")
    pool = _workers._Pool(2, blas)
    errors = []

    def caller():
        try:
            _nested(pool, size)
        except Exception as exc:       # reported by the assertions below
            errors.append(exc)

    try:
        thread = threading.Thread(target=caller, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "a nested fan-out deadlocked"
        assert len(errors) == 1 and isinstance(errors[0], RuntimeError), errors
        assert "must not itself call map_trials" in str(errors[0])
        # the refusal leaves the pool usable
        hits = np.zeros(4, dtype=int)

        def mark(lo, hi):
            hits[lo:hi] += 1

        pool.map(mark, 4, size)
        assert np.all(hits == 1)
    finally:
        pool.shutdown()


def test_worker_error_reaches_caller_after_every_slice(blas):
    pool = _workers._Pool(3, blas)
    done = np.zeros(9, dtype=bool)

    def work(lo, hi):
        if lo == 0:
            raise FloatingPointError("slice 0 failed")
        time.sleep(0.05)
        done[lo:hi] = True

    try:
        with pytest.raises(FloatingPointError, match="slice 0 failed"):
            pool.map(work, 9, SPLIT)
        # the caller regains control only once the other slices are finished
        assert done[3:].all() and not done[:3].any()
    finally:
        pool.shutdown()


def test_default_pool_raises_in_caller():
    def fail(lo, hi):
        raise KeyError(lo)

    with pytest.raises(KeyError):
        _workers.map_trials(fail, 4, 1)


def test_fan_outs_from_several_callers_take_turns(blas):
    before = _counts(blas)
    pool = _workers._Pool(3, blas)
    totals = np.zeros(4)
    errors = []

    def caller(k):
        try:
            for _ in range(20):
                part = np.zeros(7)

                def add(lo, hi):
                    part[lo:hi] += 1

                pool.map(add, 7, SPLIT)
                totals[k] += part.sum()
        except Exception as exc:       # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not errors
    assert np.all(totals == 20 * 7)
    assert _counts(blas) == before


def test_describe_reports_affinity_workers():
    info = _workers.describe()
    one_thread = bool(_workers._openblas_controls())
    assert info["openblas_one_thread_per_worker"] is one_thread
    assert info["workers"] == (len(os.sched_getaffinity(0)) if one_thread else 1)
    assert info["openblas_threads"] == [get() for get, _ in _workers._openblas_controls()]


def _child_maps():
    hits = np.zeros(5, dtype=int)

    def mark(lo, hi):
        hits[lo:hi] += 1

    _workers.map_trials(mark, 5, SPLIT)
    os._exit(0 if np.all(hits == 1) else 1)


def test_forked_child_gets_a_fresh_pool():
    _workers.map_trials(lambda lo, hi: None, 4, SPLIT)   # the parent's threads exist
    proc = multiprocessing.get_context("fork").Process(target=_child_maps)
    proc.start()
    proc.join(timeout=60)
    alive = proc.is_alive()
    if alive:
        proc.kill()
        proc.join()
    assert not alive, "map_trials hung in a forked child"
    assert proc.exitcode == 0
