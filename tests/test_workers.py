"""The trial-parallel worker pool: lazy start, BLAS thread count, errors, fork."""

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

            pool.map(mark, count)
            assert np.all(hits == 1), count
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
        pool.map(work, 4)
        assert len(seen) == 2 and all(c == [1] * len(blas) for c in seen)
        assert _counts(blas) == before
        with pytest.raises(ZeroDivisionError):
            pool.map(lambda lo, hi: 1 / 0, 4)
        assert _counts(blas) == before
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
            pool.map(work, 9)
        # the caller regains control only once the other slices are finished
        assert done[3:].all() and not done[:3].any()
    finally:
        pool.shutdown()


def test_default_pool_raises_in_caller():
    def fail(lo, hi):
        raise KeyError(lo)

    with pytest.raises(KeyError):
        _workers.map_trials(fail, 4)


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

                pool.map(add, 7)
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


def _child_maps():
    hits = np.zeros(5, dtype=int)

    def mark(lo, hi):
        hits[lo:hi] += 1

    _workers.map_trials(mark, 5)
    os._exit(0 if np.all(hits == 1) else 1)


def test_forked_child_gets_a_fresh_pool():
    _workers.map_trials(lambda lo, hi: None, 4)      # the parent's threads exist
    proc = multiprocessing.get_context("fork").Process(target=_child_maps)
    proc.start()
    proc.join(timeout=60)
    alive = proc.is_alive()
    if alive:
        proc.kill()
        proc.join()
    assert not alive, "map_trials hung in a forked child"
    assert proc.exitcode == 0
