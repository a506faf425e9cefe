"""The trial-parallel worker pool: lazy start, the stream's order and bound,
BLAS thread count, errors, fork."""

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
        pytest.skip("numpy loads no OpenBLAS whose thread count can be set")
    return controls


def _counts(blas):
    return [get() for get, _ in blas]


def _draw(lo, hi):
    return lo, hi


def _ignore(lo, hi, result):
    pass


def test_import_starts_no_thread():
    code = "import threading, spinmix; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("threaded", [True, False])
def test_slices_cover_every_trial_once(threaded):
    # each item is drawn and folded once, in order, on the calling thread,
    # and folded with its own work's result
    blas = _workers._openblas_controls() if threaded else []
    if threaded and not blas:
        pytest.skip("numpy loads no OpenBLAS whose thread count can be set")
    pool = _workers._Pool(3, blas)
    caller = threading.get_ident()
    try:
        for count in (0, 1, 2, 3, 7, 100):
            for step in (1, 3, 7, 1000):
                drawn, folded = [], []

                def draw(lo, hi):
                    assert threading.get_ident() == caller
                    drawn.append((lo, hi))
                    return lo, hi

                def fold(lo, hi, result):
                    assert threading.get_ident() == caller
                    assert result == (lo, hi, lo, hi)
                    folded.append((lo, hi))

                pool.stream(count, step, draw, lambda lo, hi, d: (lo, hi, *d), fold)
                expected = [(lo, min(count, lo + step)) for lo in range(0, count, step)]
                assert drawn == folded == expected, (count, step)
    finally:
        pool.shutdown()


def test_workers_run_openblas_at_one_thread_and_the_caller_keeps_its_count(blas):
    before = _counts(blas)
    pool = _workers._Pool(2, blas)
    seen, drawn_at = [], []
    gen = np.random.default_rng(0)
    mats = gen.standard_normal((4, 256, 256))

    def draw(lo, hi):
        drawn_at.append(_counts(blas))
        return mats[lo:hi]

    def work(lo, hi, m):
        seen.append(_counts(blas))
        return np.linalg.eigvalsh(m + m.swapaxes(-1, -2))

    try:
        pool.stream(4, 1, draw, work, _ignore)
        assert len(seen) == 4 and all(c == [1] * len(blas) for c in seen + drawn_at)
        assert _counts(blas) == before
        with pytest.raises(ZeroDivisionError):
            pool.stream(4, 1, _draw, lambda lo, hi, d: 1 / 0, _ignore)
        assert _counts(blas) == before
    finally:
        pool.shutdown()


ITEM_ELEMENTS = 1000      # elements of each item's draws in _reach_the_bound


def _reach_the_bound(pool, bound):
    """Run a 30-item stream whose item 0 waits until `bound` items are drawn.

    Each item draws arrays of ``ITEM_ELEMENTS`` elements.  Returns the
    items in flight at each draw and the threads that ran work.
    """
    release = threading.Event()
    state = {"drawn": 0, "folded": 0, "in_flight": []}
    ran_on = set()

    def draw(lo, hi):
        state["drawn"] += 1
        state["in_flight"].append(state["drawn"] - state["folded"])
        if state["drawn"] == bound:
            release.set()
        return np.zeros(ITEM_ELEMENTS // 2), [np.zeros(ITEM_ELEMENTS // 2), None]

    def work(lo, hi, drawn):
        ran_on.add(threading.get_ident())
        if lo == 0 and bound > 1:
            assert release.wait(timeout=60), "the stream drew no more items"
        return lo

    def fold(lo, hi, result):
        state["folded"] += 1

    try:
        pool.stream(30, 1, draw, work, fold)
    finally:
        pool.shutdown()
    assert state["folded"] == 30
    return state["in_flight"], ran_on


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_items_in_flight_stay_within_the_bound(blas, workers):
    # at most 2 × workers items are drawn and not yet folded; item 0's work
    # waits until the last item the bound allows is drawn, so the bound is
    # reached.  One worker runs each item before the next is drawn
    bound = 2 * workers if workers > 1 else 1
    in_flight, ran_on = _reach_the_bound(_workers._Pool(workers, blas), bound)
    assert max(in_flight) == bound, in_flight
    assert (threading.get_ident() in ran_on) is (workers == 1)


@pytest.mark.parametrize("limit", [1, 2, 5])
def test_items_in_flight_stay_within_the_draws_budget(blas, monkeypatch, limit):
    # a budget of `limit` items' draws binds below 2 × workers; with room
    # for one item, the workers still run every item, one at a time
    monkeypatch.setattr(_workers, "_FLIGHT_DRAWS", limit * ITEM_ELEMENTS)
    in_flight, ran_on = _reach_the_bound(_workers._Pool(3, blas), limit)
    assert max(in_flight) == limit, in_flight
    assert ran_on and threading.get_ident() not in ran_on


def test_draws_are_counted_in_elements():
    # arrays inside nested tuples and lists count, None does not, and a
    # complex element counts once
    drawn = (np.ones((2, 3), complex), [None, (np.ones(4), [np.ones((5, 1), np.float32)])],
             None, [])
    assert _workers._elements(drawn) == 6 + 4 + 5
    assert _workers._elements(None) == 0


def test_lone_slice_runs_on_the_calling_thread_at_one_blas_thread(blas):
    # a run of one item, and every item of a one-worker pool, run on the
    # calling thread
    before = _counts(blas)
    pools = [_workers._Pool(3, blas), _workers._Pool(1, blas)]
    seen = []

    def work(lo, hi, drawn):
        seen.append((lo, hi, threading.get_ident(), _counts(blas)))

    try:
        for _, put in blas:
            put(2)
        outside = _counts(blas)
        pools[0].stream(5, 5, _draw, work, _ignore)
        assert seen == [(0, 5, threading.get_ident(), [1] * len(blas))]
        seen.clear()
        pools[1].stream(5, 2, _draw, work, _ignore)
        assert seen == [(lo, min(5, lo + 2), threading.get_ident(), [1] * len(blas))
                        for lo in (0, 2, 4)]
        assert _counts(blas) == outside
        for pool in pools:
            with pytest.raises(ZeroDivisionError):
                pool.stream(5, 5, _draw, lambda lo, hi, d: 1 / 0, _ignore)
            assert _counts(blas) == outside
    finally:
        for (_, put), k in zip(blas, before):
            put(k)
        for pool in pools:
            pool.shutdown()


def test_inline_runs_wait_on_no_future(monkeypatch):
    # an inline run submits nothing, so it has nothing to wait for when it
    # ends, whether or not an item raised
    waited = []
    monkeypatch.setattr(_workers, "wait", waited.append)
    pool = _workers._Pool(3, [])
    try:
        pool.stream(5, 2, _draw, lambda lo, hi, d: None, _ignore)
        with pytest.raises(ZeroDivisionError):
            pool.stream(5, 2, _draw, lambda lo, hi, d: 1 / 0, _ignore)
    finally:
        pool.shutdown()
    assert waited == []


def _nested(pool, step, where="work"):
    def nested(*args):
        pool.stream(2, 1, _draw, lambda lo, hi, d: None, _ignore)
        return args[-1]

    pool.stream(4, step, nested if where == "draw" else _draw,
                nested if where == "work" else (lambda lo, hi, d: d),
                nested if where == "fold" else _ignore)


def _assert_nested_stream_raises(pool, step, where="work"):
    errors = []

    def caller():
        try:
            _nested(pool, step, where)
        except Exception as exc:       # reported by the assertions below
            errors.append(exc)

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "a nested stream deadlocked"
    assert len(errors) == 1 and isinstance(errors[0], RuntimeError), errors
    assert "must not itself start a stream" in str(errors[0])
    # the refusal leaves the pool usable
    hits = np.zeros(4, dtype=int)

    def mark(lo, hi, drawn):
        hits[lo:hi] += 1

    pool.stream(4, step, _draw, mark, _ignore)
    assert np.all(hits == 1)


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("step", [4, 1], ids=["lone", "split"])
def test_nested_fan_out_raises(threaded, step):
    # the outer stream holds the pool while its items run, so an item that
    # waited for a stream of its own would never return
    blas = _workers._openblas_controls() if threaded else []
    if threaded and not blas:
        pytest.skip("numpy loads no OpenBLAS whose thread count can be set")
    pool = _workers._Pool(2, blas)
    try:
        _assert_nested_stream_raises(pool, step)
    finally:
        pool.shutdown()


@pytest.mark.parametrize("where", ["draw", "fold"])
def test_nested_stream_from_the_calling_thread_raises(blas, where):
    # the calling thread holds the pool while it draws and folds
    pool = _workers._Pool(2, blas)
    try:
        _assert_nested_stream_raises(pool, 1, where)
    finally:
        pool.shutdown()


def test_worker_error_reaches_caller_after_every_slice(blas):
    # the first error is raised once every item in flight has finished; no
    # item is folded past it.  Item 0 fails once the bound's six items are
    # drawn
    pool = _workers._Pool(3, blas)
    started, done, folded = set(), set(), []
    full = threading.Event()

    def draw(lo, hi):
        if lo == 5:
            full.set()
        return lo

    def work(lo, hi, drawn):
        started.add(lo)
        if lo == 0:
            full.wait(timeout=60)
            raise FloatingPointError("item 0 failed")
        time.sleep(0.05)
        done.add(lo)

    def fold(lo, hi, result):
        folded.append(lo)

    try:
        with pytest.raises(FloatingPointError, match="item 0 failed"):
            pool.stream(20, 1, draw, work, fold)
        # the caller regains control only once the other items are finished
        assert started - {0} == done and {1, 2, 3, 4, 5} <= done and not folded
    finally:
        pool.shutdown()


def test_default_pool_raises_in_caller():
    def fail(lo, hi, drawn):
        raise KeyError(lo)

    with pytest.raises(KeyError):
        _workers.stream(4, 1, _draw, fail, _ignore)


def test_fan_outs_from_several_callers_take_turns(blas):
    before = _counts(blas)
    pool = _workers._Pool(3, blas)
    totals = np.zeros(4)
    errors = []

    def caller(k):
        try:
            for _ in range(20):
                part = np.zeros(7)

                def add(lo, hi, drawn):
                    part[lo:hi] += 1

                pool.stream(7, 1, _draw, add, _ignore)
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


def _child_streams():
    hits = np.zeros(5, dtype=int)

    def mark(lo, hi, drawn):
        hits[lo:hi] += 1

    _workers.stream(5, 1, _draw, mark, _ignore)
    os._exit(0 if np.all(hits == 1) else 1)


def test_forked_child_gets_a_fresh_pool():
    _workers.stream(4, 1, _draw, lambda lo, hi, d: None, _ignore)   # the parent's threads exist
    proc = multiprocessing.get_context("fork").Process(target=_child_streams)
    proc.start()
    proc.join(timeout=60)
    alive = proc.is_alive()
    if alive:
        proc.kill()
        proc.join()
    assert not alive, "stream hung in a forked child"
    assert proc.exitcode == 0
