"""Results depend on the seed and the trial count, not on work items or workers."""

import contextlib
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmix as sm
from spinmix import _workers, spectra

# items of one trial and of more; the last is the default
ITEM_ELEMENTS = (1, 1 << 10, 1 << 14, spectra._ITEM_ELEMENTS)
ENSEMBLES = {"wishart": sm.LocalEnsemble.wishart(4), "goe": sm.LocalEnsemble.goe(),
             "pm1": sm.LocalEnsemble.pm1()}

layouts = st.tuples(st.sampled_from(ITEM_ELEMENTS), st.sampled_from([1, 2, 3]))
layout_pairs = st.lists(layouts, min_size=2, max_size=2, unique=True)
seeds = st.integers(0, 2**32 - 1)


@contextlib.contextmanager
def _layout(item_elements, pool):
    """Items of at most `item_elements` elements (one trial at least), on `pool`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_ITEM_ELEMENTS", item_elements)
        mp.setattr(_workers, "_default", pool)
        yield


@pytest.fixture(scope="module")
def worker_pools():
    """Pools of 1, 2 and 3 workers running OpenBLAS at one thread, and the serial fallback.

    Without an OpenBLAS whose thread count can be set, only the fallback.
    """
    blas = _workers._openblas_controls()
    pools = {k: _workers._Pool(k, blas) for k in ((1, 2, 3) if blas else ())}
    pools["serial"] = _workers._Pool(3, [])
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.fixture(scope="module")
def thread_pools(worker_pools):
    if 1 not in worker_pools:
        pytest.skip("numpy loads no OpenBLAS whose thread count can be set")
    return worker_pools


@pytest.mark.parametrize("keep_samples", [True, False])
@settings(max_examples=30, deadline=None)
@given(n_sites=st.integers(3, 5), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       ensemble=st.sampled_from(sorted(ENSEMBLES)), trials=st.integers(1, 12),
       extra=st.integers(1, 6), layouts=layout_pairs, seed=seeds)
def test_pools_do_not_depend_on_chunking(worker_pools, keep_samples, n_sites, coupling_range,
                                         beta, ensemble, trials, extra, layouts, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)

    def pools(layout, t, keep=keep_samples):
        item_elements, workers = layout
        with _layout(item_elements, worker_pools.get(workers, worker_pools["serial"])):
            return sm.ensemble_pools(spec, t, sm.Rng(seed), keep_samples=keep)

    ref, other, longer = pools(layouts[0], trials), pools(layouts[1], trials), \
        pools(layouts[1], trials + extra)
    for kind, pool in ref.items():
        # the sums are folded in trial order, whatever the items
        for field in ("samples", "moment_sums"):
            assert np.array_equal(getattr(other[kind], field), getattr(pool, field)), \
                (kind, field)
        # at most 18 trials, so every block holds one trial: its sums are the
        # trial's own
        for field in ("block_sums", "block_counts"):
            assert np.array_equal(getattr(other[kind], field), getattr(pool, field)), \
                (kind, field)
            assert np.array_equal(getattr(longer[kind], field)[:trials],
                                  getattr(pool, field)), (kind, field)
        if keep_samples:
            assert np.array_equal(longer[kind].samples[:trials], pool.samples), kind


def _with_pool(pool, split, fn, *args, **kwargs):
    """fn(*args, **kwargs) on `pool`, with every trial a work item of its own.

    A stream then runs one item per trial on the workers, where the small
    runs of these tests would be one item on the calling thread at the
    default ``_ITEM_ELEMENTS``.  With `split`, a pool of several workers must
    have run items on its workers.
    """
    starts = []
    run_item = _workers._run_item

    def recording(work, lo, hi, drawn):
        starts.append(lo)
        return run_item(work, lo, hi, drawn)

    with _layout(1, pool), pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "_run_item", recording)
        out = fn(*args, **kwargs)
    if split and pool.workers > 1:
        assert any(starts), "every stream ran on the calling thread"
    return out


def _assert_pools_equal(ref, other):
    for kind, pool in ref.items():
        for field in ("samples", "moment_sums", "block_sums", "block_counts"):
            assert np.array_equal(getattr(other[kind], field), getattr(pool, field)), \
                (kind, field)


@pytest.mark.parametrize("keep_samples", [True, False])
@settings(max_examples=25, deadline=None)
@given(n_sites=st.integers(3, 5), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       ensemble=st.sampled_from(sorted(ENSEMBLES)), trials=st.integers(1, 12), seed=seeds)
def test_pools_do_not_depend_on_workers(thread_pools, keep_samples, n_sites, coupling_range,
                                        beta, ensemble, trials, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)
    runs = {name: _with_pool(pool, trials > 1, sm.ensemble_pools, spec, trials, sm.Rng(seed),
                             keep_samples=keep_samples)
            for name, pool in thread_pools.items()}
    for pools in runs.values():
        _assert_pools_equal(runs["serial"], pools)


@pytest.mark.parametrize("keep_samples", [True, False])
def test_pools_do_not_depend_on_workers_n9(thread_pools, keep_samples):
    # the serial fallback runs on the calling thread at its own OpenBLAS thread
    # count, which at m=512 sums in another order: only the worker pools agree
    # bit for bit
    spec = sm.ChainSpec(n_sites=9, site_dim=2, ensemble=ENSEMBLES["wishart"])
    runs = {name: _with_pool(pool, True, sm.ensemble_pools, spec, 2, sm.Rng(5),
                             keep_samples=keep_samples)
            for name, pool in thread_pools.items()}
    for k in (2, 3):
        _assert_pools_equal(runs[1], runs[k])
    for kind, pool in runs[1].items():
        serial = runs["serial"][kind]
        if keep_samples:
            assert np.abs(serial.samples - pool.samples).max() <= \
                1e-12 * np.abs(pool.samples).max(), kind
        # a Wishart chain's sums are positive, so |Σλ^j| bounds their rounding
        assert np.all(np.abs(serial.moment_sums - pool.moment_sums)
                      <= 1e-12 * np.abs(pool.moment_sums)), kind


def test_windowed_pools_do_not_depend_on_workers_or_chunking(thread_pools):
    # the hypothesis tests draw N <= 5, where the quantum sums come from one
    # window; at N=7 they sum three windows less two overlaps
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=ENSEMBLES["wishart"], beta=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_N_BLOCKS", 6)
        runs = {name: _with_pool(pool, True, sm.ensemble_pools, spec, 20, sm.Rng(6))
                for name, pool in thread_pools.items() if name != "serial"}
        # items of seven trials: without samples an item is sized by the
        # 32×32 windows, not by the chain's m×m matrices; and the default
        # layout, one item on the calling thread
        for elements, item in ((7 * spectra._block_size(spec, False), 7),
                               (spectra._ITEM_ELEMENTS, 20)):
            with _layout(elements, thread_pools[2]):
                assert spectra._item_trials(spec, False, 20) == item
                runs[elements] = sm.ensemble_pools(spec, 20, sm.Rng(6))
    for pools in runs.values():
        _assert_pools_equal(runs[1], pools)


def test_pools_do_not_depend_on_items_in_flight(thread_pools):
    # one-trial kept items on two workers, with a draws budget of one trial,
    # of three or the default; the workers run every item
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=ENSEMBLES["pm1"])
    # six bonds of 4 eigenvalues and 4×4 eigenvectors, and the odd summand's
    # 128 permutation keys and 128·129/2 reflector Gaussians
    draws = 6 * (4 + 16) + 128 + 128 * 129 // 2
    assert draws == 8504
    item_pass = spectra._chunk_pass
    runs, ran_on = {}, {}

    def recording(*args, **kwargs):
        ran_on[flight].add(threading.get_ident())
        return item_pass(*args, **kwargs)

    for flight in (draws, 3 * draws, _workers._FLIGHT_DRAWS):
        ran_on[flight] = set()
        with _layout(1, thread_pools[2]), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_workers, "_FLIGHT_DRAWS", flight)
            mp.setattr(spectra, "_chunk_pass", recording)
            runs[flight] = sm.ensemble_pools(spec, 12, sm.Rng(8), keep_samples=True)
        assert ran_on[flight] and threading.get_ident() not in ran_on[flight]
    for pools in runs.values():
        _assert_pools_equal(runs[draws], pools)


def test_scratch_reuse_is_invisible():
    # the moments-only kernels keep their window stacks in per-thread scratch
    # that outlives a call; each of these runs is one slice on the calling
    # thread, which grows the scratch (complex windows at N=5, β=2), reads it
    # as 64×64 windows (L=3) and goes back to real 32×32 ones
    wishart = sm.LocalEnsemble.wishart(4)
    calls = [(sm.ChainSpec(n_sites=9, site_dim=2, ensemble=wishart), 32),
             (sm.ChainSpec(n_sites=5, site_dim=2, ensemble=wishart, beta=2), 200),
             (sm.ChainSpec(n_sites=6, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                           coupling_range=3), 40)]
    calls.append(calls[0])

    def in_new_thread(fn):
        out = []
        thread = threading.Thread(target=lambda: out.append(fn()))
        thread.start()
        thread.join(timeout=120)
        assert out, "the call raised or hung"
        return out[0]

    def pools(spec, trials):
        return sm.ensemble_pools(spec, trials, sm.Rng(12))

    def copy(pools):
        return {kind: dataclasses.replace(pool, **{f: np.copy(getattr(pool, f)) for f in (
            "moment_sums", "block_sums", "block_counts")}) for kind, pool in pools.items()}

    def in_turn():
        runs = []
        for spec, trials in calls:
            got = pools(spec, trials)
            runs.append(copy(got))
            for pool in got.values():           # must not reach the next call
                pool.moment_sums[:] = np.nan
                pool.block_sums[:] = np.nan
        return runs

    fresh = [in_new_thread(lambda c=c: copy(pools(*c))) for c in calls]
    for ref, got in zip(fresh, in_new_thread(in_turn)):
        _assert_pools_equal(ref, got)
