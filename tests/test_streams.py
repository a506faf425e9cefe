"""Results depend on the seed and the trial count, not on chunking or workers."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmix as sm
from spinmix import _workers, spectra

# 1 forces one trial per chunk; the last is the default budget
BUDGETS = (1, 1 << 8, 1 << 12, spectra._CHUNK_BUDGET)
ENSEMBLES = {"wishart": sm.LocalEnsemble.wishart(4), "goe": sm.LocalEnsemble.goe(),
             "pm1": sm.LocalEnsemble.pm1()}

budget_pairs = st.lists(st.sampled_from(BUDGETS), min_size=2, max_size=2, unique=True)
seeds = st.integers(0, 2**32 - 1)


def _with_budget(budget, fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_CHUNK_BUDGET", budget)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("keep_samples", [True, False])
@settings(max_examples=30, deadline=None)
@given(n_sites=st.integers(3, 5), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       ensemble=st.sampled_from(sorted(ENSEMBLES)), trials=st.integers(1, 12),
       extra=st.integers(1, 6), budgets=budget_pairs, seed=seeds)
def test_pools_do_not_depend_on_chunking(keep_samples, n_sites, coupling_range, beta,
                                         ensemble, trials, extra, budgets, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)

    def pools(budget, t, keep=keep_samples):
        return _with_budget(budget, sm.ensemble_pools, spec, t, sm.Rng(seed),
                            keep_samples=keep)

    ref, other, longer = pools(budgets[0], trials), pools(budgets[1], trials), \
        pools(budgets[1], trials + extra)
    for kind, pool in ref.items():
        # the sums are folded in trial order, whatever the chunks
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


@pytest.fixture(scope="module")
def worker_pools():
    """Pools of 1, 2 and 3 workers running OpenBLAS at one thread, and the serial fallback."""
    blas = _workers._openblas_controls()
    if not blas:
        pytest.skip("numpy or scipy loads no OpenBLAS whose thread count can be set")
    pools = {k: _workers._Pool(k, blas) for k in (1, 2, 3)}
    pools["serial"] = _workers._Pool(3, [])
    yield pools
    for pool in pools.values():
        pool.shutdown()


def _with_pool(pool, split, fn, *args, **kwargs):
    """fn(*args, **kwargs) on `pool`, with every trial a sub-block of its own.

    A fan-out then runs one slice per worker, up to one per trial, where the
    small chunks of these tests would run as one slice at the default
    ``_SUB_BLOCK``.  With `split`, a pool of several workers must have run
    some fan-out in more than one slice.
    """
    starts = []
    run_slice = _workers._run_slice

    def recording(fn, lo, hi):
        starts.append(lo)
        run_slice(fn, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "_default", pool)
        mp.setattr(_workers, "_SUB_BLOCK", 1)
        mp.setattr(_workers, "_run_slice", recording)
        out = fn(*args, **kwargs)
    assert starts
    if split and pool.workers > 1:
        assert any(starts), "every fan-out ran in one slice"
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
def test_pools_do_not_depend_on_workers(worker_pools, keep_samples, n_sites, coupling_range,
                                        beta, ensemble, trials, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)
    runs = {name: _with_pool(pool, trials > 1, sm.ensemble_pools, spec, trials, sm.Rng(seed),
                             keep_samples=keep_samples)
            for name, pool in worker_pools.items()}
    for pools in runs.values():
        _assert_pools_equal(runs["serial"], pools)


@pytest.mark.parametrize("keep_samples", [True, False])
def test_pools_do_not_depend_on_workers_n9(worker_pools, keep_samples):
    # the serial fallback runs on the calling thread at its own OpenBLAS thread
    # count, which at m=512 sums in another order: only the worker pools agree
    # bit for bit
    spec = sm.ChainSpec(n_sites=9, site_dim=2, ensemble=ENSEMBLES["wishart"])
    runs = {name: _with_pool(pool, True, sm.ensemble_pools, spec, 2, sm.Rng(5),
                             keep_samples=keep_samples)
            for name, pool in worker_pools.items()}
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


def test_windowed_pools_do_not_depend_on_workers_or_chunking(worker_pools):
    # the hypothesis tests draw N <= 5, where the quantum sums come from one
    # window; at N=7 they sum three windows less two overlaps
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=ENSEMBLES["wishart"], beta=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_N_BLOCKS", 6)
        runs = {name: _with_pool(pool, True, sm.ensemble_pools, spec, 20, sm.Rng(6))
                for name, pool in worker_pools.items() if name != "serial"}
        # chunks of one and of seven trials: without samples a chunk is sized
        # by the 32×32 windows, not by the chain's m×m matrices
        for budget in (1, 7 * 32 ** 2):
            runs[budget] = _with_pool(worker_pools[2], budget > 1, _with_budget, budget,
                                      sm.ensemble_pools, spec, 20, sm.Rng(6))
    for pools in runs.values():
        _assert_pools_equal(runs[1], pools)


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
