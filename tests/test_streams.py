"""Results depend on the seed and the trial count, not on chunking or workers."""

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


@settings(max_examples=30, deadline=None)
@given(n_sites=st.integers(3, 5), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       ensemble=st.sampled_from(sorted(ENSEMBLES)), trials=st.integers(1, 12),
       extra=st.integers(1, 6), budgets=budget_pairs, seed=seeds)
def test_pools_do_not_depend_on_chunking(n_sites, coupling_range, beta, ensemble, trials,
                                         extra, budgets, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)

    def pools(budget, t):
        return _with_budget(budget, sm.ensemble_pools, spec, t, sm.Rng(seed),
                            keep_samples=True)

    ref, other, longer = pools(budgets[0], trials), pools(budgets[1], trials), \
        pools(budgets[1], trials + extra)
    for kind, pool in ref.items():
        assert np.array_equal(other[kind].samples, pool.samples), kind
        # only the summation order differs, so compare against Σ|λ|^j
        scale = [(np.abs(pool.samples) ** j).sum() for j in (1, 2, 3, 4)]
        assert np.all(np.abs(other[kind].moment_sums - pool.moment_sums)
                      <= 1e-12 * np.array(scale)), kind
        assert np.array_equal(longer[kind].samples[:trials], pool.samples), kind


@settings(max_examples=20, deadline=None)
@given(n_sites=st.integers(3, 5), beta=st.integers(1, 2),
       rotation=st.sampled_from(["permutation", "haar", "quantum"]),
       trials=st.integers(1, 12), budgets=budget_pairs, seed=seeds)
def test_mixed_trace_does_not_depend_on_chunking(n_sites, beta, rotation, trials, budgets,
                                                 seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES["wishart"],
                        beta=beta)
    word = [("a", 1), ("b", 2), ("a", 1), ("b", 1)]
    ref, other = (_with_budget(b, sm.mixed_trace_mc, word, rotation, spec, trials,
                               sm.Rng(seed)) for b in budgets)
    assert other == pytest.approx(ref, rel=1e-12, abs=0)


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


def _with_pool(pool, fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "_default", pool)
        return fn(*args, **kwargs)


def _assert_pools_equal(ref, other):
    for kind, pool in ref.items():
        for field in ("samples", "moment_sums", "block_sums", "block_counts"):
            assert np.array_equal(getattr(other[kind], field), getattr(pool, field)), \
                (kind, field)


@settings(max_examples=25, deadline=None)
@given(n_sites=st.integers(3, 5), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       ensemble=st.sampled_from(sorted(ENSEMBLES)), trials=st.integers(1, 12), seed=seeds)
def test_pools_do_not_depend_on_workers(worker_pools, n_sites, coupling_range, beta,
                                        ensemble, trials, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)
    runs = {name: _with_pool(pool, sm.ensemble_pools, spec, trials, sm.Rng(seed),
                             keep_samples=True)
            for name, pool in worker_pools.items()}
    for pools in runs.values():
        _assert_pools_equal(runs["serial"], pools)
    if coupling_range == 2:
        word = [("a", 1), ("b", 2), ("a", 1), ("b", 1)]
        values = {_with_pool(pool, sm.mixed_trace_mc, word, "haar", spec, trials,
                             sm.Rng(seed)) for pool in worker_pools.values()}
        assert len(values) == 1


def test_pools_do_not_depend_on_workers_n9(worker_pools):
    # the serial fallback runs on the calling thread at its own OpenBLAS thread
    # count, which at m=512 sums in another order: only the worker pools agree
    # bit for bit
    spec = sm.ChainSpec(n_sites=9, site_dim=2, ensemble=ENSEMBLES["wishart"])
    runs = {name: _with_pool(pool, sm.ensemble_pools, spec, 2, sm.Rng(5),
                             keep_samples=True)
            for name, pool in worker_pools.items()}
    for k in (2, 3):
        _assert_pools_equal(runs[1], runs[k])
    for kind, pool in runs[1].items():
        serial = runs["serial"][kind]
        assert np.abs(serial.samples - pool.samples).max() <= \
            1e-12 * np.abs(pool.samples).max(), kind
        assert np.all(np.abs(serial.moment_sums - pool.moment_sums)
                      <= 1e-12 * np.abs(pool.moment_sums)), kind
