"""Results depend on the seed and the trial count, not on the memory chunking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmix as sm
from spinmix import spectra

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
