"""Closed-form mixture math against frozen oracles and published values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinmix as sm
from spinmix.chain import diagonals_from_eigs, draw_local_batch
from spinmix.matgen import haar_batch
from spinmix.cli import _p_empirical
from spinmix.slider import SliderDims, _entangled_pairs

from conftest import wishart_chain
from oracles import (appendix_iso_expectation, chain_m11, chain_m2, p_universal, term_counts,
                     wishart_chain_closed_form)


W44 = sm.wishart_moments(4, 4, 1.0)
DIMS = {n: SliderDims.odd_side(n, 2, 1.0) for n in (3, 4, 5, 7)}


# ---------------------------------------------------------------------------
# Haar fourth moment and the singular-value pair


def test_haar_q4_values():
    assert sm.haar_q4(2, 1) == pytest.approx(3 / 8, abs=1e-15)
    assert sm.haar_q4(4, 2) == pytest.approx(0.1, abs=1e-15)
    assert sm.haar_q4(1, 3.5) == 1.0


def test_haar_q4_free_limit():
    assert 1.0 - 1e9 * sm.haar_q4(1e9, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_frob_pair_values():
    assert sm.frob_uv_classical(1) == 1.0 and sm.frob_uv_quantum(1, 2) == 1.0
    assert sm.frob_uv_quantum(2, 1) == pytest.approx(7 / 24, abs=1e-15)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_frob_pair_ordering(beta):
    for d in range(1, 51):
        assert sm.frob_uv_quantum(d, beta) <= sm.frob_uv_classical(d) + 1e-15


def test_frob_pair_monte_carlo():
    # u, v are d x d reshapes of two independent Haar columns
    gen = sm.Rng(61).substream()
    q1 = haar_batch(4, 1, gen, 50_000)
    q2 = haar_batch(4, 1, gen, 50_000)
    u = q1[:, :, 0].reshape(-1, 2, 2)
    v = q2[:, :, 0].reshape(-1, 2, 2)
    uv = u @ v
    f2 = np.einsum("tij,tij->t", uv, uv)
    w = uv @ uv.transpose(0, 2, 1)
    f4 = np.einsum("tij,tij->t", w, w)
    assert abs(f2.mean() - 0.5) <= 3 * f2.std(ddof=1) / np.sqrt(f2.size)
    assert abs(f4.mean() - 7 / 24) <= 3 * f4.std(ddof=1) / np.sqrt(f4.size)


# ---------------------------------------------------------------------------
# chain-level moments


def test_chain_m2_reduces_at_k1():
    assert chain_m2(W44, DIMS[3]) == W44.m2 == 36.0


def test_chain_m2_all_equal_eigenvalues():
    unit = sm.LocalMoments(m1=1.0, m2=1.0, m11=1.0)
    for n_sites in (3, 5, 7):
        k = DIMS[n_sites].k
        assert chain_m2(unit, DIMS[n_sites]) == pytest.approx(k * k, abs=1e-12)
        assert chain_m11(unit, DIMS[n_sites]) == pytest.approx(k * k, abs=1e-12)


def test_chain_m11_wishart_n3():
    assert chain_m11(W44, DIMS[3]) == pytest.approx(108 / 7, rel=1e-14)


def test_chain_m2_m11_wishart_n5_frozen():
    # values frozen from the pair-average Monte Carlo oracle run pre-build
    assert chain_m2(W44, DIMS[5]) == pytest.approx(104.0, rel=1e-14)
    assert chain_m11(W44, DIMS[5]) == pytest.approx(2072 / 31, rel=1e-14)


@pytest.mark.parametrize("n_sites", [3, 4, 5, 7])
def test_chain_gap_identity(n_sites):
    dims = SliderDims.odd_side(n_sites, 2, 1.0)
    balanced_pm1 = sm.LocalMoments(m1=0.0, m2=1.0, m11=-1 / 3, m3=0.0, m4=1.0)
    for local in (W44, sm.wishart_moments(2, 4, 1.0), balanced_pm1):
        direct = chain_m2(local, dims) - chain_m11(local, dims)
        assert direct == pytest.approx(sm.chain_moment_gap(local, dims), rel=1e-12)


def test_chain_moments_monte_carlo_oracle(spec_n5):
    # brute-force averages over the sampled diagonal of A, N=5, r=4
    _, dense = draw_local_batch(spec_n5, 150_000, sm.Rng(62).substream())
    a, _ = diagonals_from_eigs(np.linalg.eigvalsh(dense), spec_n5)
    m = a.shape[1]
    m2_t = (a ** 2).mean(axis=1)
    s1, s2 = a.sum(axis=1), (a ** 2).sum(axis=1)
    m11_t = (s1 ** 2 - s2) / (m * (m - 1))
    for sample, expect in ((m2_t, 104.0), (m11_t, 2072 / 31)):
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - expect) <= 3 * se


# ---------------------------------------------------------------------------
# the two gaps


def test_iso_gap_vanishes_for_flat_spectrum():
    unit = sm.LocalMoments(m1=1.0, m2=1.0, m11=1.0)
    assert sm.iso_gap(unit, W44, DIMS[5]) == 0.0
    assert sm.quantum_gap(W44, unit, DIMS[5]) == 0.0


def test_iso_gap_published_kurtosis_difference():
    w34 = sm.wishart_moments(3, 4, 1.0)
    gap = sm.iso_gap(w34, w34, DIMS[5])
    sigma2 = 3 * 4 * 5.0  # r (N-1)(n+1)
    assert 2 * gap / sigma2 ** 2 == pytest.approx(0.39347, abs=5e-6)


def test_quantum_gap_published_value():
    gap = sm.quantum_gap(W44, W44, DIMS[3])
    assert gap == pytest.approx(240.0, rel=1e-12)
    assert 2 * gap / 1600.0 == pytest.approx(0.30, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gap_ratio_matches_universal_p(beta, d, k):
    n_sites = 2 * k + 1
    dims = SliderDims.odd_side(n_sites, d, beta)
    local = sm.wishart_moments(2, d * d, beta)
    ratio = sm.quantum_gap(local, local, dims) / sm.iso_gap(local, local, dims)
    assert ratio == pytest.approx(p_universal(n_sites, d, beta).one_minus_p, rel=1e-12)


# ---------------------------------------------------------------------------
# universal weight


def test_p_universal_published_values():
    assert p_universal(5, 2, 1).one_minus_p == pytest.approx(2635 / 4608, abs=1e-12)
    assert p_universal(5, 2, 2).one_minus_p == pytest.approx(0.639375, abs=1e-12)
    assert p_universal(3, 2, 1).one_minus_p == pytest.approx(175 / 216, abs=1e-12)


def test_p_universal_rejects_bad_input():
    # the closed form is stated for odd N; the gap route takes every N >= 3
    with pytest.raises(ValueError):
        p_universal(4, 2, 1)
    for args in ((1, 2, 1), (5, 2, 0.5), (5, 1, 1), (5, 0, 1), (4, 0, 1)):
        for p_of in (p_universal, sm.slider_p):
            with pytest.raises(ValueError):
                p_of(*args)


def test_p_universal_free_limit_k1():
    for p_of in (p_universal, sm.slider_p):
        assert 0.999 <= p_of(3, 10_000, 1).one_minus_p <= 1.0


def test_p_universal_beta_cancellation():
    for p_of in (p_universal, sm.slider_p):
        assert abs(p_of(5, 2, 1e6).p - p_of(5, 2, 1e7).p) <= 1e-6


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_p_universal_bounds_sweep(beta):
    for k in range(1, 11):
        for d in range(2, 7):
            for res in (p_universal(2 * k + 1, d, beta), sm.slider_p(2 * k + 1, d, beta),
                        sm.slider_p(2 * k + 2, d, beta)):
                assert 0.0 <= res.p <= 1.0
                assert 0.0 <= res.one_minus_p <= 1.0
                assert res.p + res.one_minus_p == pytest.approx(1.0, abs=1e-14)


def test_one_minus_p_decays_like_inverse_n():
    # N(1-p) increases slowly toward its limit, so the constant fitted at
    # N=101 carries a 5% headroom before being checked at N=1001
    for p_of in (p_universal, sm.slider_p):
        c = 1.05 * 101 * p_of(101, 2, 1).one_minus_p
        assert p_of(1001, 2, 1).one_minus_p <= c / 1001


@settings(max_examples=300)
@given(k=st.integers(1, 29), d=st.integers(2, 8), beta=st.floats(1.0, 4.0))
def test_slider_p_is_the_closed_form_at_odd_sites(k, d, beta):
    # one route for every N: at odd N the gap ratio is the paper's closed form
    got, want = sm.slider_p(2 * k + 1, d, beta), p_universal(2 * k + 1, d, beta)
    assert got.one_minus_p == pytest.approx(want.one_minus_p, rel=1e-12, abs=0)
    assert got.p == pytest.approx(want.p, rel=1e-12, abs=0)


def test_slider_p_even_sites():
    assert sm.slider_p(4, 2, 1).one_minus_p == pytest.approx(25 / 32, rel=1e-12)


def _p_empirical_z(spec, trials, rng):
    """(p_empirical − slider_p) over the jackknife s.e., as `spinmix run` reports them."""
    pools = sm.ensemble_pools(spec, trials, rng)
    kinds = [pools[k] for k in ("quantum", "classical", "iso")]
    p = _p_empirical([k.summary() for k in kinds])
    se = sm.jackknife_stderr(kinds, _p_empirical)
    return (p - sm.slider_p(spec.n_sites, spec.site_dim, spec.beta).p) / se


def test_slider_p_even_sites_monte_carlo():
    # the pools share each trial's local draw, so their kurtosis gaps are the
    # gaps of the departing word τ(AB′AB′) between the three rotations
    assert abs(_p_empirical_z(wishart_chain(4), 30_000, sm.Rng(63))) <= 3


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n_sites", [4, 5, 7, 9])
@pytest.mark.parametrize("ensemble", [
    sm.LocalEnsemble.goe(), sm.LocalEnsemble.pm1(),
    sm.LocalEnsemble.fixed_spectrum([-1.5, -0.5, 0.5, 1.5])], ids=["goe", "pm1", "fixed"])
def test_p_empirical_is_universal(ensemble, n_sites, beta):
    # the abstract's universality: p depends on N, d and β, not on the bond
    # law; at N = 7 and 9 the moments-only pools sum the quantum windows
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, beta=beta)
    assert abs(_p_empirical_z(spec, 4000, sm.Rng(68))) <= 3


def test_p_from_kurtoses():
    assert sm.p_from_kurtoses(0.660, 0.960, 0.590) == pytest.approx(0.07 / 0.37, abs=1e-12)
    assert sm.p_from_kurtoses(0.5, 0.5, 0.1) == 1.0
    assert sm.p_from_kurtoses(0.1, 0.5, 0.1) == 0.0
    with pytest.raises(ZeroDivisionError):
        sm.p_from_kurtoses(0.1, 0.3, 0.3)


def test_ensemble_slider_closed_forms():
    res = sm.ensemble_slider(W44, DIMS[3])
    assert res.gamma2_classical == pytest.approx(24 / 25, rel=1e-12)
    assert res.gamma2_iso == pytest.approx(516 / 875, rel=1e-12)
    assert res.gamma2_quantum == pytest.approx(33 / 50, rel=1e-12)
    assert res.p == pytest.approx(41 / 216, rel=1e-12)
    mix = res.p * res.gamma2_classical + res.one_minus_p * res.gamma2_iso
    assert mix == pytest.approx(res.gamma2_quantum, abs=1e-10)


# ---------------------------------------------------------------------------
# mixture and counting


def test_ie_mixture_endpoints():
    edges = np.linspace(0, 1, 5)
    c = sm.DensityEstimate(edges, [0.1, 0.2, 0.3, 0.4])
    i = sm.DensityEstimate(edges, [0.4, 0.3, 0.2, 0.1])
    assert np.array_equal(sm.ie_mixture(1.0, c, i).masses, c.masses)
    assert np.array_equal(sm.ie_mixture(0.0, c, i).masses, i.masses)
    assert abs(sm.ie_mixture(0.3, c, i).masses.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sm.ie_mixture(0.5, c, sm.DensityEstimate(edges + 1.0, i.masses))
    with pytest.raises(ValueError):
        sm.ie_mixture(1.5, c, i)


def _enumerate_counts(n_sites):
    odd = range(1, n_sites, 2)
    even = range(2, n_sites, 2)
    four = three = two_ne = two_e = 0
    for o1 in odd:
        for e1 in even:
            for o2 in odd:
                for e2 in even:
                    distinct = len({o1, o2}) + len({e1, e2})
                    if distinct == 4:
                        four += 1
                    elif distinct == 3:
                        three += 1
                    elif abs(o1 - e1) == 1:
                        two_e += 1
                    else:
                        two_ne += 1
    return four, three, two_ne, two_e


def test_term_counts_small_cases():
    assert term_counts(3) == (0, 0, 0, 1)
    assert term_counts(5) == (4, 8, 1, 3)
    assert term_counts(6) == (12, 18, 2, 4)


@pytest.mark.parametrize("n_sites", list(range(3, 42)))
def test_term_counts_sums_and_enumeration(n_sites):
    counts = term_counts(n_sites)
    k = (n_sites - 1) // 2 if n_sites % 2 else n_sites // 2
    total = k ** 4 if n_sites % 2 else (k * (k - 1)) ** 2
    assert sum(counts) == total
    assert tuple(counts) == _enumerate_counts(n_sites)


@pytest.mark.parametrize("n_sites", list(range(3, 42)))
def test_quantum_gap_counts_the_entangled_pairs(n_sites):
    # quantum_gap's N − 2 pairs are the enumerated entangled 4-tuples
    assert term_counts(n_sites).two_entangled == _entangled_pairs(n_sites)


# ---------------------------------------------------------------------------
# the Wishart worked example


def test_wishart_moments_beta1():
    assert (W44.m1, W44.m2, W44.m11) == (4.0, 36.0, 12.0)
    assert sm.wishart_moments(1, 4, 1.0).m11 == 0.0
    for beta in (1.0, 2.0, 4.0):
        assert sm.wishart_moments(3, 9, beta).m1 == beta * 3


def test_wishart_higher_moments_monte_carlo():
    gen = sm.Rng(64).substream()
    w = gen.standard_normal((150_000, 4, 4))
    ev = np.linalg.eigvalsh(np.einsum("tri,trj->tij", w, w))
    for j, expect in ((3, W44.m3), (4, W44.m4)):
        t = (ev ** j).mean(axis=1)
        se = t.std(ddof=1) / np.sqrt(t.size)
        assert abs(t.mean() - expect) <= 3 * se
    assert (W44.m3, W44.m4) == (432.0, 6192.0)


def test_wishart_moments_beta2_monte_carlo():
    gen = sm.Rng(65).substream()
    w = gen.standard_normal((60_000, 4, 4)) + 1j * gen.standard_normal((60_000, 4, 4))
    h = np.einsum("tri,trj->tij", w.conj(), w)
    t = np.einsum("tij,tji->t", h, h).real / 4.0
    se = t.std(ddof=1) / np.sqrt(t.size)
    expect = sm.wishart_moments(4, 4, 2.0).m2
    assert expect == 128.0
    assert abs(t.mean() - expect) <= 3 * se


def test_wishart_chain_stats_published_rows():
    s3 = sm.wishart_chain_stats(3, 2, 4)
    assert (s3.mu, s3.sigma2) == (8.0, 40.0)
    # γ₁ = 32/√1000 = 1.0119289 exactly: the cumulant route (local κ₃ = 128,
    # κ₂ = 20 per bond), the real-Wishart (1/n)E tr W³ = 432 and the Monte
    # Carlo pools of `reproduce N3` all agree. The paper prints 1.01192, which
    # is this value cut off after five decimals, not rounded (1.01193).
    assert s3.gamma1 == pytest.approx(32 / math.sqrt(1000), rel=1e-12)
    assert math.floor(s3.gamma1 * 1e5) == 101192
    assert s3.gamma2 == pytest.approx(24 / 25, rel=1e-12)
    s5 = sm.wishart_chain_stats(5, 2, 4)
    assert (s5.mu, s5.sigma2) == (16.0, 80.0)
    assert s5.gamma1 == pytest.approx(32 / math.sqrt(2000), rel=1e-12)
    assert s5.gamma1 == pytest.approx(0.716, abs=5e-4)
    assert s5.gamma2 == pytest.approx(12 / 25, rel=1e-12)
    assert sm.wishart_chain_stats(11, 2, 4).gamma2 == pytest.approx(24 / 125, rel=1e-12)


@pytest.mark.parametrize("n_sites,r", [(n, r) for n in (3, 5, 7, 9, 11) for r in range(1, 10)])
def test_wishart_chain_stats_match_cumulant_route(n_sites, r):
    # the package takes them from the bond cumulants, the oracle from the
    # hand-expanded forms; r runs to n = d² at d = 2 and 3
    for d in (2, 3):
        if r > d * d:
            continue
        stats = sm.wishart_chain_stats(n_sites, d, r)
        want = wishart_chain_closed_form(n_sites, d, r)
        for stat in ("mu", "sigma2", "gamma1", "gamma2"):
            assert stats.stat(stat) == pytest.approx(want.stat(stat), rel=1e-12), (d, stat)


# ---------------------------------------------------------------------------
# collision-count oracle


def test_appendix_identity_matrix_case():
    assert appendix_iso_expectation((1.0, 1.0), (1.0, 1.0), 8, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("n_sites", [3, 5, 7])
def test_appendix_equals_classical_minus_gap(beta, n_sites):
    dims = SliderDims.odd_side(n_sites, 2, beta)
    local = sm.wishart_moments(3, 4, beta)
    m2a = chain_m2(local, dims)
    m11a = chain_m11(local, dims)
    oracle = appendix_iso_expectation((m2a, m11a), (m2a, m11a), dims.m, beta)
    main = m2a * m2a - sm.iso_gap(local, local, dims)
    assert oracle == pytest.approx(main, rel=1e-12)
    # explicit collision-count difference identity
    diff = m2a * m2a - oracle
    w = beta * (dims.m - 1) / (dims.m * beta + 2)
    assert diff == pytest.approx(w * (m2a - m11a) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# all-isotropic sum (range L > 2: every embedded bond term rotated on its own)


def _range3(n_sites, ensemble, trials, seed):
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, coupling_range=3)
    pools = sm.ensemble_pools(spec, trials, sm.Rng(seed), keep_samples=True)
    return pools["iso"].samples, pools["quantum"].samples


def test_iso_multi_single_term_is_invariant():
    # one bond spanning the whole chain: rotating it keeps its spectrum
    iso, quantum = _range3(3, sm.LocalEnsemble.wishart(8), trials=25, seed=68)
    assert np.abs(iso - quantum).max() < 1e-8


def test_iso_multi_zero_terms():
    iso, _ = _range3(5, sm.LocalEnsemble.fixed_spectrum(np.zeros(8)), trials=5, seed=69)
    assert np.abs(iso).max() < 1e-12


def test_iso_multi_mean_additivity():
    # each trial's mean is Σ_l tr(H_l)/d^L by trace linearity, as for the chain
    iso, quantum = _range3(5, sm.LocalEnsemble.goe(), trials=4000, seed=71)
    assert np.abs(iso.mean(axis=1) - quantum.mean(axis=1)).max() < 1e-10
