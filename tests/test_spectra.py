"""Summaries, the three convolutions, density utilities."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmix as sm
from spinmix.chain import (DEFAULT_MAX_DIM, STREAM_LOCAL_EIGS, STREAM_LOCAL_VECS, _draw_bonds,
                           diagonals_from_eigs, draw_local_batch, embed_sum_batch)
from spinmix.matgen import gaussian_batch, haar_batch, haar_from_gaussians
from spinmix import _workers, spectra
from spinmix.cli import _p_empirical
from spinmix.spectra import _bond_moments, _chunk_pass, _power_sums, _rotate_diag, _trial_sums

from oracles import classical_convolve, ks_measures, measure, summarize, two_embed_quantum_sums


# ---------------------------------------------------------------------------
# summaries


def test_summarize_point_mass():
    s = summarize([5.0])
    assert s.mu == 5.0 and s.sigma2 == 0.0
    assert s.gamma1 is None and s.gamma2 is None


def test_summarize_gaussian_kurtosis():
    x = sm.Rng(41).substream().standard_normal(1_000_000)
    s = summarize(x)
    assert abs(s.gamma2) < 0.01
    assert abs(s.gamma1) < 0.01


def test_summary_internal_consistency():
    gen = sm.Rng(42).substream()
    v, w = gen.standard_normal(500) * 3 + 1, gen.random(500)
    s = summarize(v, w)
    v, w = measure(v, w)
    mu = s.mu
    c2 = ((v - mu) ** 2) @ w
    c4 = ((v - mu) ** 4) @ w
    assert abs(s.gamma2 - (c4 / c2 ** 2 - 3.0)) < 1e-12
    assert abs(s.sigma2 - c2) < 1e-12 * max(1.0, c2)
    assert s.kappa2 >= 0


def test_summary_weighted_equals_repeated():
    v = np.array([1.0, 2.0, 4.0])
    w = np.array([0.25, 0.5, 0.25])
    s1 = summarize(v, w)
    s2 = summarize([1.0, 2.0, 2.0, 4.0])
    assert abs(s1.m4 - s2.m4) < 1e-12


# ---------------------------------------------------------------------------
# classical convolution


def test_classical_exact_cross_binary():
    u = measure([0.0, 1.0])
    values, weights = classical_convolve(u, u)
    assert np.array_equal(values, [0.0, 1.0, 2.0])
    assert np.abs(weights - [0.25, 0.5, 0.25]).max() < 1e-15


def test_classical_exact_cross_mean_additivity():
    gen = sm.Rng(43).substream()
    a = measure(gen.standard_normal(40), gen.random(40))
    b = measure(gen.standard_normal(25) + 2, gen.random(25))
    mean = [summarize(*m).mu for m in (a, b, classical_convolve(a, b))]
    assert abs(mean[2] - (mean[0] + mean[1])) < 1e-12


def test_classical_mc_matches_exact():
    # with a fixed bond spectrum the diagonals a, b of a 5-site chain are the
    # same multisets in every trial, so the classical pool is a Monte Carlo
    # estimate of their exact cross convolution
    gen = sm.Rng(44).substream()
    spec = sm.ChainSpec(n_sites=5, site_dim=2,
                        ensemble=sm.LocalEnsemble.fixed_spectrum(gen.standard_normal(4)))
    evals = np.broadcast_to(np.sort(spec.ensemble.values), (1, spec.n_bonds, 4))
    a, b = (measure(x) for x in diagonals_from_eigs(evals, spec))
    exact = classical_convolve(a, b)
    mc = sm.ensemble_pools(spec, 4000, sm.Rng(45), keep_samples=True)["classical"].samples
    stats = summarize(*exact)
    se = np.sqrt(stats.sigma2 / mc.size)
    assert abs(mc.mean() - stats.mu) <= 4 * se
    assert ks_measures(measure(mc), exact) < 0.02


# ---------------------------------------------------------------------------
# isotropic convolution


def test_kept_pass_zero_b_returns_a(monkeypatch):
    # diag(a) + Q† diag(0) Q has the eigenvalues of a, whatever Q is
    spec = sm.ChainSpec(n_sites=3, site_dim=2, ensemble=sm.LocalEnsemble.pm1())
    a = np.array([-1.0, 0.5, 2.0, 7.0, -3.0, 0.0, 1.5, 4.0])
    monkeypatch.setattr(spectra.chain_mod, "diagonals_from_eigs",
                        lambda evals, spec: [np.broadcast_to(a, (len(evals), 8)),
                                             np.zeros((len(evals), 8))])
    pools = sm.ensemble_pools(spec, 20, sm.Rng(46), keep_samples=True)
    # the chains the pass embeds: the pool's own local draws
    _, dense = draw_local_batch(spec, 20, sm.Rng(46).substream(STREAM_LOCAL_EIGS, 0),
                                vec_gen=sm.Rng(46).substream(STREAM_LOCAL_VECS, 0))
    assert np.abs(pools["iso"].samples - np.sort(a)).max() < 1e-12
    assert np.array_equal(pools["quantum"].samples,
                          np.linalg.eigvalsh(embed_sum_batch(dense, spec)))


def test_isotropic_pool_matches_classical_three_moments():
    # with a fixed bond spectrum the diagonals a, b of a 3-site chain are the
    # same multisets in every trial, and averaged over Q each trial's
    # isotropic spectrum has the first three moments of their classical
    # convolution, so the pool has them to rounding
    gen = sm.Rng(48).substream()
    spec = sm.ChainSpec(n_sites=3, site_dim=2,
                        ensemble=sm.LocalEnsemble.fixed_spectrum(gen.standard_normal(4)))
    evals = np.broadcast_to(np.sort(spec.ensemble.values), (1, spec.n_bonds, 4))
    a, b = (measure(x) for x in diagonals_from_eigs(evals, spec))
    exact = summarize(*classical_convolve(a, b))
    iso = sm.ensemble_pools(spec, 300, sm.Rng(49))["iso"].summary()
    for stat in ("mu", "sigma2", "m3"):
        assert iso.stat(stat) == pytest.approx(exact.stat(stat), rel=1e-12), stat


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("m", [4, 32, 64, 65, 128])
def test_rotation_kernels_match_explicit_products(m, beta):
    gen = sm.Rng(50, m).substream()
    q = haar_batch(m, beta, gen, 3)
    b = gen.standard_normal((3, m))
    got_diag = _rotate_diag(q, b)
    for t in range(3):
        qh = q[t].conj().T
        assert np.abs(got_diag[t] - qh @ np.diag(b[t]) @ q[t]).max() < 1e-12


def _assert_power_sums_match(got, lam):
    """(count, 4) power sums against eigenvalue rows, to 1e-12·Σ|λ|ʲ per row."""
    for j in (1, 2, 3, 4):
        scale = (np.abs(lam) ** j).sum(axis=1)
        assert np.all(np.abs(got[:, j - 1] - (lam ** j).sum(axis=1)) <= 1e-12 * scale), j


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("m", [1, 4, 32, 128])
def test_power_sums_match_eigenvalues(m, beta, shift):
    gen = sm.Rng(53, m).substream()
    x = gaussian_batch((5, m, m), beta, gen)
    mats = x + x.conj().swapaxes(-1, -2) + shift * np.eye(m)
    _assert_power_sums_match(_power_sums(mats), np.linalg.eigvalsh(mats))


@pytest.mark.parametrize("beta", [1, 2])
def test_kernels_do_not_depend_on_sub_blocks(monkeypatch, beta):
    # at N=7 the bond terms and the sums of a trial come from three windows
    # and two overlaps, formed and reduced in whichever sub-block holds it
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4), beta=beta)

    def kernels():
        gen = sm.Rng(54, beta).substream()
        g = gaussian_batch((40, 16 * 17 // 2), beta, gen)
        b = gen.standard_normal((40, 16))
        # the Haar kernel and the rotation on each sub-block, as the kept pass runs them
        blocks = list(_workers._sub_blocks(0, 40, 16 * 16))
        q = np.concatenate([haar_from_gaussians(g[s:e], np.empty((e - s, 16, 16), g.dtype))
                            for s, e in blocks])
        rotated = np.concatenate([_rotate_diag(q[s:e], b[s:e]) for s, e in blocks])
        # the chunk pass on the kept route: its sums and its three sample rows
        rows = np.empty((3, 40, spec.m))
        sums = _chunk_pass(spec, *_draw_bonds(spec, 40, gen), rows, [gen.random((40, spec.m))],
                           [gaussian_batch((40, spec.m * (spec.m + 1) // 2), beta, gen)])
        return q, rotated, _power_sums(rotated), sums, rows

    ref = kernels()
    # haar_batch draws the same Gaussians and runs the same kernel on its sub-blocks
    assert np.array_equal(haar_batch(16, beta, sm.Rng(54, beta).substream(), 40), ref[0])
    monkeypatch.setattr(_workers, "_SUB_BLOCK", 1)      # one trial per sub-block
    for r, g in zip(ref, kernels()):
        assert np.array_equal(r, g)


_SUB_BLOCK_CASES = [
    # a sub-block of one trial reduces its quantum window, a row of more than
    # 8,192 floats, alone: it must sum as it does within a longer stack
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 200, False, id="goe-L3-beta1"),
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.goe(), beta=2,
                              coupling_range=3), 100, False, id="goe-L3-beta2"),
    pytest.param(sm.ChainSpec(n_sites=5, site_dim=3, ensemble=sm.LocalEnsemble.pm1()), 200,
                 False, id="pm1-d3-N5"),
    # the kept pass: sub-blocks of 16 trials at m = 128 against one trial each
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1()), 50,
                 True, id="kept-pm1-N7-beta1"),
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1(), beta=2),
                 40, True, id="kept-pm1-N7-beta2"),
    # two rotated summands, and none
    pytest.param(sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 60, True, id="kept-goe-L3-N5"),
    pytest.param(sm.ChainSpec(n_sites=3, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 60, True, id="kept-goe-N3-L3"),
]


@pytest.mark.parametrize("spec, trials, keep_samples", _SUB_BLOCK_CASES)
def test_pools_do_not_depend_on_sub_blocks(monkeypatch, spec, trials, keep_samples):
    ref = sm.ensemble_pools(spec, trials, sm.Rng(11), keep_samples)
    monkeypatch.setattr(_workers, "_SUB_BLOCK", 1)
    pools = sm.ensemble_pools(spec, trials, sm.Rng(11), keep_samples)
    for kind, pool in ref.items():
        for field in ("moment_sums", "block_sums", "block_counts", "samples"):
            assert np.array_equal(getattr(pools[kind], field), getattr(pool, field)), \
                (kind, field)


def test_kept_pools_hold_no_chunk_sized_matrix_stack(monkeypatch):
    # a kept run holds the reflector Gaussians of the items in flight, at most
    # 2 × workers items of 16 trials here (512·128·129/2 floats for the whole
    # run), and each worker the m×m stacks of one sub-block: the chains, the
    # Haar matrices and eigvalsh's copy.  A stack of 512 matrices of 128×128
    # is 64 MiB.  Two workers, so that the bound does not depend on the
    # machine
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1())
    pool = _workers._Pool(2, _workers._openblas_controls())
    monkeypatch.setattr(_workers, "_default", pool)
    try:
        # the first call sizes the workers' per-thread scratch outside the trace
        sm.ensemble_pools(spec, 512, sm.Rng(60), keep_samples=True)
        tracemalloc.start()
        try:
            sm.ensemble_pools(spec, 512, sm.Rng(60), keep_samples=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        pool.shutdown()
    item = spectra._item_trials(spec, True, 512)
    assert item == 16
    gaussians = 2 * pool.workers * item * spec.m * (spec.m + 1) // 2 * 8
    stacks = pool.workers * 3 * item * spec.m ** 2 * 8
    assert peak < gaussians + stacks + 6 * 2 ** 20, peak / 2 ** 20


def test_item_sizes():
    # the fewest whole sub-blocks whose draws hold 2¹⁶ elements: one
    # sub-block of 16 kept pm1 trials at N=7; four of 341 Wishart trials at
    # N=5 (a head stack of 3 × 16² elements a trial); and at N=9 eight of
    # 68 (five windows, 3 × 5 × 16²), so the whole of a 32-trial run
    wishart = sm.LocalEnsemble.wishart(4)
    assert spectra._item_trials(sm.ChainSpec(7, 2, sm.LocalEnsemble.pm1()), True, 512) == 16
    assert spectra._item_trials(sm.ChainSpec(5, 2, wishart), False, 8192) == 1364
    assert spectra._item_trials(sm.ChainSpec(9, 2, wishart), False, 32) == 32
    assert spectra._item_trials(sm.ChainSpec(9, 2, wishart), False, 10 ** 6) == 544


def test_kept_pools_finish_an_item_before_the_last_is_drawn(monkeypatch):
    # the calling thread draws while the workers run the items: with at most
    # four items in flight, item 0 is done before item 10 is drawn
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1())
    pool = _workers._Pool(2, _workers._openblas_controls())
    monkeypatch.setattr(_workers, "_default", pool)
    events = []
    draw, item_pass = spectra.chain_mod._draw_bonds, spectra._chunk_pass

    def drawing(*args, **kwargs):
        events.append("drawn")
        return draw(*args, **kwargs)

    def passing(*args, **kwargs):
        out = item_pass(*args, **kwargs)
        events.append("done")
        return out

    monkeypatch.setattr(spectra.chain_mod, "_draw_bonds", drawing)
    monkeypatch.setattr(spectra, "_chunk_pass", passing)
    try:
        sm.ensemble_pools(spec, 10 * 16, sm.Rng(59), keep_samples=True)
    finally:
        pool.shutdown()
    last_draw = len(events) - 1 - events[::-1].index("drawn")
    assert "done" in events[:last_draw], events


def test_kept_eigensolves_run_in_a_fan_out(monkeypatch):
    # the Wishart bonds' eigenvalues are solved in the items' work, as the
    # chains' are, with OpenBLAS at one thread: never in the calling
    # thread's draws or folds, which run inside the stream too
    spec = sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4))
    blas = _workers._openblas_controls()
    pool = _workers._Pool(2, blas)
    monkeypatch.setattr(_workers, "_default", pool)
    in_work = threading.local()
    seen = []
    eigvalsh, item_pass = np.linalg.eigvalsh, spectra._chunk_pass

    def recording(a, *args, **kwargs):
        seen.append((getattr(in_work, "on", False), [get() for get, _ in blas]))
        return eigvalsh(a, *args, **kwargs)

    def working(*args, **kwargs):
        in_work.on = True
        try:
            return item_pass(*args, **kwargs)
        finally:
            in_work.on = False

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(spectra, "_chunk_pass", working)
    try:
        # three items of 256 trials, on the workers
        sm.ensemble_pools(spec, 600, sm.Rng(61), keep_samples=True)
    finally:
        pool.shutdown()
    assert seen and all(s == (True, [1] * len(blas)) for s in seen), seen


def test_items_in_flight():
    # draws of at most 2²³ elements in flight: many items at N=7, three
    # one-trial kept items at N=11 (m = 2048), one at N=12 (m = 4096)
    pm1 = sm.LocalEnsemble.pm1()
    for n_sites, trials, step, in_flight in ((7, 512, 16, 61), (11, 6, 1, 3), (12, 2, 1, 1)):
        spec = sm.ChainSpec(n_sites, 2, pm1)
        assert spectra._item_trials(spec, True, trials) == step
        assert spectra._items_in_flight(spec, True, step) == in_flight
    wishart_n5 = sm.ChainSpec(5, 2, sm.LocalEnsemble.wishart(4))
    assert spectra._items_in_flight(wishart_n5, False, 1024) == 128


def _quantum_oracle_cases():
    wishart = sm.LocalEnsemble.wishart(4)
    for n_sites in range(3, 10):
        for beta in (1, 2):
            yield pytest.param(sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=wishart,
                                            beta=beta), id=f"N{n_sites}-beta{beta}")
    yield pytest.param(sm.ChainSpec(n_sites=6, site_dim=3, ensemble=sm.LocalEnsemble.goe()),
                       id="d3-N6")
    # two windows of seven bonds and their overlap
    yield pytest.param(sm.ChainSpec(n_sites=10, site_dim=2, ensemble=wishart,
                                    coupling_range=3), id="L3-N10")
    shifted = sm.LocalEnsemble.fixed_spectrum(np.array([-1.5, -0.5, 0.5, 1.5]) + 1e3)
    yield pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=shifted, beta=2),
                       id="fixed-shifted")


@pytest.mark.parametrize("spec", _quantum_oracle_cases())
def test_quantum_power_sums_match_eigenvalues(spec):
    gen = sm.Rng(57, spec.n_sites).substream()
    count = 2 if spec.m > 512 else 4
    _, dense = draw_local_batch(spec, count, gen, vec_gen=gen)
    lam = np.linalg.eigvalsh(embed_sum_batch(dense, spec))
    _assert_power_sums_match(_trial_sums(dense, spec)[2], lam)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["wishart", "goe", "pm1", "fixed"]),
       values=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       coupling_range=st.integers(2, 3), beta=st.integers(1, 2), shift=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_bond_cumulants_from_traces_match_eigenvalues(kind, values, coupling_range, beta,
                                                     shift, seed):
    # τ(h) and τ(c^j) of each centred bond term c = h − τ(h)·I, taken from
    # traces of its powers, are the mean and the central moments of its
    # spectrum; a shift of the spectrum moves τ(h) alone.  A central moment
    # of order j rounds by about ε·max|λ|·max|c|^(j−1)
    ensemble = {"wishart": sm.LocalEnsemble.wishart(4), "goe": sm.LocalEnsemble.goe(),
                "pm1": sm.LocalEnsemble.pm1(),
                "fixed": sm.LocalEnsemble.fixed_spectrum(values[:2 ** coupling_range])}[kind]
    spec = sm.ChainSpec(n_sites=coupling_range + 2, site_dim=2, ensemble=ensemble, beta=beta,
                        coupling_range=coupling_range)
    gen = sm.Rng(seed).substream()
    _, dense = draw_local_batch(spec, 3, gen, vec_gen=gen)
    dense = dense + shift * np.eye(spec.local_dim)
    bonds, _ = _bond_moments(dense)
    lam = np.linalg.eigvalsh(dense)
    c = lam - lam.mean(axis=-1, keepdims=True)
    top = np.abs(lam).max(axis=-1)
    spread = np.maximum(np.abs(c).max(axis=-1), np.finfo(float).eps * top)
    assert np.all(np.abs(bonds[..., 0] - lam.mean(axis=-1)) <= 1e-12 * top)
    for j in (2, 3, 4):
        err = np.abs(bonds[..., j - 1] - (c ** j).mean(axis=-1))
        assert np.all(err <= 1e-12 * top * spread ** (j - 1)), j


def test_moments_only_pools_need_no_dense_cap():
    # the moments-only sums form no m×m matrix, so they run far above the
    # dense cap: m = 65,536 at N=16, against the default cap of 4,096
    spec = sm.ChainSpec(n_sites=16, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4))
    assert spec.m > DEFAULT_MAX_DIM
    t0 = time.perf_counter()
    pools = sm.ensemble_pools(spec, 200, sm.Rng(59))
    assert time.perf_counter() - t0 < 1.0
    for kind, pool in pools.items():
        assert np.all(np.isfinite(pool.moment_sums)), kind
    classical, iso = pools["classical"].summary(), pools["iso"].summary()
    for stat in ("kappa1", "kappa2", "kappa3"):
        assert iso.stat(stat) == pytest.approx(classical.stat(stat), rel=1e-12), stat


def test_kept_samples_still_check_the_dense_cap():
    spec = sm.ChainSpec(n_sites=13, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4))
    with pytest.raises(ValueError, match="cap"):
        sm.ensemble_pools(spec, 2, sm.Rng(59), keep_samples=True)


POOL_ENSEMBLES = pytest.mark.parametrize(
    "ensemble", [sm.LocalEnsemble.wishart(4), sm.LocalEnsemble.goe(), sm.LocalEnsemble.pm1()],
    ids=["wishart", "goe", "pm1"])


def _assert_moments_only_pools_match(n_sites, ensemble, coupling_range, beta):
    # both routes take the moment sums from the same local draws by the same
    # kernels; keeping samples only adds the eigenvalue rows
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, beta=beta,
                        coupling_range=coupling_range)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_N_BLOCKS", 7)
        sums = sm.ensemble_pools(spec, 60, sm.Rng(55))
        eigs = sm.ensemble_pools(spec, 60, sm.Rng(55), keep_samples=True)
    for kind, pool in eigs.items():
        assert sums[kind].samples is None and pool.samples.shape == (60, spec.m), kind
        for field in ("moment_sums", "block_sums", "block_counts"):
            assert np.array_equal(getattr(sums[kind], field), getattr(pool, field)), \
                (kind, field)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("coupling_range", [2, 3])
@POOL_ENSEMBLES
def test_moments_only_pools_match_eigenvalue_pools(ensemble, coupling_range, beta):
    _assert_moments_only_pools_match(5, ensemble, coupling_range, beta)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("coupling_range", [2, 3])
@POOL_ENSEMBLES
def test_moments_only_pools_match_eigenvalue_pools_n7(ensemble, coupling_range, beta):
    # at N=5 the one window is the whole chain; at N=7 and L=2 the quantum
    # sums come from three windows less two overlaps
    _assert_moments_only_pools_match(7, ensemble, coupling_range, beta)


def test_moments_only_route_forms_no_chain_matrix(monkeypatch):
    # at N=7 and L=2 the quantum sums embed only the 16×16 window heads and
    # take each window's sums from its head and last bond, and the classical
    # and isotropic sums are closed forms in traces of the bond terms: no
    # 32×32 window, 128×128 chain, permutation, Haar draw, rotation or
    # eigensolve is made
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4))
    sides = []

    def recording(fn):
        def record(*args):
            out = fn(*args)
            sides.append(out.shape[-1])
            return out
        return record

    def refuse(*args, **kwargs):
        raise AssertionError("the moments-only route sampled a permutation or a rotation, "
                             "or diagonalised a matrix")

    monkeypatch.setattr(spectra.chain_mod, "embed_sum_batch",
                        recording(spectra.chain_mod.embed_sum_batch))
    for owner, name in ((spectra.matgen, "haar_batch"), (spectra, "_rotate_diag"),
                        (spectra.chain_mod, "diagonals_from_eigs"), (np, "argsort"),
                        (np.linalg, "eigvalsh")):
        monkeypatch.setattr(owner, name, refuse)
    sm.ensemble_pools(spec, 5, sm.Rng(58))
    assert set(sides) == {16}


def test_only_spectral_ensembles_open_the_eigenvector_stream(monkeypatch):
    # Wishart and GOE terms are drawn whole from the eigenvalue stream; only
    # the ensembles with Haar eigenvectors open (STREAM_LOCAL_VECS, 0)
    opened = []
    substream = sm.Rng.substream

    def recording(self, *key):
        opened.append(key)
        return substream(self, *key)

    monkeypatch.setattr(sm.Rng, "substream", recording)
    for ensemble, draws_vectors in ((sm.LocalEnsemble.wishart(4), False),
                                    (sm.LocalEnsemble.goe(), False),
                                    (sm.LocalEnsemble.pm1(), True),
                                    (sm.LocalEnsemble.pm1(balanced=True), True),
                                    (sm.LocalEnsemble.fixed_spectrum([0, 1, 2, 3]), True)):
        spec = sm.ChainSpec(n_sites=4, site_dim=2, ensemble=ensemble)
        for keep_samples in (False, True):
            opened.clear()
            sm.ensemble_pools(spec, 3, sm.Rng(61), keep_samples=keep_samples)
            assert ((STREAM_LOCAL_VECS, 0) in opened) == draws_vectors, ensemble


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("coupling_range", [2, 3])
@POOL_ENSEMBLES
def test_conditional_sums_are_the_monte_carlo_mean(ensemble, coupling_range, beta):
    # each trial's classical and isotropic sums are the mean over the
    # permutations and Haar rotations that its kept samples draw one of, so
    # the samples' Σλʲ less the sums average to 0
    spec = sm.ChainSpec(n_sites=5, site_dim=2, ensemble=ensemble, beta=beta,
                        coupling_range=coupling_range)
    trials = 2000
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_N_BLOCKS", trials)            # one block per trial
        pools = sm.ensemble_pools(spec, trials, sm.Rng(71), keep_samples=True)
    for kind in ("classical", "iso"):
        pool = pools[kind]
        for j in (2, 3, 4):
            gap = (pool.samples ** j).sum(axis=1) - pool.block_sums[:, j - 1]
            assert abs(gap.mean()) <= 3 * gap.std(ddof=1) / np.sqrt(trials), (kind, j)


# ---------------------------------------------------------------------------
# quantum spectra


def test_quantum_identity_locals_single_atom():
    spec = sm.ChainSpec(n_sites=4, site_dim=2,
                        ensemble=sm.LocalEnsemble.fixed_spectrum(np.ones(4)))
    pools = sm.ensemble_pools(spec, 5, sm.Rng(50), keep_samples=True)
    assert np.abs(pools["quantum"].samples - 3.0).max() < 1e-8  # N-1 copies of the identity


def test_pools_deterministic(spec_n3):
    p1 = sm.ensemble_pools(spec_n3, 2000, sm.Rng(51), keep_samples=True)
    p2 = sm.ensemble_pools(spec_n3, 2000, sm.Rng(51), keep_samples=True)
    for kind in ("classical", "iso", "quantum"):
        assert np.array_equal(p1[kind].samples, p2[kind].samples)


def test_pool_block_statistics(spec_n3):
    pools = sm.ensemble_pools(spec_n3, 5000, sm.Rng(52))
    pool = pools["classical"]
    assert (pool.block_counts > 0).sum() == 50
    assert np.isfinite(pool.stderr("gamma2"))
    assert pool.stderr("mu") > 0
    for kind, p in pools.items():
        # block sums partition the pooled sums, up to the rounding of two
        # summation orders: a few ulp of each pooled sum
        gap = np.abs(p.block_sums.sum(axis=0) - p.moment_sums)
        assert np.all(gap <= 64 * np.spacing(p.moment_sums)), kind
        assert p.block_counts.sum() == p.count, kind


def test_jackknife_mu_equals_block_mean_se(spec_n3):
    # μ is linear in the sums, so with equal blocks the delete-one-block
    # jackknife reduces to the s.e. of the block means
    pool = sm.ensemble_pools(spec_n3, 5000, sm.Rng(52))["classical"]
    assert np.all(pool.block_counts == pool.block_counts[0])
    means = pool.block_sums[:, 0] / pool.block_counts
    assert pool.stderr("mu") == pytest.approx(means.std(ddof=1) / np.sqrt(means.size),
                                              rel=1e-12)


def test_jackknife_se_is_calibrated():
    # across independent pools the variance of γ₂ and of p_empirical is
    # their mean squared jackknife s.e.: the ratio is 1 within 3 s.e. of a
    # sample variance's ratio to its mean, √((μ₄/σ⁴ − (P−3)/(P−1))/P).  A
    # Wishart chain only: a pm1 pool's s.e. of p is conservative, as
    # Efron–Stein predicts for the jackknife
    spec = sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4))
    n_pools = 150
    values = np.empty((4, 2, n_pools))             # (statistic, estimate or s.e., pool)
    for i in range(n_pools):
        pools = sm.ensemble_pools(spec, 200, sm.Rng(73, i))
        kinds = [pools[k] for k in ("quantum", "classical", "iso")]
        for j, pool in enumerate(kinds):
            values[j, :, i] = pool.summary().gamma2, pool.stderr("gamma2")
        values[3, :, i] = (_p_empirical([k.summary() for k in kinds]),
                           sm.jackknife_stderr(kinds, _p_empirical))
    for stat, (x, se) in zip(("quantum γ₂", "classical γ₂", "iso γ₂", "p"), values):
        var = x.var(ddof=1)
        kurtosis = ((x - x.mean()) ** 4).mean() / var ** 2
        ratio_se = math.sqrt((kurtosis - (n_pools - 3) / (n_pools - 1)) / n_pools)
        assert abs(var / (se ** 2).mean() - 1) <= 3 * ratio_se, stat


# ---------------------------------------------------------------------------
# gaps between the pools


def _gap_z(pools, hi, lo, stat):
    """(stat of pool `hi` − stat of pool `lo`) over its jackknife s.e."""
    pair = [pools[hi], pools[lo]]

    def gap(summaries):
        return summaries[0].stat(stat) - summaries[1].stat(stat)

    return gap([p.summary() for p in pair]) / sm.jackknife_stderr(pair, gap)


def test_word_departing_term_ordering(spec_n5):
    # the pools share each trial's local draw, so their fourth moments differ
    # only through the departing word τ(AB′AB′), largest for the classical
    # pool and smallest for the isotropic one
    pools = sm.ensemble_pools(spec_n5, 8000, sm.Rng(54))
    assert _gap_z(pools, "classical", "quantum", "gamma2") >= -3
    assert _gap_z(pools, "quantum", "iso", "gamma2") >= -3


@pytest.mark.parametrize("ensemble", [sm.LocalEnsemble.wishart(8), sm.LocalEnsemble.goe()],
                         ids=["wishart", "goe"])
def test_range3_pools_match_three_moments(ensemble):
    # Matching Three Moments at L = 3, where every bond after the first is a
    # rotated diagonal summand of its own
    spec = sm.ChainSpec(n_sites=5, site_dim=2, ensemble=ensemble, coupling_range=3)
    pools = sm.ensemble_pools(spec, 4000, sm.Rng(67))
    for kind in ("classical", "iso"):
        for stat in ("sigma2", "gamma1"):
            assert abs(_gap_z(pools, kind, "quantum", stat)) <= 3, (kind, stat)


# ---------------------------------------------------------------------------
# invariances


def _window_cases():
    ensembles = (("wishart", sm.LocalEnsemble.wishart(4)), ("goe", sm.LocalEnsemble.goe()),
                 ("pm1", sm.LocalEnsemble.pm1()))
    for name, ensemble in ensembles:
        for beta in (1, 2):
            for coupling_range in (2, 3):
                for n_sites in range(coupling_range, 10):
                    yield pytest.param(
                        sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, beta=beta,
                                     coupling_range=coupling_range),
                        id=f"{name}-beta{beta}-L{coupling_range}-N{n_sites}")
    # qutrits: one ensemble and β per N, so the largest chain (3⁶) stays cheap
    for coupling_range in (2, 3):
        for n_sites in range(coupling_range, 7):
            name, ensemble = ensembles[n_sites % 3]
            beta = 1 + n_sites % 2
            yield pytest.param(
                sm.ChainSpec(n_sites=n_sites, site_dim=3, ensemble=ensemble, beta=beta,
                             coupling_range=coupling_range),
                id=f"d3-{name}-beta{beta}-L{coupling_range}-N{n_sites}")


@pytest.mark.parametrize("spec", _window_cases())
def test_quantum_sums_equal_two_embeds(spec):
    # the windows' sums taken from their heads and last bonds, and the
    # overlaps' from the heads, give the sums of the two window widths
    # embedded apart: at N = L (one bond), with one window (N ≤ 3L − 2) and
    # with several, for a stack of trials and for a lone trial.  Σλ¹ is the
    # same sum; Σλᵏ is summed in another order, so it agrees within 1e-12
    # of m·(Σλ²/m)^(k/2)
    gen = sm.Rng(60, spec.n_sites).substream()
    _, dense = draw_local_batch(spec, 3, gen, vec_gen=gen)
    for trials in (dense, dense[:1]):
        got, ref = _trial_sums(trials, spec)[2], two_embed_quantum_sums(trials, spec)
        assert np.array_equal(got[:, 0], ref[:, 0])
        for k in (2, 3, 4):
            scale = spec.m * (ref[:, 1] / spec.m) ** (k / 2)
            assert np.all(np.abs(got[:, k - 1] - ref[:, k - 1]) <= 1e-12 * scale), k


def _hermitian(gen, beta, count, side, shift):
    x = gaussian_batch((count, side, side), beta, gen)
    return x + x.conj().swapaxes(-1, -2) + shift[:, None, None] * np.eye(side)


@settings(max_examples=40, deadline=None)
@given(site_dim=st.integers(2, 3), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       first_sites=st.integers(0, 2), windows=st.integers(1, 4),
       shifts=st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_window_power_sums_match_eigenvalues(site_dim, coupling_range, beta, first_sites,
                                             windows, shifts, seed):
    # heads H on P·O sites' worth of indices, P = d^first_sites, and bonds h
    # on the O = d^(L−1) shared sites and one more, neither centred: the
    # central sums of each H and of each H ⊗ I_d + I_P ⊗ h against the
    # eigenvalues of the centred matrices, formed whole
    d, gen = site_dim, sm.Rng(61, seed).substream()
    p, o = d ** first_sites, d ** (coupling_range - 1)
    heads = _hermitian(gen, beta, windows, p * o, np.array(shifts[:windows]))
    last = _hermitian(gen, beta, windows, o * d, np.array(shifts[4:4 + windows]))
    stack = np.empty((3, *heads.shape), heads.dtype)
    stack[0] = heads
    head_sums, window_sums = spectra._window_power_sums(stack, last, d)
    for got, mats in ((head_sums, heads),
                      (window_sums, np.kron(heads, np.eye(d)) + np.kron(np.eye(p), last))):
        side = mats.shape[-1]
        centred = mats - np.trace(mats, axis1=1, axis2=2).real[:, None, None] / side * np.eye(side)
        _assert_power_sums_match(got, np.linalg.eigvalsh(centred))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["wishart", "goe", "pm1", "fixed"]),
       values=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       n_sites=st.integers(3, 12), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       trials=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_matching_three_moments_is_exact_per_trial(kind, values, n_sites, coupling_range,
                                                   beta, trials, seed):
    # the isotropic sums share κ₁…κ₃ with the classical ones in every trial,
    # and the alternating words only lower Σλ⁴
    ensemble = {"wishart": sm.LocalEnsemble.wishart(4), "goe": sm.LocalEnsemble.goe(),
                "pm1": sm.LocalEnsemble.pm1(),
                "fixed": sm.LocalEnsemble.fixed_spectrum(values[:2 ** coupling_range])}[kind]
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, beta=beta,
                        coupling_range=coupling_range)
    pools = sm.ensemble_pools(spec, trials, sm.Rng(seed))
    for field in ("moment_sums", "block_sums"):
        classical, iso = getattr(pools["classical"], field), getattr(pools["iso"], field)
        assert np.allclose(iso[..., :3], classical[..., :3], rtol=1e-12, atol=0), field
        assert np.all(iso[..., 3] <= classical[..., 3]), field


def _shape_stats(pools):
    """γ₁ and γ₂ of every pool, and p from the three kurtoses where it is defined."""
    g = {k: pools[k].summary() for k in ("quantum", "classical", "iso")}
    stats = [s.stat(name) for s in g.values() for name in ("gamma1", "gamma2")]
    if g["classical"].gamma2 != g["iso"].gamma2:     # N = L: one summand, p undefined
        stats.append(sm.p_from_kurtoses(*(s.gamma2 for s in g.values())))
    return stats


@pytest.mark.parametrize("keep_samples", [True, False])
@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-3, 1e3), n_sites=st.integers(3, 6),
       coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_shape_statistics_do_not_depend_on_scale(keep_samples, scale, n_sites,
                                                 coupling_range, beta, seed):
    # the draws do not depend on the bond spectrum's values, so scaling it
    # scales every trial's spectrum and leaves the standardised moments
    base = np.arange(2 ** coupling_range) ** 2.0           # a skewed spectrum

    def stats(values):
        spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, beta=beta,
                            ensemble=sm.LocalEnsemble.fixed_spectrum(values),
                            coupling_range=coupling_range)
        return _shape_stats(sm.ensemble_pools(spec, 20, sm.Rng(seed),
                                              keep_samples=keep_samples))

    assert stats(scale * base) == pytest.approx(stats(base), rel=1e-9)


# ---------------------------------------------------------------------------
# density utilities


def test_gram_charlier_standard_normal():
    stats = sm.MomentSummary.from_cumulants(0.0, 1.0, 0.0, 0.0)
    edges = np.linspace(-5, 5, 41)
    dens = sm.gram_charlier_density(stats, edges)
    mids = (edges[:-1] + edges[1:]) / 2
    ref = np.exp(-mids ** 2 / 2) * np.diff(edges)
    ref /= ref.sum()
    assert np.abs(dens.masses - ref).max() < 1e-12
    assert abs(dens.masses.sum() - 1.0) < 1e-12


def test_gram_charlier_symmetry_without_skew():
    stats = sm.MomentSummary.from_cumulants(2.0, 4.0, 0.0, 0.8 * 16.0)
    edges = np.linspace(2.0 - 6, 2.0 + 6, 25)   # symmetric about mu
    dens = sm.gram_charlier_density(stats, edges)
    assert np.abs(dens.masses - dens.masses[::-1]).max() < 1e-10


def test_gram_charlier_rejects_degenerate():
    stats = sm.MomentSummary.from_cumulants(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sm.gram_charlier_density(stats, np.linspace(-1, 1, 5))


def _density(values, bins=None):
    return sm.histogram(values, sm.bin_edges(values, bins))


def test_ks_distance_basics():
    x = sm.DensityEstimate([0.0, 1.0, 2.0], [0.5, 0.5])
    assert sm.ks_distance(x, x) == 0.0
    y = sm.DensityEstimate([10.0, 11.0], [1.0])
    assert sm.ks_distance(x, y) == 1.0
    z = sm.DensityEstimate([0.5, 1.5], [1.0])
    assert sm.ks_distance(x, z) == sm.ks_distance(z, x) == 0.25


def test_ks_distance_coarse_vs_fine_histogram():
    # binning 20,000 Gaussian draws into 100 bins moves the CDF by less than
    # 0.02 from a 5,000-bin histogram of the same draws, which stands in for
    # their ECDF
    x = sm.Rng(55).substream().standard_normal(20_000)
    assert sm.ks_distance(_density(x, 100), _density(x, 5000)) < 0.02


def test_histogram_single_atom():
    dens = _density([3.0], 1)
    assert np.array_equal(dens.masses, [1.0])
    assert np.array_equal(dens.bin_edges, [2.5, 3.5])
    assert np.array_equal(_density([3.0, 3.0]).bin_edges, [2.5, 3.5])


def test_histogram_mass_preservation_and_refinement():
    x = sm.Rng(56).substream().standard_normal(5000)
    for bins in (1, 7, 50, 333):
        assert abs(_density(x, bins).masses.sum() - 1.0) < 1e-12
    edges = np.linspace(-1.0, 1.0, 9)            # clips the tails into end bins
    assert abs(sm.histogram(x, edges).masses.sum() - 1.0) < 1e-12


def test_histogram_default_fd():
    # the default edges of `spinmix run`: Freedman–Diaconis with the quartiles
    # the ⌈n/4⌉-th and ⌈3n/4⌉-th smallest values
    x = sm.Rng(57).substream().standard_normal(4000)
    q1, q3 = np.sort(x)[[999, 2999]]
    width = 2 * (q3 - q1) / 4000 ** (1 / 3)
    bins = math.ceil((x.max() - x.min()) / width)
    assert 1 < bins < spectra._MAX_BINS
    assert np.array_equal(sm.bin_edges(x), np.linspace(x.min(), x.max(), bins + 1))


def test_fd_quartiles_are_inverted_cdf_order_statistics():
    # for i³, i = 0…19, Q1 and Q3 are the 5th and 15th smallest values, 4³
    # and 14³: the bin width is 2·(14³ − 4³)/20^(1/3), so 19³ spans 4 bins
    # (5³ and 15³, one order statistic up, would give 3)
    x = np.arange(20.0) ** 3
    assert np.array_equal(np.quantile(x, [0.25, 0.75], method="inverted_cdf"), [4 ** 3, 14 ** 3])
    width = 2 * (14 ** 3 - 4 ** 3) / 20 ** (1 / 3)
    assert math.ceil(19 ** 3 / width) == 4
    assert np.array_equal(sm.bin_edges(x[::-1]), np.linspace(0.0, 19.0 ** 3, 5))


def test_fd_bin_count_is_capped():
    x = sm.Rng(59).substream().standard_normal(4000)
    x[0] = 1e6                                   # a far outlier widens the range
    assert sm.bin_edges(x).size == spectra._MAX_BINS + 1
    assert sm.bin_edges(np.repeat([0.0, 1.0], [190, 10])).size == 15    # IQR 0: √200 bins


def test_pm1_classical_three_atoms():
    spec = sm.ChainSpec(n_sites=3, site_dim=2, ensemble=sm.LocalEnsemble.pm1())
    pool = sm.ensemble_pools(spec, 20_000, sm.Rng(58), keep_samples=True)["classical"]
    edges = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    dens = sm.histogram(pool.samples, edges)
    assert (dens.masses > 0).sum() == 3
    assert np.abs(dens.masses[[0, 2, 4]] - [0.25, 0.5, 0.25]).max() < 0.02
