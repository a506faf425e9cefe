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
from spinmix.spectra import _bond_moments, _chunk_pass, _rotate_diag, _trial_sums

from oracles import (classical_convolve, ks_measures, measure, power_sums, stepwise_pool_sums,
                     summarize, term_stack, trial_last, two_embed_quantum_sums)


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


def test_summary_variance_test_is_relative():
    # κ₂ is zero against m₂, not against 1: a law of scale 1e-8 or 1e-30
    # has its γ's, and a point mass at that scale has none
    for scale in (1.0, 1e-8, 1e-30):
        s = sm.MomentSummary.from_cumulants(scale, 2 * scale ** 2, 0.0, -scale ** 4)
        assert s.gamma2 == pytest.approx(-0.25, rel=1e-12), scale
        assert s.gamma1 == 0.0, scale
        point = sm.MomentSummary.from_cumulants(scale, 0.0, 0.0, 0.0)
        assert point.gamma1 is None and point.gamma2 is None, scale


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
    got_diag = q.copy()
    assert _rotate_diag(got_diag, b) is got_diag           # written over the Haar matrices
    for t in range(3):
        qh = q[t].conj().T
        assert np.abs(got_diag[t] - qh @ np.diag(b[t]) @ q[t]).max() < 1e-12


def _assert_power_sums_match(got, lam, first=1):
    """(count, 5 − first) power sums Σλ^first…Σλ⁴ against eigenvalue rows, to
    1e-12·Σ|λ|ʲ per row."""
    for j in range(first, 5):
        scale = (np.abs(lam) ** j).sum(axis=1)
        assert np.all(np.abs(got[:, j - first] - (lam ** j).sum(axis=1)) <= 1e-12 * scale), j


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("m", [1, 4, 32, 128])
def test_power_sums_match_eigenvalues(m, beta, shift):
    gen = sm.Rng(53, m).substream()
    x = gaussian_batch((5, m, m), beta, gen)
    mats = x + x.conj().swapaxes(-1, -2) + shift * np.eye(m)
    _assert_power_sums_match(power_sums(mats), np.linalg.eigvalsh(mats))


@pytest.mark.parametrize("beta", [1, 2])
def test_kernels_do_not_depend_on_sub_blocks(beta):
    # at N=7 the bond terms and the sums of a trial come from three windows
    # and two overlaps, formed and reduced in whichever work item holds it
    spec = sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4), beta=beta)

    def kernels(step):
        gen = sm.Rng(54, beta).substream()
        g = gaussian_batch((40, 16 * 17 // 2), beta, gen)
        b = gen.standard_normal((40, 16))
        items = [slice(s, s + step) for s in range(0, 40, step)]
        # the Haar kernel and the rotation on each item, as the kept pass runs them
        q = np.concatenate([haar_from_gaussians(g[i], np.empty((len(g[i]), 16, 16), g.dtype))
                            for i in items])
        rotated = np.concatenate([_rotate_diag(q[i].copy(), b[i]) for i in items])
        # the chunk pass on the kept route: its sums and its three sample rows
        evals, factors = _draw_bonds(spec, 40, gen)         # Wishart: no evals
        keys = gen.random((40, spec.m))
        reflectors = gaussian_batch((40, spec.m * (spec.m + 1) // 2), beta, gen)
        rows = np.empty((3, 40, spec.m))
        sums = np.concatenate([_chunk_pass(spec, evals, factors[i], rows[:, i], [keys[i]],
                                           [reflectors[i]]) for i in items], axis=1)
        return q, rotated, power_sums(rotated), sums, rows

    ref = kernels(40)
    # haar_batch draws the same Gaussians and runs the same kernel on the whole batch
    assert np.array_equal(haar_batch(16, beta, sm.Rng(54, beta).substream(), 40), ref[0])
    for r, g in zip(ref, kernels(1)):                   # one trial per item
        assert np.array_equal(r, g)


_SUB_BLOCK_CASES = [
    # an item of one trial reduces its quantum window, a row of more than
    # 8,192 floats, alone: it must sum as it does within a longer stack
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 200, False, id="goe-L3-beta1"),
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.goe(), beta=2,
                              coupling_range=3), 100, False, id="goe-L3-beta2"),
    pytest.param(sm.ChainSpec(n_sites=5, site_dim=3, ensemble=sm.LocalEnsemble.pm1()), 200,
                 False, id="pm1-d3-N5"),
    # the kept pass: items of 8 trials at m = 128 against one trial each
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1()), 50,
                 True, id="kept-pm1-N7-beta1"),
    pytest.param(sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1(), beta=2),
                 40, True, id="kept-pm1-N7-beta2"),
    # two rotated summands, and none
    pytest.param(sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 60, True, id="kept-goe-L3-N5"),
    pytest.param(sm.ChainSpec(n_sites=3, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                              coupling_range=3), 60, True, id="kept-goe-N3-L3"),
    # moments-only Wishart: the wishart_n5 shape, items of 512 trials
    # against one trial each, and one bond (N = L = 2), whose one-trial
    # item leaves a bond-and-trial axis of length 1
    pytest.param(sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4)), 1100,
                 False, id="wishart-N5"),
    pytest.param(sm.ChainSpec(n_sites=2, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4)), 60,
                 False, id="wishart-N2"),
    # the wishart_n9 call: 32 trials, so a block per trial
    pytest.param(sm.ChainSpec(n_sites=9, site_dim=2, ensemble=sm.LocalEnsemble.wishart(4)), 32,
                 False, id="wishart-N9"),
]


@pytest.mark.parametrize("spec, trials, keep_samples", _SUB_BLOCK_CASES)
def test_pools_do_not_depend_on_sub_blocks(monkeypatch, spec, trials, keep_samples):
    ref = sm.ensemble_pools(spec, trials, sm.Rng(11), keep_samples)
    monkeypatch.setattr(spectra, "_ITEM_ELEMENTS", 1)        # one trial per item
    pools = sm.ensemble_pools(spec, trials, sm.Rng(11), keep_samples)
    for kind, pool in ref.items():
        for field in ("moment_sums", "block_sums", "block_counts", "samples"):
            assert np.array_equal(getattr(pools[kind], field), getattr(pool, field)), \
                (kind, field)


def test_alternating_shapes_on_one_thread_keep_every_bit(monkeypatch):
    # a thread reuses its scratch, and the package its per-spec tables,
    # across calls of any shape: each call, made first on a thread of its
    # own, must come out the same when one thread alternates it with the
    # others.  A pool of one worker runs every item on the calling thread.
    # The kept N=9 call holds 4 trials, not 32: at m = 512 a kept trial
    # takes some 56 ms on one thread
    wishart = sm.LocalEnsemble.wishart(4)
    n9 = sm.ChainSpec(n_sites=9, site_dim=2, ensemble=wishart)
    shapes = [(n9, 32), (sm.ChainSpec(n_sites=5, site_dim=2, ensemble=wishart), 1100), (n9, 1),
              (sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.goe(),
                            coupling_range=3), 60),
              (sm.ChainSpec(n_sites=7, site_dim=2, ensemble=sm.LocalEnsemble.pm1(), beta=2), 40)]
    calls = [(spec, 4 if keep and spec is n9 and trials > 1 else trials, keep)
             for keep in (False, True) for spec, trials in shapes]
    pool = _workers._Pool(1, _workers._openblas_controls())
    monkeypatch.setattr(_workers, "_default", pool)

    def arrays(call):
        spec, trials, keep = call
        pools = sm.ensemble_pools(spec, trials, sm.Rng(72), keep)
        return [getattr(p, field) for p in pools.values()
                for field in ("moment_sums", "block_sums", "block_counts", "samples")]

    try:
        first = []
        for call in calls:
            thread = threading.Thread(target=lambda c=call: first.append(arrays(c)))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(first) == len(calls)
        # in reverse order every call follows a call of another shape, on this thread
        for i in reversed(range(len(calls))):
            for ref, got in zip(first[i], arrays(calls[i])):
                assert (ref is None and got is None) or np.array_equal(ref, got), calls[i][1:]
    finally:
        pool.shutdown()


def test_kept_pools_hold_no_chunk_sized_matrix_stack(monkeypatch):
    # a kept run holds the reflector Gaussians of the items in flight, at most
    # 2 × workers items of 8 trials here (256·128·129/2 floats for the whole
    # run), its sample rows, and each worker one m×m stack of an 8-trial
    # item, in which the chains, the Haar matrices and the isotropic
    # matrices are made one after the other, and a few matrices of one
    # trial: the rotation's two temporaries, Q†·diag(b) and the product
    # that overwrites Q, and the Haar kernel's transposing one.  The pass
    # peaks some 0.5 MiB under this bound, so a batched step's temporaries,
    # a second 8-trial stack (1 MiB a worker), go past it, as would items
    # of 16 trials.
    # Two workers, so that the bound does not depend on the machine
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
    block, matrix = 8, spec.m ** 2 * 8
    gaussians = 2 * pool.workers * block * spec.m * (spec.m + 1) // 2 * 8
    samples = 3 * 512 * spec.m * 8
    stacks = pool.workers * (block + 4) * matrix           # one stack and four matrices a worker
    assert peak < gaussians + samples + stacks + 2 ** 18, peak / 2 ** 20
    assert spectra._item_trials(spec, True, 512) == block


def test_item_sizes():
    # as many trials as hold 2¹⁸ elements: 8 kept pm1 trials at N=7 (two
    # m×m stacks of 128² elements a trial); 512 Wishart trials at N=5 (two
    # head layers of 16² elements a trial); and at N=9 102 (five windows,
    # 2 × 5 × 16²), so a 32-trial run is one item; and 2 kept GOE trials at
    # d=3, N=5 (m = 243)
    wishart = sm.LocalEnsemble.wishart(4)
    assert spectra._item_trials(sm.ChainSpec(7, 2, sm.LocalEnsemble.pm1()), True, 512) == 8
    assert spectra._item_trials(sm.ChainSpec(5, 3, sm.LocalEnsemble.goe()), True, 100) == 2
    assert spectra._item_trials(sm.ChainSpec(5, 2, wishart), False, 8192) == 512
    assert spectra._item_trials(sm.ChainSpec(9, 2, wishart), False, 32) == 32
    assert spectra._item_trials(sm.ChainSpec(9, 2, wishart), False, 10 ** 6) == 102


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


def _first_item(spec, trials, keep_samples):
    """(trials, elements drawn) of the first work item that ensemble_pools draws."""
    seen = []

    def first_only(count, step, draw, work, fold):
        seen.append((step, _workers._elements(draw(0, step))))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "stream", first_only)
        sm.ensemble_pools(spec, trials, sm.Rng(0), keep_samples=keep_samples)
    return seen[0]


def test_items_in_flight():
    # draws of at most 2²³ elements in flight, counted from a drawn item:
    # many items at N=7, three one-trial kept items at N=11 (m = 2048), one
    # at N=12 (m = 4096, 67 MB of reflector Gaussians)
    pm1 = sm.LocalEnsemble.pm1()
    for n_sites, trials, step, in_flight in ((7, 512, 8, 123), (11, 6, 1, 3), (12, 2, 1, 1)):
        spec = sm.ChainSpec(n_sites, 2, pm1)
        assert spectra._item_trials(spec, True, trials) == step
        drawn_step, elements = _first_item(spec, trials, True)
        assert drawn_step == step
        # one item at least, even when its draws alone pass the budget (N=12)
        assert max(1, _workers._FLIGHT_DRAWS // elements) == in_flight
    wishart_n5 = sm.ChainSpec(5, 2, sm.LocalEnsemble.wishart(4))
    step, elements = _first_item(wishart_n5, 5000, False)
    assert step == 512 and _workers._FLIGHT_DRAWS // elements == 256


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
    _assert_power_sums_match(_trial_sums(trial_last(dense), spec)[2].T, lam)


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
    bonds = _bond_moments(term_stack(dense)).T
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


def test_moments_only_pools_hold_nothing_of_the_chains_size():
    # nor an m-long array: at N=40, m = 2⁴⁰, and an m-long index alone would
    # be 8 TiB.  Fewer than 50 trials are a block each, so the first three
    # blocks of a longer run are the three trials
    spec = sm.ChainSpec(n_sites=40, site_dim=2, ensemble=sm.LocalEnsemble.goe())
    tracemalloc.start()
    try:
        pools = sm.ensemble_pools(spec, 3, sm.Rng(73))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak / 2 ** 20
    longer = sm.ensemble_pools(spec, 6, sm.Rng(73))
    for kind, pool in pools.items():
        first = longer[kind].block_sums[:3]
        assert np.array_equal(pool.block_sums, first), kind
        assert np.array_equal(pool.moment_sums, np.cumsum(first, axis=0)[-1]), kind
        assert np.all(np.isfinite(pool.moment_sums)), kind


def test_pools_refuse_more_values_than_the_counts_hold():
    # each pool counts its trials × m values in int64; at m = 2⁶⁰, 8 trials
    # are 2⁶³ values, one past the limit
    spec = sm.ChainSpec(n_sites=60, site_dim=2, ensemble=sm.LocalEnsemble.goe())
    with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
        sm.ensemble_pools(spec, 8, sm.Rng(74))
    pools = sm.ensemble_pools(spec, 7, sm.Rng(74))
    for kind, pool in pools.items():
        assert pool.count == 7 * 2 ** 60 and pool.summary().sigma2 > 0, kind
        assert len(pool.leave_one_out()) == 7, kind


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


@pytest.mark.parametrize("trials", [32, 75, 149, 7919])
def test_blocks_hold_the_trials_they_count(trials):
    # every trial of a fixed spectrum's classical pool adds the same sums, so
    # each block's mean is the pool's whichever trials it holds, if the
    # trial-to-block map fills each block with as many trials as its count
    # says; the trial counts are not multiples of the 50 blocks, or are
    # fewer, a block per trial
    spec = sm.ChainSpec(n_sites=4, site_dim=2,
                        ensemble=sm.LocalEnsemble.fixed_spectrum([0.5, 1.0, 2.0, 4.0]))
    pool = sm.ensemble_pools(spec, trials, sm.Rng(3))["classical"]
    assert pool.block_counts.size == min(50, trials)
    assert len(set(pool.block_counts)) == (1 if trials < 50 else 2)
    means = pool.block_sums / pool.block_counts[:, None]
    np.testing.assert_allclose(means, np.broadcast_to(pool.moment_sums / pool.count, means.shape),
                               rtol=1e-12, atol=0)


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
        got = _trial_sums(trial_last(trials), spec)[2].T
        ref = two_embed_quantum_sums(trials, spec)
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
    # eigenvalues of the centred matrices, formed whole.  The kernel centres
    # the heads; the bonds reach it as the package centres them, with their
    # squares and power sums (_bond_moments)
    d, gen = site_dim, sm.Rng(61, seed).substream()
    p, o = d ** first_sites, d ** (coupling_range - 1)
    heads = _hermitian(gen, beta, windows, p * o, np.array(shifts[:windows]))
    last = _hermitian(gen, beta, windows, o * d, np.array(shifts[4:4 + windows]))
    # the kernel reads the heads from layer 1 and the bonds with the window axis last
    stack = np.empty((2, *heads.shape), heads.dtype)
    stack[1].reshape(p * o, p * o, windows)[...] = heads.transpose(1, 2, 0)
    bonds = np.empty((2, o * d, o * d, windows), last.dtype)
    bonds[0] = last.transpose(1, 2, 0)
    bond_sums = o * d * _bond_moments(bonds)[1:]
    head_sums, window_sums = (sums.T for sums in spectra._window_power_sums(
        stack, stack[1].reshape(p * o, p * o, windows), bonds, bond_sums, d))
    for got, mats in ((head_sums, heads),
                      (window_sums, np.kron(heads, np.eye(d)) + np.kron(np.eye(p), last))):
        side = mats.shape[-1]
        centred = mats - np.trace(mats, axis1=1, axis2=2).real[:, None, None] / side * np.eye(side)
        _assert_power_sums_match(got, np.linalg.eigvalsh(centred), first=2)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["wishart", "goe", "pm1", "fixed"]),
       values=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       n_sites=st.integers(2, 10), coupling_range=st.integers(2, 3), beta=st.integers(1, 2),
       offset=st.floats(-1e3, 1e3), trials=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_pool_sums_match_the_stepwise_algebra(kind, values, n_sites, coupling_range, beta,
                                              offset, trials, seed):
    # the fused cumulant algebra against the step-by-step one it replaced,
    # on the bond moments and window sums an item hands it, with the
    # bond spectrum shifted so that κ₁ reaches 10³: within 1e-13 of
    # m·(Σλ²/m)^(k/2) per trial and pool
    coupling_range = min(coupling_range, n_sites)
    ensemble = {"wishart": sm.LocalEnsemble.wishart(4), "goe": sm.LocalEnsemble.goe(),
                "pm1": sm.LocalEnsemble.pm1(),
                "fixed": sm.LocalEnsemble.fixed_spectrum(values[:2 ** coupling_range])}[kind]
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=ensemble, beta=beta,
                        coupling_range=coupling_range)
    gen = sm.Rng(seed).substream()
    _, dense = draw_local_batch(spec, trials, gen, vec_gen=gen)
    dense = dense + offset * np.eye(spec.local_dim)
    inputs, fused = [], spectra._pool_sums

    def keep_inputs(bonds, sums, spec):
        inputs.append((bonds.copy(), sums.copy()))
        return fused(bonds, sums, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_pool_sums", keep_inputs)
        got = _trial_sums(trial_last(dense), spec)
    ref = stepwise_pool_sums(*inputs[0], spec)
    scale = spec.m * (ref[:, 1:2] / spec.m) ** (np.arange(1, 5)[:, None] / 2)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


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


def test_gram_charlier_has_the_summary_moments():
    # on a fine grid wide enough for the tails, the density's own first four
    # moments are the summary's, to the grid's discretisation error
    stats = sm.MomentSummary.from_cumulants(1.0, 4.0, 0.3 * 4.0 ** 1.5, 0.8 * 4.0 ** 2)
    edges = np.linspace(1.0 - 14 * 2.0, 1.0 + 14 * 2.0, 40_001)
    dens = sm.gram_charlier_density(stats, edges)
    mids = (edges[:-1] + edges[1:]) / 2
    own = sm.MomentSummary.from_raw_moments(*(dens.masses @ mids ** j for j in (1, 2, 3, 4)))
    for stat, want in (("mu", 1.0), ("sigma2", 4.0), ("gamma1", 0.3), ("gamma2", 0.8)):
        assert own.stat(stat) == pytest.approx(want, rel=1e-12), stat


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


def _quantile_bin_edges(values, bins=None):
    """``bin_edges`` as it was written before it partitioned a copy: np.quantile's quartiles."""
    v = np.ravel(values)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
        bins = 1 if bins is None else bins
    if bins is None:
        q1, q3 = np.quantile(v, [0.25, 0.75], method="inverted_cdf")
        if q3 <= q1:
            bins = min(spectra._MAX_BINS, round(math.sqrt(v.size)))
        else:
            width = 2.0 * (q3 - q1) / v.size ** (1.0 / 3.0)
            bins = int(np.clip(math.ceil((hi - lo) / width), 1, spectra._MAX_BINS))
    return np.linspace(lo, hi, bins + 1)


@pytest.mark.parametrize("n", [*range(1, 13), 99, 400, 4001])
def test_bin_edges_partition_gives_the_inverted_cdf_quartiles(n):
    # the ⌈n/4⌉-th and ⌈3n/4⌉-th smallest values, from a partitioned copy,
    # are np.quantile's inverted-CDF quartiles at every n, with ties and not
    gen = sm.Rng(61, n).substream()
    for x in (gen.standard_normal(n), gen.integers(0, 3, n).astype(float)):
        for bins in (None, 5):
            assert np.array_equal(sm.bin_edges(x, bins), _quantile_bin_edges(x, bins))


def test_bin_edges_of_a_list_is_bin_edges_of_its_concatenation():
    # ``spinmix run`` passes the three pools' sample arrays as they are
    gen = sm.Rng(62).substream()
    parts = [gen.standard_normal((7, 16)), 3 + gen.standard_normal((5, 16)),
             gen.standard_normal((2, 16)) ** 3]
    flat = np.concatenate([p.ravel() for p in parts])
    for bins in (None, 1, 9):
        assert np.array_equal(sm.bin_edges(parts, bins), sm.bin_edges(flat, bins))
        assert np.array_equal(sm.bin_edges(tuple(parts), bins), sm.bin_edges(flat, bins))
    constant = [np.full((2, 3), 4.0), np.full(5, 4.0)]
    assert np.array_equal(sm.bin_edges(constant), [3.5, 4.5])
    ties = [np.zeros(190), np.ones(10)]                    # IQR 0: √200 bins
    assert np.array_equal(sm.bin_edges(ties), sm.bin_edges(np.concatenate(ties)))


def test_bin_edges_leaves_the_callers_arrays_in_order():
    # np.ravel of a C-contiguous array is a view, so partitioning it in place
    # would reorder the pools' sample rows
    gen = sm.Rng(63).substream()
    rows = gen.standard_normal((40, 32))
    assert rows.flags.c_contiguous
    kept = rows.copy()
    sm.bin_edges(rows)
    assert np.array_equal(rows, kept)
    samples = gen.standard_normal((3, 20, 32))
    kept = samples.copy()
    sm.bin_edges(list(samples))
    assert np.array_equal(samples, kept)


def test_histogram_counts_values_outside_the_edges_into_the_end_bins():
    # points below, above and on the outer edges, as np.histogram bins the
    # clipped values; the last bin holds its right edge
    edges = np.linspace(-1.0, 1.0, 5)
    x = np.array([-5.0, -1.0, -1.0 - 1e-15, -0.7, -0.5, 0.0, 0.2, 0.5, 0.99, 1.0, 1.0 + 1e-15,
                  3.0, np.nextafter(-1.0, 0), np.nextafter(1.0, 0), np.nextafter(1.0, 2)])
    gen = sm.Rng(64).substream()
    for values in (x, x.reshape(3, 5), gen.standard_normal(1000) * 1.5):
        expected, _ = np.histogram(np.clip(np.ravel(values), edges[0], edges[-1]), bins=edges)
        dens = sm.histogram(values, edges)
        assert np.array_equal(dens.masses, expected / expected.sum())
    assert np.array_equal(sm.histogram(x, edges).masses, np.array([5, 1, 2, 7]) / len(x))


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
