"""Sampler-level checks: Haar law, Wishart/GOE moments, fixed spectra."""

import numpy as np
import pytest

import spinmix as sm
from spinmix.chain import draw_local_batch
from spinmix.matgen import gaussian_batch, haar_batch

from conftest import local_term, wishart_chain


def _haar(dim, beta, rng):
    """One Haar matrix from rng's generator."""
    return haar_batch(dim, beta, rng.substream(), 1)[0]


def _entry_q4_stats(dim, beta, count, seed):
    q = haar_batch(dim, beta, sm.Rng(seed).substream(), count)
    per_matrix = (np.abs(q) ** 4).mean(axis=(1, 2))
    return per_matrix.mean(), per_matrix.std(ddof=1) / np.sqrt(count)


def test_haar_dim1_is_random_sign():
    entries = np.array([_haar(1, 1, sm.Rng(0, i))[0, 0] for i in range(400)])
    assert np.all(np.abs(np.abs(entries) - 1.0) < 1e-12)
    assert (entries > 0).any() and (entries < 0).any()


# above dim 128 the queried workspace lets orgqr take the blocked path
@pytest.mark.parametrize("dim,beta", [(2, 1), (4, 2), (8, 1), (8, 2),
                                      (128, 1), (128, 2), (512, 1), (512, 2)])
def test_haar_orthogonality_and_column_norms(dim, beta):
    q = _haar(dim, beta, sm.Rng(1, dim + beta))
    assert np.abs(q.conj().T @ q - np.eye(dim)).max() < 1e-12
    norms = np.linalg.norm(q, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def _reflector_product(vectors, beta):
    """Q = H_0 H_1 ... with H_k = I − τ u uᴴ from the vectors (α, x), sign-fixed.

    Multiplies in one reflector at a time, in LAPACK's larfg convention, and
    checks that H_kᴴ maps vector k to (R_kk, 0, …, 0).
    """
    dim = len(vectors)
    q = np.eye(dim, dtype=complex if beta == 2 else float)
    signs = np.empty(dim)
    for k, vec in enumerate(vectors):
        alpha, x = vec[0], vec[1:]
        r_kk = -np.copysign(np.linalg.norm(vec), alpha.real)
        tau = (r_kk - alpha) / r_kk
        if beta == 1 and k == dim - 1:
            r_kk, tau = alpha, 0.0
        u = np.zeros(dim, dtype=q.dtype)
        u[k] = 1.0
        u[k + 1:] = x / (alpha - r_kk)
        image = vec - np.conj(tau) * u[k:] * (u[k:].conj() @ vec)
        assert abs(image[0] - r_kk) < 1e-10 * abs(r_kk)
        assert np.abs(image[1:]).max(initial=0.0) < 1e-10 * abs(r_kk)
        q[:, k:] -= tau * np.outer(q[:, k:] @ u[k:], u[k:].conj())
        signs[k] = np.sign(r_kk)
    return q * signs


@pytest.mark.parametrize("dim,beta", [(4, 1), (32, 2), (128, 1), (512, 2)])
def test_haar_is_sign_fixed_product_of_its_reflectors(dim, beta):
    # vector k of a trial is its next dim − k Gaussians, trial-major
    q = haar_batch(dim, beta, sm.Rng(4, dim).substream(), 2)
    flat = gaussian_batch((2, dim * (dim + 1) // 2), beta, sm.Rng(4, dim).substream())
    cuts = np.cumsum(np.arange(dim, 1, -1))
    for t in range(2):
        ref = _reflector_product(np.split(flat[t], cuts), beta)
        assert np.abs(q[t] - ref).max() < 1e-10


@pytest.mark.parametrize("dim,beta", [(2, 1), (4, 1), (8, 1), (2, 2), (4, 2), (8, 2)])
def test_haar_fourth_moment_law(dim, beta):
    mean, se = _entry_q4_stats(dim, beta, 100_000, seed=dim * 10 + beta)
    law = sm.haar_q4(dim, beta)
    assert abs(mean - law) <= 3 * se


# above dim 128 orgqr, given the queried workspace, takes the blocked path
@pytest.mark.parametrize("dim,beta,count", [(129, 2, 1_000), (256, 1, 500)])
def test_haar_fourth_moment_law_blocked(dim, beta, count):
    mean, se = _entry_q4_stats(dim, beta, count, seed=dim * 10 + beta)
    assert abs(mean - sm.haar_q4(dim, beta)) <= 3 * se


@pytest.mark.parametrize("dim,beta", [(4, 1), (4, 2), (128, 1)])
def test_haar_longer_draw_starts_with_shorter_draw(dim, beta):
    short = haar_batch(dim, beta, sm.Rng(7, dim).substream(), 3)
    longer = haar_batch(dim, beta, sm.Rng(7, dim).substream(), 5)
    assert np.array_equal(longer[:3], short)


def test_haar_left_invariance_statistical():
    # multiplying by a fixed orthogonal matrix must not change entry moments
    fixed = haar_batch(4, 1, sm.Rng(99).substream(), 1)[0]
    q = haar_batch(4, 1, sm.Rng(5).substream(), 40_000)
    fq = np.einsum("ij,tjk->tik", fixed, q)
    per_matrix = (fq ** 4).mean(axis=(1, 2))
    se = per_matrix.std(ddof=1) / np.sqrt(per_matrix.size)
    assert abs(per_matrix.mean() - sm.haar_q4(4, 1)) <= 3 * se


def test_haar_reproducible():
    a = _haar(6, 2, sm.Rng(123, 4))
    b = _haar(6, 2, sm.Rng(123, 4))
    assert np.array_equal(a, b)
    c = _haar(6, 2, sm.Rng(123, 5))
    assert not np.array_equal(a, c)


def test_haar_rejects_unsupported_beta():
    with pytest.raises(ValueError):
        _haar(4, 4, sm.Rng(0))


def test_wishart_mean_eigenvalue_is_rank():
    gen = sm.Rng(21).substream()
    w = gaussian_batch((100_000, 4, 4), 1, gen)
    h = np.einsum("tri,trj->tij", w, w)
    tr = np.einsum("tii->t", h) / 4.0
    se = tr.std(ddof=1) / np.sqrt(tr.size)
    assert abs(tr.mean() - 4.0) <= 3 * se


def test_wishart_second_moment():
    gen = sm.Rng(22).substream()
    w = gaussian_batch((100_000, 4, 4), 1, gen)
    h = np.einsum("tri,trj->tij", w, w)
    tr2 = np.einsum("tij,tij->t", h, h) / 4.0
    se = tr2.std(ddof=1) / np.sqrt(tr2.size)
    assert abs(tr2.mean() - 36.0) <= 3 * se  # r(r+n+1) at r=4, n=4


def test_wishart_beta2_first_moment_convention():
    gen = sm.Rng(23).substream()
    w = gaussian_batch((50_000, 4, 4), 2, gen)
    h = np.einsum("tri,trj->tij", w.conj(), w)
    tr = np.einsum("tii->t", h).real / 4.0
    se = tr.std(ddof=1) / np.sqrt(tr.size)
    assert abs(tr.mean() - 8.0) <= 3 * se  # m1 = beta * r


def test_wishart_rank_deficiency():
    for i in range(200):
        term = local_term(sm.LocalEnsemble.wishart(2), sm.Rng(3, i))
        ev = np.linalg.eigvalsh(term)
        scale = max(1.0, ev.max())
        assert ev.min() > -1e-10 * scale
        assert (np.abs(ev) < 1e-10 * scale).sum() == 2


def test_wishart_rank_validation():
    with pytest.raises(ValueError, match="rank"):
        local_term(sm.LocalEnsemble.wishart(5), sm.Rng(0))


def test_goe_exactly_hermitian():
    term = local_term(sm.LocalEnsemble.goe(), sm.Rng(8), d=3, beta=2)
    assert np.array_equal(term, term.conj().T)


def test_goe_trace_moments():
    gen = sm.Rng(31).substream()
    g = gaussian_batch((100_000, 4, 4), 1, gen)
    h = (g + g.swapaxes(1, 2)) / 2.0
    tr = np.einsum("tii->t", h) / 4.0
    tr2 = np.einsum("tij,tij->t", h, h) / 4.0
    assert abs(tr.mean()) <= 3 * tr.std(ddof=1) / np.sqrt(tr.size)
    # oracle value 2.5 = 1 + (n-1)/2 frozen from a direct pre-build MC run
    assert abs(tr2.mean() - 2.5) <= 3 * tr2.std(ddof=1) / np.sqrt(tr2.size)


def test_fixed_spectrum_involution():
    lam = np.array([1.0, -1.0, -1.0, 1.0])
    term = local_term(sm.LocalEnsemble.fixed_spectrum(lam), sm.Rng(4))
    assert np.abs(term @ term - np.eye(4)).max() < 1e-10


def test_fixed_spectrum_trace_and_eigenvalues():
    lam = np.array([-2.0, 0.5, 1.0, 7.0])
    term = local_term(sm.LocalEnsemble.fixed_spectrum(lam), sm.Rng(6), beta=2)
    assert abs(np.trace(term).real - lam.sum()) < 1e-10
    assert np.abs(np.sort(np.linalg.eigvalsh(term)) - np.sort(lam)).max() < 1e-10


def test_fixed_spectrum_wrong_length():
    with pytest.raises(ValueError):
        local_term(sm.LocalEnsemble.fixed_spectrum(np.ones(3)), sm.Rng(0))


def test_local_term_eigendecomposition_roundtrip():
    # the eigenvalues draw_local_batch returns belong to the terms it returns;
    # Wishart terms are drawn whole and returned undiagonalised
    gen = sm.Rng(9).substream()
    evals, dense = draw_local_batch(wishart_chain(2), 1, gen)
    assert evals is None
    assert np.abs(dense[0, 0] - dense[0, 0].conj().T).max() <= 1e-12
    for ensemble in (sm.LocalEnsemble.pm1(), sm.LocalEnsemble.fixed_spectrum([-2, 0.5, 1, 3])):
        spec = sm.ChainSpec(n_sites=2, site_dim=2, ensemble=ensemble, beta=2)
        evals, dense = draw_local_batch(spec, 1, gen, vec_gen=gen)
        h = dense[0, 0]
        _, q = np.linalg.eigh(h)
        err = np.abs((q * evals[0, 0]) @ q.conj().T - h).max()
        assert err <= 1e-10
        assert np.abs(h - h.conj().T).max() <= 1e-12
