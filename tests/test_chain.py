"""Bond draws, embedding, the diagonal summands, the dense cap, the quantum pool."""

import numpy as np
import pytest

import spinmix as sm
from spinmix.chain import diagonals_from_eigs, draw_local_batch, embed_sum_batch

from conftest import local_term, wishart_chain
from oracles import assemble_chain, embed_local, only_bonds

W4 = sm.LocalEnsemble.wishart(4)


def test_embed_identity_is_identity(spec_n3):
    out = embed_local(np.eye(4), 1, spec_n3)
    assert np.array_equal(out, np.eye(8))


def test_embed_spectrum_multiplicity(spec_n3):
    term = local_term(W4, sm.Rng(1))
    emb = embed_local(term, 1, spec_n3)
    expected = np.repeat(np.sort(np.linalg.eigvalsh(term)), 2)
    assert np.abs(np.linalg.eigvalsh(emb) - expected).max() < 1e-8


def test_embed_disjoint_bonds_commute():
    spec = wishart_chain(4)
    h1 = embed_local(local_term(W4, sm.Rng(2)), 1, spec)
    h3 = embed_local(local_term(W4, sm.Rng(3)), 3, spec)
    assert np.abs(h1 @ h3 - h3 @ h1).max() < 1e-10


def test_embed_same_parity_commutes():
    spec = wishart_chain(5)
    _, h_odd, h_even, terms = assemble_chain(spec, sm.Rng(4))
    e1 = embed_local(terms[0], 1, spec)
    e3 = embed_local(terms[2], 3, spec)
    assert np.abs(e1 @ e3 - e3 @ e1).max() < 1e-10
    assert np.abs((e1 + e3) - h_odd).max() < 1e-12


def test_embed_bad_index(spec_n3):
    with pytest.raises(ValueError):
        embed_local(np.eye(4), 3, spec_n3)


def test_assemble_sum_and_shapes(spec_n3):
    h, h_odd, h_even, terms = assemble_chain(spec_n3, sm.Rng(5))
    assert h.shape == (8, 8) and len(terms) == 2
    assert np.array_equal(h, h_odd + h_even)
    assert np.abs(h_odd - embed_local(terms[0], 1, spec_n3)).max() < 1e-12
    assert np.abs(h_even - embed_local(terms[1], 2, spec_n3)).max() < 1e-12


def test_assemble_chain_is_pool_trial_zero(spec_n3):
    h, _, _, _ = assemble_chain(spec_n3, sm.Rng(5))
    pool = sm.ensemble_pools(spec_n3, 3, sm.Rng(5), keep_samples=True)
    assert np.array_equal(np.linalg.eigvalsh(h[None]), pool["quantum"].samples[:1])


def _kron_sum(dense, spec, positions):
    out = np.zeros((dense.shape[0], spec.m, spec.m), dtype=dense.dtype)
    for i, l in enumerate(positions):
        out += np.stack([embed_local(h, l, spec) for h in dense[:, i]])
    return out


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n_sites", [3, 4, 5, 6, 7])
def test_embed_sum_batch_equals_kron_sum(n_sites, beta, parity):
    spec = wishart_chain(n_sites, beta=beta)
    _, dense = draw_local_batch(spec, 3, sm.Rng(70 + n_sites).substream())
    bonds = {"all": slice(None), "odd": spec.summand_bonds[0],
             "even": spec.summand_bonds[1]}[parity]
    positions = [i + 1 for i in range(spec.n_bonds)[bonds]]
    # one parity is the full stack with the other zeroed, as assemble_chain
    # embeds it
    out = embed_sum_batch(only_bonds(dense, bonds), spec)
    assert np.array_equal(out, _kron_sum(dense[:, bonds], spec, positions))


def test_embed_sum_batch_equals_kron_sum_range3():
    spec = sm.ChainSpec(n_sites=5, site_dim=2, ensemble=sm.LocalEnsemble.wishart(8),
                        coupling_range=3)
    _, dense = draw_local_batch(spec, 2, sm.Rng(77).substream())
    positions = range(1, spec.n_bonds + 1)
    assert np.array_equal(embed_sum_batch(dense, spec),
                          _kron_sum(dense, spec, positions))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("coupling_range", [2, 3])
@pytest.mark.parametrize("site_dim", [2, 3])
def test_embed_sum_batch_fills_a_batch_innermost_out(site_dim, coupling_range, beta):
    # an out with the batch axis innermost, a transposed view of an (m, m,
    # count) array, gets the C-contiguous embed bit for bit, from the
    # trial-last terms' strided view and from a C-contiguous copy of them
    spec = sm.ChainSpec(n_sites=coupling_range + 2, site_dim=site_dim,
                        ensemble=sm.LocalEnsemble.goe(), beta=beta, coupling_range=coupling_range)
    _, dense = draw_local_batch(spec, 3, sm.Rng(78, 4 * site_dim + 2 * coupling_range + beta).substream())
    ref = embed_sum_batch(np.ascontiguousarray(dense), spec)
    for terms in (dense, np.ascontiguousarray(dense)):
        store = np.full((spec.m, spec.m, 3), np.nan, dtype=dense.dtype)
        out = embed_sum_batch(terms, spec, store.transpose(2, 0, 1))
        assert np.shares_memory(out, store)
        assert np.array_equal(store.transpose(2, 0, 1), ref)


@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_assemble_trace_identity(n_sites):
    spec = wishart_chain(n_sites)
    h, _, _, terms = assemble_chain(spec, sm.Rng(6 + n_sites))
    lhs = np.trace(h)
    rhs = spec.site_dim ** (n_sites - 2) * sum(np.trace(t) for t in terms)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_dense_cap_rejects():
    spec = wishart_chain(13)
    with pytest.raises(ValueError, match="cap"):
        assemble_chain(spec, sm.Rng(0))


def test_dense_cap_env_override(monkeypatch, spec_n3):
    monkeypatch.setenv("IE_MAX_DIM", "4")
    with pytest.raises(ValueError, match="cap"):
        assemble_chain(spec_n3, sm.Rng(0))


def test_dense_cap_env_must_be_an_integer(monkeypatch, spec_n3):
    monkeypatch.setenv("IE_MAX_DIM", "abc")
    with pytest.raises(ValueError, match="IE_MAX_DIM environment variable must be an integer"):
        assemble_chain(spec_n3, sm.Rng(0))


def _diagonals(terms, spec):
    """(a, b) of one chain from its bond terms' spectra."""
    a, b = diagonals_from_eigs(np.linalg.eigvalsh(terms)[None], spec)
    return a[0], b[0]


def _summand_cases():
    for n_sites in (3, 4, 5):
        yield pytest.param(wishart_chain(n_sites), id=str(n_sites))
    for n_sites, rank in ((3, 8), (5, 8), (6, 3)):
        yield pytest.param(sm.ChainSpec(n_sites=n_sites, site_dim=2, coupling_range=3,
                                        ensemble=sm.LocalEnsemble.wishart(rank)),
                           id=f"L3-N{n_sites}")
    yield pytest.param(wishart_chain(4, d=3), id="d3-N4")
    yield pytest.param(sm.ChainSpec(n_sites=4, site_dim=3, coupling_range=3,
                                    ensemble=sm.LocalEnsemble.goe()), id="d3-L3-N4")


@pytest.mark.parametrize("spec", _summand_cases())
def test_diagonals_match_parity_spectra(spec):
    # each summand is the diagonal of its own bonds' embedded diagonal terms,
    # and has the spectrum of its own bonds' embedded terms
    _, dense = draw_local_batch(spec, 2, sm.Rng(7, spec.n_sites).substream())
    evals = np.linalg.eigvalsh(dense)
    diag_terms = evals[..., None] * np.eye(spec.local_dim)
    summands = diagonals_from_eigs(evals, spec)
    assert len(summands) == len(spec.summand_bonds)
    for bonds, s in zip(spec.summand_bonds, summands):
        embedded = embed_sum_batch(only_bonds(diag_terms, bonds), spec)
        assert np.array_equal(s, np.diagonal(embedded, axis1=1, axis2=2))
        lam = np.linalg.eigvalsh(embed_sum_batch(only_bonds(dense, bonds), spec))
        assert np.abs(np.sort(s) - lam).max() < 1e-8


def test_diagonal_multiplicities():
    # odd chains repeat every parity value a multiple of d times; even chains
    # give multiplicity 1 for the odd part and d^2 for the even part
    spec3 = wishart_chain(3)
    _, _, _, terms = assemble_chain(spec3, sm.Rng(11))
    a, _ = _diagonals(terms, spec3)
    for lam in np.linalg.eigvalsh(terms[0]):
        assert np.isclose(a, lam, atol=1e-12).sum() == 2
    assert abs(a.sum() - 2 * np.trace(terms[0])) < 1e-8

    spec4 = wishart_chain(4)
    _, _, _, terms4 = assemble_chain(spec4, sm.Rng(12))
    a4, b4 = _diagonals(terms4, spec4)
    _, counts_a = np.unique(np.round(a4, 9), return_counts=True)
    _, counts_b = np.unique(np.round(b4, 9), return_counts=True)
    assert counts_a.max() == 1
    assert set(counts_b) == {4}


def test_chain_second_moment_mc(spec_n3):
    # (1/m) E sum a_i^2 -> k m2 = 36 for d=2, r=4, N=3
    _, dense = draw_local_batch(spec_n3, 40_000, sm.Rng(13).substream())
    a, _ = diagonals_from_eigs(np.linalg.eigvalsh(dense), spec_n3)
    per_trial = (a ** 2).mean(axis=1)
    se = per_trial.std(ddof=1) / np.sqrt(per_trial.size)
    assert abs(per_trial.mean() - 36.0) <= 3 * se


def test_quantum_pool_grand_mean(spec_n3):
    pools = sm.ensemble_pools(spec_n3, 20_000, sm.Rng(19))
    pool = pools["quantum"]
    assert abs(pool.summary().mu - 8.0) <= 3 * pool.stderr("mu")
