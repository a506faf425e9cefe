"""Reference implementations that the package is checked against.

They are slow or exhaustive by design: Kronecker products for the batched
embedding, the quantum window sums from two separately embedded window
widths, an exact cross convolution for the classical pool, weighted
moments for the summaries, the parity diagonal's chain-level moments and
the appendix's collision count for the isotropic gap, and an
enumeration-backed count of bond 4-tuples.  A weighted
measure is a pair (values, weights) of arrays, sorted by value, with
weights summing to 1.
"""

import dataclasses
from collections import namedtuple

import numpy as np

import spinmix as sm
from spinmix.chain import (STREAM_LOCAL_EIGS, STREAM_LOCAL_VECS, draw_local_batch,
                           embed_sum_batch)
from spinmix.spectra import _bond_moments, _power_sums, _raw_moments, _window_width


# ---------------------------------------------------------------------------
# chains


def embed_local(term, bond_index, spec):
    """I_{d^(l-1)} ⊗ H ⊗ I on the full chain space, for bond l (1-based)."""
    h = np.asarray(term)
    nloc = spec.local_dim
    if h.shape != (nloc, nloc):
        raise ValueError(f"local term must be {nloc}x{nloc}")
    if not 1 <= bond_index <= spec.n_bonds:
        raise ValueError(f"bond index must lie in 1..{spec.n_bonds}")
    left = spec.site_dim ** (bond_index - 1)
    right = spec.m // (left * nloc)
    return np.kron(np.kron(np.eye(left), h), np.eye(right))


def assemble_chain(spec, rng):
    """Draw one chain: (H, H_odd, H_even, terms), terms of shape (n_bonds, d², d²).

    The draw uses the local streams of the pool samplers, so it is the chain
    of trial 0 of ``ensemble_pools`` with the same rng.
    """
    if spec.coupling_range != 2:
        raise ValueError("odd/even split is defined for L=2 only")
    spec.check_dense_cap()
    _, dense = draw_local_batch(spec, 1, rng.substream(STREAM_LOCAL_EIGS, 0),
                                vec_gen=rng.substream(STREAM_LOCAL_VECS, 0))
    # each parity (bonds 1, 3, … and bonds 2, 4, …) from the full bond stack
    # with the other parity's terms zeroed; adding zeros leaves its sum bit
    # for bit as it was
    h_odd, h_even = (embed_sum_batch(only_bonds(dense, bonds), spec)[0]
                     for bonds in spec.summand_bonds)
    return h_odd + h_even, h_odd, h_even, dense[0]


def only_bonds(dense, bonds):
    """A copy of the (count, n_bonds, …) stack `dense` with every bond but `bonds` zeroed."""
    picked = np.zeros_like(dense)
    picked[:, bonds] = dense[:, bonds]
    return picked


def window_cumulants(bonds, spec, width):
    """κ₂, κ₃, κ₄ summed over the windows of `width` consecutive centred bonds.

    `bonds` is (count, nb, d^L, d^L); returns (count, 3).  Every window is
    embedded whole, as a chain of width + L − 1 sites.
    """
    sub = dataclasses.replace(spec, n_sites=width + spec.coupling_range - 1)
    count, nloc = bonds.shape[0], bonds.shape[-1]
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(bonds, width, 1), -1, 2)
    mats = embed_sum_batch(windows.reshape(-1, width, nloc, nloc), sub)
    mu = _power_sums(mats).reshape(count, -1, 4) / sub.m
    kappa = np.stack([mu[..., 1], mu[..., 2], mu[..., 3] - 3 * mu[..., 1] ** 2], axis=-1)
    return sum(kappa[:, i] for i in range(kappa.shape[1]))


def two_embed_quantum_sums(dense, spec):
    """Each trial's quantum Σλ¹…Σλ⁴, (count, 4), from its s-bond windows less
    their (s − 1)-bond overlaps, the two widths embedded separately."""
    width = _window_width(spec)
    bonds, c = _bond_moments(dense)
    kappa = window_cumulants(c, spec, width)
    if width < spec.n_bonds:
        kappa -= window_cumulants(c[:, 1:-1], spec, width - 1)
    return spec.m * np.stack(_raw_moments(bonds[..., 0].sum(axis=1), *kappa.T), axis=-1)


# ---------------------------------------------------------------------------
# weighted measures


def measure(values, weights=None):
    """(values, weights) sorted by value, weights normalised; uniform by default."""
    v = np.asarray(values, dtype=float).ravel()
    w = np.ones(v.size) if weights is None else np.asarray(weights, dtype=float).ravel()
    order = np.argsort(v, kind="stable")
    return v[order], w[order] / w.sum()


def summarize(values, weights=None):
    """Population moments of a weighted sample (no bias correction)."""
    v, w = measure(values, weights)
    return sm.MomentSummary.from_raw_moments(*(float((v ** j) @ w) for j in (1, 2, 3, 4)))


def classical_convolve(a, b):
    """The law of x + y for x ~ a and y ~ b independent: every pairwise sum."""
    (va, wa), (vb, wb) = a, b
    sums, inverse = np.unique((va[:, None] + vb[None, :]).ravel(), return_inverse=True)
    return sums, np.bincount(inverse, weights=(wa[:, None] * wb[None, :]).ravel())


def ks_measures(a, b):
    """Sup distance between the step CDFs of two measures, either side of each atom."""
    pts = np.union1d(a[0], b[0])

    def cdf(m, side):
        return np.concatenate([[0.0], np.cumsum(m[1])])[np.searchsorted(m[0], pts, side=side)]

    return float(max(np.abs(cdf(a, side) - cdf(b, side)).max() for side in ("left", "right")))


# ---------------------------------------------------------------------------
# chain-level moments of one parity diagonal


def chain_m2(local, dims):
    """E(a_i²) of the parity diagonal: k·m2 + k(k−1)·m1².

    Distinct bonds are independent, so their eigenvalue cross products
    factor into squared means.
    """
    k = dims.k
    return k * local.m2 + k * (k - 1) * local.m1 ** 2


def chain_m11(local, dims):
    """E(a_i a_j), i≠j, of the parity diagonal.

    Same-bond contributions split by whether the two diagonal positions hit
    the same local eigenvalue (multiplicity t n^(k−1) copies each) or two
    distinct ones.
    """
    k, n, m, t = dims.k, dims.n, dims.m, dims.t
    if m <= 1:
        raise ValueError("need m > 1")
    copies = t * n ** (k - 1)
    same = (copies - 1) * local.m2 + copies * (n - 1) * local.m11
    return k * (k - 1) * local.m1 ** 2 + k * same / (m - 1)


# ---------------------------------------------------------------------------
# the slider's counting and collision identities


def appendix_iso_expectation(chain_a, chain_b, m, beta):
    """(1/m) E Tr(AQᵀBQ)² from chain-level moments by collision counting.

    `chain_a`/`chain_b` are (m2, m11) pairs for the two parity diagonals.
    Grouping the index sums by the number of collisions and weighting with
    the Haar pair moments gives a closed form that must agree with the
    classical value minus the isotropic gap exactly.
    """
    m2a, m11a = chain_a
    m2b, m11b = chain_b
    w = beta * (m - 1.0) / (m * beta + 2.0)
    return ((beta + 2.0) / (m * beta + 2.0) * m2a * m2b
            + w * (m2b * m11a + m2a * m11b)
            - w * m11a * m11b)


TermCounts = namedtuple("TermCounts", ["four", "three", "two_not_entangled", "two_entangled"])


def term_counts(n_sites):
    """Counts of (odd, even, odd, even) bond 4-tuples by sharing pattern.

    four: all distinct; three: one repeated parity pair; two: both repeated,
    split by whether the odd and even bonds share a site (entangled).
    """
    if n_sites < 3:
        raise ValueError("need N >= 3")
    if n_sites % 2:
        k = (n_sites - 1) // 2
        return TermCounts(k * k * (k - 1) ** 2, 2 * k * k * (k - 1), (k - 1) ** 2, 2 * k - 1)
    k = n_sites // 2
    return TermCounts(k * (k - 1) ** 2 * (k - 2), k * (k - 1) * (2 * k - 3),
                      (k - 1) * (k - 2), 2 * (k - 1))
