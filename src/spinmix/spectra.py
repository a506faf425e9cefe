"""The three spectra of a chain ensemble, their moments, and their densities.

The classical, isotropic and quantum convolutions are sampled over freshly
drawn chains from a seed.  All three share the local eigenvalue stream
(common random numbers), so differences between ensembles are
rotation-driven rather than draw noise.  Each purpose draws from its own
child stream, so no pool's numbers depend on how many draws another pool
took.

A sampler opens each child stream once per call, as
``rng.substream(purpose, j)`` with j = 0 or a summand index, and draws from
it in trial-major order.  A run's numbers therefore depend on its seed and
trial count alone, and the first t trials of a longer run equal a t-trial
run.

A run is one stream (``_workers.stream``) of work items of
``_item_trials`` trials: the fewest whole sub-blocks whose draws hold
``_ITEM_DRAWS`` elements, each sub-block at most ``_workers._SUB_BLOCK``
array elements.  The calling thread draws each item in trial order, a
worker runs ``_chunk_pass`` on it as soon as it is drawn, and the calling
thread folds the finished items into the pools in trial order.  So a run
holds the draws of at most 2 × workers items, and only of as many as fit
in ``_FLIGHT_DRAWS`` elements (``_items_in_flight``; one at least).  The
pooled and block sums are the same left fold, bit for bit, whatever the
items and sub-blocks.
Each sub-block of an item forms its trials' bond terms from the draws,
centres them, and reduces them to every pool's Σλ¹…Σλ⁴ (``_trial_sums``)
while they are in cache, with its window heads in per-thread scratch
(``_workers._scratch``) that is reused across sub-blocks and calls; on the
kept route it goes on to the samples.  Each trial is computed by the same
single-threaded kernel in any item or sub-block, so the output does not
depend on the worker count either.

Each trial's spectrum is a sum of the diagonal summands s₀ … s_k of
``ChainSpec.summand_bonds``: the two parity classes at range L = 2, each
bond's embedded spectrum at L > 2.  The classical spectrum permutes, and
the isotropic one Haar-rotates, every summand after the first.  One
estimator gives every pool's moments: each trial adds its Σλ¹…Σλ⁴ given
its local draw.

* The classical and isotropic sums are their exact means over the
  permutations and rotations, closed forms in the bonds' cumulants
  (``_conditional_power_sums``): traces of powers of each centred bond
  term, O(n_bonds · d^(3L)) per trial, with no draw and no eigensolver.
* The quantum sums are exact (``_trial_sums``): the chain's cumulants are
  those of its windows of s = 3(L−1)+1 consecutive bonds, less those of
  the (s − 1)-bond overlaps of neighbouring windows.  Each window's first
  s − 1 bonds, its head H, are embedded once (``chain.embed_sum_batch``),
  and every head but the first is an overlap.  A window is A + B with
  A = H ⊗ I_d and B its last bond h on the last L sites, and its sums
  come from the words of tr(A + B)ᵏ (``_window_power_sums``): powers and
  partial traces of H and h, and one alternating word, tr(ABAB), which
  reads the whole head through the Gram matrix of its blocks.  That word
  is where the quantum fourth moment departs from the classical and
  isotropic ones.  So the largest matrix is a head, on s + L − 2 sites;
  no window, and once the chain has more bonds than a window no m×m
  matrix, is formed.

Only kept samples (``keep_samples=True``, as ``spinmix run`` makes) are
Monte Carlo: summand i is permuted by the argsort of keys drawn on the
child stream ``(STREAM_CLASSICAL, i − 1)`` and rotated by a Haar matrix
built from Gaussians drawn on ``(STREAM_ISO, i − 1)``.  Each sub-block of
an item's pass then diagonalises its Wishart or GOE bond terms, builds
the summands, and forms and diagonalises its m×m isotropic and quantum
matrices in arrays of its item.  The moment sums never read the samples,
so both routes give the same moment and block sums.

Densities are read from the kept sample arrays as they are: ``bin_edges``
picks equal-width edges (``--bins`` or Freedman–Diaconis), ``histogram``
bins a sample array on them, and ``ks_distance`` compares two densities.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import chain as chain_mod
from . import matgen
from ._workers import _block_trials, _scratch, _sub_blocks, stream
from .chain import STREAM_CLASSICAL, STREAM_ISO, STREAM_LOCAL_EIGS, ChainSpec
from .rng import Rng

__all__ = [
    "MomentSummary",
    "DensityEstimate",
    "TrialPool",
    "ensemble_pools",
    "jackknife_stderr",
    "jackknife_se",
    "gram_charlier_density",
    "ks_distance",
    "bin_edges",
    "histogram",
]

_ITEM_DRAWS = 1 << 16            # draw elements a work item holds, at least
_FLIGHT_DRAWS = 1 << 23          # draw elements the items in flight hold, at most
_MAX_KEPT_VALUES = 1 << 27       # refuse sample retention beyond ~1 GiB
_N_BLOCKS = 50                   # jackknife blocks (fewer when trials < 50)
_MAX_BINS = 512                  # cap on the Freedman–Diaconis bin count


def _block_size(spec: ChainSpec, keep_samples: bool) -> int:
    """Elements a trial holds in a sub-block: m², or 3 per element of its window heads.

    The moments pass holds each head, its square and its blocks laid out as
    rows (``_window_power_sums``): three n×n matrices for each of the
    n_bonds − s + 1 windows, n = d^(s+L−2).
    """
    if keep_samples:
        return spec.m * spec.m          # no fewer than the heads' elements
    width = _window_width(spec)
    return 3 * (spec.n_bonds - width + 1) * spec.site_dim ** (2 * (width + spec.coupling_range - 2))


def _trial_draws(spec: ChainSpec, keep_samples: bool) -> int:
    """Elements a trial draws: its bonds and, on the kept route, each rotated
    summand's m keys and m(m+1)/2 reflector Gaussians."""
    m, rotated = spec.m, len(spec.summand_bonds) - 1 if keep_samples else 0
    return chain_mod._draw_elements(spec) + rotated * (m + m * (m + 1) // 2)


def _item_trials(spec: ChainSpec, keep_samples: bool, trials: int) -> int:
    """Trials per work item: the fewest whole sub-blocks that draw ``_ITEM_DRAWS`` elements."""
    block = _block_trials(_block_size(spec, keep_samples))
    return min(trials, block * -(-_ITEM_DRAWS // (block * _trial_draws(spec, keep_samples))))


def _items_in_flight(spec: ChainSpec, keep_samples: bool, step: int) -> int:
    """Items of `step` trials whose draws fit in ``_FLIGHT_DRAWS`` elements, at least one.

    The workers run only items in flight, each with its sub-block's m×m
    stacks, so at large m this also bounds how many of those stacks the
    kept route holds: three one-trial items at m = 2048, and one at
    m = 4096, which then runs on the calling thread.
    """
    return max(1, _FLIGHT_DRAWS // (step * _trial_draws(spec, keep_samples)))


# ---------------------------------------------------------------------------
# summaries and densities


_UNDEFINED_TOL = 1e-14


def _raw_moments(k1, k2, k3, k4):
    """Raw moments m1…m4 from cumulants κ1…κ4, of numbers or of arrays."""
    return (k1,
            k2 + k1 ** 2,
            k3 + 3 * k2 * k1 + k1 ** 3,
            k4 + 4 * k3 * k1 + 3 * k2 ** 2 + 6 * k2 * k1 ** 2 + k1 ** 4)


@dataclass(frozen=True)
class MomentSummary:
    """Raw moments, cumulants and the derived (mean, variance, skew, kurtosis).

    gamma1/gamma2 are None when the variance vanishes (point mass) instead of
    propagating NaNs.
    """

    m1: float
    m2: float
    m3: float
    m4: float
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    mu: float
    sigma2: float
    gamma1: Optional[float]
    gamma2: Optional[float]

    @classmethod
    def from_raw_moments(cls, m1, m2, m3, m4) -> "MomentSummary":
        k1 = m1
        k2 = m2 - m1 ** 2
        k3 = m3 - 3 * m2 * m1 + 2 * m1 ** 3
        k4 = m4 - 4 * m3 * m1 - 3 * m2 ** 2 + 12 * m2 * m1 ** 2 - 6 * m1 ** 4
        sigma2 = max(k2, 0.0)
        if k2 <= _UNDEFINED_TOL * max(1.0, abs(m2)):
            g1 = g2 = None
        else:
            g1 = k3 / sigma2 ** 1.5
            g2 = k4 / sigma2 ** 2
        return cls(m1, m2, m3, m4, k1, k2, k3, k4, m1, sigma2, g1, g2)

    @classmethod
    def from_cumulants(cls, k1, k2, k3, k4) -> "MomentSummary":
        return cls.from_raw_moments(*_raw_moments(k1, k2, k3, k4))

    def stat(self, name: str) -> Optional[float]:
        return getattr(self, name)


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram-form density: bin edges plus masses summing to 1."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.bin_edges, dtype=float).ravel()
        p = np.asarray(self.masses, dtype=float).ravel()
        if e.size < 2 or p.size != e.size - 1:
            raise ValueError("need len(bin_edges) == len(masses) + 1 >= 2")
        if np.any(np.diff(e) <= 0):
            raise ValueError("bin edges must be strictly ascending")
        if np.any(p < 0):
            raise ValueError("masses must be nonnegative")
        total = p.sum()
        if total <= 0:
            raise ValueError("total mass must be positive")
        object.__setattr__(self, "bin_edges", e)
        object.__setattr__(self, "masses", p / total)

    def cdf(self, x) -> np.ndarray:
        # mass spread uniformly within each bin -> piecewise linear CDF
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        return np.interp(np.asarray(x, dtype=float), self.bin_edges, cum,
                         left=0.0, right=1.0)


# ---------------------------------------------------------------------------
# kernels


def _rotate_diag(q: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Batched Q† diag(b) Q, into `out` when it is given: a single-threaded kernel."""
    qh = np.conjugate(q.swapaxes(-1, -2))          # laid out as Q, so gemm reads it transposed
    qh *= b[:, None, :]
    return np.matmul(qh, q, out=out)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Σ conj(x)·y over each matrix of two stacks of one shape: (count,)."""
    # a complex array viewed as float pairs gives Re Σ conj(x)·y; einsum
    # sums a lone long row in another order than a row of a stack, so a
    # lone row is reduced as a two-row stack
    x, y = (a.reshape(len(a), -1).view(np.float64) for a in (x, y))
    if len(x) == 1:
        return np.einsum("ij,ij->i", np.vstack([x, x]), np.vstack([y, y]))[:1]
    return np.einsum("ij,ij->i", x, y)


def _power_sums(mats: np.ndarray) -> np.ndarray:
    """Σλ¹…Σλ⁴ of each Hermitian matrix in a stack, as a (count, 4) array.

    They are tr M, ⟨M, M⟩, ⟨M², M⟩ and ⟨M², M²⟩ with the real part of the
    conjugated inner product, so one M² per matrix replaces an eigvalsh.
    """
    sq = np.matmul(mats, mats)
    return np.stack([np.trace(mats, axis1=1, axis2=2).real, _inner(mats, mats),
                     _inner(sq, mats), _inner(sq, sq)], axis=-1)


def _window_power_sums(stack: np.ndarray, last: np.ndarray, site_dim: int):
    """Central Σ(λ − λ̄)¹…⁴ of each head H and of its window H ⊗ I_d + I_P ⊗ h.

    `stack` is (3, count, n, n) with the Hermitian heads in ``stack[0]``;
    `last` is (count, O·d, O·d), the Hermitian h, whose first O sites are
    the head's last ones, so n = P·O.  Returns two (count, 4) arrays.  H and
    h are centred first, H in place, so neither mean costs accuracy; the
    rest of `stack` is scratch.

    With A = H ⊗ I_d and B = I_P ⊗ h, tr Mᵏ is a sum of words in A and B:
    tr Aᵏ = d·tr Hᵏ, tr Bᵏ = P·tr hᵏ, and every mixed word but one is
    tr(AᵖB^q) = Σ_ab trP(Hᵖ)[a,b]·trD(h^q)[b,a], with trP the partial trace
    over the head's first P and trD over the window's last site.  The one
    alternating word, tr(ABAB), needs the whole head, not a partial trace:
    it is Σ_abcd GH[(a,b),(d,c)]·GB[(b,c),(a,d)], with GH and GB the Gram
    matrices of the O² blocks of H and of h.  It is where the quantum
    fourth moment departs from the classical and isotropic ones.  Every
    step is per matrix, so a head gets the same sums in any stack.
    """
    heads, (count, n), d = stack[0], stack.shape[1:3], site_dim
    nloc = last.shape[-1]
    o = nloc // d
    p = n // o
    bonds = np.empty((3, *last.shape), last.dtype)
    bonds[0] = last
    for mats, side in ((heads, n), (bonds[0], nloc)):
        mats.reshape(count, -1)[:, ::side + 1] -= np.trace(mats, axis1=1, axis2=2)[:, None] / side
    np.matmul(bonds[0], bonds[0], out=bonds[1])
    np.matmul(bonds[1], bonds[0], out=bonds[2])
    squares = np.matmul(heads, heads, out=stack[1])
    # trP(H³)[b,a] = Σ_iq conj H[i,(q,b)]·H²[i,(q,a)], H's columns grouped by q
    left = heads if heads.dtype.kind == "f" else np.conjugate(heads, out=stack[2])
    part3 = np.matmul(left.reshape(count, -1, o).swapaxes(-1, -2), squares.reshape(count, -1, o))
    fourth = _inner(squares, squares), _inner(bonds[1], bonds[1])
    # GH[(a,b),(c,d)] = Σ_pq H[(p,a),(q,b)]·conj H[(p,c),(q,d)], from H's
    # blocks laid out as rows; the conjugate is a copy even when real, as
    # numpy's X·Xᵀ (syrk) is slower than a gemm at these sizes
    x = stack[2].reshape(count, o, o, p, p)
    x[...] = heads.reshape(count, p, o, p, o).transpose(0, 2, 4, 1, 3)
    x = x.reshape(count, o * o, p * p)
    gram = np.matmul(x, np.conjugate(x, out=stack[1].reshape(x.shape)).swapaxes(-1, -2))
    # trP(Hᵏ) and trD(hᵏ), k = 1…3, flattened: trP(H) is the trace of
    # each P×P block of x, trP(H²)[a,c] = Σ_b GH[(a,b),(c,b)], and their
    # traces are tr Hᵏ and tr hᵏ
    gram = gram.reshape(count, o, o, o, o)
    part_h = np.empty((count, 3, o, o), heads.dtype)
    part_h[:, 0] = x[..., ::p + 1].sum(-1).reshape(count, o, o)
    part_h[:, 1] = sum(gram[:, :, b, :, b] for b in range(o))
    part_h[:, 2] = part3
    blocks = bonds.reshape(3, count, o, d, o, d)
    part_b = np.empty((count, 3, o, o), heads.dtype)
    part_b[...] = np.moveaxis(sum(blocks[:, :, :, e, :, e] for e in range(d)), 0, 1)
    # GB[(b,c),(a,d)] = Σ_ef h[(b,e),(c,f)]·conj h[(a,e),(d,f)]
    y = blocks[0].transpose(0, 1, 3, 2, 4).reshape(count, o * o, -1)
    gram_b = np.matmul(y, y.conj().swapaxes(-1, -2)).reshape(count, o, o, o, o)
    # tr(AᵏB^q) for k, q = 1…3: trD(h^q) is Hermitian, so the sum over a, b
    # is the real inner product of the two partial traces
    words = np.matmul(part_h.reshape(count, 3, -1).view(np.float64),
                      part_b.reshape(count, 3, -1).view(np.float64).swapaxes(-1, -2))
    sums = np.empty((3, count, 4))
    sums[0, :, :3] = part_h.reshape(count, 3, -1)[..., ::o + 1].sum(-1).real
    sums[1, :, :3] = part_b.reshape(count, 3, -1)[..., ::o + 1].sum(-1).real
    sums[:2, :, 3] = fourth
    # GB is Hermitian, so tr(ABAB) = Re Σ GH[(a,b),(d,c)]·conj GB[(a,d),(b,c)]
    abab = _inner(gram_b.transpose(0, 1, 3, 2, 4), gram)
    # the mixed words of tr M², tr M³ and tr M⁴: the four of degree (2, 2)
    # but ABAB and BABA are tr(A²B²)
    sums[2, :, 0] = 0
    sums[2, :, 1] = 2 * words[:, 0, 0]
    sums[2, :, 2] = 3 * (words[:, 1, 0] + words[:, 0, 1])
    sums[2, :, 3] = 4 * (words[:, 2, 0] + words[:, 0, 2] + words[:, 1, 1]) + 2 * abab
    return sums[0], d * sums[0] + p * sums[1] + sums[2]


def _window_width(spec: ChainSpec) -> int:
    """Bonds in a quantum window: 3(L−1)+1, or all of a shorter chain's."""
    return min(spec.n_bonds, 3 * (spec.coupling_range - 1) + 1)


def _window_cumulants(sums: np.ndarray, side: int) -> np.ndarray:
    """κ₂, κ₃, κ₄ of windows of `side` values from their central Σλ¹…Σλ⁴ (…, 4): (…, 3).

    A window's mean is 0 once centred, so κ₂ = μ₂, κ₃ = μ₃ and
    κ₄ = μ₄ − 3μ₂².
    """
    mu = sums / side
    return np.stack([mu[..., 1], mu[..., 2], mu[..., 3] - 3 * mu[..., 1] ** 2], axis=-1)


def _bond_moments(dense: np.ndarray):
    """Each bond's trace moments, and the centred bond terms.

    `dense` is (count, n_bonds, d^L, d^L).  Returns the (count, n_bonds, 4)
    τ(h_l), τ(c_l²), τ(c_l³), τ(c_l⁴), with τ the normalised trace, and the
    c_l = h_l − τ(h_l)·I.
    """
    count, nb, nloc = dense.shape[:3]
    tau = np.trace(dense, axis1=-2, axis2=-1).real / nloc
    c = dense - tau[..., None, None] * np.eye(nloc)
    bonds = _power_sums(c.reshape(-1, nloc, nloc)).reshape(count, nb, 4) / nloc
    bonds[..., 0] = tau
    return bonds, c


def _trial_sums(dense: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Each trial's classical, isotropic and quantum Σλ¹…Σλ⁴: (3, count, 4).

    `dense` is (count, n_bonds, d^L, d^L).  The quantum cumulants κ₂…κ₄
    expand multilinearly in the centred terms c_l (``_bond_moments``).  A
    tuple of terms that splits into two groups with disjoint supports
    contributes nothing: the groups commute, τ factorises over them and
    τ(c_l) = 0.  So only tuples of at most four bonds whose supports form a
    chain contribute, spanning at most s = 3(L−1)+1 consecutive bonds, and
    the chain's cumulants are those of its s-bond windows summed, less those
    of the overlaps (s − 1 bonds) of neighbouring windows.  With n_bonds ≤ s
    the one window is the chain.

    The first s − 1 bonds of window j, its head, are the overlap of windows
    j − 1 and j.  So one stack of heads, embedded on s + L − 2 sites in this
    thread's scratch (``chain.embed_sum_batch``), gives both: each head's
    central sums serve its own window and, for every head but the first,
    an overlap.  A window is head ⊗ I_d plus its last bond on the last L
    sites, and ``_window_power_sums`` takes its sums from the head's
    powers and partial traces and from that bond, without forming it.  Of
    its words only tr(ABAB), where the head and the bond interleave, reads
    the whole head: that is the fourth-order departure of the quantum
    spectrum from the classical and isotropic ones.  At N = L the head is
    the empty sum on L − 1 sites.  The classical and isotropic sums are
    ``_conditional_power_sums`` of the bond moments.
    """
    width, nb, d = _window_width(spec), spec.n_bonds, spec.site_dim
    bonds, c = _bond_moments(dense)
    count, nloc = len(c), spec.local_dim
    side = d ** (width + spec.coupling_range - 2)
    # the heads, and room for H² and their blocks, in this thread's scratch
    stack = _scratch("heads", (3, count * (nb - width + 1), side, side), c.dtype)
    if width > 1:
        head = dataclasses.replace(spec, n_sites=width + spec.coupling_range - 2)
        head_bonds = np.arange(nb - width + 1)[:, None] + np.arange(width - 1)
        chain_mod.embed_sum_batch(c[:, head_bonds].reshape(-1, width - 1, nloc, nloc), head,
                                  stack[0])
    else:
        stack[0] = 0
    heads, windows = _window_power_sums(stack, c[:, width - 1:].reshape(-1, nloc, nloc), d)
    kappa = _window_cumulants(windows.reshape(count, -1, 4), side * d)
    # every head but the first is an overlap
    kappa[:, 1:] -= _window_cumulants(heads.reshape(count, -1, 4)[:, 1:], side)
    # a left fold over the positions, the same for a trial in any sub-block
    kappa = sum(kappa[:, i] for i in range(kappa.shape[1]))
    quantum = spec.m * np.stack(_raw_moments(bonds[..., 0].sum(axis=1), *kappa.T), axis=-1)
    return np.stack([*_conditional_power_sums(bonds, spec), quantum])


def _chunk_pass(spec: ChainSpec, evals, factors, rows=None, keys=(), gaussians=()):
    """One work item's per-trial sums, (3, count, 4), and on the kept route its sample rows.

    `evals` and `factors` are ``chain._draw_bonds``'s draws.  On the kept
    route `rows` holds the item's classical, iso and quantum rows, which
    the pass fills, and `keys` and `gaussians` the (count, m) permutation
    keys and (count, m(m+1)/2) reflector Gaussians of each rotated summand.

    The pass walks the trials in sub-blocks of ``_block_size`` elements a
    trial.  Each forms its bond terms (``chain._bond_terms``) and reduces
    them (``_trial_sums``) while they are in cache.  On the kept route it
    then builds the summands s₀ … s_k from the bonds' eigenvalues, permutes
    each s_i by the argsort of its keys, and diagonalises the embedded
    chains and diag(s₀) + Σ Q_i† diag(s_i) Q_i (s₀ alone when nothing is
    rotated, N = L).  Its bond terms and m×m arrays are the item's, freed
    when it returns.
    """
    count, nb, nloc, m = factors.shape[0], spec.n_bonds, spec.local_dim, spec.m
    size = _block_size(spec, rows is not None)
    blocks = list(_sub_blocks(0, count, size))
    sums = np.empty((3, count, 4))
    terms = np.empty((blocks[0][1], nb, nloc, nloc), dtype=factors.dtype)
    if rows is not None:
        classical, iso, quantum = rows
        chains, haar = np.empty((2, len(terms), m, m), dtype=factors.dtype)
    diag = np.arange(m)
    for s, e in blocks:
        local = None if evals is None else evals[s:e]
        h = chain_mod._bond_terms(spec, local, factors[s:e], terms[:e - s])
        sums[:, s:e] = _trial_sums(h, spec)
        if rows is None:
            continue
        summands = chain_mod.diagonals_from_eigs(
            np.linalg.eigvalsh(h) if local is None else local, spec)     # Wishart, GOE
        vals = summands[0]
        for b, k in zip(summands[1:], keys):
            vals = vals + np.take_along_axis(b, np.argsort(k[s:e], axis=1), axis=1)
        classical[s:e] = vals
        mats = chain_mod.embed_sum_batch(h, spec, chains[:e - s])
        quantum[s:e] = np.linalg.eigvalsh(mats)
        if not gaussians:                                   # N = L: nothing is rotated
            iso[s:e] = summands[0]
            continue
        for i, (g, b) in enumerate(zip(gaussians, summands[1:])):
            q = matgen.haar_from_gaussians(g[s:e], haar[:e - s])
            # the first rotation overwrites the chains, which are diagonalised
            rotated = _rotate_diag(q, b, None if i else mats)
            if i:
                mats += rotated
        mats[:, diag, diag] += summands[0]
        iso[s:e] = np.linalg.eigvalsh(mats)
    return sums


def _conditional_power_sums(bonds: np.ndarray, spec: ChainSpec):
    """Each trial's classical and isotropic Σλ¹…Σλ⁴, averaged over Π_i or Q_i.

    `bonds` is (count, n_bonds, 4), each bond's τ(h), τ(c²), τ(c³), τ(c⁴)
    (``_bond_moments``); returns two (count, 4) arrays.  A classical
    eigenvalue is a sum of independent uniform draws, one from each bond's
    spectrum, so its cumulants κ₁…κ₄ are the bonds' summed.  The isotropic
    spectrum has the same κ₁…κ₃ (Matching Three Moments): E Q†SQ = τ(S)·I,
    so in a word of degree at most 4 a summand that appears once factors
    out, as it does classically.  Only the alternating words differ:
    E τ(S_i S_j S_i S_j) = τ(S_i²)τ(S_j²) − w·v_i·v_j with S_i = diag(s_i)
    rotated, w = β(m−1)/(mβ+2) and v_i = m/(m−1)·var(s_i), and τ(M⁴)
    holds two per pair.
    """
    m, beta = spec.m, spec.beta
    mu, c2, c3, c4 = np.moveaxis(bonds, -1, 0)                     # each (count, nb)
    kappa = [mu.sum(1), c2.sum(1), c3.sum(1), (c4 - 3 * c2 ** 2).sum(1)]
    # var(s_i): τ(c²) summed over summand i's bonds, a strided view of each
    var = np.stack([c2[:, bonds].sum(1) for bonds in spec.summand_bonds], axis=1)
    v = m / (m - 1) * var
    pairs = (v[:, 1:] * np.cumsum(v, axis=1)[:, :-1]).sum(1)       # Σ_{i<j} v_i v_j
    w = beta * (m - 1) / (m * beta + 2)
    iso_k4 = kappa[3] - 2 * w * pairs
    return (m * np.stack(_raw_moments(*kappa), axis=-1),
            m * np.stack(_raw_moments(*kappa[:3], iso_k4), axis=-1))


# ---------------------------------------------------------------------------
# ensemble pipelines


@dataclass
class TrialPool:
    """Accumulated spectra of one convolution ensemble across trials."""

    matrix_dim: int
    trials: int
    moment_sums: np.ndarray          # pooled sums of lambda^1..4
    block_sums: np.ndarray           # (n_blocks, 4)
    block_counts: np.ndarray         # (n_blocks,) pooled value counts
    samples: Optional[np.ndarray]    # (trials, m) eigenvalue rows, or None

    @property
    def count(self) -> int:
        return self.trials * self.matrix_dim

    def summary(self) -> MomentSummary:
        m1, m2, m3, m4 = self.moment_sums / self.count
        return MomentSummary.from_raw_moments(m1, m2, m3, m4)

    def stderr(self, stat: str) -> float:
        """Jackknife s.e. of the pooled `stat` (a MomentSummary field)."""
        return jackknife_stderr([self], lambda s: s[0].stat(stat))

    def leave_one_out(self) -> list:
        """The MomentSummary with each non-empty block left out; none below two."""
        blocks = np.flatnonzero(self.block_counts)
        return [MomentSummary.from_raw_moments(*((self.moment_sums - self.block_sums[i])
                                                 / (self.count - self.block_counts[i])))
                for i in blocks] if blocks.size > 1 else []


def jackknife_stderr(pools, fn) -> float:
    """Delete-one-block jackknife s.e. of fn(summaries), one MomentSummary per pool.

    The pools must come from one sampler call, so that they share their
    blocks; each replicate leaves the same trials out of every pool.  Unlike
    the spread of per-block statistics, this is the s.e. of the pooled
    estimate even when a block holds a single trial.
    """
    return jackknife_se(fn(list(s)) for s in zip(*(p.leave_one_out() for p in pools)))


def jackknife_se(values) -> float:
    """Jackknife s.e. from a statistic's values on ``leave_one_out`` summaries."""
    loo = []
    for value in values:
        if value is None:
            raise ValueError("statistic undefined with a block left out")
        loo.append(value)
    if len(loo) < 2:
        return float("nan")
    loo, g = np.array(loo), len(loo)
    return float(math.sqrt((g - 1) / g * ((loo - loo.mean()) ** 2).sum()))


def _new_pools(m, trials, keep_samples):
    """A TrialPool that stacks the classical, iso and quantum pools, and those pools.

    Each pool's arrays are its row of the stacked ones, so one ``_accumulate``
    folds all three.  The block counts are fixed by the blocks alone.
    """
    samples = None
    if keep_samples:
        if trials * m > _MAX_KEPT_VALUES:
            raise ValueError("sample retention would exceed the memory guard; "
                             "use keep_samples=False")
        samples = np.empty((3, trials, m))
    n_blocks = min(_N_BLOCKS, trials)
    # trial i falls in block i·n_blocks // trials: block b starts at ⌈b·trials/n_blocks⌉
    starts = -(-np.arange(n_blocks + 1) * trials // n_blocks)
    stacked = TrialPool(m, trials, np.zeros((3, 4)), np.zeros((3, n_blocks, 4)),
                        np.tile(np.diff(starts) * m, (3, 1)), samples)
    rows = (stacked.moment_sums, stacked.block_sums, stacked.block_counts,
            samples if keep_samples else (None,) * 3)
    return stacked, {kind: TrialPool(m, trials, *(a[i] for a in rows))
                     for i, kind in enumerate(("classical", "iso", "quantum"))}


def _accumulate(pools: TrialPool, sums: np.ndarray, lo: int):
    """Fold the (3, count, 4) Σλ¹…Σλ⁴ of the trials from `lo` on into the stacked pools."""
    c, n_blocks = sums.shape[1], pools.block_sums.shape[1]
    ids = (np.arange(lo, lo + c) * n_blocks) // pools.trials
    # a left fold in trial order, so the sums do not depend on the items
    running = np.concatenate([pools.moment_sums[:, None], sums], axis=1)
    pools.moment_sums[:] = np.cumsum(running, axis=1)[:, -1]
    np.add.at(pools.block_sums, (slice(None), ids), sums)


def ensemble_pools(spec: ChainSpec, trials: int, rng: Rng, keep_samples: bool = False):
    """Sample the classical, isotropic and quantum spectra of a chain ensemble.

    Returns {"classical", "iso", "quantum": TrialPool}, each with
    ``_N_BLOCKS`` jackknife blocks (one per trial below that).  Within a
    trial the three pools share one draw of the local eigenvalues, so
    cross-ensemble differences (kurtosis gaps, mixture weights) are
    estimated with strongly reduced variance.

    Each trial's spectrum is split into the diagonal summands s₀ … s_k of
    ``spec.summand_bonds``.  The classical spectrum is s₀ + Σ_{i≥1} Π_i s_i and
    the isotropic one that of diag(s₀) + Σ_{i≥1} Q_i† diag(s_i) Q_i.  A bond
    term I ⊗ h ⊗ I is U diag(s) U† for some unitary U, and U†Q is Haar when
    Q is, so rotating its diagonal draws the same law as rotating the
    dense term; conjugating the whole sum leaves its spectrum unchanged, so
    s₀ needs no rotation.  For L > 2 this is the all-isotropic
    approximation, used in place of a mixture.

    The moment sums (see the module docstring) need no m×m matrix and so no
    dense cap.  `keep_samples` (``spinmix run``) also keeps every trial's
    eigenvalues as a row of each pool's ``samples``.  The calling thread
    draws each work item's bonds and, on the kept route, Π_i's keys on
    stream ``(STREAM_CLASSICAL, i − 1)`` and Q_i's Gaussians on stream
    ``(STREAM_ISO, i − 1)``; a worker's ``_chunk_pass`` does the rest.  The
    calling thread holds the draws of the items in flight but no m×m stack.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if keep_samples:
        spec.check_dense_cap()
    m = spec.m
    stacked, pools = _new_pools(m, trials, keep_samples)
    # the local streams are opened once and drawn trial-major, so the draws
    # do not depend on where the item boundaries fall; the eigenvector
    # stream is opened only for an ensemble that draws from it
    eig_gen = rng.substream(STREAM_LOCAL_EIGS, 0)
    vec_gen = chain_mod._vector_gen(spec, rng)
    # one stream per permuted or rotated summand s₁ … s_k, on the kept route
    rotated = range(len(spec.summand_bonds) - 1 if keep_samples else 0)
    perm_gens = [rng.substream(STREAM_CLASSICAL, j) for j in rotated]
    haar_gens = [rng.substream(STREAM_ISO, j) for j in rotated]

    def draw(lo, hi):
        # Π_i is the argsort of its keys; Q_i is built from what matgen.haar_batch would draw
        return (*chain_mod._draw_bonds(spec, hi - lo, eig_gen, vec_gen),
                [g.random((hi - lo, m)) for g in perm_gens],
                [matgen.gaussian_batch((hi - lo, m * (m + 1) // 2), spec.beta, g)
                 for g in haar_gens])

    def work(lo, hi, drawn):
        rows = stacked.samples[:, lo:hi] if keep_samples else None
        evals, factors, keys, gaussians = drawn
        return _chunk_pass(spec, evals, factors, rows, keys, gaussians)

    def fold(lo, hi, sums):
        _accumulate(stacked, sums, lo)

    # the only trial loop
    step = _item_trials(spec, keep_samples, trials)
    stream(trials, step, draw, work, fold, _items_in_flight(spec, keep_samples, step))
    return pools


# ---------------------------------------------------------------------------
# density utilities


def gram_charlier_density(stats: MomentSummary, grid) -> DensityEstimate:
    """Four-moment Gaussian-series density on the given bin edges.

    Gaussian times (1 + γ₁/6·He₃(z) + γ₂/24·He₄(z)) with probabilists'
    Hermite polynomials, evaluated at bin midpoints, clipped at zero and
    renormalized.
    """
    edges = np.asarray(grid, dtype=float).ravel()
    if stats.sigma2 <= 0 or stats.gamma1 is None:
        raise ValueError("need a positive-variance summary")
    sigma = math.sqrt(stats.sigma2)
    z = ((edges[:-1] + edges[1:]) / 2.0 - stats.mu) / sigma
    he3 = z ** 3 - 3 * z
    he4 = z ** 4 - 6 * z ** 2 + 3
    base = np.exp(-z ** 2 / 2.0) / (sigma * math.sqrt(2 * math.pi))
    f = base * (1.0 + stats.gamma1 / 6.0 * he3 + stats.gamma2 / 24.0 * he4)
    masses = np.clip(f, 0.0, None) * np.diff(edges)
    if masses.sum() <= 0:
        raise ValueError("expansion vanished on this grid; widen the grid")
    return DensityEstimate(edges, masses)


def ks_distance(x: DensityEstimate, y: DensityEstimate) -> float:
    """Sup-norm distance between the piecewise linear CDFs of two densities."""
    pts = np.union1d(x.bin_edges, y.bin_edges)
    return float(np.abs(x.cdf(pts) - y.cdf(pts)).max())


def bin_edges(values, bins: Optional[int] = None) -> np.ndarray:
    """Equal-width bin edges over the range of a sample array.

    `bins` bins, or by default the Freedman–Diaconis count, ceil(range ·
    n^(1/3) / (2·IQR)) capped at ``_MAX_BINS``, with the quartiles the
    inverted-CDF order statistics (⌈q·n⌉-th smallest value).  With IQR 0
    the count is √n, within the same cap.  A constant sample gets the unit
    interval around its value, as one bin by default.
    """
    v = np.ravel(values)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
        bins = 1 if bins is None else bins
    if bins is None:
        q1, q3 = np.quantile(v, [0.25, 0.75], method="inverted_cdf")
        if q3 <= q1:
            bins = min(_MAX_BINS, round(math.sqrt(v.size)))
        else:
            width = 2.0 * (q3 - q1) / v.size ** (1.0 / 3.0)
            bins = int(np.clip(math.ceil((hi - lo) / width), 1, _MAX_BINS))
    return np.linspace(lo, hi, bins + 1)


def histogram(values, edges) -> DensityEstimate:
    """Mass-preserving binning of a sample array on ascending `edges`.

    Values outside the edges are clipped into the end bins, so the total
    mass is always preserved.
    """
    counts, _ = np.histogram(np.clip(np.ravel(values), edges[0], edges[-1]), bins=edges)
    return DensityEstimate(edges, counts)
