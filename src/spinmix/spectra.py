"""The three spectra of a chain ensemble, their moments, and their densities.

The classical, isotropic and quantum convolutions are sampled over freshly
drawn chains from a seed.  All three share the local eigenvalue stream
(common random numbers), so differences between ensembles are
rotation-driven rather than draw noise.  Each purpose draws from its own
child stream, so no pool's numbers depend on how many draws another pool
took.

Trials run in memory chunks of ``_chunk_trials`` trials, but a sampler opens
each child stream once per call, as ``rng.substream(purpose, j)`` with j = 0
or a summand index, and draws from it in trial-major order.  A run's numbers
therefore depend on its seed and trial count alone: not on
``_CHUNK_BUDGET``, and the first t trials of a longer run equal a t-trial
run.

Each chunk's sums are folded into the pools in trial order, so the pooled
and block sums do not depend on the chunks either, bit for bit.

Within a chunk the per-trial kernels fan out over worker threads
(``_workers.map_trials``), each slice a contiguous run of the chunk's
trials with OpenBLAS at one thread, walked in sub-blocks of at most
``_workers._SUB_BLOCK`` array elements, which bounds its temporaries.  A
chunk that fits in one sub-block is one slice, run on the calling thread.
The moment sums are one pass per chunk (``_moment_pass``): each sub-block
forms its trials' bond terms from the draws, centres them, and reduces
them to every pool's Σλ¹…Σλ⁴ (``_trial_sums``) while they are in cache,
with its window stacks in per-thread scratch (``_workers._scratch``) that
is reused across sub-blocks and calls.  The kept samples' m×m rotations
and eigensolves fan out on their own.  All random draws stay serial on the
calling thread, in trial-major order, and each trial is computed by the
same kernel in any slice or sub-block, so the output does not depend on
the worker count either.

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
* The quantum sums are exact: the chain's cumulants from windows of at most
  3(L−1)+1 bonds (``_trial_sums``), which never form the chain's m×m
  matrix once it has more bonds than a window.

Only kept samples (``keep_samples=True``, as ``spinmix run`` makes) are
Monte Carlo: summand i is permuted on the child stream
``(STREAM_CLASSICAL, i − 1)`` and rotated on ``(STREAM_ISO, i − 1)``, and
every m×m isotropic and quantum matrix is formed (``_iso_mats``,
``chain.embed_sum_batch``) and diagonalised (``_eigvalsh``).  The moment
sums never read the samples, so both routes give the same moment and block
sums, bit for bit.

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
from ._workers import _scratch, _sub_blocks, map_trials
from .chain import (STREAM_CLASSICAL, STREAM_ISO, STREAM_LOCAL_EIGS,
                    STREAM_LOCAL_VECS, ChainSpec)
from .rng import Rng

__all__ = [
    "MomentSummary",
    "DensityEstimate",
    "TrialPool",
    "ensemble_pools",
    "jackknife_stderr",
    "gram_charlier_density",
    "ks_distance",
    "bin_edges",
    "histogram",
]

_CHUNK_BUDGET = 1 << 23          # f8 elements per chunk-sized scratch array
_MAX_KEPT_VALUES = 1 << 27       # refuse sample retention beyond ~1 GiB
_N_BLOCKS = 50                   # jackknife blocks (fewer when trials < 50)
_MAX_BINS = 512                  # cap on the Freedman–Diaconis bin count


def _chunk_trials(m: int, trials: int) -> int:
    return int(max(1, min(trials, _CHUNK_BUDGET // (m * m), 8192)))


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


def _rotate_diag(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Q† diag(b) Q, fanned out over the workers' trial slices."""
    out = np.empty(q.shape, dtype=np.result_type(q, b))

    def rotate(lo, hi):
        for s, e in _sub_blocks(lo, hi, q.shape[-1] ** 2):
            np.matmul(q[s:e].conj().swapaxes(-1, -2) * b[s:e, None, :], q[s:e], out=out[s:e])

    map_trials(rotate, q.shape[0], q.shape[-1] ** 2)
    return out


def _iso_mats(summands, rotations) -> np.ndarray:
    """The isotropic matrices diag(s₀) + Σ_{i≥1} Q_i† diag(s_i) Q_i, one per trial.

    `summands` holds at least two diagonals s₀, s₁, …; `rotations` yields
    the Haar batches Q₁, Q₂, … in turn.  Each further rotation is added in
    place into the first one's output; when `rotations` draws lazily no Q
    outlives its rotation, so the sum, one Q and one rotated stack are the
    most held at once.
    """
    qs = iter(rotations)
    mats = _rotate_diag(next(qs), summands[1])
    for s in summands[2:]:
        mats += _rotate_diag(next(qs), s)
    diag = np.arange(mats.shape[-1])
    mats[:, diag, diag] += summands[0]
    return mats


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, split by trial slice."""
    out = np.empty(mats.shape[:-1])

    def eig(lo, hi):
        out[lo:hi] = np.linalg.eigvalsh(mats[lo:hi])

    map_trials(eig, mats.shape[0], mats.shape[-1] ** 2)
    return out


def _power_sums(mats: np.ndarray, sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Σλ¹…Σλ⁴ of each Hermitian matrix in a stack, as a (count, 4) array.

    They are tr M, ⟨M, M⟩, ⟨M², M⟩ and ⟨M², M²⟩ with the real part of the
    conjugated inner product, so one M² per matrix replaces an eigvalsh.
    M² is written into `sq` when it is given.
    """
    def inner(x, y):
        # a complex array viewed as float pairs gives Re Σ conj(x)·y; einsum
        # sums a lone long row in another order than a row of a stack, so a
        # lone row is reduced as a two-row stack
        x, y = (a.reshape(len(a), -1).view(np.float64) for a in (x, y))
        if len(x) == 1:
            return np.einsum("ij,ij->i", np.vstack([x, x]), np.vstack([y, y]))[:1]
        return np.einsum("ij,ij->i", x, y)

    sq = np.matmul(mats, mats, out=sq)
    return np.stack([np.trace(mats, axis1=1, axis2=2).real, inner(mats, mats),
                     inner(sq, mats), inner(sq, sq)], axis=-1)


def _window_width(spec: ChainSpec) -> int:
    """Bonds in a quantum window: 3(L−1)+1, or all of a shorter chain's."""
    return min(spec.n_bonds, 3 * (spec.coupling_range - 1) + 1)


def _window_cumulants(bonds: np.ndarray, spec: ChainSpec, width: int) -> np.ndarray:
    """κ₂, κ₃, κ₄ summed over the windows of `width` consecutive centred bonds.

    `bonds` is (count, nb, d^L, d^L); returns (count, 3).  The windows are
    embedded in one call, stacked on the batch axis, as chains of width +
    L − 1 sites: τ of an embedded product is the same on any chain that
    holds it, and a centred window has mean 0, so κ₂ = μ₂, κ₃ = μ₃ and
    κ₄ = μ₄ − 3μ₂².  The window stack and its square are this thread's
    scratch.
    """
    sub = dataclasses.replace(spec, n_sites=width + spec.coupling_range - 1)
    count, nloc = bonds.shape[0], bonds.shape[-1]
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(bonds, width, 1), -1, 2)
    windows = windows.reshape(-1, width, nloc, nloc)
    shape = (len(windows), sub.m, sub.m)
    mats = chain_mod.embed_sum_batch(windows, sub, _scratch("windows", shape, bonds.dtype))
    mu = _power_sums(mats, _scratch("square", shape, bonds.dtype)).reshape(count, -1, 4) / sub.m
    kappa = np.stack([mu[..., 1], mu[..., 2], mu[..., 3] - 3 * mu[..., 1] ** 2], axis=-1)
    # a left fold over the positions, the same for a trial in any sub-block
    return sum(kappa[:, i] for i in range(kappa.shape[1]))


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
    the one window is the chain.  The classical and isotropic sums are
    ``_conditional_power_sums`` of the bond moments.
    """
    width = _window_width(spec)
    bonds, c = _bond_moments(dense)
    kappa = _window_cumulants(c, spec, width)
    if width < spec.n_bonds:
        kappa -= _window_cumulants(c[:, 1:-1], spec, width - 1)
    quantum = spec.m * np.stack(_raw_moments(bonds[..., 0].sum(axis=1), *kappa.T), axis=-1)
    return np.stack([*_conditional_power_sums(bonds, spec), quantum])


def _moment_pass(spec: ChainSpec, evals, factors):
    """One chunk's per-trial sums, (3, count, 4), and its bond terms.

    `evals` and `factors` are ``chain._draw_bonds``'s draws.  One fan-out
    walks the trials in sub-blocks; each forms its bond terms
    (``chain._bond_terms``) into the returned (count, n_bonds, d^L, d^L)
    array, which the kept route reads, and reduces them (``_trial_sums``)
    while they are in cache.  A sub-block holds at most ``_SUB_BLOCK``
    elements of quantum windows.
    """
    count, nb, nloc = factors.shape[0], spec.n_bonds, spec.local_dim
    width = _window_width(spec)
    size = (nb - width + 1) * spec.site_dim ** (2 * (width + spec.coupling_range - 1))
    dense = np.empty((count, nb, nloc, nloc), dtype=factors.dtype)
    sums = np.empty((3, count, 4))

    def reduce(lo, hi):
        for s, e in _sub_blocks(lo, hi, size):
            chain_mod._bond_terms(spec, None if evals is None else evals[s:e], factors[s:e],
                                  dense[s:e])
            sums[:, s:e] = _trial_sums(dense[s:e], spec)

    map_trials(reduce, count, size)
    return sums, dense


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


def _permuted(x: np.ndarray, gen) -> np.ndarray:
    """Every row of `x` under its own uniform random permutation."""
    return np.take_along_axis(x, np.argsort(gen.random(x.shape), axis=1), axis=1)


# ---------------------------------------------------------------------------
# the trial loop


def _chunks(m: int, trials: int):
    """(lo, hi) trial ranges of the memory chunks; the only chunk loop."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    step = _chunk_trials(m, trials)
    for lo in range(0, trials, step):
        yield lo, min(trials, lo + step)


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


def jackknife_stderr(pools, fn) -> float:
    """Delete-one-block jackknife s.e. of fn(summaries), one MomentSummary per pool.

    The pools must come from one sampler call, so that they share their
    blocks; each replicate leaves the same trials out of every pool.  Unlike
    the spread of per-block statistics, this is the s.e. of the pooled
    estimate even when a block holds a single trial.
    """
    counts = pools[0].block_counts
    blocks = np.flatnonzero(counts)
    if blocks.size < 2:
        return float("nan")
    loo = []
    for i in blocks:
        value = fn([MomentSummary.from_raw_moments(
            *((p.moment_sums - p.block_sums[i]) / (p.count - counts[i]))) for p in pools])
        if value is None:
            raise ValueError("statistic undefined with a block left out")
        loo.append(value)
    loo, g = np.array(loo), blocks.size
    return float(math.sqrt((g - 1) / g * ((loo - loo.mean()) ** 2).sum()))


def _new_pool(m, trials, keep_samples):
    samples = None
    if keep_samples:
        if trials * m > _MAX_KEPT_VALUES:
            raise ValueError("sample retention would exceed the memory guard; "
                             "use keep_samples=False")
        samples = np.empty((trials, m))
    n_blocks = min(_N_BLOCKS, trials)
    return TrialPool(m, trials, np.zeros(4), np.zeros((n_blocks, 4)),
                     np.zeros(n_blocks, dtype=np.int64), samples)


def _accumulate(pool: TrialPool, sums: np.ndarray, lo: int):
    """Add the (count, 4) per-trial Σλ¹…Σλ⁴ of the trials from `lo` on."""
    c, n_blocks = sums.shape[0], pool.block_counts.size
    ids = (np.arange(lo, lo + c) * n_blocks) // pool.trials
    # a left fold in trial order, so the sums do not depend on the chunks
    pool.moment_sums[:] = np.cumsum(np.vstack([pool.moment_sums, sums]), axis=0)[-1]
    np.add.at(pool.block_sums, ids, sums)
    pool.block_counts += np.bincount(ids, minlength=n_blocks) * pool.matrix_dim


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

    The pools' moment sums are each trial's Σλ¹…Σλ⁴ given its local draw:
    the classical and isotropic ones averaged exactly over Π_i and Q_i
    (``_conditional_power_sums``), the quantum ones exact from cumulants of
    bond windows (``_trial_sums``).  They need no m×m matrix and so no
    dense cap.  `keep_samples` (``spinmix run``) also draws Π_i on stream
    ``(STREAM_CLASSICAL, i − 1)`` and Q_i on ``(STREAM_ISO, i − 1)``,
    diagonalises the isotropic and quantum matrices, and keeps every
    trial's eigenvalues as a row of each pool's ``samples``; the moment
    sums are the same on both routes, bit for bit.
    """
    if keep_samples:
        spec.check_dense_cap()
    m = spec.m
    pools = {k: _new_pool(m, trials, keep_samples) for k in ("classical", "iso", "quantum")}
    # both local streams are opened once and drawn trial-major, so the draws
    # do not depend on where the chunk boundaries fall
    eig_gen = rng.substream(STREAM_LOCAL_EIGS, 0)
    vec_gen = rng.substream(STREAM_LOCAL_VECS, 0)
    if keep_samples:
        # one stream per permuted or rotated summand s₁ … s_k
        rotated = range(len(spec.summand_bonds) - 1)
        perm_gens = [rng.substream(STREAM_CLASSICAL, j) for j in rotated]
        haar_gens = [rng.substream(STREAM_ISO, j) for j in rotated]
    # without samples the largest matrices are the quantum windows
    dim = m if keep_samples else spec.site_dim ** (_window_width(spec) + spec.coupling_range - 1)
    for lo, hi in _chunks(dim, trials):
        evals, factors = chain_mod._draw_bonds(spec, hi - lo, eig_gen, vec_gen)
        sums, dense = _moment_pass(spec, evals, factors)
        for pool, trial_sums in zip(pools.values(), sums):
            _accumulate(pool, trial_sums, lo)
        if not keep_samples:
            continue
        evals = np.linalg.eigvalsh(dense) if evals is None else evals    # Wishart, GOE
        summands = chain_mod.diagonals_from_eigs(evals, spec)
        vals = summands[0]
        for s, g in zip(summands[1:], perm_gens):
            vals = vals + _permuted(s, g)
        pools["classical"].samples[lo:hi] = vals
        if len(summands) == 1:                      # N = L: nothing to rotate
            pools["iso"].samples[lo:hi] = summands[0]
        else:
            # drawn lazily, so no Q outlives its rotation
            qs = (matgen.haar_batch(m, spec.beta, g, hi - lo) for g in haar_gens)
            pools["iso"].samples[lo:hi] = _eigvalsh(_iso_mats(summands, qs))
        pools["quantum"].samples[lo:hi] = _eigvalsh(chain_mod.embed_sum_batch(dense, spec))
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
