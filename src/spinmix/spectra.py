"""Empirical spectral measures, moment statistics, and the three convolutions.

The classical, isotropic and quantum convolutions are implemented as seeded
Monte Carlo pipelines over freshly drawn chains.  All three share the local
eigenvalue stream (common random numbers), so differences between ensembles
are rotation-driven rather than draw noise; each purpose uses its own child
stream, so requesting fewer ensembles never changes the others' output.

Trials run in memory chunks of ``_chunk_trials`` trials, but a sampler opens
each child stream once per call, as ``rng.substream(purpose, j)`` with j = 0
or a bond index, and draws from it in trial-major order.  A run's numbers
therefore depend on its seed and trial count alone: not on
``_CHUNK_BUDGET``, and the first t trials of a longer run equal a t-trial
run.

Within a chunk the O(m³) per-trial kernels fan out over worker threads
(``_workers.map_trials``), each worker taking a contiguous slice of the
chunk's trials with OpenBLAS at one thread: the Haar QR loop inside
``matgen.haar_batch``, the rotation matmul in ``_rotate_diag``, and every
``eigvalsh`` of an m×m batch (``_eigvalsh``: isotropic, quantum and
range-L isotropic).  All random draws stay serial on the calling thread, in
trial-major order, and each trial is computed by the same kernel in any
slice, so the output does not depend on the worker count either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import chain as chain_mod
from . import matgen
from ._workers import map_trials
from .chain import (STREAM_CLASSICAL, STREAM_ISO, STREAM_LOCAL_EIGS,
                    STREAM_LOCAL_VECS, ChainSpec)
from .rng import Rng

__all__ = [
    "EmpiricalMeasure",
    "MomentSummary",
    "DensityEstimate",
    "TrialPool",
    "summarize",
    "classical_convolve",
    "isotropic_convolve",
    "ensemble_pools",
    "jackknife_stderr",
    "mixed_trace_mc",
    "gram_charlier_density",
    "ks_distance",
    "histogram",
]

_CHUNK_BUDGET = 1 << 23          # f8 elements per chunk-sized scratch array
_MAX_KEPT_VALUES = 1 << 27       # refuse sample retention beyond ~1 GiB
_EXACT_CROSS_LIMIT = 10**7


def _chunk_trials(m: int, trials: int) -> int:
    return int(max(1, min(trials, _CHUNK_BUDGET // (m * m), 8192)))


# ---------------------------------------------------------------------------
# measures and summaries


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted multiset of real eigenvalues, sorted, weights summing to 1."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("empty measure")
        if v.shape != w.shape:
            raise ValueError("values and weights must have the same length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        order = np.argsort(v, kind="stable")
        object.__setattr__(self, "values", v[order])
        object.__setattr__(self, "weights", w[order] / total)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalMeasure":
        v = np.asarray(samples, dtype=float).ravel()
        return cls(v, np.full(v.size, 1.0 / v.size))

    def mean(self) -> float:
        return float(self.values @ self.weights)

    def variance(self) -> float:
        mu = self.mean()
        return float(((self.values - mu) ** 2) @ self.weights)

    def cdf(self, x) -> np.ndarray:
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return np.concatenate([[0.0], cum])[idx]

    def cdf_left(self, x) -> np.ndarray:
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="left")
        return np.concatenate([[0.0], cum])[idx]


_UNDEFINED_TOL = 1e-14


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
        m1 = k1
        m2 = k2 + k1 ** 2
        m3 = k3 + 3 * k2 * k1 + k1 ** 3
        m4 = k4 + 4 * k3 * k1 + 3 * k2 ** 2 + 6 * k2 * k1 ** 2 + k1 ** 4
        return cls.from_raw_moments(m1, m2, m3, m4)

    def stat(self, name: str) -> Optional[float]:
        return getattr(self, name)


def summarize(measure: EmpiricalMeasure) -> MomentSummary:
    """Population moments of a weighted measure (no bias correction)."""
    v, w = measure.values, measure.weights
    return MomentSummary.from_raw_moments(*(float((v ** j) @ w) for j in (1, 2, 3, 4)))


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

    def midpoints(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    def cdf(self, x) -> np.ndarray:
        # mass spread uniformly within each bin -> piecewise linear CDF
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        return np.interp(np.asarray(x, dtype=float), self.bin_edges, cum,
                         left=0.0, right=1.0)


# ---------------------------------------------------------------------------
# measure-level convolutions


def classical_convolve(a: EmpiricalMeasure, b: EmpiricalMeasure) -> EmpiricalMeasure:
    """Distribution of independent eigenvalue sums of two fixed measures.

    Forms all pairwise sums with product weights (duplicate atoms merged).
    """
    if a.values.size * b.values.size > _EXACT_CROSS_LIMIT:
        raise ValueError("support too large for the exact cross convolution")
    sums = (a.values[:, None] + b.values[None, :]).ravel()
    wts = (a.weights[:, None] * b.weights[None, :]).ravel()
    uniq, inverse = np.unique(sums, return_inverse=True)
    return EmpiricalMeasure(uniq, np.bincount(inverse, weights=wts))


def isotropic_convolve(a_diag, b_diag, beta: int, trials: int, rng: Rng) -> EmpiricalMeasure:
    """Pooled spectra of diag(a) + Q† diag(b) Q over Haar rotations Q."""
    a = np.asarray(a_diag, dtype=float).ravel()
    b = np.asarray(b_diag, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("diagonals must have equal length")
    m = a.size
    if m > chain_mod.dense_cap():
        raise ValueError(f"dimension {m} exceeds the dense cap")
    gen = rng.substream(STREAM_ISO, 0)
    out = [_iso_eigs(matgen.haar_batch(m, beta, gen, hi - lo), a,
                     np.broadcast_to(b, (hi - lo, m)))
           for lo, hi in _chunks(m, trials)]
    return EmpiricalMeasure.from_samples(np.concatenate(out))


def _rotate_diag(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Q† diag(b) Q as stacked matmuls, one per worker's trial slice."""
    out = np.empty(q.shape, dtype=np.result_type(q, b))

    def rotate(lo, hi):
        np.matmul(q[lo:hi].conj().swapaxes(-1, -2) * b[lo:hi, None, :], q[lo:hi],
                  out=out[lo:hi])

    map_trials(rotate, q.shape[0])
    return out


def _rotate_dense(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Batched Q† M Q; `mats` may be one matrix shared by the whole batch."""
    return q.conj().swapaxes(-1, -2) @ mats @ q


def _iso_eigs(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The isotropic kernel: eigenvalues of diag(a) + Q† diag(b) Q per trial."""
    mats = _rotate_diag(q, b)
    diag = np.arange(mats.shape[-1])
    mats[:, diag, diag] += a
    return _eigvalsh(mats)


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, split by trial slice."""
    out = np.empty(mats.shape[:-1])

    def eig(lo, hi):
        out[lo:hi] = np.linalg.eigvalsh(mats[lo:hi])

    map_trials(eig, mats.shape[0])
    return out


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


def _local_draws(spec: ChainSpec, trials: int, rng: Rng, need_dense: bool):
    """Yield (lo, evals, dense) of the bond draws, one memory chunk at a time.

    Both local streams are opened once and drawn trial-major, so the draws
    do not depend on where the chunk boundaries fall.
    """
    eig_gen = rng.substream(STREAM_LOCAL_EIGS, 0)
    vec_gen = rng.substream(STREAM_LOCAL_VECS, 0)
    for lo, hi in _chunks(spec.m, trials):
        evals, dense = chain_mod.draw_local_batch(spec, hi - lo, eig_gen, vec_gen=vec_gen,
                                                  need_dense=need_dense)
        yield lo, evals, dense


# ---------------------------------------------------------------------------
# ensemble pipelines


@dataclass
class TrialPool:
    """Accumulated spectra of one convolution ensemble across trials."""

    kind: str
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

    def measure(self) -> EmpiricalMeasure:
        if self.samples is None:
            raise ValueError("pool was accumulated without sample retention")
        return EmpiricalMeasure.from_samples(self.samples)

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


def _new_pool(kind, m, trials, n_blocks, keep_samples):
    samples = None
    if keep_samples:
        if trials * m > _MAX_KEPT_VALUES:
            raise ValueError("sample retention would exceed the memory guard; "
                             "use keep_samples=False")
        samples = np.empty((trials, m))
    return TrialPool(kind, m, trials, np.zeros(4), np.zeros((n_blocks, 4)),
                     np.zeros(n_blocks, dtype=np.int64), samples)


def _accumulate(pool: TrialPool, vals: np.ndarray, lo: int, n_blocks: int):
    c, m = vals.shape
    ids = (np.arange(lo, lo + c) * n_blocks) // pool.trials
    powers = vals
    for j in range(4):
        if j:
            powers = powers * vals
        row = powers.sum(axis=1)
        pool.moment_sums[j] += row.sum()
        pool.block_sums[:, j] += np.bincount(ids, weights=row, minlength=n_blocks)
    pool.block_counts += np.bincount(ids, minlength=n_blocks) * m
    if pool.samples is not None:
        pool.samples[lo:lo + c] = vals


def ensemble_pools(spec: ChainSpec, trials: int, rng: Rng,
                   kinds: Sequence[str] = ("classical", "iso", "quantum"),
                   keep_samples: bool = False, n_blocks: int = 50):
    """Sample the classical/isotropic/quantum spectra of a chain ensemble.

    Returns {kind: TrialPool}.  Within a trial all ensembles share one draw
    of the local eigenvalues, so cross-ensemble differences (kurtosis gaps,
    mixture weights) are estimated with strongly reduced variance.

    For range L = 2 the classical and isotropic spectra are those of
    a + Π b and diag(a) + Q† diag(b) Q over the odd/even diagonals.  For
    L > 2 every embedded bond term is its own summand: classical sums
    independently permuted embedded spectra, isotropic sums independently
    Haar-rotated embedded terms (the all-isotropic approximation used in
    place of a mixture), each bond with its own stream.
    """
    spec.check_dense_cap()
    for k in kinds:
        if k not in ("classical", "iso", "quantum"):
            raise ValueError(f"unknown ensemble kind {k!r}")
    m, nearest = spec.m, spec.coupling_range == 2
    n_blocks = min(n_blocks, trials)
    pools = {k: _new_pool(k, m, trials, n_blocks, keep_samples) for k in kinds}
    # one stream per independently rotated summand
    n_streams = 1 if nearest else spec.n_bonds
    perm_gens = [rng.substream(STREAM_CLASSICAL, j) for j in range(n_streams)] \
        if "classical" in kinds else []
    haar_gens = [rng.substream(STREAM_ISO, j) for j in range(n_streams)] \
        if "iso" in kinds else []
    need_dense = "quantum" in kinds or (bool(haar_gens) and not nearest)
    for lo, evals, dense in _local_draws(spec, trials, rng, need_dense):
        c = evals.shape[0]
        if nearest and (perm_gens or haar_gens):
            a, b = chain_mod.diagonals_from_eigs(evals, spec)
        if perm_gens:
            if nearest:
                vals = a + _permuted(b, perm_gens[0])
            else:
                # the embedded spectra as multisets; the permutations set the order
                emb = np.repeat(evals, m // spec.local_dim, axis=2)
                vals = sum(_permuted(emb[:, i], g) for i, g in enumerate(perm_gens))
            _accumulate(pools["classical"], vals, lo, n_blocks)
        if haar_gens:
            if nearest:
                vals = _iso_eigs(matgen.haar_batch(m, spec.beta, haar_gens[0], c), a, b)
            else:
                vals = _eigvalsh(sum(
                    _rotate_dense(matgen.haar_batch(m, spec.beta, g, c),
                                  chain_mod.embed_sum_batch(dense[:, i:i + 1], spec, [i + 1]))
                    for i, g in enumerate(haar_gens)))
            _accumulate(pools["iso"], vals, lo, n_blocks)
        if "quantum" in kinds:
            h = chain_mod.embed_sum_batch(dense, spec)
            _accumulate(pools["quantum"], _eigvalsh(h), lo, n_blocks)
    return pools


# ---------------------------------------------------------------------------
# mixed trace words


def mixed_trace_mc(word, rotation: str, spec: ChainSpec, trials: int, rng: Rng,
                   with_stderr: bool = False):
    """Monte Carlo value of (1/m) E Tr of an alternating word in A and B.

    `word` is a sequence of (side, power) with side in {"a", "b"}; the "b"
    matrix is conjugated by the chosen rotation ensemble: an independent
    uniform permutation, a full Haar rotation, or the chain's structured
    bond-factor rotation.  Calls with the same rng share local draws across
    rotations, so ensemble differences can be estimated with common random
    numbers.
    """
    word = [(str(s), int(p)) for s, p in word]
    if not word:
        raise ValueError("word must be nonempty")
    for s, p in word:
        if s not in ("a", "b") or p < 1:
            raise ValueError("word entries must be ('a'|'b', power >= 1)")
    if rotation not in ("permutation", "haar", "quantum"):
        raise ValueError(f"unknown rotation {rotation!r}")
    spec._require_nearest_neighbor()
    spec.check_dense_cap()
    m = spec.m
    n_blocks = min(50, trials)
    pool = _new_pool("word", 1, trials, n_blocks, False)  # one value per trial
    # an A-only word never sees the rotation
    rotated = rotation if any(s == "b" for s, _ in word) else None
    if rotated == "permutation":
        perm_gen = rng.substream(STREAM_CLASSICAL, 0)
    elif rotated == "haar":
        haar_gen = rng.substream(STREAM_ISO, 0)
    for lo, evals, dense in _local_draws(spec, trials, rng, rotated == "quantum"):
        a, b = chain_mod.diagonals_from_eigs(evals, spec)
        c = a.shape[0]
        if rotated == "haar":
            q = matgen.haar_batch(m, spec.beta, haar_gen, c)
            vals = _word_value_dense(word, a, lambda p: _rotate_diag(q, b ** p), m)
        elif rotated == "quantum":
            h_odd, h_even = (chain_mod.embed_sum_batch(dense[:, [l - 1 for l in bonds]],
                                                       spec, bonds)
                             for bonds in (spec.odd_bonds, spec.even_bonds))
            # by cyclicity the structured-rotation word equals the same word
            # in the dense odd/even matrices in the computational basis
            vals = _word_value_two_dense(word, h_odd, h_even, m)
        else:
            if rotated == "permutation":
                b = _permuted(b, perm_gen)
            prod = np.ones((c, m))
            for s, p in word:
                prod *= (a if s == "a" else b) ** p
            vals = prod.mean(axis=1)
        _accumulate(pool, vals[:, None], lo, n_blocks)
    mean = pool.summary().mu
    return (mean, pool.stderr("mu")) if with_stderr else mean


def _word_value_dense(word, a, b_power_fn, m):
    cache = {}
    mat = None
    pend = None
    for s, p in word:
        if s == "a":
            v = a ** p
            pend = v if pend is None else pend * v
        else:
            if p not in cache:
                cache[p] = b_power_fn(p)
            bp = cache[p]
            if pend is not None:
                bp = pend[:, :, None] * bp
                pend = None
            mat = bp if mat is None else mat @ bp
    if mat is None:
        return pend.mean(axis=1)
    if pend is not None:
        return np.einsum("tii,ti->t", mat, pend).real / m
    return np.einsum("tii->t", mat).real / m


def _word_value_two_dense(word, h_odd, h_even, m):
    pow_cache = {("a", 1): h_odd, ("b", 1): h_even}

    def matpow(side, p):
        if (side, p) not in pow_cache:
            pow_cache[(side, p)] = pow_cache[(side, p - 1)] @ pow_cache[(side, 1)]
        return pow_cache[(side, p)]

    mat = None
    for s, p in word:
        term = matpow(s, p)
        mat = term if mat is None else mat @ term
    return np.einsum("tii->t", mat).real / m


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


def _breakpoints(obj) -> np.ndarray:
    if isinstance(obj, EmpiricalMeasure):
        return obj.values
    if isinstance(obj, DensityEstimate):
        return obj.bin_edges
    raise TypeError("expected an EmpiricalMeasure or DensityEstimate")


def _cdf_pair(obj, x):
    if isinstance(obj, EmpiricalMeasure):
        return obj.cdf(x), obj.cdf_left(x)
    c = obj.cdf(x)
    return c, c


def ks_distance(x, y) -> float:
    """Sup-norm distance between the CDFs of two measures/densities."""
    pts = np.union1d(_breakpoints(x), _breakpoints(y))
    fx_r, fx_l = _cdf_pair(x, pts)
    fy_r, fy_l = _cdf_pair(y, pts)
    return float(max(np.abs(fx_r - fy_r).max(), np.abs(fx_l - fy_l).max()))


def _weighted_quantile(values, weights, q):
    cum = np.cumsum(weights)
    return float(values[np.searchsorted(cum, q * cum[-1], side="left").clip(0, values.size - 1)])


def freedman_diaconis_edges(measure: EmpiricalMeasure, max_bins: int = 512) -> np.ndarray:
    lo, hi = float(measure.values[0]), float(measure.values[-1])
    if hi <= lo:
        return np.array([lo - 0.5, hi + 0.5])
    iqr = (_weighted_quantile(measure.values, measure.weights, 0.75)
           - _weighted_quantile(measure.values, measure.weights, 0.25))
    if iqr <= 0:
        nb = int(min(max_bins, max(1, round(math.sqrt(measure.values.size)))))
    else:
        width = 2.0 * iqr / measure.values.size ** (1.0 / 3.0)
        nb = int(np.clip(math.ceil((hi - lo) / width), 1, max_bins))
    return np.linspace(lo, hi, nb + 1)


def histogram(measure: EmpiricalMeasure, bins=None) -> DensityEstimate:
    """Mass-preserving binning; Freedman–Diaconis bin count by default.

    Out-of-range values (possible with explicit edges) are clipped into the
    end bins so that total mass is always preserved.
    """
    if bins is None or (isinstance(bins, str) and bins == "fd"):
        edges = freedman_diaconis_edges(measure)
    elif np.isscalar(bins):
        nb = int(bins)
        if nb < 1:
            raise ValueError("need at least one bin")
        lo, hi = float(measure.values[0]), float(measure.values[-1])
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, nb + 1)
    else:
        edges = np.asarray(bins, dtype=float).ravel()
        if edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit edges must be ascending with >= 2 entries")
    vals = np.clip(measure.values, edges[0], edges[-1])
    masses, _ = np.histogram(vals, bins=edges, weights=measure.weights)
    return DensityEstimate(edges, masses)
