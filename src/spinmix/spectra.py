"""Empirical spectral measures, moment statistics, and the three convolutions.

The classical, isotropic and quantum convolutions are implemented as seeded
Monte Carlo pipelines over freshly drawn chains.  All three share the local
eigenvalue stream (common random numbers), so differences between ensembles
are rotation-driven rather than draw noise; each purpose uses its own child
stream, so requesting fewer ensembles never changes the others' output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import chain as chain_mod
from . import matgen
from .chain import (STREAM_CLASSICAL, STREAM_EXTRA, STREAM_ISO,
                    STREAM_LOCAL_EIGS, STREAM_LOCAL_VECS, ChainSpec)
from .rng import Rng

__all__ = [
    "EmpiricalMeasure",
    "MomentSummary",
    "DensityEstimate",
    "TrialPool",
    "summarize",
    "classical_convolve",
    "isotropic_convolve",
    "quantum_spectrum",
    "ensemble_pools",
    "ensemble_pools_multi",
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

    def moment(self, j: int) -> float:
        return float((self.values ** j) @ self.weights)

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
            sigma2 = max(sigma2, 0.0)
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

    @classmethod
    def from_values(cls, values, weights=None) -> "MomentSummary":
        v = np.asarray(values, dtype=float).ravel()
        if weights is None:
            raw = [float((v ** j).mean()) for j in (1, 2, 3, 4)]
        else:
            w = np.asarray(weights, dtype=float).ravel()
            w = w / w.sum()
            raw = [float((v ** j) @ w) for j in (1, 2, 3, 4)]
        return cls.from_raw_moments(*raw)

    def stat(self, name: str) -> Optional[float]:
        return getattr(self, name)


def summarize(measure: EmpiricalMeasure) -> MomentSummary:
    """Population moments of a weighted measure (no bias correction)."""
    return MomentSummary.from_values(measure.values, measure.weights)


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


def classical_convolve(a: EmpiricalMeasure, b: EmpiricalMeasure,
                       mode: str = "exact_cross", trials: int = 0,
                       rng: Optional[Rng] = None) -> EmpiricalMeasure:
    """Distribution of independent eigenvalue sums of two fixed measures.

    `exact_cross` forms all pairwise sums with product weights (duplicate
    atoms merged).  `mc` pools `trials` rounds of a_i + b_{π(i)} with a fresh
    uniform permutation π per round, which estimates the same measure.
    """
    if mode == "exact_cross":
        if a.values.size * b.values.size > _EXACT_CROSS_LIMIT:
            raise ValueError("support too large for exact_cross; use mode='mc'")
        sums = (a.values[:, None] + b.values[None, :]).ravel()
        wts = (a.weights[:, None] * b.weights[None, :]).ravel()
        uniq, inverse = np.unique(sums, return_inverse=True)
        return EmpiricalMeasure(uniq, np.bincount(inverse, weights=wts))
    if mode == "mc":
        if trials < 1 or rng is None:
            raise ValueError("mc mode needs trials >= 1 and an rng")
        if a.values.size != b.values.size:
            raise ValueError("mc mode needs equal support sizes")
        if not (np.allclose(a.weights, a.weights[0]) and np.allclose(b.weights, b.weights[0])):
            raise ValueError("mc mode assumes uniformly weighted atoms")
        gen = rng.substream(STREAM_CLASSICAL)
        m = a.values.size
        out = np.empty((trials, m))
        step = max(1, _CHUNK_BUDGET // m)
        for lo in range(0, trials, step):
            hi = min(trials, lo + step)
            perm = np.argsort(gen.random((hi - lo, m)), axis=1)
            out[lo:hi] = a.values[None, :] + b.values[perm]
        return EmpiricalMeasure.from_samples(out)
    raise ValueError(f"unknown mode {mode!r}")


def isotropic_convolve(a_diag, b_diag, beta: int, trials: int, rng: Rng) -> EmpiricalMeasure:
    """Pooled spectra of diag(a) + Q† diag(b) Q over Haar rotations Q."""
    a = np.asarray(a_diag, dtype=float).ravel()
    b = np.asarray(b_diag, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("diagonals must have equal length")
    m = a.size
    if m > chain_mod.dense_cap():
        raise ValueError(f"dimension {m} exceeds the dense cap")
    if trials < 1:
        raise ValueError("need trials >= 1")
    out = np.empty((trials, m))
    step = _chunk_trials(m, trials)
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        gen = rng.substream(STREAM_ISO, lo)
        q = matgen.haar_batch(m, beta, gen, hi - lo)
        mats = _rotate_diag(q, np.broadcast_to(b, (hi - lo, m)))
        mats[:, np.arange(m), np.arange(m)] += a
        out[lo:hi] = np.linalg.eigvalsh(mats)
    return EmpiricalMeasure.from_samples(out)


def _rotate_diag(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Q† diag(b) Q as one stacked matmul, for every order."""
    return np.matmul(q.conj().swapaxes(-1, -2) * b[:, None, :], q)


def _rotate_dense(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Batched Q† M Q; `mats` may be one matrix shared by the whole batch."""
    return q.conj().swapaxes(-1, -2) @ mats @ q


def quantum_spectrum(spec: ChainSpec, trials: int, rng: Rng) -> EmpiricalMeasure:
    """Pooled exact spectra of freshly drawn chains."""
    pools = ensemble_pools(spec, trials, rng, kinds=("quantum",), keep_samples=True)
    return pools["quantum"].measure()


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

    def block_summaries(self):
        out = []
        for sums, cnt in zip(self.block_sums, self.block_counts):
            if cnt > 0:
                out.append(MomentSummary.from_raw_moments(*(sums / cnt)))
        return out

    def block_values(self, stat: str) -> np.ndarray:
        vals = [s.stat(stat) for s in self.block_summaries()]
        if any(v is None for v in vals):
            raise ValueError(f"{stat} undefined in at least one block")
        return np.array(vals, dtype=float)

    def stderr(self, stat: str) -> float:
        vals = self.block_values(stat)
        if vals.size < 2:
            return float("nan")
        return float(vals.std(ddof=1) / math.sqrt(vals.size))


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
    """
    spec._require_nearest_neighbor()
    spec.check_dense_cap()
    if trials < 1:
        raise ValueError("need trials >= 1")
    for k in kinds:
        if k not in ("classical", "iso", "quantum"):
            raise ValueError(f"unknown ensemble kind {k!r}")
    m = spec.m
    n_blocks = min(n_blocks, trials)
    need_dense = "quantum" in kinds
    pools = {k: _new_pool(k, m, trials, n_blocks, keep_samples) for k in kinds}
    step = _chunk_trials(m, trials)
    diag_idx = np.arange(m)
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        c = hi - lo
        evals, dense = chain_mod.draw_local_batch(
            spec, c, rng.substream(STREAM_LOCAL_EIGS, lo),
            vec_gen=rng.substream(STREAM_LOCAL_VECS, lo), need_dense=need_dense)
        a = b = None
        if "classical" in kinds or "iso" in kinds:
            a, b = chain_mod.diagonals_from_eigs(evals, spec)
        if "classical" in kinds:
            perm = np.argsort(rng.substream(STREAM_CLASSICAL, lo).random((c, m)), axis=1)
            vals = a + np.take_along_axis(b, perm, axis=1)
            _accumulate(pools["classical"], vals, lo, n_blocks)
        if "iso" in kinds:
            q = matgen.haar_batch(m, spec.beta, rng.substream(STREAM_ISO, lo), c)
            mats = _rotate_diag(q, b)
            mats[:, diag_idx, diag_idx] += a
            _accumulate(pools["iso"], np.linalg.eigvalsh(mats), lo, n_blocks)
        if "quantum" in kinds:
            h = chain_mod.embed_sum_batch(dense, spec)
            _accumulate(pools["quantum"], np.linalg.eigvalsh(h), lo, n_blocks)
    return pools


def ensemble_pools_multi(spec: ChainSpec, trials: int, rng: Rng,
                         kinds: Sequence[str] = ("classical", "iso", "quantum"),
                         keep_samples: bool = False, n_blocks: int = 50):
    """Range-L variant: every embedded summand treated independently.

    classical: sum of independently permuted embedded spectra; iso: sum of
    independently Haar-rotated embedded terms (the all-isotropic
    approximation used in place of a mixture when L > 2); quantum: the chain.
    """
    spec.check_dense_cap()
    if trials < 1:
        raise ValueError("need trials >= 1")
    m, nb, nloc = spec.m, spec.n_bonds, spec.local_dim
    n_blocks = min(n_blocks, trials)
    copies = m // nloc
    pools = {k: _new_pool(k, m, trials, n_blocks, keep_samples) for k in kinds}
    step = _chunk_trials(m, trials)
    diag_idx = np.arange(m)
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        c = hi - lo
        evals, dense = chain_mod.draw_local_batch(
            spec, c, rng.substream(STREAM_LOCAL_EIGS, lo),
            vec_gen=rng.substream(STREAM_LOCAL_VECS, lo),
            need_dense=("quantum" in kinds) or ("iso" in kinds))
        if "classical" in kinds:
            gen = rng.substream(STREAM_CLASSICAL, lo)
            vals = np.zeros((c, m))
            embedded = np.repeat(evals, copies, axis=2)  # multiset only; order randomized next
            for i in range(nb):
                perm = np.argsort(gen.random((c, m)), axis=1)
                vals += np.take_along_axis(embedded[:, i], perm, axis=1)
            _accumulate(pools["classical"], vals, lo, n_blocks)
        if "iso" in kinds:
            gen = rng.substream(STREAM_ISO, lo)
            mats = np.zeros((c, m, m), dtype=dense.dtype)
            for i in range(nb):
                q = matgen.haar_batch(m, spec.beta, gen, c)
                emb = chain_mod.embed_sum_batch(dense[:, i:i + 1], spec, [i + 1])
                mats += _rotate_dense(q, emb)
            _accumulate(pools["iso"], np.linalg.eigvalsh(mats), lo, n_blocks)
        if "quantum" in kinds:
            h = chain_mod.embed_sum_batch(dense, spec)
            _accumulate(pools["quantum"], np.linalg.eigvalsh(h), lo, n_blocks)
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
    block_sums = np.zeros(n_blocks)
    block_cnt = np.zeros(n_blocks, dtype=np.int64)
    step = _chunk_trials(m, trials)
    pure_diag = all(s == "a" for s, _ in word) or rotation == "permutation"
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        c = hi - lo
        need_dense = rotation == "quantum"
        evals, dense = chain_mod.draw_local_batch(
            spec, c, rng.substream(STREAM_LOCAL_EIGS, lo),
            vec_gen=rng.substream(STREAM_LOCAL_VECS, lo), need_dense=need_dense)
        a, b = chain_mod.diagonals_from_eigs(evals, spec)
        if pure_diag:
            if rotation == "permutation" and any(s == "b" for s, _ in word):
                perm = np.argsort(rng.substream(STREAM_CLASSICAL, lo).random((c, m)), axis=1)
                b_eff = np.take_along_axis(b, perm, axis=1)
            else:
                b_eff = b
            prod = np.ones((c, m))
            for s, p in word:
                prod *= (a if s == "a" else b_eff) ** p
            vals = prod.mean(axis=1)
        elif rotation == "haar":
            q = matgen.haar_batch(m, spec.beta, rng.substream(STREAM_ISO, lo), c)
            vals = _word_value_dense(word, a, lambda p: _rotate_diag(q, b ** p), c, m)
        else:
            h_odd = chain_mod.embed_sum_batch(
                dense[:, [l - 1 for l in spec.odd_bonds]], spec, spec.odd_bonds)
            h_even = chain_mod.embed_sum_batch(
                dense[:, [l - 1 for l in spec.even_bonds]], spec, spec.even_bonds)
            # by cyclicity the structured-rotation word equals the same word
            # in the dense odd/even matrices in the computational basis
            vals = _word_value_two_dense(word, h_odd, h_even, c, m)
        ids = (np.arange(lo, hi) * n_blocks) // trials
        block_sums += np.bincount(ids, weights=vals, minlength=n_blocks)
        block_cnt += np.bincount(ids, minlength=n_blocks)
    mean = float(block_sums.sum() / trials)
    if not with_stderr:
        return mean
    bv = block_sums[block_cnt > 0] / block_cnt[block_cnt > 0]
    se = float(bv.std(ddof=1) / math.sqrt(bv.size)) if bv.size > 1 else float("nan")
    return mean, se


def _word_value_dense(word, a, b_power_fn, c, m):
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


def _word_value_two_dense(word, h_odd, h_even, c, m):
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
