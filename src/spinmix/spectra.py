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
``_item_trials`` trials: as many as hold at most ``_ITEM_ELEMENTS`` array
elements of the stacks their trials hold (``_block_size``; one trial at
least), two m×m matrices a trial on the kept route, two layers of window
heads on the moments route.  The calling thread draws each item in trial
order, a worker runs ``_chunk_pass`` on it as soon as it is drawn, and
the calling thread folds the finished items into the pools in trial
order.  So a run holds the draws of at most 2 × workers items, and only
of as many as fit in ``_workers._FLIGHT_DRAWS`` elements, one at least,
which the stream counts from the arrays ``draw`` returns: this module
sizes an item, and the stream alone bounds the items in flight.  The
workers run only items in flight, each with its m×m stacks, so at large m
this also bounds how many of those stacks the kept route holds: three
one-trial items at m = 2048, and one at m = 4096.  The pooled and block
sums are the same left fold, bit for bit, whatever the items.
Each item forms its trials' bond terms once from the draws, as a (d^L,
d^L, n_bonds, count) array with the trial axis last
(``chain._bond_terms``), and reduces them to every pool's Σλ¹…Σλ⁴
(``_trial_sums``) while they are in cache, in three steps:

1. ``_bond_moments`` centres every bond's term and squares it, into a
   layer of per-thread scratch (``_workers._scratch``) that is reused
   across items and calls, and takes each bond's τ(h) and τ(c²),
   τ(c³), τ(c⁴).
2. The window heads are embedded window-last into the scratch's other
   layer, from strided views of the centred terms.
   ``_window_power_sums`` takes each head's and window's central sums:
   the last bond's centred term, square and power sums are views of step
   1's, and one transposed copy, the window axis moved from last to
   first, gives the (windows·count, n, n) stack on which H², trP(H³) and
   the Gram matrix of the heads' blocks stay batched matrix products.
3. ``_pool_sums`` turns the bonds' moments and the windows' sums into the
   three pools' cumulants and shifts their central moments by κ₁ into
   the raw sums, a few ops on (count,)-long rows for all pools at once.

Every bond-sized step runs on that layout as one elementwise op over
n_bonds·count or windows·count entries, and its temporaries are cut from
the scratch's free space.  A sum over a small axis is an explicit fold
whose order depends on the axis length alone (``_fold``), never numpy's
reduction, so a trial's sums do not depend on its item.  What a pass
reads from the chain alone, its windows, summands and constants, is worked
out once per chain (``_windows``).  The kept route reads the same terms
through a (count, n_bonds, d^L, d^L) view for its local ``eigvalsh`` and
m×m embed, and goes on to the samples.  Each trial is computed by the
same single-threaded kernel in any item, so the output does not depend
on the worker count either.

Each trial's spectrum is a sum of the diagonal summands s₀ … s_k of
``ChainSpec.summand_bonds``: the two parity classes at range L = 2, each
bond's embedded spectrum at L > 2.  The classical spectrum permutes, and
the isotropic one Haar-rotates, every summand after the first.  One
estimator gives every pool's moments: each trial adds its Σλ¹…Σλ⁴ given
its local draw.

* The classical and isotropic sums are their exact means over the
  permutations and rotations, closed forms in the bonds' cumulants
  (``_pool_sums``): traces of powers of each centred bond
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
built from Gaussians drawn on ``(STREAM_ISO, i − 1)``.  An item's pass
then diagonalises its Wishart or GOE bond terms, builds the summands, and
forms and diagonalises its m×m isotropic and quantum matrices in arrays
of its own.  The moment sums never read the samples, so both routes give
the same moment and block sums.

Densities are read from the kept sample arrays as they are: ``bin_edges``
picks equal-width edges (``--bins`` or Freedman–Diaconis), ``histogram``
bins a sample array on them, and ``ks_distance`` compares two densities.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import chain as chain_mod
from . import matgen
from ._workers import _scratch, stream
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

_ITEM_ELEMENTS = 1 << 18         # elements of a work item's stacks, at most (one trial at least)
_MAX_KEPT_VALUES = 1 << 27       # refuse sample retention beyond ~1 GiB
_MAX_VALUES = (1 << 63) - 1      # the value counts are int64
_N_BLOCKS = 50                   # jackknife blocks (fewer when trials < 50)
_MAX_BINS = 512                  # cap on the Freedman–Diaconis bin count


def _block_size(spec: ChainSpec, keep_samples: bool) -> int:
    """Elements a trial holds in its work item: 2·m², or 2 per element of its window heads.

    The kept pass holds two m×m stacks a trial (``_chunk_pass``): the
    embedded chains, which become the isotropic matrices, and the Haar
    matrices.  The moments pass holds two n×n layers for each of the
    n_bonds − s + 1 windows, n = d^(s+L−2) (``_trial_sums``): the heads
    window-last and then as a stack, their squares, and their blocks laid
    out as rows.  A transient of a step, as the rotation's Q†·diag(b), is
    not counted.
    """
    if keep_samples:
        return 2 * spec.m * spec.m      # no fewer than the heads' elements
    width = _window_width(spec)
    return 2 * (spec.n_bonds - width + 1) * spec.site_dim ** (2 * (width + spec.coupling_range - 2))


def _item_trials(spec: ChainSpec, keep_samples: bool, trials: int) -> int:
    """Trials per work item: as many as hold ``_ITEM_ELEMENTS`` elements, one at least."""
    return min(trials, max(1, _ITEM_ELEMENTS // _block_size(spec, keep_samples)))


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

    gamma1/gamma2 are None when the variance vanishes against the second
    moment, κ₂ ≤ 1e-14·|m₂| (a point mass at any scale), instead of
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
        if k2 <= _UNDEFINED_TOL * abs(m2):
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


def _inner(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re Σ conj(x)·y over each matrix of two stacks of one shape, into `out`: (count,).

    One dot per matrix, a batched product of its entries as a row by those
    of the other as a column, so a matrix sums alike in any stack; a
    complex array viewed as float pairs gives Re Σ conj(x)·y.
    """
    x, y = (a.reshape(len(a), 1, -1).view(np.float64) for a in (x, y))
    return np.matmul(x, y.swapaxes(-1, -2), out=out.reshape(-1, 1, 1))


# The kernels below keep the trial (or window) axis last: a (d^L, d^L, …)
# array holds one matrix entry per leading index pair and a long vector of
# trials behind it, so each step is one elementwise op over the trials.
# Their bond-sized temporaries are cut from a `spare` flat array when one
# is given and they fit (``_pieces``), so an item maps no fresh pages.


def _pieces(spare, dtype, *shapes):
    """Arrays of `shapes` cut one after another from the flat `spare`, then what is left.

    A shape that no longer fits, or every shape when `spare` is None, gets
    a fresh array.
    """
    if spare is not None:
        spare = spare.view(dtype)
    out = []
    for shape in shapes:
        size = math.prod(shape)
        if spare is not None and size <= spare.size:
            out.append(spare[:size].reshape(shape))
            spare = spare[size:]
        else:
            out.append(np.empty(shape, dtype))
    return (*out, spare)


def _fold(x: np.ndarray, out=None, overwrite: bool = False) -> np.ndarray:
    """Σ over the first axis, in an order fixed by its length alone: the trailing shape.

    Halves are added elementwise, an odd row onto the last sum, until two
    or three rows are left, into `x` itself when `overwrite`; the last
    adds go into `out` when it is given.  numpy's own reduction sums a lone
    trailing entry in another (pairwise) order, so a trial's sum would
    depend on how many trials share the array.
    """
    n = len(x)
    if n < 2:
        if out is None:
            return x[0] if n else np.zeros(x.shape[1:], x.dtype)
        out[...] = x[0] if n else 0
        return out
    while n > 3:
        half = n >> 1
        head = np.add(x[:half], x[half:2 * half], out=x[:half] if overwrite else None)
        if n & 1:
            head[-1] += x[n - 1]
        x, n, overwrite = head, half, True
    total = np.add(x[0], x[1], out=out)
    if n == 3:
        total += x[2]
    return total


def _dots(spare, *pairs, out=None) -> np.ndarray:
    """Re Σ conj(x)·y over the first axis for each pair (x, y): (len(pairs), …), into `out` if given.

    The pairs broadcast to one shape; their products share one array, cut
    from `spare`, so the pairs cost one fold.
    """
    shape = np.broadcast(*(a for pair in pairs for a in pair)).shape
    prod, _ = _pieces(spare, np.float64, (shape[0], len(pairs), *shape[1:]))
    for i, (x, y) in enumerate(pairs):
        if x.dtype.kind == "c":
            np.multiply(x.real, y.real, out=prod[:, i])
            prod[:, i] += x.imag * y.imag
        else:
            np.multiply(x, y, out=prod[:, i])
    return _fold(prod, np.empty(prod.shape[1:]) if out is None else out, overwrite=True)


def _matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """x·y of the matrices on the two leading axes into `out`, elementwise in the rest.

    A left fold over k; `term`, of the shape of `out`, holds each x[:, k]·y[k].
    """
    np.multiply(x[:, :1], y[None, 0], out=out)
    for k in range(1, len(y)):
        out += np.multiply(x[:, k, None], y[None, k], out=term)
    return out


def _diagonal(mats: np.ndarray) -> np.ndarray:
    """The diagonals of the matrices on the two leading (square) axes, as a view: (side, …)."""
    side = len(mats)
    return mats.reshape(side * side, *mats.shape[2:])[::side + 1]


def _centre(mats: np.ndarray) -> None:
    """Subtract from the matrices on the two leading axes their mean eigenvalue, in place."""
    diag = _diagonal(mats)
    diag -= _fold(diag) / len(diag)


def _window_power_sums(stack: np.ndarray, inner: np.ndarray, last: np.ndarray,
                       bond_sums: np.ndarray, site_dim: int, spare=None) -> np.ndarray:
    """Central Σ(λ − λ̄)²…⁴ of each head H and of its window H ⊗ I_d + I_P ⊗ h: (2, 3, count).

    `stack` is (2, count or more, n, n) scratch, and `inner`, an (n, n,
    count) view of its layer 1, holds the Hermitian heads with the window
    axis last, which are centred in place first.  `last` is (2, O·d, O·d,
    count): the centred h, whose first O sites are the head's last ones,
    so n = P·O, and h²; `bond_sums` is (3, count), tr h², tr h³ and tr h⁴.
    ``_bond_moments`` forms all three for every bond.  The bond-sized
    temporaries are cut from the flat `spare` (``_pieces``); `last` and
    `spare` may lie in layer 0, which the bond's steps are done with before
    the heads' overwrite it.

    With A = H ⊗ I_d and B = I_P ⊗ h, tr Mᵏ is a sum of words in A and B:
    tr Aᵏ = d·tr Hᵏ, tr Bᵏ = P·tr hᵏ, and every mixed word but one is
    tr(AᵖB^q) = Σ_ab trP(Hᵖ)[a,b]·trD(h^q)[b,a], with trP the partial trace
    over the head's first P and trD over the window's last site.  The one
    alternating word, tr(ABAB), needs the whole head, not a partial trace:
    it is Re Σ_abce GH[(a,b),(c,e)]·conj GB[(a,c),(b,e)], with GH and GB
    the Gram matrices of the O² blocks of H and of h.  It is where the
    quantum fourth moment departs from the classical and isotropic ones.

    Only H², trP(H³) and GH are batched matrix products: one transposed
    copy lays the heads out as a (count, n, n) stack in layer 0 for the
    first two, and a second lays out their blocks as rows in layer 1 for
    GH, once H² is done with.  Every other step, trD(h³) and GB among
    them, is elementwise on the window-last layout.  Every step is per
    window, so a head gets the same sums in any stack.
    """
    n, count, d = len(inner), inner.shape[-1], site_dim
    h, sq = last
    nloc = len(h)
    o = nloc // d
    p = n // o
    parts = np.empty((2, 3, o, o, count), h.dtype)       # trP(Hᵏ), trD(hᵏ), k = 1…3
    # the bond's side: trD(h^q)[a,b] = Σ_e h^q[(a,e),(b,e)] for q ≤ 2, and
    # trD(h³)[a,b] = Σ_ek h²[(a,e),k]·h[k,(b,e)]
    _fold(np.diagonal(last.reshape(2, o, d, o, d, count), 0, 2, 4).transpose(4, 0, 1, 2, 3),
          parts[1, :2])
    prod, _ = _pieces(spare, h.dtype, (d, nloc, o, o, count))
    np.multiply(sq.reshape(o, d, nloc, 1, count).transpose(1, 2, 0, 3, 4),
                h.reshape(nloc, 1, o, d, count).transpose(3, 0, 1, 2, 4), out=prod)
    _fold(prod.reshape(d * nloc, o, o, count), parts[1, 2], overwrite=True)
    # GB[(a,c),(b,e)] = Σ_fg h[(a,f),(c,g)]·conj h[(b,f),(e,g)], laid out [a,b,c,e]
    # as GH is, out of the scratch
    x = h.reshape(o, d, o, d, count).transpose(1, 3, 0, 2, 4)              # [f, g, a, c]
    prod, _ = _pieces(spare, h.dtype, (d, d, o, o, o, o, count))
    np.multiply(x[:, :, :, None, :, None], x.conj()[:, :, None, :, None, :], out=prod)
    gram_b = _fold(prod.reshape(d * d, -1, count), np.empty((o ** 4, count), h.dtype),
                   overwrite=True)
    # the head's side: trP(H)[a,b] = Σ_q H[(q,a),(q,b)], then the batched products
    _centre(inner)
    _fold(np.diagonal(inner.reshape(p, o, p, o, count), 0, 0, 2).transpose(3, 0, 1, 2),
          parts[0, 0])
    heads = stack[0, :count]
    heads[...] = inner.transpose(2, 0, 1)
    squares = np.matmul(heads, heads, out=stack[1, :count])
    sums = np.empty((2, 3, count))
    _inner(squares, squares, sums[0, 2])                    # tr H⁴ = ⟨H², H²⟩
    # trP(H³)[a,b] = Σ_iq conj H[i,(q,a)]·H²[i,(q,b)], H's columns grouped by
    # q; a complex H² is conjugated in place instead of H, and the product
    # conjugated back
    complex_ = np.iscomplexobj(heads)
    if complex_:
        np.conjugate(squares, out=squares)
    part3 = np.matmul(heads.reshape(count, -1, o).swapaxes(-1, -2), squares.reshape(count, -1, o))
    parts[0, 2] = (part3.conj() if complex_ else part3).transpose(1, 2, 0)
    # GH[(a,b),(c,e)] = Σ_pq H[(p,a),(q,b)]·conj H[(p,c),(q,e)], from H's
    # blocks laid out as rows; the conjugate is a copy even when real, as
    # numpy's X·Xᵀ (syrk) is slower than a gemm at these sizes
    x = stack[1, :count].reshape(count, o, o, p, p)
    x[...] = heads.reshape(count, p, o, p, o).transpose(0, 2, 4, 1, 3)
    x = x.reshape(count, o * o, p * p)
    gram = np.matmul(x, np.conjugate(x, out=heads.reshape(x.shape)).swapaxes(-1, -2))
    # trP(H²)[a,c] = Σ_b GH[(a,b),(c,b)]
    _fold(np.diagonal(gram.reshape(count, o, o, o, o), 0, 2, 4).transpose(3, 1, 2, 0),
          parts[0, 1])
    # tr H² and tr H³ are the traces of trP(H²) and trP(H³); tr(AᵖB^q) is the
    # real inner product of trP(Hᵖ) and trD(h^q), as trD(h^q) is Hermitian
    flat = parts.reshape(2, 3, o * o, count)
    _fold(flat[0, 1:, ::o + 1].transpose(1, 0, 2).real, sums[0, :2])
    abab = _dots(spare, (gram_b, gram.reshape(count, -1).T))[0]
    words = _dots(spare, (flat[1].transpose(1, 0, 2)[:, None],
                          flat[0].transpose(1, 0, 2)[:, :, None]))[0]     # [p, q]
    # tr Mᵏ = d·tr Hᵏ + P·tr hᵏ and the mixed words of tr M², tr M³ and tr M⁴:
    # the four of degree (2, 2) but ABAB and BABA are tr(A²B²)
    np.multiply(sums[0], d, out=sums[1])
    sums[1] += p * bond_sums
    sums[1, 0] += 2 * words[0, 0]
    sums[1, 1] += 3 * (words[1, 0] + words[0, 1])
    sums[1, 2] += 4 * (words[2, 0] + words[0, 2] + words[1, 1]) + 2 * abab
    return sums


def _window_width(spec: ChainSpec) -> int:
    """Bonds in a quantum window: 3(L−1)+1, or all of a shorter chain's."""
    return min(spec.n_bonds, 3 * (spec.coupling_range - 1) + 1)


@dataclass(frozen=True)
class _Windows:
    """What a chain's moments pass reads from its spec alone (``_windows``)."""

    width: int                  # bonds in a window
    side: int                   # a head's side, d^(width + L − 2)
    head: Optional[ChainSpec]   # a head's chain, on width + L − 2 sites; None at N = L
    sides: np.ndarray           # (2, 1, 1, 1): a head's side and a window's
    members: np.ndarray         # (n_bonds, summands, 1): 1 where the bond is in the summand
    iso: float                  # the isotropic κ₄'s factor on Σ_{i<j} S_i S_j


@functools.lru_cache(maxsize=64)
def _windows(spec: ChainSpec) -> _Windows:
    """The windows, summands and constants of `spec`'s moments pass, read-only."""
    width, d, m, beta = _window_width(spec), spec.site_dim, spec.m, spec.beta
    side = d ** (width + spec.coupling_range - 2)
    head = dataclasses.replace(spec, n_sites=width + spec.coupling_range - 2) if width > 1 else None
    members = np.zeros((spec.n_bonds, len(spec.summand_bonds), 1))
    for i, bonds in enumerate(spec.summand_bonds):
        members[bonds, i] = 1
    sides = np.array([side, side * d], float).reshape(2, 1, 1, 1)
    for a in (members, sides):
        a.flags.writeable = False
    # 2w·v_i·v_j with v_i = m/(m−1)·S_i and w = β(m−1)/(mβ+2) (``_pool_sums``)
    iso = 2 * beta * (m - 1) / (m * beta + 2) * (m / (m - 1)) ** 2
    return _Windows(width, side, head, sides, members, iso)


def _bond_moments(cs: np.ndarray, spare=None) -> np.ndarray:
    """Each bond's trace moments, with its term centred and squared in place.

    `cs` is a C-contiguous (2, d^L, d^L, …) stack whose layer 0 holds the
    terms h_l, the trial axis last.  Layer 0 becomes the c_l = h_l −
    τ(h_l)·I, with τ the normalised trace, and layer 1 the c_l².  Returns
    the (4, …) τ(h_l), τ(c_l²), τ(c_l³), τ(c_l⁴).  The temporaries are cut
    from `spare` (``_pieces``).
    """
    c, sq = cs
    nloc = len(c)
    moments = np.empty((4, *c.shape[2:]))
    diag = _diagonal(c)
    np.divide(_fold(diag.real), nloc, out=moments[0])
    diag -= moments[0]
    term, rest = _pieces(spare, c.dtype, c.shape)
    _matmul(c, c, sq, term)
    flat, square = (a.reshape(nloc * nloc, *c.shape[2:]) for a in (c, sq))
    _dots(rest, (flat, flat), (square, flat), (square, square), out=moments[1:])
    moments[1:] /= nloc
    return moments


def _trial_sums(terms: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Each trial's classical, isotropic and quantum Σλ¹…Σλ⁴: (3, 4, count).

    `terms` is (d^L, d^L, n_bonds, count) (``chain._bond_terms``).  The
    quantum cumulants κ₂…κ₄ expand multilinearly in the centred terms c_l
    (``_bond_moments``).  A tuple of terms that splits into two groups with
    disjoint supports contributes nothing: the groups commute, τ factorises
    over them and τ(c_l) = 0.  So only tuples of at most four bonds whose
    supports form a chain contribute, spanning at most s = 3(L−1)+1
    consecutive bonds, and the chain's cumulants are those of its s-bond
    windows summed, less those of the overlaps (s − 1 bonds) of neighbouring
    windows.  With n_bonds ≤ s the one window is the chain.

    The first s − 1 bonds of window j, its head, are the overlap of windows
    j − 1 and j.  So one stack of heads, embedded on s + L − 2 sites in this
    thread's scratch (``chain.embed_sum_batch``), gives both: each head's
    central sums serve its own window and, for every head but the first,
    an overlap.  Read with their bond and trial axes as one, the centred
    terms hold the bonds of window j at entries j·count on, so the heads'
    bonds and the windows' last bonds, with their squares, are strided
    views of the centred terms and squares, with the window and trial axes
    as one window-last axis.  A window is head ⊗ I_d plus its last bond on
    the last L sites, and ``_window_power_sums`` takes its sums from the
    head's powers and partial traces and from that bond, without forming
    it.  Of its words only tr(ABAB), where the head and the bond
    interleave, reads the whole head: that is the fourth-order departure
    of the quantum spectrum from the classical and isotropic ones.  At
    N = L the head is the empty sum on L − 1 sites.  ``_pool_sums`` turns
    the bond moments and the window sums into the three pools' sums.
    """
    win, nb, d, nloc = _windows(spec), spec.n_bonds, spec.site_dim, spec.local_dim
    count, width = terms.shape[-1], win.width
    windows = nb - width + 1
    # this thread's scratch: layer 0 holds the centred terms and their
    # squares, then the bond's and the heads' temporaries; layer 1 the bond
    # moments' temporaries, then the heads, window-last; so an item maps no
    # fresh pages where they fit.  The layers hold an odd number of
    # windows, so the window-last rows do not alias in the cache, which
    # slows the heads' transposed copy about threefold
    wc = windows * count
    stack = _scratch("heads", (2, wc | 1, win.side, win.side), terms.dtype)
    cs, spare = _pieces(stack[0].reshape(-1), terms.dtype, (2, nloc, nloc, nb * count))
    cs[0] = terms.reshape(nloc, nloc, -1)
    bonds = _bond_moments(cs, stack[1].reshape(-1))
    inner = stack[1].reshape(win.side, win.side, -1)[..., :wc]
    if width > 1:
        # head j's bond i is bond j + i, at entries (j + i)·count on
        row, col, entry = cs[0].strides
        dense = np.ndarray((wc, width - 1, nloc, nloc), cs.dtype, cs[0], 0,
                           (entry, count * entry, row, col))
        chain_mod.embed_sum_batch(dense, win.head, inner.transpose(2, 0, 1))
    else:
        inner[...] = 0
    start = (width - 1) * count
    sums = _window_power_sums(stack, inner, cs[..., start:], nloc * bonds[1:, start:], d, spare)
    return _pool_sums(bonds.reshape(4, nb, count), sums.reshape(2, 3, windows, count), spec)


def _pool_sums(bonds: np.ndarray, sums: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Each trial's classical, isotropic and quantum Σλ¹…Σλ⁴ from its cumulants: (3, 4, count).

    `bonds` is (4, n_bonds, count), each bond's τ(h), τ(c²), τ(c³), τ(c⁴)
    (``_bond_moments``), and `sums` (2, 3, windows, count), the central
    Σλ²…⁴ of each head and window (``_window_power_sums``), which this
    overwrites.  Every pool's κ₁ is the bonds' summed τ(h).

    * Classical: an eigenvalue is a sum of independent uniform draws, one
      from each bond's spectrum, so κ₂…κ₄ are the bonds' summed: τ(c²),
      τ(c³) and τ(c⁴) − 3τ(c²)².
    * Isotropic: the same κ₁…κ₃ (Matching Three Moments): E Q†SQ = τ(S)·I,
      so in a word of degree at most 4 a summand that appears once factors
      out, as it does classically.  Only the alternating words differ:
      E τ(S_i S_j S_i S_j) = τ(S_i²)τ(S_j²) − w·v_i·v_j with S_i = diag(s_i)
      rotated, w = β(m−1)/(mβ+2) and v_i = m/(m−1)·var(s_i), and τ(M⁴)
      holds two per pair.  var(s_i) is S_i, the τ(c²) of summand i's bonds
      summed.
    * Quantum: a centred window's κ₂, κ₃, κ₄ are μ₂, μ₃, μ₄ − 3μ₂², summed
      over the windows less the heads that are overlaps, every head but the
      first (``_trial_sums``).

    Every sum over bonds, summands or windows is a ``_fold``.  The raw sums
    are m times the central moments 1, 0, κ₂, κ₃, κ₄ + 3κ₂² shifted by κ₁.
    """
    win, count = _windows(spec), bonds.shape[-1]
    nb, summands = win.members.shape[:2]
    # central moments μ₀…μ₄ of each pool, shifted by κ₁ below; the
    # quantum κ₂…κ₄ first
    mu = np.empty((5, 3, count))
    mu[0], mu[1] = 1, 0
    k = np.divide(sums, win.sides, out=sums)
    square = np.square(k[:, 0])
    square *= 3
    k[:, 2] -= square
    k[1, :, 1:] -= k[0, :, 1:]
    _fold(k[1].swapaxes(0, 1), mu[2:, 2], overwrite=True)
    # the bonds' κ₁…κ₄ and each summand's S_i, in one fold over the bonds
    rows = np.empty((nb, 4 + summands, count))
    rows[:, :4] = bonds.swapaxes(0, 1)
    np.multiply(win.members, bonds[1, :, None], out=rows[:, 4:])
    square = np.square(bonds[1])
    square *= 3
    rows[:, 3] -= square
    kappa = _fold(rows, overwrite=True)
    mu[2:, :2] = kappa[1:4, None]
    # Σ_{i<j} S_i S_j, from the running sums of the S_i: S₀S₁ for the two
    # parity classes at L = 2
    s = kappa[4:]
    pairs = s[0] * s[1] if summands == 2 else _fold(s[1:] * np.cumsum(s, axis=0)[:-1])
    mu[4, 1] -= win.iso * pairs
    square = np.square(mu[2])
    square *= 3
    mu[4] += square
    # the raw moments: shifting by a = κ₁ takes μ_j to Σ_i C(j,i)·μ_i·a^(j−i),
    # four steps of μ_j += a·μ_(j−1), j descending
    a = kappa[0]
    for i in range(1, 5):
        mu[i:] += a * mu[i - 1:4]
    out = np.empty((3, 4, count))
    np.multiply(mu[1:], spec.m, out=out.swapaxes(0, 1))
    return out


def _chunk_pass(spec: ChainSpec, evals, factors, rows=None, keys=(), gaussians=()):
    """One work item's per-trial sums, (3, count, 4), and on the kept route its sample rows.

    `evals` and `factors` are ``chain._draw_bonds``'s draws.  On the kept
    route `rows` holds the item's classical, iso and quantum rows, which
    the pass fills, and `keys` and `gaussians` the (count, m) permutation
    keys and (count, m(m+1)/2) reflector Gaussians of each rotated summand.

    The pass forms the item's bond terms once, trial axis last
    (``chain._bond_terms``), and reduces them (``_trial_sums``) while they
    are in cache.  On the kept route it reads the same terms as a (count,
    n_bonds, d^L, d^L) view: it builds the summands s₀ … s_k from the
    bonds' eigenvalues, permutes each s_i by the argsort of its keys, and
    diagonalises the embedded chains and diag(s₀) + Σ Q_i† diag(s_i) Q_i
    (s₀ alone when nothing is rotated, N = L), in two m×m stacks, the
    chains and the Haar matrices.  Its bond terms, m×m stacks and m-long
    diagonal index are the item's, freed when it returns; the moments
    route makes no array of size m.
    """
    terms = chain_mod._bond_terms(spec, evals, factors)
    sums = _trial_sums(terms, spec).transpose(0, 2, 1)
    if rows is None:
        return sums
    classical, iso, quantum = rows
    h = terms.transpose(3, 2, 0, 1)
    summands = chain_mod.diagonals_from_eigs(
        np.linalg.eigvalsh(h) if evals is None else evals, spec)        # Wishart, GOE
    vals = summands[0]
    for b, k in zip(summands[1:], keys):
        vals = vals + np.take_along_axis(b, np.argsort(k, axis=1), axis=1)
    classical[...] = vals
    chains, haar = np.empty((2, len(factors), spec.m, spec.m), dtype=factors.dtype)
    mats = chain_mod.embed_sum_batch(h, spec, chains)
    quantum[...] = np.linalg.eigvalsh(mats)
    if not gaussians:                                   # N = L: nothing is rotated
        iso[...] = summands[0]
        return sums
    for i, (g, b) in enumerate(zip(gaussians, summands[1:])):
        q = matgen.haar_from_gaussians(g, haar)
        # the first rotation overwrites the chains, which are diagonalised
        rotated = _rotate_diag(q, b, None if i else mats)
        if i:
            mats += rotated
    diag = np.arange(spec.m)
    mats[:, diag, diag] += summands[0]
    iso[...] = np.linalg.eigvalsh(mats)
    return sums


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


@functools.lru_cache(maxsize=16)
def _block_counts(m, trials):
    """Each pool's value count in each jackknife block, (3, n_blocks), read-only."""
    n_blocks = min(_N_BLOCKS, trials)
    # trial i falls in block i·n_blocks // trials: block b starts at ⌈b·trials/n_blocks⌉
    starts = (np.arange(n_blocks + 1) * trials + n_blocks - 1) // n_blocks
    counts = np.tile((starts[1:] - starts[:-1]) * m, (3, 1))
    counts.flags.writeable = False
    return counts


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
    counts = _block_counts(m, trials).copy()
    stacked = TrialPool(m, trials, np.zeros((3, 4)), np.zeros((3, len(counts[0]), 4)), counts,
                        samples)
    rows = (stacked.moment_sums, stacked.block_sums, stacked.block_counts,
            samples if keep_samples else (None,) * 3)
    return stacked, {kind: TrialPool(m, trials, *(a[i] for a in rows))
                     for i, kind in enumerate(("classical", "iso", "quantum"))}


def _accumulate(pools: TrialPool, sums: np.ndarray, lo: int):
    """Fold the (3, count, 4) Σλ¹…Σλ⁴ of the trials from `lo` on, which it overwrites,
    into the stacked pools."""
    c, n_blocks = sums.shape[1], pools.block_sums.shape[1]
    # a left fold in trial order, so the sums do not depend on the items
    if n_blocks == pools.trials:                # a block per trial
        pools.block_sums[:, lo:lo + c] += sums
    else:
        ids = (np.arange(lo, lo + c) * n_blocks) // pools.trials
        np.add.at(pools.block_sums, (slice(None), ids), sums)
    sums[:, 0] += pools.moment_sums
    pools.moment_sums[:] = np.cumsum(sums, axis=1)[:, -1]


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
    dense cap; a call refuses only trials × m past 2⁶³ − 1 values, which
    the pools' int64 value counts cannot hold.  `keep_samples` (``spinmix
    run``) also keeps every trial's eigenvalues as a row of each pool's
    ``samples``.  The calling thread draws each work item's bonds and, on
    the kept route, Π_i's keys on stream ``(STREAM_CLASSICAL, i − 1)`` and
    Q_i's Gaussians on stream ``(STREAM_ISO, i − 1)``; a worker's
    ``_chunk_pass`` does the rest.  The calling thread holds the draws of
    the items in flight, as many as ``_workers.stream`` admits, but no m×m
    stack.
    """
    m = spec.m
    if trials < 1:
        raise ValueError("need trials >= 1")
    if trials * m > _MAX_VALUES:
        raise ValueError(f"{trials} trials of {m} eigenvalues are {trials * m} values, past "
                         f"the 2**63 - 1 that the pools' int64 value counts hold")
    if keep_samples:
        spec.check_dense_cap()
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
    stream(trials, _item_trials(spec, keep_samples, trials), draw, work, fold)
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
