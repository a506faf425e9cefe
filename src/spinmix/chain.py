"""Chain Hamiltonians: bond draws, the batched embedding, odd/even split.

A chain of N qudits of dimension d carries one random bond term per run of L
adjacent sites, n_bonds = N − L + 1 of them.  ``_draw_bonds`` makes a
chunk's random draws on the calling thread and ``_bond_terms`` forms the
Hermitian terms from them (``draw_local_batch`` does both).
``embed_sum_batch`` adds the embedded terms I ⊗ h ⊗ I of a batch of chains
into m×m matrices, m = d^N, without forming a Kronecker product.  At range
L = 2, bonds at odd positions mutually commute, as do bonds at even
positions, so each parity class is jointly diagonalizable;
``diagonals_from_eigs`` builds their diagonals a and b, the raw material for
the classical / isotropic / quantum convolutions in :mod:`spinmix.spectra`.
At L > 2 there is no such split, and each bond's embedded term is its own
summand, with the spectrum of h repeated d^(N−L) times.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import matgen

__all__ = [
    "DEFAULT_MAX_DIM",
    "LocalEnsemble",
    "ChainSpec",
]

DEFAULT_MAX_DIM = 4096
_MAX_DIM_ENV = "IE_MAX_DIM"

# substream purposes shared by all samplers; using separate child streams per
# purpose keeps each ensemble's output independent of which others ran
STREAM_LOCAL_EIGS = 0
STREAM_CLASSICAL = 1
STREAM_ISO = 2
STREAM_LOCAL_VECS = 3


@dataclass(frozen=True)
class LocalEnsemble:
    """Law of one bond term.  Use the constructors, not the raw fields."""

    kind: str
    rank: int = 0
    values: tuple = ()

    @classmethod
    def wishart(cls, rank: int) -> "LocalEnsemble":
        return cls("wishart", rank=rank)

    @classmethod
    def goe(cls) -> "LocalEnsemble":
        return cls("goe")

    @classmethod
    def pm1(cls, balanced: bool = False) -> "LocalEnsemble":
        """Haar eigenvectors with ±1 eigenvalues, iid signs by default.

        `balanced=True` pins the spectrum to exactly half +1 / half −1,
        which is a fixed-spectrum ensemble in disguise.
        """
        return cls("pm1_balanced" if balanced else "pm1")

    @classmethod
    def fixed_spectrum(cls, values) -> "LocalEnsemble":
        values = tuple(float(v) for v in values)
        if not all(map(math.isfinite, values)):
            raise ValueError("fixed spectrum values must be finite")
        return cls("fixed", values=values)

    def describe(self) -> str:
        if self.kind == "wishart":
            return f"wishart(r={self.rank})"
        if self.kind == "fixed":
            return f"fixed_spectrum(len={len(self.values)})"
        return self.kind


@dataclass(frozen=True)
class ChainSpec:
    """Full experiment description for one chain ensemble."""

    n_sites: int
    site_dim: int
    ensemble: LocalEnsemble
    beta: int = 1
    coupling_range: int = 2
    boundary: str = "open"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        if self.site_dim < 2:
            raise ValueError("site dimension must be >= 2")
        if not 2 <= self.coupling_range <= self.n_sites:
            raise ValueError("coupling range must satisfy 2 <= L <= N")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2 for sampling")
        if self.boundary != "open":
            raise ValueError("only open boundary conditions are supported")
        if self.ensemble.kind == "wishart" and not 1 <= self.ensemble.rank <= self.local_dim:
            raise ValueError("wishart rank must satisfy 1 <= r <= d^L")
        if self.ensemble.kind == "fixed" and len(self.ensemble.values) != self.local_dim:
            raise ValueError(f"fixed spectrum must have d^L = {self.local_dim} values")
        if self.ensemble.kind == "pm1_balanced" and self.local_dim % 2:
            raise ValueError("balanced ±1 spectrum needs even local dimension")

    # -- derived sizes ------------------------------------------------------
    @property
    def local_dim(self) -> int:
        return self.site_dim ** self.coupling_range

    @property
    def m(self) -> int:
        return self.site_dim ** self.n_sites

    @property
    def n_bonds(self) -> int:
        return self.n_sites - self.coupling_range + 1

    @property
    def odd_bonds(self) -> tuple:
        """1-based bond positions l = 1, 3, ... (L=2 only)."""
        self._require_nearest_neighbor()
        return tuple(range(1, self.n_sites, 2))

    @property
    def even_bonds(self) -> tuple:
        self._require_nearest_neighbor()
        return tuple(range(2, self.n_sites, 2))

    def _require_nearest_neighbor(self):
        if self.coupling_range != 2:
            raise ValueError("odd/even split is defined for L=2 only")

    def check_dense_cap(self):
        raw = os.environ.get(_MAX_DIM_ENV, str(DEFAULT_MAX_DIM))
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"the {_MAX_DIM_ENV} environment variable must be an integer, "
                             f"got {raw!r}") from None
        if self.m > cap:
            raise ValueError(
                f"dense dimension d^N = {self.m} exceeds the cap {cap}; "
                f"raise the {_MAX_DIM_ENV} environment variable")


# ---------------------------------------------------------------------------
# local term drawing


def draw_local_batch(spec: ChainSpec, count: int, gen, vec_gen=None):
    """Batched bond draws for Monte Carlo loops.

    Returns (evals, dense), dense of shape (count, n_bonds, d^L, d^L).  The
    spectral ensembles (pm1, balanced pm1, fixed) draw evals, (count,
    n_bonds, d^L) sorted ascending per bond, from `gen` and Haar
    eigenvectors from `vec_gen`, which only they need, so the eigenvalue
    stream does not depend on the eigenvectors.  Wishart and GOE terms are
    drawn whole from `gen` and returned undiagonalised, with evals None.
    """
    evals, factors = _draw_bonds(spec, count, gen, vec_gen)
    return evals, _bond_terms(spec, evals, factors)


def _draw_bonds(spec: ChainSpec, count: int, gen, vec_gen=None):
    """(evals, factors): `count` trials' bond draws, trial-major, for `_bond_terms`.

    factors are the Wishart w (count, n_bonds, r, d^L), the GOE Gaussians
    or the spectral ensembles' Haar eigenvectors (count, n_bonds, d^L, d^L).
    """
    ens, nb, nloc, beta = spec.ensemble, spec.n_bonds, spec.local_dim, spec.beta
    if ens.kind == "wishart":
        return None, matgen.gaussian_batch((count, nb, ens.rank, nloc), beta, gen)
    if ens.kind == "goe":
        return None, matgen.gaussian_batch((count, nb, nloc, nloc), beta, gen)
    if ens.kind in ("pm1", "pm1_balanced", "fixed"):
        if ens.kind == "pm1":
            evals = np.where(gen.random((count, nb, nloc)) < 0.5, -1.0, 1.0)
            evals.sort(axis=-1)
        else:
            if ens.kind == "pm1_balanced":
                half = nloc // 2
                base = np.concatenate([-np.ones(half), np.ones(half)])
            else:
                base = np.sort(np.asarray(ens.values, dtype=float))
            evals = np.broadcast_to(base, (count, nb, nloc)).copy()
        if vec_gen is None:
            raise ValueError("need a vec_gen to draw Haar eigenvectors")
        return evals, matgen.haar_batch(nloc, beta, vec_gen, count * nb).reshape(
            count, nb, nloc, nloc)
    raise ValueError(f"unknown ensemble kind {ens.kind!r}")


def _bond_terms(spec: ChainSpec, evals, factors, out=None):
    """The Hermitian bond terms of `_draw_bonds`'s (evals, factors), into `out`.

    Every step is per term, so a run of trials gets the same terms, bit for
    bit, alone or within a longer run.
    """
    if out is None:
        out = np.empty((len(factors), spec.n_bonds, spec.local_dim, spec.local_dim),
                       dtype=factors.dtype)
    if spec.ensemble.kind == "wishart":
        w = factors.reshape(-1, *factors.shape[2:])
        h = np.einsum("tri,trj->tij", w.conj(), w).reshape(out.shape)
    elif spec.ensemble.kind == "goe":
        h = factors
    else:
        h = np.einsum("tbij,tbj,tbkj->tbik", factors, evals, factors.conj())
    np.add(h, h.conj().swapaxes(-1, -2), out=out)
    out /= 2.0
    return out


# ---------------------------------------------------------------------------
# embedding


def embed_sum_batch(dense: np.ndarray, spec: ChainSpec, out=None) -> np.ndarray:
    """Sum of embedded bond terms for a batch: (count, m, m).

    `dense` is (count, n_bonds, d^L, d^L), slice i holding bond i + 1.  The
    sum is written into `out`, a C-contiguous array of that shape, when it
    is given.
    """
    count, nb, nloc = dense.shape[0], dense.shape[1], dense.shape[2]
    if nb != spec.n_bonds or nloc != spec.local_dim:
        raise ValueError("batch shape does not match the chain spec")
    if out is None:
        out = np.zeros((count, spec.m, spec.m), dtype=dense.dtype)
    else:
        out[...] = 0
    for i in range(nb):
        left = spec.site_dim ** i
        right = spec.m // (left * nloc)
        # I_left ⊗ H ⊗ I_right is nonzero only at row (p, i, r), column
        # (p, j, r); add H into a writable view of exactly those entries
        s = out.reshape(count, left, nloc, right, left, nloc, right).strides
        blocks = np.lib.stride_tricks.as_strided(
            out, (count, left, right, nloc, nloc),
            (s[0], s[1] + s[4], s[3] + s[6], s[2], s[5]))
        blocks += dense[:, i, None, None]
    return out


# ---------------------------------------------------------------------------
# odd/even diagonals


def diagonals_from_eigs(evals: np.ndarray, spec: ChainSpec):
    """Batched (a, b) diagonals from per-bond eigenvalues (count, nb, n)."""
    spec._require_nearest_neighbor()
    d, count = spec.site_dim, evals.shape[0]

    def build(idxs, repeat_inner, tile_outer):
        v = np.zeros((count, 1))
        for i in idxs:
            v = (v[:, :, None] + evals[:, i][:, None, :]).reshape(count, -1)
        if repeat_inner > 1:
            v = np.repeat(v, repeat_inner, axis=1)
        if tile_outer > 1:
            v = np.tile(v, (1, tile_outer))
        return v

    odd_idx = [l - 1 for l in spec.odd_bonds]
    even_idx = [l - 1 for l in spec.even_bonds]
    if spec.n_sites % 2 == 1:
        a = build(odd_idx, d, 1)     # (⊕ odds) ⊗ I_d
        b = build(even_idx, 1, d)    # I_d ⊗ (⊕ evens)
    else:
        a = build(odd_idx, 1, 1)     # odds cover every site
        b = build(even_idx, d, d)    # I_d ⊗ (⊕ evens) ⊗ I_d
    return a, b
