"""Chain Hamiltonians: bond draws, the batched embedding, the diagonal summands.

A chain of N qudits of dimension d carries one random bond term per run of L
adjacent sites, n_bonds = N − L + 1 of them.  ``_draw_bonds`` makes a
work item's random draws on the calling thread and ``_bond_terms`` forms the
Hermitian terms from them, with the trial axis last (``draw_local_batch``
does both).
``embed_sum_batch`` adds the embedded terms I ⊗ h ⊗ I of a batch of chains
into m×m matrices, m = d^N, without forming a Kronecker product.

The chain's Hamiltonian is split into diagonal summands s₀ … s_k, each a
set of mutually commuting bonds (``ChainSpec.summand_bonds``, the only code
that decides the split).  At range L = 2 bonds of one parity act on
disjoint pairs of sites, so the two parity classes are the summands; at
L > 2 each bond is its own.  ``diagonals_from_eigs`` builds every summand's
diagonal from the bonds' eigenvalues, the raw material for the classical /
isotropic / quantum convolutions in :mod:`spinmix.spectra`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import matgen
from ._workers import _scratch

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

# the spectral ensembles: a law of eigenvalues with Haar eigenvectors
_SPECTRAL_KINDS = ("pm1", "fixed")


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
    def pm1(cls) -> "LocalEnsemble":
        """Haar eigenvectors with ±1 eigenvalues of iid signs.

        A spectrum of exactly half −1 and half +1 is ``fixed_spectrum``.
        """
        return cls("pm1")

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

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        if self.site_dim < 2:
            raise ValueError("site dimension must be >= 2")
        if not 2 <= self.coupling_range <= self.n_sites:
            raise ValueError("coupling range must satisfy 2 <= L <= N")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2 for sampling")
        if self.ensemble.kind == "wishart" and not 1 <= self.ensemble.rank <= self.local_dim:
            raise ValueError("wishart rank must satisfy 1 <= r <= d^L")
        if self.ensemble.kind == "fixed" and len(self.ensemble.values) != self.local_dim:
            raise ValueError(f"fixed spectrum must have d^L = {self.local_dim} values")

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
    def summand_bonds(self) -> list:
        """The bonds of each diagonal summand s₀ … s_k, as slices of the bond axis."""
        if self.coupling_range == 2:
            return [slice(0, None, 2), slice(1, None, 2)]
        return [slice(i, i + 1) for i in range(self.n_bonds)]

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

    Returns (evals, dense), dense of shape (count, n_bonds, d^L, d^L): a view
    of ``_bond_terms``'s array, whose trial axis is last.  The spectral
    ensembles (pm1, fixed) draw evals, (count, n_bonds, d^L) sorted
    ascending per bond, from `gen` and Haar eigenvectors from `vec_gen`,
    which only they need, so the eigenvalue stream does not depend on the
    eigenvectors.  Wishart and GOE terms are drawn whole from `gen` and
    returned undiagonalised, with evals None.
    """
    evals, factors = _draw_bonds(spec, count, gen, vec_gen)
    return evals, _bond_terms(spec, evals, factors).transpose(3, 2, 0, 1)


def _vector_gen(spec: ChainSpec, rng):
    """The stream `_draw_bonds` draws Haar eigenvectors from, ``(STREAM_LOCAL_VECS, 0)``,
    or None for Wishart and GOE, which draw none."""
    return rng.substream(STREAM_LOCAL_VECS, 0) if spec.ensemble.kind in _SPECTRAL_KINDS else None


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
    if ens.kind in _SPECTRAL_KINDS:
        if ens.kind == "pm1":
            evals = np.where(gen.random((count, nb, nloc)) < 0.5, -1.0, 1.0)
            evals.sort(axis=-1)
        else:
            base = np.sort(np.asarray(ens.values, dtype=float))
            evals = np.broadcast_to(base, (count, nb, nloc)).copy()
        if vec_gen is None:
            raise ValueError("need a vec_gen to draw Haar eigenvectors")
        return evals, matgen.haar_batch(nloc, beta, vec_gen, count * nb).reshape(
            count, nb, nloc, nloc)
    raise ValueError(f"unknown ensemble kind {ens.kind!r}")


def _bond_terms(spec: ChainSpec, evals, factors, out=None):
    """The Hermitian bond terms of `_draw_bonds`'s (evals, factors), trial axis last.

    Fills `out`, (d^L, d^L, n_bonds, count), so that every bond-sized step
    downstream runs as an elementwise op on vectors of n_bonds·count
    entries.  Every step is per term, so a run of trials gets the same
    terms, bit for bit, alone or within a longer run.  A Wishart term is
    w†w summed over the rank in one order for both of its triangles, so it
    is exactly Hermitian; the other terms are symmetrized, (h + h†)/2.
    """
    nb, nloc = spec.n_bonds, spec.local_dim
    if out is None:
        out = np.empty((nloc, nloc, nb, len(factors)), dtype=factors.dtype)
    if spec.ensemble.kind == "wishart":
        # the draws laid out trial-last first: einsum's loops then run over
        # n_bonds·count entries, not over d^L
        w = _scratch("draws", (factors.shape[2], nloc, nb, len(factors)), factors.dtype)
        w[...] = factors.transpose(2, 3, 1, 0)
        return np.einsum("ribt,rjbt->ijbt", w.conj(), w, out=out)
    if spec.ensemble.kind == "goe":
        h = factors
    else:
        h = np.einsum("tbij,tbj,tbkj->tbik", factors, evals, factors.conj())
    np.add(h.transpose(2, 3, 1, 0), h.conj().transpose(3, 2, 1, 0), out=out)
    out /= 2.0
    return out


# ---------------------------------------------------------------------------
# embedding


def embed_sum_batch(dense: np.ndarray, spec: ChainSpec, out=None) -> np.ndarray:
    """Sum of embedded bond terms for a batch: (count, m, m).

    `dense` is (count, n_bonds, d^L, d^L), slice i holding bond i + 1, with
    any strides.  The sum is written into `out`, an array of that shape
    with any strides, when it is given: a batch-innermost `out` (a
    transposed view of an (m, m, count) array) makes every add a loop over
    the batch.  The adds are the same, bond by bond, for any layout.
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
        # (p, j, r); add H into a writable view of exactly those entries,
        # which einsum returns for the repeated p and r (splitting out's
        # axes is a view for any strides)
        blocks = np.einsum("tpirpjr->tprij",
                           out.reshape(count, left, nloc, right, left, nloc, right))
        blocks += dense[:, i, None, None]
    return out


# ---------------------------------------------------------------------------
# diagonal summands


def diagonals_from_eigs(evals: np.ndarray, spec: ChainSpec):
    """Each summand's diagonal from per-bond eigenvalues (count, nb, d^L).

    Returns one (count, m) array per entry of ``spec.summand_bonds``, built
    site by site: a bond of the summand Kronecker-sums its eigenvalues in,
    and a site no bond of it covers repeats the vector d times.
    """
    d, count = spec.site_dim, evals.shape[0]
    summands = []
    for bonds in spec.summand_bonds:
        v, site = np.zeros((count, 1)), 0
        for i in range(spec.n_bonds)[bonds]:
            v = np.repeat(v, d ** (i - site), axis=1)
            v = (v[:, :, None] + evals[:, i][:, None, :]).reshape(count, -1)
            site = i + spec.coupling_range
        summands.append(np.repeat(v, d ** (spec.n_sites - site), axis=1))
    return summands
