"""Random-matrix sampling primitives.

Provides beta-Haar orthogonal (beta=1) / unitary (beta=2) matrices and the
three local-interaction ensembles used for chain bonds: Wishart, GOE-style
symmetric Gaussian, and fixed-spectrum with Haar eigenvectors.

Conventions
-----------
* beta=1 samplers draw real N(0,1) entries; beta=2 samplers draw x + i*y with
  x, y ~ N(0,1) independently (variance 1 per real component).  All mixture
  weights downstream are scale-invariant, so this convention only sets the
  overall scale of GOE/Wishart spectra.
* Haar matrices come from QR of a Gaussian matrix with the triangular
  factor's diagonal made positive real.  Without that correction QR is not
  Haar-distributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack as _lapack

__all__ = [
    "HaarMatrix",
    "LocalTerm",
    "haar_orthogonal",
    "haar_batch",
    "wishart_local",
    "goe_local",
    "fixed_spectrum_local",
]


def _check_beta(beta):
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 (real) or 2 (complex); got {beta!r}. "
                         "beta=4 and general beta are not sampled.")


@dataclass(frozen=True)
class HaarMatrix:
    """A Haar-distributed orthogonal (beta=1) or unitary (beta=2) matrix."""

    beta: int
    dim: int
    entries: np.ndarray

    def orthogonality_defect(self) -> float:
        q = self.entries
        return float(np.abs(q.conj().T @ q - np.eye(self.dim)).max())


@dataclass(frozen=True)
class LocalTerm:
    """One dense Hermitian bond interaction, optionally eigendecomposed."""

    dim: int
    matrix: np.ndarray
    eigenvalues: Optional[np.ndarray] = None
    eigenvectors: Optional[HaarMatrix] = None

    def with_eigendecomposition(self, beta: int = 1) -> "LocalTerm":
        if self.eigenvalues is not None and self.eigenvectors is not None:
            return self
        evals, evecs = np.linalg.eigh(self.matrix)
        return LocalTerm(self.dim, self.matrix, evals,
                         HaarMatrix(beta, self.dim, evecs))

    def spectrum(self) -> np.ndarray:
        if self.eigenvalues is not None:
            return self.eigenvalues
        return np.linalg.eigvalsh(self.matrix)


def gaussian_batch(shape, beta, gen) -> np.ndarray:
    """iid Gaussian array; complex (x + i y) when beta=2."""
    _check_beta(beta)
    if beta == 1:
        return gen.standard_normal(shape)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def haar_batch(dim: int, beta: int, gen, count: int) -> np.ndarray:
    """Stack of `count` Haar matrices, shape (count, dim, dim).

    Loops LAPACK geqrf/orgqr with a workspace queried once (lwork=-1): the
    wrappers' default lwork is too small for the blocked algorithm and forces
    the unblocked one, about 3x slower at dim 512.  lwork goes by position
    because keyword parsing costs more than a 4x4 QR.
    """
    _check_beta(beta)
    g = gaussian_batch((count, dim, dim), beta, gen)
    out = np.empty_like(g)
    if beta == 1:
        geqrf, orgqr = _lapack.dgeqrf, _lapack.dorgqr
    else:
        geqrf, orgqr = _lapack.zgeqrf, _lapack.zungqr
    probe = np.zeros((dim, dim), dtype=g.dtype)
    lwork_qr = int(geqrf(probe, -1)[2][0].real)
    lwork_q = int(orgqr(probe, probe[0], -1)[1][0].real)
    for i in range(count):
        qr, tau, _, info = geqrf(g[i], lwork_qr)
        if info != 0:
            raise np.linalg.LinAlgError(f"geqrf failed (info={info})")
        d = np.diagonal(qr)
        if beta == 1:
            s = np.sign(d)
            s[s == 0] = 1.0
        else:
            s = d / np.abs(d)
        # orgqr overwrites qr in place, so the phases are taken first
        q, _, info = orgqr(qr, tau, lwork_q, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"orgqr failed (info={info})")
        # scaling column j by the phase of R_jj makes R's diagonal positive,
        # which is what turns QR output into exact Haar measure
        out[i] = q * s
    return out


def haar_orthogonal(dim: int, beta: int, rng) -> HaarMatrix:
    """Sample one beta-Haar matrix of order `dim`."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_beta(beta)
    q = haar_batch(dim, beta, rng.generator(), 1)[0]
    return HaarMatrix(beta, dim, q)


def _hermitize(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().swapaxes(-1, -2)) / 2.0


def wishart_batch(d: int, r: int, beta: int, gen, count: int) -> np.ndarray:
    """Stack of W†W terms with W an (r, d²) Gaussian matrix."""
    n = d * d
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= d^2 = {n}; got {r}")
    w = gaussian_batch((count, r, n), beta, gen)
    h = np.einsum("tri,trj->tij", w.conj(), w)
    return _hermitize(h)


def wishart_local(d: int, r: int, beta: int, rng) -> LocalTerm:
    """One Wishart bond term H = W†W of size d²; PSD with d²−r exact zeros."""
    h = wishart_batch(d, r, beta, rng.generator(), 1)[0]
    return LocalTerm(d * d, h)


def goe_batch(d: int, beta: int, gen, count: int) -> np.ndarray:
    n = d * d
    g = gaussian_batch((count, n, n), beta, gen)
    return _hermitize(g)


def goe_local(d: int, beta: int, rng) -> LocalTerm:
    """Symmetrized Gaussian bond term (G + G†)/2 of size d²."""
    if d < 2:
        raise ValueError("d must be >= 2")
    h = goe_batch(d, beta, rng.generator(), 1)[0]
    return LocalTerm(d * d, h)


def fixed_spectrum_local(d: int, eigenvalues, beta: int, rng) -> LocalTerm:
    """Bond term Q Λ Q† with the given spectrum and Haar eigenvectors."""
    n = d * d
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"need exactly d^2 = {n} eigenvalues; got shape {lam.shape}")
    q = haar_orthogonal(n, beta, rng)
    if np.all(lam == lam[0]):
        h = lam[0] * np.eye(n)  # exact for a degenerate spectrum
    else:
        h = _hermitize((q.entries * lam) @ q.entries.conj().T)
    return LocalTerm(n, h, eigenvalues=lam, eigenvectors=q)
