"""Random-matrix sampling primitives.

Provides batches of iid Gaussian and beta-Haar orthogonal (beta=1) /
unitary (beta=2) matrices.  The bond ensembles built from them (Wishart,
GOE-style symmetric Gaussian, fixed spectrum with Haar eigenvectors) are
drawn by ``spinmix.chain._draw_bonds``.

Conventions
-----------
* beta=1 samplers draw real N(0,1) entries; beta=2 samplers draw x + i*y with
  x, y ~ N(0,1) independently (variance 1 per real component).  All mixture
  weights downstream are scale-invariant, so this convention only sets the
  overall scale of GOE/Wishart spectra.
* Haar matrices are sign-fixed products of Householder reflectors built
  from independent Gaussian vectors (Stewart 1980; see :func:`haar_batch`),
  which have the law of the sign-fixed QR of a Gaussian matrix.

LAPACK's orgqr, the one routine here that numpy does not wrap in its public
API, is reached through the gufunc behind ``numpy.linalg.qr(mode=
"complete")``, so no Haar matrix loads scipy, whose ``scipy.linalg`` import
costs more than the package's own.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["gaussian_batch", "haar_batch"]

_SLICE = 1 << 14                 # elements of the transposing temporary, when a matrix is smaller


def _check_beta(beta):
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 (real) or 2 (complex); got {beta!r}. "
                         "beta=4 and general beta are not sampled.")


def gaussian_batch(shape, beta, gen) -> np.ndarray:
    """iid Gaussian array; complex (x + i y) when beta=2.

    For beta=2 each entry's (x, y) pair is drawn consecutively, so the
    stream is consumed entry by entry and a batch drawn in pieces equals the
    batch drawn at once.
    """
    _check_beta(beta)
    if beta == 1:
        return gen.standard_normal(shape)
    return gen.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def haar_batch(dim: int, beta: int, gen, count: int) -> np.ndarray:
    """Stack of `count` Haar matrices, shape (count, dim, dim).

    Each matrix is H_0 H_1 ... H_{dim-1}, H_k = I - tau_k v_k v_k^H, built
    from independent Gaussian vectors of lengths dim, dim-1, ..., 1, with
    column k scaled by the sign of R_kk (Stewart, SIAM J. Numer. Anal. 17
    (1980) 403-409).  This is exactly Haar: Householder QR of a Gaussian
    matrix extracts such vectors, since each reflection leaves an iid
    Gaussian trailing block independent of it, and the sign-fixed QR of a
    Gaussian matrix is Haar.  No matrix is factorised, and a trial takes
    dim(dim+1)/2 draws instead of dim².

    The draws are made first, trial-major, and the per-matrix kernel
    ``haar_from_gaussians`` runs on the calling thread, so the output
    depends on neither the callers' work items nor the worker count.  Its
    one caller in the package draws the spectral ensembles' local
    eigenvectors (``chain._draw_bonds``), inside a stream's draw, which
    must not start a stream of its own.  The kept route of
    ``spectra.ensemble_pools`` draws the same Gaussians for its m×m
    matrices, and ``spectra._chunk_pass`` runs the kernel in the work item
    that rotates by Q and diagonalises.
    """
    g = gaussian_batch((count, dim * (dim + 1) // 2), beta, gen)
    return haar_from_gaussians(g, np.empty((count, dim, dim), dtype=g.dtype))


def haar_from_gaussians(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Overwrite `out`, (count, dim, dim), with the Haar matrices of Gaussians `g`.

    Row t of `g` holds the vectors of lengths dim, dim-1, ..., 1.  Row k of
    out[t] is column k of the matrix out[t].T that orgqr reads, so vector k
    fills it from the diagonal on.  Single-threaded: one gufunc call runs
    orgqr on each matrix with its optimal (blocked) workspace.
    """
    count, dim = out.shape[:2]
    start = 0
    for k in range(dim):
        out[:, k, :k] = 0.0
        out[:, k, k:] = g[:, start:start + dim - k]
        start += dim - k
    # larfg: R_kk = -sign(Re alpha) |vector k|, tau = (R_kk - alpha) / R_kk and
    # v = x / (alpha - R_kk), with the (count, dim) arrays updated in place
    alpha = np.diagonal(out, axis1=1, axis2=2).copy()
    flat = out.view(np.float64)
    r_diag = np.einsum("tkj,tkj->tk", flat, flat)
    np.sqrt(r_diag, out=r_diag)
    np.copysign(r_diag, alpha.real, out=r_diag)
    r_diag *= -1.0
    tau = r_diag - alpha
    tau /= r_diag
    if not np.iscomplexobj(out):  # larfg leaves a real 1-vector alone: tau = 0, R_kk = alpha
        r_diag[:, -1], tau[:, -1] = alpha[:, -1], 0.0
    scale = alpha[:, :-1]
    scale -= r_diag[:, :-1]
    np.reciprocal(scale, out=scale)
    out[:, :-1] *= scale[:, :, None]
    # scaling column k by the sign of R_kk makes R's diagonal positive, which
    # is what turns the reflector product into exact Haar measure
    sign = np.sign(r_diag, out=r_diag)
    sign[sign == 0] = 1.0
    # orgqr writes Q into out[t].T, so out[t] holds Q transposed; it is
    # transposed back, with column k of Q scaled by sign k, a slice of the
    # batch at a time, whose temporary holds one dim×dim matrix or, for
    # small matrices, up to _SLICE elements
    flipped = out.swapaxes(-1, -2)
    _umath_linalg.qr_complete(flipped, tau, out=flipped)
    step = max(1, _SLICE // (dim * dim))
    for s in range(0, count, step):
        out[s:s + step] = out[s:s + step].swapaxes(-1, -2) * sign[s:s + step, None, :]
    return out
