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
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack as _lapack

from ._workers import _sub_blocks, map_trials

__all__ = ["gaussian_batch", "haar_batch"]


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

    The draws are made first, trial-major, on the calling thread, so the
    output depends neither on how callers chunk the trials nor on the
    worker count.  Everything after the draw fans out: each worker of
    ``_workers.map_trials`` places the vectors of its own contiguous slice,
    vector k below the diagonal of column k of a Fortran-ordered array
    (where orgqr reads the reflectors of a QR factorisation).  It then walks
    the slice in sub-blocks, computing the reflector scalars in LAPACK's
    larfg convention and running orgqr and the sign fix in place, with
    OpenBLAS at one thread.  Every step is per matrix, so the output does
    not depend on the slices or sub-blocks either.  The workspace is queried once
    (lwork=-1): the wrappers' default lwork forces the unblocked algorithm,
    about 3x slower at dim 512.  lwork goes by position because keyword
    parsing costs more than a 4x4 orgqr.
    """
    _check_beta(beta)
    g = gaussian_batch((count, dim * (dim + 1) // 2), beta, gen)
    v = np.zeros((count, dim, dim), dtype=g.dtype)
    orgqr = _lapack.dorgqr if beta == 1 else _lapack.zungqr
    probe = np.zeros((dim, dim), dtype=v.dtype)
    lwork = int(orgqr(probe, probe[0], -1)[1][0].real)

    def reflect(lo, hi):
        # row k of v[t] is column k of the Fortran-ordered array v[t].T that
        # orgqr reads; vector k fills it from the diagonal on.  The copy holds
        # no temporary, so it takes the whole slice: in sub-blocks, which are
        # one matrix at dim 512, it would cost dim slice copies per matrix
        start = 0
        for k in range(dim):
            v[lo:hi, k, k:] = g[lo:hi, start:start + dim - k]
            start += dim - k
        for s, e in _sub_blocks(lo, hi, dim * dim):
            _reflectors_to_haar(v[s:e], orgqr, lwork)

    map_trials(reflect, count, dim * dim)
    return v


def _reflectors_to_haar(v, orgqr, lwork):
    """Overwrite a stack of raw Gaussian reflector vectors with their Haar matrices."""
    dim = v.shape[-1]
    # larfg: R_kk = -sign(Re alpha) |vector k|, tau = (R_kk - alpha) / R_kk and
    # v = x / (alpha - R_kk), with the (count, dim) arrays updated in place
    alpha = np.diagonal(v, axis1=1, axis2=2).copy()
    flat = v.view(np.float64)
    r_diag = np.einsum("tkj,tkj->tk", flat, flat)
    np.sqrt(r_diag, out=r_diag)
    np.copysign(r_diag, alpha.real, out=r_diag)
    r_diag *= -1.0
    tau = r_diag - alpha
    tau /= r_diag
    if not np.iscomplexobj(v):  # larfg leaves a real 1-vector alone: tau = 0, R_kk = alpha
        r_diag[:, -1], tau[:, -1] = alpha[:, -1], 0.0
    scale = alpha[:, :-1]
    scale -= r_diag[:, :-1]
    np.reciprocal(scale, out=scale)
    v[:, :-1] *= scale[:, :, None]
    # scaling column k by the sign of R_kk makes R's diagonal positive, which
    # is what turns the reflector product into exact Haar measure
    sign = np.sign(r_diag, out=r_diag)
    sign[sign == 0] = 1.0
    for i in range(len(v)):
        # v[i].T is Fortran-ordered, so orgqr overwrites it in place with Q;
        # v[i] then takes Q itself, row-major, from a temporary
        q, _, info = orgqr(v[i].T, tau[i], lwork, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"orgqr failed (info={info})")
        v[i] = q * sign[i]
