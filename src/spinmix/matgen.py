"""Random-matrix sampling primitives.

Provides batches of iid Gaussian and beta-Haar orthogonal (beta=1) /
unitary (beta=2) matrices.  The bond ensembles built from them (Wishart,
GOE-style symmetric Gaussian, fixed spectrum with Haar eigenvectors) are
drawn by :func:`spinmix.chain.draw_local_batch`.

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

import numpy as np
from scipy.linalg import lapack as _lapack

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
