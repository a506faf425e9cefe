"""Closed-form mixture weight and the fourth-moment machinery behind it.

The chain spectrum is approximated by p·classical + (1−p)·isotropic where p
matches the excess kurtosis.  Everything needed to evaluate p analytically
lives here: Haar fourth moments, the chain-level moment gap of the commuting
diagonals, the two fourth-moment gap terms, the weight p, the empirical p
from three kurtoses, the binwise mixture of two densities, and the Wishart
worked example (bond moments and chain statistics).

For every N, 1 − p is the ratio of the quantum to the isotropic gap, in
which the bond moments cancel (Slider Theorem).  The paper's closed form of
that ratio for odd N is kept as the tests' oracle, ``tests/oracles.py``.

Moment conventions: for one bond term, m_j = E(λ^j) for a uniformly chosen
eigenvalue and m11 = E(λ_i λ_j) for distinct eigenvalues of the *same* term.
Cross products between different (independent) bonds reduce to m1², which
cancels from the chain-level gap m2^A − m11^A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectra import DensityEstimate, MomentSummary

__all__ = [
    "SliderDims",
    "LocalMoments",
    "SliderResult",
    "haar_q4",
    "chain_moment_gap",
    "iso_gap",
    "quantum_gap",
    "frob_uv_classical",
    "frob_uv_quantum",
    "slider_p",
    "p_from_kurtoses",
    "ensemble_slider",
    "ie_mixture",
    "wishart_moments",
    "wishart_chain_stats",
]


@dataclass(frozen=True)
class SliderDims:
    """Size bookkeeping for one parity side of a nearest-neighbor chain.

    k bonds of local dimension n = d² tile into m = d^N with multiplicity t,
    so t·n^k = m exactly.
    """

    n_sites: int
    d: int
    beta: float
    k: int
    n: int
    m: int
    t: int

    def __post_init__(self):
        if self.k < 1 or self.d < 2:
            raise ValueError("need k >= 1 and d >= 2")
        if self.t * self.n ** self.k != self.m:
            raise ValueError("inconsistent dims: t * n^k != m")

    @classmethod
    def odd_side(cls, n_sites: int, d: int, beta: float = 1.0) -> "SliderDims":
        return cls._side(n_sites, d, beta, n_sites // 2)

    @classmethod
    def even_side(cls, n_sites: int, d: int, beta: float = 1.0) -> "SliderDims":
        return cls._side(n_sites, d, beta, (n_sites - 1) // 2)

    @classmethod
    def _side(cls, n_sites, d, beta, k) -> "SliderDims":
        # an odd chain has (N−1)/2 bonds of each parity, an even one N/2 odd and N/2 − 1 even
        if n_sites < 3:
            raise ValueError("need at least 3 sites")
        if d < 2:       # before n^k, which is 0 at d = 0
            raise ValueError("need d >= 2")
        n, m = d * d, d ** n_sites
        return cls(n_sites, d, beta, k, n, m, m // n ** k)

    def partner(self) -> "SliderDims":
        """The other parity side of the same chain."""
        if self.n_sites % 2:
            return self
        if self.k == self.n_sites // 2:
            return SliderDims.even_side(self.n_sites, self.d, self.beta)
        return SliderDims.odd_side(self.n_sites, self.d, self.beta)


@dataclass(frozen=True)
class LocalMoments:
    """Eigenvalue moments of one bond term (m3/m4 optional)."""

    m1: float
    m2: float
    m11: float
    m3: Optional[float] = None
    m4: Optional[float] = None

    def cumulants(self):
        if self.m3 is None or self.m4 is None:
            raise ValueError("m3 and m4 are required for cumulants")
        s = MomentSummary.from_raw_moments(self.m1, self.m2, self.m3, self.m4)
        return s.kappa1, s.kappa2, s.kappa3, s.kappa4


@dataclass(frozen=True)
class SliderResult:
    """Mixture weight, with the three kurtoses when the bond law gives them."""

    p: float
    one_minus_p: float
    gamma2_classical: Optional[float] = None
    gamma2_iso: Optional[float] = None
    gamma2_quantum: Optional[float] = None


# bond moments with m2 − m11 = 1: the local factor of both gaps is then 1
_UNIT = LocalMoments(m1=0.0, m2=1.0, m11=0.0)


# ---------------------------------------------------------------------------
# Haar moments and the singular-value pair values


def haar_q4(m: int, beta: float) -> float:
    """E|q_ij|⁴ for an m×m beta-Haar matrix: (β+2)/(m(mβ+2))."""
    if m < 1 or not 1 <= beta < math.inf:
        raise ValueError("need m >= 1 and a finite beta >= 1")
    return (beta + 2.0) / (m * (m * beta + 2.0))


def frob_uv_classical(d: int) -> float:
    """E‖uv‖_F² for d×d reshapes u, v of two independent Haar columns: 1/d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return 1.0 / d


def frob_uv_quantum(d: int, beta: float = 1.0) -> float:
    """E‖uv(uv)†‖_F² for the same pair; the structured-rotation analogue."""
    if d < 1 or not 1 <= beta < math.inf:
        raise ValueError("need d >= 1 and a finite beta >= 1")
    num = beta ** 2 * (3 * d * (d - 1) + 1) + 2 * beta * (3 * d - 1) + 4
    return num / (d * (beta * d * d + 2.0) ** 2)


# ---------------------------------------------------------------------------
# the chain-level moment gap of one parity diagonal


def chain_moment_gap(local: LocalMoments, dims: SliderDims) -> float:
    """m2^A − m11^A in factored form: t·k(n−1)n^(k−1)/(m−1) · (m2 − m11)."""
    k, n, m, t = dims.k, dims.n, dims.m, dims.t
    return t * k * (n - 1) * n ** (k - 1) / (m - 1) * (local.m2 - local.m11)


# ---------------------------------------------------------------------------
# the two fourth-moment gaps


def iso_gap(local_odd: LocalMoments, local_even: LocalMoments,
            dims: SliderDims) -> float:
    """(1/m) E[Tr(AΠᵀBΠ)² − Tr(AQᵀBQ)²] for a full Haar rotation Q."""
    other = dims.partner()
    gap_a = chain_moment_gap(local_odd, dims)
    gap_b = chain_moment_gap(local_even, other)
    return gap_a * gap_b * (1.0 - dims.m * haar_q4(dims.m, dims.beta))


def _entangled_pairs(n_sites: int) -> int:
    # 2k−1 for N odd (k = (N−1)/2) and 2(k−1) for N even (k = N/2)
    # both reduce to N−2: one shared site per interior site of the chain
    return n_sites - 2


def quantum_gap(local_odd: LocalMoments, local_even: LocalMoments,
                dims: SliderDims) -> float:
    """(1/m) E[Tr(AΠᵀBΠ)² − Tr(AQ_qᵀBQ_q)²] for the structured rotation.

    Only bond pairs sharing a site depart from the classical value; each
    contributes d·(m2−m11)_odd·(m2−m11)_even times the singular-value gap.
    """
    d, beta = dims.d, dims.beta
    pairs = _entangled_pairs(dims.n_sites)
    delta = frob_uv_classical(d) - frob_uv_quantum(d, beta)
    return d * pairs * (local_odd.m2 - local_odd.m11) \
        * (local_even.m2 - local_even.m11) * delta


# ---------------------------------------------------------------------------
# the universal weight


def _clamped_result(one_minus_p) -> SliderResult:
    # the interval is guaranteed analytically; only float noise is clamped
    if one_minus_p < 0.0:
        if one_minus_p < -1e-12:
            raise ValueError(f"1-p = {one_minus_p} escaped [0, 1]")
        one_minus_p = 0.0
    if one_minus_p > 1.0:
        if one_minus_p > 1.0 + 1e-12:
            raise ValueError(f"1-p = {one_minus_p} escaped [0, 1]")
        one_minus_p = 1.0
    return SliderResult(p=1.0 - one_minus_p, one_minus_p=one_minus_p)


def slider_p(n_sites: int, d: int, beta: float = 1.0) -> SliderResult:
    """Mixture weight for any N >= 3: 1 − p = quantum_gap / iso_gap (Slider Theorem).

    The local-moment factors (m2 − m11) cancel between numerator and
    denominator, so the ratio is a function of (N, d, β) alone and is taken
    at unit bond moments.  For odd N it equals the paper's closed form,
    which the tests keep as their oracle.  A ValueError refuses N < 3,
    d < 2 and β outside [1, ∞); an OverflowError, a β or d^N whose ratio
    leaves the floats.
    """
    dims = SliderDims.odd_side(n_sites, d, beta)
    return _clamped_result(quantum_gap(_UNIT, _UNIT, dims) / iso_gap(_UNIT, _UNIT, dims))


def p_from_kurtoses(g2q: float, g2c: float, g2iso: float) -> float:
    """Empirical mixture weight (γ₂^q − γ₂^iso)/(γ₂^c − γ₂^iso), unclamped."""
    denom = g2c - g2iso
    if denom == 0:
        raise ZeroDivisionError("classical and isotropic kurtoses coincide")
    return (g2q - g2iso) / denom


def ensemble_slider(local: LocalMoments, dims: SliderDims) -> SliderResult:
    """Slider with all three closed-form kurtoses for iid bond terms.

    Requires m3/m4 of the local law.  The chain's classical cumulants are
    (N−1) times the local ones; the isotropic and quantum kurtoses follow by
    subtracting twice the respective gap over σ⁴.
    """
    n_sites = dims.n_sites
    _, k2, _, k4 = local.cumulants()
    sigma2 = (n_sites - 1) * k2
    g2c = (n_sites - 1) * k4 / sigma2 ** 2
    g2iso = g2c - 2.0 * iso_gap(local, local, dims) / sigma2 ** 2
    g2q = g2c - 2.0 * quantum_gap(local, local, dims) / sigma2 ** 2
    p = p_from_kurtoses(g2q, g2c, g2iso)
    return SliderResult(p=p, one_minus_p=1.0 - p, gamma2_classical=g2c,
                        gamma2_iso=g2iso, gamma2_quantum=g2q)


def ie_mixture(p: float, classical: DensityEstimate,
               iso: DensityEstimate) -> DensityEstimate:
    """Binwise convex combination p·classical + (1−p)·iso on shared edges."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if classical.bin_edges.shape != iso.bin_edges.shape or \
            not np.array_equal(classical.bin_edges, iso.bin_edges):
        raise ValueError("densities must share identical bin edges")
    if p in (0.0, 1.0):  # renormalising 1·x + 0·y could move masses in the last bit
        return classical if p else iso
    return DensityEstimate(classical.bin_edges,
                           p * classical.masses + (1.0 - p) * iso.masses)


# ---------------------------------------------------------------------------
# the Wishart worked example


def wishart_moments(r: int, n: int, beta: float = 1.0) -> LocalMoments:
    """Eigenvalue moments of W†W with W an (r, n) beta-Gaussian matrix."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    b = float(beta)
    m1 = b * r
    m2 = b * r * (b * (r + n - 1) + 2)
    m3 = b * r * (b * b * (n * n + (r - 1) * (3 * n + r - 2))
                  + 6 * b * (n + r - 1) + 8)
    m4 = b * r * (48
                  + b ** 3 * (n ** 3 + 6 * n * n * (r - 1)
                              + n * (6 * r - 11) * (r - 1)
                              - 6 * (r * r + 1) + r ** 3 + 11 * r)
                  + 2 * b * b * (6 * (n * n + r * r)
                                 + 17 * (n * (r - 1) - r) + 11)
                  + 44 * b * (n + r - 1))
    m11 = b * b * r * (r - 1)
    return LocalMoments(m1=m1, m2=m2, m11=m11, m3=m3, m4=m4)


def wishart_chain_stats(n_sites: int, d: int, r: int) -> MomentSummary:
    """β=1 Wishart chain closed forms for (μ, σ², γ₁, γ₂ classical).

    Each of the N−1 bonds is W = XXᵀ with X real n×r, n = d². With the
    normalised trace the chain's moments are

        μ  = r(N−1)
        σ² = r(N−1)(n+1)
        γ₁ = (n² + 3n + 4) / ((n+1)^{3/2} √(r(N−1)))
        γ₂ = (n²(n+6) − rn(n+1) + 21n + 2r + 20) / (r(N−1)(n+1)²)

    μ, σ² and γ₁ are shared by the classical, isotropic and quantum spectra
    (Matching Three Moments); γ₂ is the classical one. The forms hold for
    β=1 only. At d=2, r=4, N=3: γ₁ = 32/√1000 = 1.0119289, which the
    paper's table prints truncated as 1.01192.
    """
    n = d * d
    mu = (n_sites - 1) * r
    sigma2 = r * (n_sites - 1) * (n + 1)
    gamma1 = (n * n + 3 * n + 4) / ((n + 1) ** 1.5 * math.sqrt(r * (n_sites - 1)))
    gamma2 = (n * n * (n + 6) - r * n * (n + 1) + 21 * n + 2 * r + 20) \
        / (r * (n_sites - 1) * (n + 1) ** 2)
    return MomentSummary.from_cumulants(mu, sigma2,
                                        gamma1 * sigma2 ** 1.5,
                                        gamma2 * sigma2 ** 2)
