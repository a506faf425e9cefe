"""Spectral densities of random spin chains via classical/isotropic mixtures."""

from .rng import Rng
from .chain import ChainSpec, LocalEnsemble, embed_local, assemble_chain
from .spectra import (EmpiricalMeasure, MomentSummary, DensityEstimate, TrialPool,
                      summarize, classical_convolve, ensemble_pools, jackknife_stderr,
                      gram_charlier_density, ks_distance, histogram)
from .slider import (SliderDims, LocalMoments, SliderResult, TermCounts,
                     haar_q4, chain_m2, chain_m11, chain_moment_gap, iso_gap,
                     quantum_gap, frob_uv_classical, frob_uv_quantum,
                     p_universal, slider_p, p_from_kurtoses, ensemble_slider,
                     ie_mixture, term_counts, wishart_moments, goe_moments,
                     pm1_moments, fixed_spectrum_moments, local_moments,
                     wishart_chain_stats, appendix_iso_expectation)

__version__ = "0.1.0"
