"""Spectral densities of random spin chains via classical/isotropic mixtures."""

from .rng import Rng
from .chain import ChainSpec, LocalEnsemble
from .spectra import (MomentSummary, DensityEstimate, ensemble_pools, jackknife_stderr,
                      gram_charlier_density, ks_distance, bin_edges, histogram)
from .slider import (SliderDims, LocalMoments, SliderResult, haar_q4, chain_moment_gap,
                     iso_gap, quantum_gap, frob_uv_classical, frob_uv_quantum, slider_p,
                     p_from_kurtoses, ensemble_slider, ie_mixture, wishart_moments,
                     wishart_chain_stats)

__version__ = "0.1.0"
