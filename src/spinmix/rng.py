"""Seeded, stream-splittable random number generation.

Every stochastic routine in the package takes an :class:`Rng` value instead of
a raw generator so that results are a pure function of ``(master_seed,
stream_index)``.  Distinct stream indices give statistically independent
streams; identical ones reproduce bit-identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_KEY = 2**32


@dataclass(frozen=True)
class Rng:
    """A reproducible random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not 0 <= self.stream_index < _MAX_KEY:
            raise ValueError("stream_index must fit in 32 bits")

    def generator(self) -> np.random.Generator:
        """PCG64 generator for this stream; same stream => same bits."""
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, *key: int) -> np.random.Generator:
        """Generator for a child stream keyed by extra 32-bit integers.

        Used by batched Monte Carlo loops: one child per (purpose, component),
        where the component is 0 or a bond index.  A sampler opens each child
        once per call and draws from it in trial-major order, so its output
        depends neither on which other samplers ran nor on how the trials are
        split into work items.
        """
        for k in key:
            if not 0 <= k < _MAX_KEY:
                raise ValueError("substream keys must fit in 32 bits")
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_index, *key))
        return np.random.Generator(np.random.PCG64(ss))
