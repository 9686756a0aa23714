"""Named random-number streams for reproducible simulations.

Every stochastic component of a serving simulation (arrival process, service
time variability, request mixing) draws from its own named substream so that
changing one component's randomness does not perturb the others and runs are
exactly reproducible for a given seed.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RandomStreams:
    """A family of independent, named numpy RNG streams derived from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``.

        The substream key is derived from a CRC of the name rather than
        Python's built-in ``hash`` so that results are reproducible across
        processes (``hash`` is salted per interpreter run).
        """
        if name not in self._streams:
            seed_seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
            )
            self._streams[name] = np.random.default_rng(seed_seq)
        return self._streams[name]
