"""Seeded, splittable randomness for deterministic simulation.

Every stochastic component (network delay, fault injection, workload
generators) draws from its own stream split off a root seed, so adding a new
component or reordering draws in one component never perturbs the others.
"""

from __future__ import annotations

import random
import zlib


class SplitRandom(random.Random):
    """A :class:`random.Random` that can derive independent child streams.

    ``split(label)`` returns a new generator seeded from this generator's
    seed and the label, so the same (seed, label) pair always yields the same
    stream regardless of how much the parent has been used.
    """

    def __init__(self, seed: int = 0):
        self._seed_value = int(seed)
        super().__init__(self._seed_value)

    def split(self, label: str) -> "SplitRandom":
        """Return an independent child stream identified by ``label``."""
        mixed = zlib.crc32(label.encode("utf-8"), self._seed_value & 0xFFFFFFFF)
        child_seed = (self._seed_value * 1_000_003 + mixed) & 0x7FFFFFFFFFFFFFFF
        return SplitRandom(child_seed)
