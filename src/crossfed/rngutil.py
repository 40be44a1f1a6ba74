"""Deterministic seed derivation.

Every source of randomness in a simulation is derived from one master seed
plus a tuple of integer tags (namespace, node id, round index, ...), so two
runs with the same config are bit-identical and parallel nodes never share
a stream. Derivation keeps no state, so a cell's streams and cost do not
depend on which cells ran before it in the process. ``numpy.random`` is
imported eagerly, with the package.
"""
from __future__ import annotations

import numpy as np
# numpy loads it lazily; the one-time import belongs to setup, not to the first cell
import numpy.random

_MASK64 = (1 << 64) - 1


def seed_sequence(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(p) & _MASK64 for p in parts])


def derive_rng(*parts: int) -> np.random.Generator:
    """Independent generator for the given tag tuple; the only seed-to-generator path."""
    return np.random.default_rng(seed_sequence(*parts))


def derive_int(*parts: int) -> int:
    """Stable 64-bit integer for the given tag tuple."""
    return int(seed_sequence(*parts).generate_state(1, np.uint64)[0])
