"""Deterministic seed derivation.

Every source of randomness in a simulation is derived from one master seed
plus a tuple of integer tags (namespace, node id, round index, ...), so two
runs with the same config are bit-identical and parallel nodes never share
a stream.
"""
from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
# entries of the derive_int memo: ~600 bytes each, 2.4 MiB when full
_DERIVE_INT_MEMO_SIZE = 1 << 12


def seed_sequence(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(p) & _MASK64 for p in parts])


def derive_rng(*parts: int) -> np.random.Generator:
    """Independent generator for the given tag tuple."""
    return np.random.default_rng(seed_sequence(*parts))


@functools.lru_cache(maxsize=_DERIVE_INT_MEMO_SIZE)
def derive_int(*parts: int) -> int:
    """Stable 64-bit integer for the given tag tuple; memoised, since the
    cells of a sweep that share a seed derive the same node and round seeds."""
    return int(seed_sequence(*parts).generate_state(1, np.uint64)[0])
