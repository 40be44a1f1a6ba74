"""Frozen nonlinear feature maps applied before local training.

The random-Fourier map projects inputs through seeded Gaussian directions
and takes shifted cosines. Because the map is fully determined by its seed,
every node that knows the seed applies the exact same transformation
without ever exchanging it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .models import LabeledDataset
from .rngutil import derive_rng

@dataclass(frozen=True)
class FeatureExtractor:
    """Seeded feature map; equal fields imply bit-identical outputs."""

    seed: int
    input_dim: int
    output_dim: int
    gamma: float = 1.0  # projection variance (kernel bandwidth)

    _omega: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _phase: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidInputError("input_dim and output_dim must be >= 1")
        if self.gamma <= 0.0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")
        rng = derive_rng(self.seed)
        omega = rng.normal(
            0.0, np.sqrt(self.gamma), size=(self.output_dim, self.input_dim)
        )
        phase = rng.uniform(0.0, 2.0 * np.pi, size=self.output_dim)
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_phase", phase)


def transform(fx: FeatureExtractor, x: np.ndarray) -> np.ndarray:
    """Map a batch of rows through the extractor."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != fx.input_dim:
        raise InvalidInputError(f"expected shape (n, {fx.input_dim}), got {x.shape}")
    return np.sqrt(2.0 / fx.output_dim) * np.cos(x @ fx._omega.T + fx._phase)


def extract(fx: FeatureExtractor, x) -> np.ndarray:
    """Map a single feature vector; output has length output_dim."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fx.input_dim,):
        raise InvalidInputError(f"expected {fx.input_dim} features, got shape {x.shape}")
    return transform(fx, x[None, :])[0]


def augment_dataset(fx: FeatureExtractor, data: LabeledDataset) -> LabeledDataset:
    """Replace features with extracted ones; order and labels untouched."""
    return LabeledDataset(transform(fx, data.features), data.labels.copy())
