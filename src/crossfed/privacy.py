"""Differential-privacy and secret-sharing baselines, plus the
loss-threshold membership-inference metric used to score privacy.

The DP path clips an update to L2 norm C and adds per-coordinate Gaussian
noise calibrated by the analytic (epsilon, delta) formula; budgets compose
linearly across rounds. The SMC path splits fixed-point-encoded updates
into additive shares over the prime field 2^61 - 1, encoded and decoded
by the same ``paillier.FixedPointCodec`` the HE path uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .models import LabeledDataset, ModelParams, per_sample_losses
from .paillier import FixedPointCodec, decode_real, encode_real

SMC_FIELD_PRIME = (1 << 61) - 1
# SMC fixed-point scale; coarser than the HE codec because field headroom
# is only 2^61 rather than a 256+ bit modulus.
SMC_SCALE = 1 << 20


@dataclass(frozen=True)
class DpConfig:
    """Per-round Gaussian-mechanism budget; total budget is rounds * epsilon."""

    epsilon: float
    clip_norm: float
    delta: float = 1e-5
    rounds: int = 1

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise InvalidInputError(f"epsilon must be positive, got {self.epsilon}")
        if self.clip_norm <= 0.0:
            raise InvalidInputError(f"clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError(f"delta must be in (0, 1), got {self.delta}")
        if self.rounds < 1:
            raise InvalidInputError(f"rounds must be >= 1, got {self.rounds}")

    @property
    def total_epsilon(self) -> float:
        # linear (basic) composition
        return self.rounds * self.epsilon


def clip_update(delta, clip_norm: float) -> np.ndarray:
    """Scale delta down so its L2 norm is at most clip_norm."""
    if clip_norm <= 0.0:
        raise InvalidInputError(f"clip_norm must be positive, got {clip_norm}")
    delta = np.asarray(delta, dtype=np.float64)
    norm = float(np.linalg.norm(delta))
    if norm <= clip_norm:
        return delta.copy()
    return delta * (clip_norm / norm)


def gaussian_sigma(clip_norm: float, epsilon: float, delta: float) -> float:
    """Analytic Gaussian-mechanism noise scale for (epsilon, delta)-DP."""
    if clip_norm <= 0.0:
        raise InvalidInputError(f"clip_norm must be positive, got {clip_norm}")
    if epsilon <= 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidInputError(f"delta must be in (0, 1), got {delta}")
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def dp_privatize(delta, cfg: DpConfig, rng: np.random.Generator) -> np.ndarray:
    """Clip, then add i.i.d. Gaussian noise per coordinate."""
    clipped = clip_update(delta, cfg.clip_norm)
    sigma = gaussian_sigma(cfg.clip_norm, cfg.epsilon, cfg.delta)
    return clipped + rng.normal(0.0, sigma, size=clipped.shape)


@dataclass(frozen=True)
class ShareBundle:
    """One node's additive sharing: K per-recipient vectors summing to the
    encoded update mod field_prime."""

    field_prime: int
    scale: int
    shares: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.shares) < 2:
            raise InvalidInputError("need at least 2 shares")
        length = len(self.shares[0])
        if any(len(s) != length for s in self.shares):
            raise InvalidInputError("share vectors have inconsistent lengths")


def share(update, scale: int, num_parties: int, rng: np.random.Generator) -> ShareBundle:
    """Split an update into num_parties uniform additive shares.

    The first K-1 shares are uniform over the field; the last absorbs the
    encoded update. Callers summing many nodes must keep the sum in range,
    as ``paillier.check_sum_headroom`` does.
    """
    if num_parties < 2:
        raise InvalidInputError(f"need at least 2 parties, got {num_parties}")
    update = np.asarray(update, dtype=np.float64)
    if update.ndim != 1:
        raise InvalidInputError("update must be a 1-D vector")
    p = SMC_FIELD_PRIME
    codec = FixedPointCodec(p, scale)
    encoded = [encode_real(codec, x) for x in update.tolist()]
    first = rng.integers(0, p, size=(num_parties - 1, update.size)).tolist()
    last = [(e - sum(column)) % p for e, column in zip(encoded, zip(*first))]
    return ShareBundle(p, scale, tuple(tuple(row) for row in first) + (tuple(last),))


def reconstruct_field_sum(bundles: Sequence[ShareBundle]) -> list[int]:
    """Exact modular sum of all encoded updates, before decoding."""
    if not bundles:
        raise InvalidInputError("no bundles to reconstruct")
    first = bundles[0]
    k, length = len(first.shares), len(first.shares[0])
    for b in bundles:
        if b.field_prime != first.field_prime or b.scale != first.scale:
            raise InvalidInputError("bundles disagree on field or scale")
        if len(b.shares) != k or len(b.shares[0]) != length:
            raise InvalidInputError("bundles disagree on share geometry")
    p = first.field_prime
    # Each recipient would sum its own shares locally before the totals are
    # combined; modular addition is associative, so one sum per coordinate
    # over every share of every bundle gives the same result.
    rows = [row for b in bundles for row in b.shares]
    return [sum(column) % p for column in zip(*rows)]


def reconstruct_sum(bundles: Sequence[ShareBundle]) -> np.ndarray:
    """Sum of all original updates, recovered through the shares."""
    totals = reconstruct_field_sum(bundles)
    codec = FixedPointCodec(bundles[0].field_prime, bundles[0].scale)
    return np.array([decode_real(codec, t) for t in totals], dtype=np.float64)


def membership_advantage(
    model: ModelParams, members: LabeledDataset, nonmembers: LabeledDataset
) -> float:
    """Loss-threshold attack advantage |TPR - FPR| in [0, 1].

    The threshold is the midpoint of the two mean losses; samples below it
    are guessed to be members. 1 - advantage serves as a privacy score.
    """
    if members.count == 0 or nonmembers.count == 0:
        raise InvalidInputError("member and nonmember sets must be nonempty")
    member_losses = per_sample_losses(model, members)
    nonmember_losses = per_sample_losses(model, nonmembers)
    tau = 0.5 * (float(member_losses.mean()) + float(nonmember_losses.mean()))
    tpr = float(np.mean(member_losses < tau))
    fpr = float(np.mean(nonmember_losses < tau))
    return abs(tpr - fpr)
