"""Differential-privacy and secret-sharing baselines, plus the
loss-threshold membership-inference metric used to score privacy.

The DP path clips an update to L2 norm C and adds per-coordinate Gaussian
noise calibrated by the classical (epsilon, delta) bound of Dwork and Roth
(2014, Thm A.1), sigma = C * sqrt(2 ln(1.25 / delta)) / epsilon; budgets
compose linearly across rounds. That theorem is proved only for
epsilon < 1, but at delta = 1e-5 the exact Gaussian privacy curve (Balle
and Wang 2018, Thm 8) shows the same sigma meets delta for every swept
epsilon from 0.5 to 8; ``gaussian_delta`` computes that exact curve. The
SMC path splits fixed-point-encoded updates into additive shares over the
prime field 2^61 - 1. It encodes and decodes as ``paillier.FixedPointCodec``
does for the HE path, vectorised over int64 residue arrays; sums of
residues are reduced mod p often enough that they never wrap.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .models import LabeledDataset, ModelParams, per_sample_losses
from .paillier import FixedPointCodec, encode_real

SMC_FIELD_PRIME = (1 << 61) - 1
# SMC fixed-point scale; coarser than the HE codec because field headroom
# is only 2^61 rather than a 256+ bit modulus.
SMC_SCALE = 1 << 20
# largest field prime whose residues fit int64 with room for modular sums
_MAX_FIELD_PRIME = 1 << 62


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
    """Classical Gaussian-mechanism noise scale for (epsilon, delta)-DP
    (Dwork and Roth 2014, Thm A.1): C * sqrt(2 ln(1.25 / delta)) / epsilon."""
    if clip_norm <= 0.0:
        raise InvalidInputError(f"clip_norm must be positive, got {clip_norm}")
    if epsilon <= 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidInputError(f"delta must be in (0, 1), got {delta}")
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def gaussian_delta(sigma: float, epsilon: float, sensitivity: float) -> float:
    """Exact delta(epsilon) of the Gaussian mechanism with noise sigma and
    L2 sensitivity D (Balle and Wang 2018, Thm 8):
    Phi(D/2s - eps*s/D) - e^eps * Phi(-D/2s - eps*s/D). A delta below the
    smallest normal float64 (2.2e-308) is returned as 0.0, and one within
    1e-9 of 1 as 1.0 (no privacy)."""
    if not 0.0 < sigma < math.inf:
        raise InvalidInputError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 <= epsilon < math.inf:
        raise InvalidInputError(f"epsilon must be >= 0 and finite, got {epsilon}")
    if not 0.0 < sensitivity < math.inf:
        raise InvalidInputError(f"sensitivity must be positive and finite, got {sensitivity}")

    # With a = D/2s, b = eps*s/D and pdf the standard normal density,
    # 2ab = eps gives e^eps * pdf(a + b) = pdf(b - a), so the curve is
    # Q(b - a) - pdf(b - a) * R(a + b) with Q the upper tail and R = Q / pdf
    # the Mills ratio. Neither form below subtracts two nearly equal terms:
    # delta = pdf(b - a) * (R(b - a) - R(a + b)), taken in log space, and
    # where delta > 2/3 (a - b >= 1), 1 - (Q(a - b) + pdf(a - b) * R(a + b)),
    # whose two small terms are summed before the one rounding next to 1.
    a, b = sensitivity / (2.0 * sigma), epsilon * sigma / sensitivity
    x = b - a
    if x > -1.0:
        gap = _mills_ratio(x) - _mills_ratio(a + b)
        if gap <= 0.0:  # a vanishingly small next to b
            return 0.0
        delta = math.exp(math.log(gap) - 0.5 * x * x - _LOG_SQRT_2PI)
        # subnormals keep too few digits to order nearby deltas
        return delta if delta >= sys.float_info.min else 0.0
    tails = 0.5 * math.erfc(-x / math.sqrt(2.0)) + _normal_pdf(x) * _mills_ratio(a + b)
    return 1.0 - tails if tails >= _DELTA_SATURATES_BELOW_ONE else 1.0


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# below this argument erfc(x / sqrt 2) * e^(x^2 / 2) is accurate to ~1e-15;
# from it Laplace's continued fraction converges to ~1e-17 in 60 terms
_MILLS_SERIES_FROM = 3.0
_MILLS_TERMS = 60
# float64 spacing next to 1 is 1.1e-16, so where 1 - delta is smaller than
# this, deltas that differ exactly can round to one value. Above it, for
# D/2s <= 100, a 0.1% step in sigma or a step of 1e-3 in eps moves delta
# by more than 3e-15.
_DELTA_SATURATES_BELOW_ONE = 1e-9


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _mills_ratio(x: float) -> float:
    """R(x) = Q(x) / pdf(x) of the standard normal, for x > -1."""
    if x < _MILLS_SERIES_FROM:
        return 0.5 * math.erfc(x / math.sqrt(2.0)) / _normal_pdf(x)
    # 1 / (x + 1 / (x + 2 / (x + 3 / (x + ...)))), evaluated from the tail
    f = x
    for k in range(_MILLS_TERMS, 0, -1):
        f = x + k / f
    return 1.0 / f


def dp_privatize(delta, cfg: DpConfig, rng: np.random.Generator) -> np.ndarray:
    """Clip, then add i.i.d. Gaussian noise per coordinate."""
    clipped = clip_update(delta, cfg.clip_norm)
    sigma = gaussian_sigma(cfg.clip_norm, cfg.epsilon, cfg.delta)
    return clipped + rng.normal(0.0, sigma, size=clipped.shape)


@dataclass(frozen=True)
class ShareBundle:
    """One node's additive sharing: a (K, d) int64 array of residues whose
    K rows, one per recipient, sum to the encoded update mod field_prime."""

    field_prime: int
    scale: int
    shares: np.ndarray

    def __post_init__(self):
        if not 2 <= self.field_prime <= _MAX_FIELD_PRIME:
            raise InvalidInputError(
                f"field_prime must be in [2, 2^62] so residues and their sums fit, "
                f"got {self.field_prime}"
            )
        FixedPointCodec(self.field_prime, self.scale)  # a power-of-two scale decodes exactly
        s = self.shares
        if not isinstance(s, np.ndarray) or s.dtype != np.int64 or s.ndim != 2:
            raise InvalidInputError("shares must be a 2-D int64 array")
        if s.shape[0] < 2:
            raise InvalidInputError("need at least 2 shares")
        if s.size and (s.min() < 0 or s.max() >= self.field_prime):
            raise InvalidInputError("shares must be residues in [0, field_prime)")


def share(update, scale: int, num_parties: int, rng: np.random.Generator) -> ShareBundle:
    """Split an update into num_parties uniform additive shares.

    The first K-1 shares are uniform over the field; the last absorbs the
    encoded update. Encoding gives the integers ``encode_real`` gives, and
    the first value it would reject raises its error. Callers summing many
    nodes must keep the sum in range, as ``paillier.check_sum_headroom`` does.
    """
    if num_parties < 2:
        raise InvalidInputError(f"need at least 2 parties, got {num_parties}")
    update = np.asarray(update, dtype=np.float64)
    if update.ndim != 1:
        raise InvalidInputError("update must be a 1-D vector")
    p = SMC_FIELD_PRIME
    codec = FixedPointCodec(p, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        # exact, as scale is a power of two; rint rounds half to even, as round does
        scaled = np.rint(update * scale)
        # |s| >= 2^60 is 2|s| >= p for integers s; 2^60 is exact in float64
        bad = ~(np.abs(scaled) < (p + 1) // 2)  # NaN and inf included
    if bad.any():
        encode_real(codec, float(update[np.argmax(bad)]))  # raises its error
    first = rng.integers(0, p, size=(num_parties - 1, update.size))
    last = (scaled.astype(np.int64) % p - _column_sums_mod(first, p)) % p
    return ShareBundle(p, scale, np.vstack([first, last[None, :]]))


def _column_sums_mod(rows: np.ndarray, p: int) -> np.ndarray:
    """Exact column sums mod p of a 2-D array of residues in [0, p).

    A running total below p plus ``step`` more residues stays below 2^64,
    so uint64 adds 7 rows at a time for p = 2^61 - 1 and never wraps.
    """
    step = (1 << 64) // p - 1
    total = np.zeros(rows.shape[1], dtype=np.uint64)
    for start in range(0, rows.shape[0], step):
        total += rows[start : start + step].sum(axis=0, dtype=np.uint64)
        total %= p
    return total.astype(np.int64)


def _field_sum(bundles: Sequence[ShareBundle]) -> np.ndarray:
    if not bundles:
        raise InvalidInputError("no bundles to reconstruct")
    first = bundles[0]
    for b in bundles:
        if b.field_prime != first.field_prime or b.scale != first.scale:
            raise InvalidInputError("bundles disagree on field or scale")
        if b.shares.shape != first.shares.shape:
            raise InvalidInputError("bundles disagree on share geometry")
    p = first.field_prime
    # Each recipient would sum its own shares locally before the totals are
    # combined; modular addition is associative, so one sum per coordinate
    # over every share of every bundle gives the same result.
    return _column_sums_mod(np.concatenate([b.shares for b in bundles]), p)


def reconstruct_field_sum(bundles: Sequence[ShareBundle]) -> list[int]:
    """Exact modular sum of all encoded updates, before decoding."""
    return _field_sum(bundles).tolist()


def reconstruct_sum(bundles: Sequence[ShareBundle]) -> np.ndarray:
    """Sum of all original updates, recovered through the shares; each
    value equals ``decode_real`` of its field total."""
    totals = _field_sum(bundles)
    p = bundles[0].field_prime
    signed = np.where(totals > p // 2, totals - p, totals)
    # int64 -> float64 rounds once; dividing by a power of two is then
    # exact, which is the correctly rounded quotient decode_real computes
    return signed / bundles[0].scale


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
