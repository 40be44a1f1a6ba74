"""Binary classifiers on flat parameter vectors, with local SGD training.

Two architectures share one representation: plain logistic regression
(``hidden_units = 0``) and a one-hidden-layer tanh network with a sigmoid
head. Parameters live in a single float64 vector so they can be averaged,
encrypted, secret-shared, and diffed without any knowledge of the layer
structure. Layout for ``hidden_units = h > 0`` and ``input_dim = d``:

    [W1 (h*d, row-major) | b1 (h) | w2 (h) | b2 (1)]

and for ``h = 0``: ``[w (d) | b (1)]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .rngutil import derive_rng

# Predicted probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP]
# before any log so the cross-entropy stays finite.
PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelArch:
    """Classifier shape; ``hidden_units = 0`` means logistic regression."""

    input_dim: int
    hidden_units: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden_units < 0:
            raise InvalidInputError(
                f"hidden_units must be >= 0, got {self.hidden_units}"
            )

    @property
    def param_count(self) -> int:
        d, h = self.input_dim, self.hidden_units
        if h == 0:
            return d + 1
        return h * (d + 1) + (h + 1)


@dataclass(frozen=True)
class ModelParams:
    """A flat, finite float64 parameter vector tied to its architecture."""

    arch: ModelArch
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.arch.param_count,):
            raise InvalidInputError(
                f"expected {self.arch.param_count} parameters, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("parameter vector contains NaN or Inf")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix of shape (count, dim) with binary labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise InvalidInputError(f"features must be 2-D, got ndim={features.ndim}")
        if labels.shape != (features.shape[0],):
            raise InvalidInputError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        if not np.all(np.isfinite(features)):
            raise NumericError("features contain NaN or Inf")
        if labels.size and not np.all((labels == 0) | (labels == 1)):
            raise InvalidInputError("labels must be 0 or 1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD settings. Zero epochs / zero rate are legal no-ops."""

    learning_rate: float
    local_epochs: int
    batch_size: int
    rng_seed: int

    def __post_init__(self):
        if not 0.0 <= self.learning_rate <= 1.0:
            raise InvalidInputError(
                f"learning_rate must be in [0, 1], got {self.learning_rate}"
            )
        if self.local_epochs < 0:
            raise InvalidInputError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be >= 1, got {self.batch_size}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form never overflows
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _unpack_mlp(arch: ModelArch, values: np.ndarray):
    d, h = arch.input_dim, arch.hidden_units
    w1 = values[: h * d].reshape(h, d)
    b1 = values[h * d : h * d + h]
    w2 = values[h * d + h : h * d + 2 * h]
    b2 = values[h * d + 2 * h]
    return w1, b1, w2, b2


def _forward(arch: ModelArch, values: np.ndarray, x: np.ndarray):
    """Batch logits plus hidden activations (None for logistic)."""
    d = arch.input_dim
    if arch.hidden_units == 0:
        logits = x @ values[:d]
        logits += values[d]
        return logits, None
    w1, b1, w2, b2 = _unpack_mlp(arch, values)
    hidden = x @ w1.T
    hidden += b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2
    return logits, hidden


def predict_proba(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities for a batch; rows must match input_dim."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise InvalidInputError(
            f"expected shape (n, {params.arch.input_dim}), got {x.shape}"
        )
    logits, _ = _forward(params.arch, params.values, x)
    return _sigmoid(logits)


def predict(params: ModelParams, features) -> float:
    """Class-1 probability for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (params.arch.input_dim,):
        raise InvalidInputError(
            f"expected {params.arch.input_dim} features, got shape {x.shape}"
        )
    return float(predict_proba(params, x[None, :])[0])


def per_sample_losses(params: ModelParams, data: LabeledDataset) -> np.ndarray:
    """Per-sample binary cross-entropy with clamped probabilities."""
    if data.count == 0:
        raise InvalidInputError("dataset is empty")
    p = np.clip(predict_proba(params, data.features), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = data.labels.astype(np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def dataset_loss(params: ModelParams, data: LabeledDataset) -> float:
    """Mean cross-entropy over the dataset."""
    return float(np.mean(per_sample_losses(params, data)))


def accuracy(params: ModelParams, data: LabeledDataset) -> float:
    """Fraction of samples where thresholding at 0.5 matches the label."""
    if data.count == 0:
        raise InvalidInputError("dataset is empty")
    p = predict_proba(params, data.features)
    return float(np.mean((p >= 0.5) == (data.labels == 1)))


def _gradient_values(
    arch: ModelArch, values: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Mean loss gradient over the batch, written into ``out``.

    In-place ufuncs apply the operations of ``(_sigmoid(z) - y) / n`` and of
    the backward pass in the same order, so every value is bitwise the same.
    """
    n = x.shape[0]
    r, hidden = _forward(arch, values, x)
    r *= 0.5  # _sigmoid, in place
    np.tanh(r, out=r)
    r += 1.0
    r *= 0.5
    r -= y
    r /= n  # dLoss/dlogit, already averaged
    d, h = arch.input_dim, arch.hidden_units
    if h == 0:
        np.matmul(x.T, r, out=out[:d])
        out[d] = r.sum()
        return out
    w2 = values[h * d + h : h * d + 2 * h]
    np.matmul(hidden.T, r, out=out[h * d + h : h * d + 2 * h])  # w2
    out[-1] = r.sum()  # b2
    dh = r[:, None] * w2[None, :]
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dh *= hidden
    np.matmul(dh.T, x, out=out[: h * d].reshape(h, d))  # W1
    np.add.reduce(dh, axis=0, out=out[h * d : h * d + h])  # b1
    return out


def gradient(params: ModelParams, batch: LabeledDataset) -> np.ndarray:
    """Mean loss gradient over the batch, same length as params.values."""
    if batch.count == 0:
        raise InvalidInputError("batch is empty")
    if batch.dim != params.arch.input_dim:
        raise InvalidInputError(
            f"batch dim {batch.dim} does not match input_dim {params.arch.input_dim}"
        )
    return _gradient_values(
        params.arch,
        params.values,
        batch.features,
        batch.labels.astype(np.float64),
        np.empty_like(params.values),
    )


def local_train(
    params: ModelParams, data: LabeledDataset, cfg: TrainConfig
) -> tuple[ModelParams, float]:
    """Mini-batch SGD with per-epoch shuffling seeded from cfg.rng_seed.

    Returns the trained parameters and the final mean loss over ``data``.
    The input ``params`` is never modified.
    """
    if data.count == 0:
        raise InvalidInputError("dataset is empty")
    if data.dim != params.arch.input_dim:
        raise InvalidInputError(
            f"dataset dim {data.dim} does not match input_dim {params.arch.input_dim}"
        )
    arch, size = params.arch, cfg.batch_size
    values = params.values.copy()
    grad = np.empty_like(values)
    x, y = data.features, data.labels.astype(np.float64)
    rng = derive_rng(cfg.rng_seed)
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(data.count)
        xs, ys = x[order], y[order]  # one gather per epoch; batches are slices
        for start in range(0, data.count, size):
            _gradient_values(arch, values, xs[start : start + size], ys[start : start + size], grad)
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in epoch {epoch}")
            grad *= cfg.learning_rate
            values -= grad
    trained = ModelParams(params.arch, values)
    return trained, dataset_loss(trained, data)


def init_params(arch: ModelArch, seed: int) -> ModelParams:
    """Seeded uniform init in [-0.5, 0.5] scaled by 1/sqrt(fan_in)."""
    rng = derive_rng(seed)
    d, h = arch.input_dim, arch.hidden_units
    if h == 0:
        values = rng.uniform(-0.5, 0.5, d + 1) / np.sqrt(d)
    else:
        layer1 = rng.uniform(-0.5, 0.5, h * (d + 1)) / np.sqrt(d)
        layer2 = rng.uniform(-0.5, 0.5, h + 1) / np.sqrt(h)
        values = np.concatenate([layer1, layer2])
    return ModelParams(arch, values)


def param_delta(before: ModelParams, after: ModelParams) -> np.ndarray:
    """Elementwise parameter difference ``after - before``."""
    if before.arch != after.arch:
        raise InvalidInputError("parameter vectors have different architectures")
    return after.values - before.values


def apply_delta(params: ModelParams, delta) -> ModelParams:
    """Materialize ``params + delta`` as a new parameter vector."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != params.values.shape:
        raise InvalidInputError(
            f"delta shape {delta.shape} does not match {params.values.shape}"
        )
    return ModelParams(params.arch, params.values + delta)
