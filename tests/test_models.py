import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfed import models
from crossfed.datasets import SyntheticSpec, generate
from crossfed.errors import InvalidInputError, NumericError
from crossfed.models import (
    LabeledDataset,
    ModelArch,
    ModelParams,
    TrainConfig,
    accuracy,
    apply_delta,
    dataset_loss,
    gradient,
    init_params,
    local_train,
    param_delta,
    predict,
    predict_proba,
)
from crossfed.rngutil import seed_sequence


def make_params(arch, values):
    return ModelParams(arch, np.asarray(values, dtype=np.float64))


def random_case(rng, hidden_units, input_dim=3, batch=8):
    arch = ModelArch(input_dim, hidden_units)
    params = make_params(arch, rng.uniform(-1.0, 1.0, arch.param_count))
    data = LabeledDataset(
        rng.uniform(-2.0, 2.0, (batch, input_dim)), rng.integers(0, 2, batch)
    )
    return params, data


# --- predict ---------------------------------------------------------------


def test_predict_zero_params_is_half():
    arch = ModelArch(4)
    params = make_params(arch, np.zeros(arch.param_count))
    assert predict(params, [3.0, -1.0, 0.5, 9.0]) == 0.5


def test_predict_saturates():
    # w=(2,0), b=0 at x=(10,0): sigmoid(20)
    params = make_params(ModelArch(2), [2.0, 0.0, 0.0])
    assert abs(predict(params, [10.0, 0.0]) - 1.0) < 1e-8


def test_predict_matches_hand_computed_mlp_forward():
    # straight-line arithmetic, independent of the module's forward pass
    arch = ModelArch(2, 2)
    w1 = [[0.5, -1.0], [2.0, 0.25]]
    b1 = [0.1, -0.2]
    w2 = [1.5, -0.5]
    b2 = 0.3
    params = make_params(arch, [0.5, -1.0, 2.0, 0.25, 0.1, -0.2, 1.5, -0.5, 0.3])
    x = [0.4, -0.6]
    h1 = math.tanh(w1[0][0] * x[0] + w1[0][1] * x[1] + b1[0])
    h2 = math.tanh(w1[1][0] * x[0] + w1[1][1] * x[1] + b1[1])
    z = w2[0] * h1 + w2[1] * h2 + b2
    expected = 1.0 / (1.0 + math.exp(-z))
    assert abs(predict(params, x) - expected) < 1e-12


def test_predict_dimension_mismatch():
    params = make_params(ModelArch(2), [1.0, 1.0, 0.0])
    with pytest.raises(InvalidInputError):
        predict(params, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        predict_proba(params, np.zeros((4, 3)))


def test_predict_always_in_open_unit_interval():
    rng = np.random.default_rng(0)
    for h in (0, 4):
        for _ in range(20):
            params, data = random_case(rng, h)
            p = predict_proba(params, data.features * 50.0)  # force saturation
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


# --- dataset_loss ----------------------------------------------------------


def test_loss_perfect_predictions_tiny():
    params = make_params(ModelArch(1), [100.0, 0.0])
    data = LabeledDataset([[5.0], [-5.0]], [1, 0])
    assert dataset_loss(params, data) <= 1e-10


def test_loss_zero_params_balanced_is_ln2():
    arch = ModelArch(3)
    params = make_params(arch, np.zeros(arch.param_count))
    rng = np.random.default_rng(1)
    data = LabeledDataset(rng.normal(size=(10, 3)), [0, 1] * 5)
    assert abs(dataset_loss(params, data) - math.log(2.0)) < 1e-9


def test_loss_matches_per_sample_brute_force():
    params = make_params(ModelArch(2), [0.3, -0.2, 0.1])
    xs = [(1.0, 2.0), (-1.0, 0.5), (0.25, -1.0)]
    ys = [1, 0, 1]
    total = 0.0
    for (a, b), y in zip(xs, ys):
        p = 1.0 / (1.0 + math.exp(-(0.3 * a - 0.2 * b + 0.1)))
        total += -math.log(p) if y == 1 else -math.log(1.0 - p)
    data = LabeledDataset(xs, ys)
    assert abs(dataset_loss(params, data) - total / 3.0) < 1e-12


def test_loss_empty_dataset_rejected():
    params = make_params(ModelArch(2), [0.0, 0.0, 0.0])
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(InvalidInputError):
        dataset_loss(params, empty)


def test_loss_nonnegative_random():
    rng = np.random.default_rng(2)
    for h in (0, 3):
        for _ in range(20):
            params, data = random_case(rng, h)
            assert dataset_loss(params, data) >= 0.0


# --- gradient --------------------------------------------------------------


def finite_difference(params, batch, h=1e-5):
    base = params.values
    out = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        out[i] = (
            dataset_loss(ModelParams(params.arch, plus), batch)
            - dataset_loss(ModelParams(params.arch, minus), batch)
        ) / (2.0 * h)
    return out


def test_gradient_symmetric_batch_zero_bias():
    arch = ModelArch(2)
    params = make_params(arch, np.zeros(arch.param_count))
    x = [0.7, -0.3]
    data = LabeledDataset([x, x], [1, 0])
    g = gradient(params, data)
    assert g[-1] == 0.0  # bias coordinate


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for h_units in (0, 8):
        for _ in range(10):
            params, batch = random_case(rng, h_units, input_dim=4)
            analytic = gradient(params, batch)
            fd = finite_difference(params, batch)
            denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
            assert np.all(np.abs(analytic - fd) / denom < 1e-5)


def test_gradient_duplicated_batch_invariance():
    rng = np.random.default_rng(4)
    params, batch = random_case(rng, 2, batch=1)
    tripled = LabeledDataset(
        np.repeat(batch.features, 3, axis=0), np.repeat(batch.labels, 3)
    )
    np.testing.assert_allclose(gradient(params, batch), gradient(params, tripled))


def test_gradient_errors():
    params = make_params(ModelArch(2), [0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        gradient(params, LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))
    with pytest.raises(InvalidInputError):
        gradient(params, LabeledDataset(np.zeros((2, 3)), [0, 1]))


# --- local_train -----------------------------------------------------------


def test_local_train_zero_learning_rate_identity():
    rng = np.random.default_rng(5)
    params, data = random_case(rng, 2)
    cfg = TrainConfig(0.0, 3, 4, rng_seed=9)
    trained = local_train(params, data, cfg)
    assert np.array_equal(trained.values, params.values)


def test_local_train_single_step_closed_form():
    # one sample, one epoch, batch 1: w' = w - lr * (sigmoid(wx+b) - y) * (x, 1)
    w = np.array([0.2, -0.1])
    b = 0.05
    x = np.array([1.5, -2.0])
    lr = 0.1
    params = make_params(ModelArch(2), [*w, b])
    data = LabeledDataset([x], [1])
    trained = local_train(params, data, TrainConfig(lr, 1, 1, rng_seed=0))
    p = 1.0 / (1.0 + math.exp(-(w @ x + b)))
    expected = np.array([*(w - lr * (p - 1.0) * x), b - lr * (p - 1.0)])
    np.testing.assert_allclose(trained.values, expected, atol=1e-12)


def test_local_train_converges_on_separable_blobs():
    data = generate(SyntheticSpec("blobs", dim=2, samples=200, seed=5, separation=6.0))
    params = init_params(ModelArch(2), seed=1)
    trained = local_train(params, data, TrainConfig(0.05, 50, 32, rng_seed=1))
    assert accuracy(trained, data) >= 0.95


def test_local_train_deterministic_and_pure():
    rng = np.random.default_rng(6)
    params, data = random_case(rng, 4, batch=32)
    before = params.values.copy()
    cfg = TrainConfig(0.05, 3, 8, rng_seed=77)
    first = local_train(params, data, cfg)
    second = local_train(params, data, cfg)
    assert np.array_equal(first.values, second.values)
    assert dataset_loss(first, data) == dataset_loss(second, data)
    assert np.array_equal(params.values, before)  # input untouched


def test_local_train_reports_numeric_failure():
    # an unsaturated hidden unit feeding a huge w2 overflows the W1 gradient
    params = make_params(ModelArch(1, 1), [0.0, 0.0, 1e300, 0.0])
    data = LabeledDataset(np.array([[1e20]]), [0])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="epoch 0"):
            local_train(params, data, TrainConfig(0.1, 1, 1, rng_seed=0))


def test_full_batch_loss_monotone_for_small_lr():
    # convex case: hidden_units=0, batch_size=N, lr <= 0.1
    data = generate(SyntheticSpec("blobs", dim=5, samples=100, seed=11))
    params = init_params(ModelArch(5), seed=2)
    losses = [dataset_loss(params, data)]
    for _ in range(20):
        params = local_train(params, data, TrainConfig(0.1, 1, data.count, rng_seed=0))
        losses.append(dataset_loss(params, data))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# --- local_train against the allocating loop it replaced -------------------


def _oracle_forward(arch, values, x):
    d, h = arch.input_dim, arch.hidden_units
    if h == 0:
        return x @ values[:d] + values[d], None
    w1 = values[: h * d].reshape(h, d)
    b1 = values[h * d : h * d + h]
    w2 = values[h * d + h : h * d + 2 * h]
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2 + values[h * d + 2 * h], hidden


def _oracle_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _oracle_gradient(arch, values, x, y):
    n = x.shape[0]
    logits, hidden = _oracle_forward(arch, values, x)
    r = (_oracle_sigmoid(logits) - y) / n
    if arch.hidden_units == 0:
        return np.concatenate([x.T @ r, [r.sum()]])
    d, h = arch.input_dim, arch.hidden_units
    w2 = values[h * d + h : h * d + 2 * h]
    g_w2 = hidden.T @ r
    g_b2 = r.sum()
    dh = (r[:, None] * w2[None, :]) * (1.0 - hidden * hidden)
    g_w1 = dh.T @ x
    g_b1 = dh.sum(axis=0)
    return np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])


def _oracle_local_train(params, data, cfg):
    """One fresh generator per call, a fancy-indexed copy per batch and a
    new gradient vector per step; returns (values, mean loss)."""
    rng = np.random.default_rng(seed_sequence(cfg.rng_seed))
    values = params.values.copy()
    x, y = data.features, data.labels.astype(np.float64)
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(data.count)
        for start in range(0, data.count, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad = _oracle_gradient(params.arch, values, x[idx], y[idx])
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient in epoch {epoch}")
            values -= cfg.learning_rate * grad
    logits, _ = _oracle_forward(params.arch, values, x)
    p = np.clip(_oracle_sigmoid(logits), models.PROB_CLAMP, 1.0 - models.PROB_CLAMP)
    return values, float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


@settings(deadline=None, max_examples=150)
@given(
    hidden=st.sampled_from([0, 1, 6]),
    input_dim=st.integers(1, 5),
    count=st.integers(1, 40),
    batch=st.sampled_from(["one", "ragged", "larger"]),
    epochs=st.integers(0, 3),
    lr=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_local_train_bitwise_equals_allocating_loop(
    hidden, input_dim, count, batch, epochs, lr, seed
):
    rng = np.random.default_rng(seed)
    arch = ModelArch(input_dim, hidden)
    params = make_params(arch, rng.uniform(-1.5, 1.5, arch.param_count))
    data = LabeledDataset(rng.normal(0.0, 2.0, (count, input_dim)), rng.integers(0, 2, count))
    # "ragged" does not divide the count (a count of 1 or 2 has no such size)
    size = {"one": 1, "ragged": max(1, count // 2 + 1) if count > 2 else 1,
            "larger": count + 3}[batch]
    cfg = TrainConfig(lr, epochs, size, rng_seed=seed)
    before = params.values.copy()
    trained = local_train(params, data, cfg)
    values, expected_loss = _oracle_local_train(params, data, cfg)
    assert trained.values.tobytes() == values.tobytes()
    assert repr(dataset_loss(trained, data)) == repr(expected_loss)
    assert params.values.tobytes() == before.tobytes()


def test_gradient_bitwise_equals_allocating_gradient():
    rng = np.random.default_rng(21)
    for hidden in (0, 1, 6):
        for n in (1, 3, 7, 32):
            params, data = random_case(rng, hidden, input_dim=4, batch=n)
            expected = _oracle_gradient(
                params.arch, params.values, data.features, data.labels.astype(np.float64)
            )
            assert gradient(params, data).tobytes() == expected.tobytes()


# --- deltas ----------------------------------------------------------------


def test_delta_zero_and_self():
    rng = np.random.default_rng(7)
    params, _ = random_case(rng, 3)
    assert np.array_equal(apply_delta(params, np.zeros(params.values.size)).values,
                          params.values)
    assert np.array_equal(param_delta(params, params), np.zeros(params.values.size))


def test_delta_roundtrip():
    rng = np.random.default_rng(8)
    arch = ModelArch(6, 2)
    w = make_params(arch, rng.normal(size=arch.param_count))
    d = rng.normal(size=arch.param_count)
    recovered = param_delta(w, apply_delta(w, d))
    assert np.max(np.abs(recovered - d)) < 1e-12


def test_delta_arch_mismatch():
    a = make_params(ModelArch(2), [0.0, 0.0, 0.0])
    b = make_params(ModelArch(3), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        param_delta(a, b)
    with pytest.raises(InvalidInputError):
        apply_delta(a, np.zeros(4))


# --- validation ------------------------------------------------------------


def test_param_count_formula():
    assert ModelArch(7).param_count == 8
    assert ModelArch(7, 3).param_count == 3 * 8 + 4


def test_arch_rejects_a_parameter_count_numpy_cannot_index():
    largest = np.iinfo(np.intp).max
    assert ModelArch(largest - 1).param_count == largest
    with pytest.raises(InvalidInputError, match=f"parameter count {largest + 1} "):
        ModelArch(largest)
    with pytest.raises(InvalidInputError, match="parameter count"):
        ModelArch(4, int(1e300))


def test_params_reject_nan_and_bad_shape():
    arch = ModelArch(2)
    with pytest.raises(Exception):
        ModelParams(arch, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        ModelParams(arch, np.zeros(5))


def test_train_config_validation():
    with pytest.raises(InvalidInputError):
        TrainConfig(-0.1, 1, 1, 0)
    with pytest.raises(InvalidInputError):
        TrainConfig(0.1, -1, 1, 0)
    with pytest.raises(InvalidInputError):
        TrainConfig(0.1, 1, 0, 0)
    TrainConfig(0.0, 0, 1, 0)  # degenerate no-ops are legal


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((3, 2)), [0, 1, 2])
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros(3), [0, 1, 0])


def test_init_params_deterministic():
    a = init_params(ModelArch(5, 3), seed=42)
    b = init_params(ModelArch(5, 3), seed=42)
    c = init_params(ModelArch(5, 3), seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
