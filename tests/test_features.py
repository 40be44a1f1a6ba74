import numpy as np
import pytest

from crossfed.datasets import SyntheticSpec, generate
from crossfed.errors import InvalidInputError
from crossfed.features import FeatureExtractor, augment_dataset, extract, transform
from crossfed.models import (
    LabeledDataset,
    ModelArch,
    TrainConfig,
    accuracy,
    init_params,
    local_train,
)


def test_rff_output_range():
    fx = FeatureExtractor(seed=1, input_dim=4, output_dim=16)
    bound = np.sqrt(2.0 / 16)
    rng = np.random.default_rng(0)
    z = transform(fx, rng.normal(size=(50, 4)) * 10.0)
    assert np.all(np.abs(z) <= bound + 1e-15)


def test_same_seed_bit_identical_different_seed_differs():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 5))
    a = FeatureExtractor(seed=7, input_dim=5, output_dim=32)
    b = FeatureExtractor(seed=7, input_dim=5, output_dim=32)
    c = FeatureExtractor(seed=8, input_dim=5, output_dim=32)
    assert np.array_equal(transform(a, x), transform(b, x))
    assert not np.array_equal(transform(a, x), transform(c, x))


def test_extract_dimension_mismatch():
    fx = FeatureExtractor(seed=0, input_dim=3, output_dim=8)
    with pytest.raises(InvalidInputError):
        extract(fx, [1.0, 2.0])


def test_extractor_rejects_empty_dims_and_nonpositive_gamma():
    for input_dim, output_dim, gamma in [(0, 4, 1.0), (3, 0, 1.0), (3, 4, 0.0), (3, 4, -1.0)]:
        with pytest.raises(InvalidInputError):
            FeatureExtractor(seed=0, input_dim=input_dim, output_dim=output_dim, gamma=gamma)


def test_augment_preserves_count_order_labels():
    data = generate(SyntheticSpec("blobs", dim=4, samples=37, seed=3))
    fx = FeatureExtractor(seed=5, input_dim=4, output_dim=10)
    out = augment_dataset(fx, data)
    assert out.count == data.count
    assert out.dim == 10
    np.testing.assert_array_equal(out.labels, data.labels)
    # row i of the output is the extraction of row i of the input
    np.testing.assert_array_equal(out.features[5], extract(fx, data.features[5]))


def _train_accuracy_on(train, test, hidden_units=0, lr=0.5, epochs=150, seed=1):
    arch = ModelArch(train.dim, hidden_units)
    trained, _ = local_train(
        init_params(arch, seed), train, TrainConfig(lr, epochs, 32, seed)
    )
    return accuracy(trained, test)


def test_xor_separability_lift():
    # logistic on raw xor is stuck near chance; on random-Fourier features it
    # clears the 0.85 bar (require 4 of 5 seeds)
    hits = 0
    for seed in range(1, 6):
        train = generate(SyntheticSpec("xor", dim=2, samples=400, seed=seed * 10, noise=0.3))
        test = generate(SyntheticSpec("xor", dim=2, samples=400, seed=seed * 10 + 1, noise=0.3))
        raw_acc = _train_accuracy_on(train, test, seed=seed)
        fx = FeatureExtractor(seed=seed, input_dim=2, output_dim=64, gamma=1.0)
        aug_acc = _train_accuracy_on(
            augment_dataset(fx, train), augment_dataset(fx, test), seed=seed
        )
        if aug_acc >= 0.85 and raw_acc <= 0.60:
            hits += 1
    assert hits >= 4


def test_frozen_sharing_across_nodes():
    # extractors built independently from one seed agree pointwise
    node_a = FeatureExtractor(seed=99, input_dim=6, output_dim=24)
    node_b = FeatureExtractor(seed=99, input_dim=6, output_dim=24)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=6)
        np.testing.assert_array_equal(extract(node_a, x), extract(node_b, x))


def test_label_non_interference():
    rng = np.random.default_rng(5)
    data = LabeledDataset(rng.normal(size=(30, 2)), rng.integers(0, 2, 30))
    fx = FeatureExtractor(seed=1, input_dim=2, output_dim=16)
    assert np.array_equal(augment_dataset(fx, data).labels, data.labels)
