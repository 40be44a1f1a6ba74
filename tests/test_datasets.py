from collections import Counter

import numpy as np
import pytest

from crossfed.datasets import (
    PartitionScheme,
    SyntheticSpec,
    generate,
    load_csv,
    partition,
    save_csv,
)
from crossfed.errors import CsvParseError, InvalidInputError
from crossfed.models import ModelArch, TrainConfig, accuracy, init_params, local_train


def test_blobs_balanced_and_sized():
    data = generate(SyntheticSpec("blobs", dim=3, samples=10, seed=1))
    assert data.count == 10
    assert int(data.labels.sum()) == 5


def test_generate_deterministic():
    spec = SyntheticSpec("blobs", dim=4, samples=50, seed=9)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_separated_blobs_are_learnable():
    train = generate(SyntheticSpec("blobs", dim=4, samples=500, seed=2, separation=6.0))
    test = generate(SyntheticSpec("blobs", dim=4, samples=500, seed=3, separation=6.0))
    model = local_train(
        init_params(ModelArch(4), 0), train, TrainConfig(0.1, 20, 32, 0)
    )
    assert accuracy(model, test) >= 0.95


def test_xor_labels_follow_quadrants():
    data = generate(SyntheticSpec("xor", dim=2, samples=400, seed=4, noise=0.05))
    # with tiny cluster noise the sample's own sign product recovers the label
    sign_product = np.sign(data.features[:, 0]) * np.sign(data.features[:, 1])
    assert np.mean((sign_product > 0) == (data.labels == 1)) >= 0.99


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SyntheticSpec("xor", dim=3, samples=10, seed=0)
    with pytest.raises(InvalidInputError):
        SyntheticSpec("blobs", dim=2, samples=1, seed=0)
    with pytest.raises(InvalidInputError):
        SyntheticSpec("moons", dim=2, samples=10, seed=0)


# --- csv ---------------------------------------------------------------------


def test_load_csv_small(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1.5,-2,1\n0,3.25,0\n-1,0.5,1\n")
    data = load_csv(path, "label")
    assert data.count == 3
    np.testing.assert_array_equal(data.labels, [1, 0, 1])
    np.testing.assert_array_equal(data.features[0], [1.5, -2.0])


def test_load_csv_bad_label_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1,0\n2,1\n3,2\n")
    with pytest.raises(CsvParseError, match="line 4"):
        load_csv(path, "label")


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CsvParseError, match="line 1"):
        load_csv(path, "label")


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("a,label\n1,0\nBOOM,1\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(path, "label")


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,label\n1,2,0\n1,2\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(path, "label")


def test_csv_roundtrip_exact(tmp_path):
    data = generate(SyntheticSpec("blobs", dim=5, samples=40, seed=12))
    path = tmp_path / "round.csv"
    save_csv(data, path)
    back = load_csv(path, "label")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


# --- partitioning --------------------------------------------------------------


def _row_multiset(data):
    return Counter(
        (tuple(row), int(label)) for row, label in zip(data.features, data.labels)
    )


def test_partition_single_shard_is_whole_input():
    data = generate(SyntheticSpec("blobs", dim=2, samples=30, seed=5))
    shards = partition(data, PartitionScheme("iid", 1), seed=0)
    assert len(shards) == 1
    assert _row_multiset(shards[0]) == _row_multiset(data)


def test_partition_iid_even_sizes():
    data = generate(SyntheticSpec("blobs", dim=2, samples=100, seed=6))
    shards = partition(data, PartitionScheme("iid", 4), seed=1)
    assert [s.count for s in shards] == [25, 25, 25, 25]


def test_partition_conserves_samples():
    data = generate(SyntheticSpec("blobs", dim=3, samples=101, seed=7))
    for scheme in (PartitionScheme("iid", 4), PartitionScheme("dirichlet", 4, 0.3)):
        shards = partition(data, scheme, seed=2)
        assert sum(s.count for s in shards) == data.count
        combined = Counter()
        for s in shards:
            combined += _row_multiset(s)
        assert combined == _row_multiset(data)


def _imbalance(shards):
    # max deviation of per-shard label-1 fraction from the global fraction
    fracs = [s.labels.mean() for s in shards if s.count]
    return max(fracs) - min(fracs)


def test_dirichlet_more_heterogeneous_than_iid():
    wins = 0
    for seed in range(5):
        data = generate(SyntheticSpec("blobs", dim=2, samples=400, seed=seed))
        iid = partition(data, PartitionScheme("iid", 5), seed=seed)
        skewed = partition(data, PartitionScheme("dirichlet", 5, 0.1), seed=seed)
        if _imbalance(skewed) > _imbalance(iid):
            wins += 1
    assert wins >= 4


def test_dirichlet_heterogeneity_monotone_in_alpha():
    def label_variance(alpha, seed):
        data = generate(SyntheticSpec("blobs", dim=2, samples=400, seed=seed))
        shards = partition(data, PartitionScheme("dirichlet", 5, alpha), seed=seed)
        return np.var([s.labels.mean() for s in shards])

    low = np.mean([label_variance(0.1, s) for s in range(5)])
    high = np.mean([label_variance(10.0, s) for s in range(5)])
    assert low > high


def test_partition_deterministic():
    data = generate(SyntheticSpec("blobs", dim=2, samples=64, seed=8))
    scheme = PartitionScheme("dirichlet", 3, 0.5)
    a = partition(data, scheme, seed=3)
    b = partition(data, scheme, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)


def test_partition_too_few_samples():
    data = generate(SyntheticSpec("blobs", dim=2, samples=3, seed=9))
    with pytest.raises(InvalidInputError):
        partition(data, PartitionScheme("iid", 4), seed=0)
