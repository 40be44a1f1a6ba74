import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from crossfed.datasets import PartitionScheme, SyntheticSpec, generate, partition
from crossfed.errors import CryptoRangeError, InvalidInputError, RoundError
from crossfed.features import FeatureExtractor, augment_dataset
from crossfed.federation import (
    FederationConfig,
    NodeState,
    fedavg_aggregate,
    init_federation,
    migrate_and_finetune,
    run_round,
    run_training,
)
from crossfed.models import (
    LabeledDataset,
    ModelArch,
    ModelParams,
    TrainConfig,
    accuracy,
    apply_delta,
)
from crossfed.privacy import SMC_SCALE, DpConfig


def _train_cfg(lr=0.05, epochs=1, batch=32, seed=0):
    return TrainConfig(lr, epochs, batch, seed)


def _blob_setting(seed=1, dim=5, samples=500, k=5, separation=6.0):
    train = generate(SyntheticSpec("blobs", dim=dim, samples=samples, seed=seed * 100,
                                   separation=separation))
    test = generate(SyntheticSpec("blobs", dim=dim, samples=200, seed=seed * 100 + 1,
                                  separation=separation))
    shards = partition(train, PartitionScheme("iid", k), seed=seed)
    return shards, test


# --- aggregation -------------------------------------------------------------


def test_aggregate_single_node_exact():
    arch = ModelArch(3)
    w = ModelParams(arch, np.array([0.1, -0.2, 0.3, 7.0]))
    out = fedavg_aggregate([(w, 17)])
    assert np.array_equal(out.values, w.values)


def test_aggregate_equal_weights_cancel():
    arch = ModelArch(2)
    w = ModelParams(arch, np.array([1.5, -2.5, 0.25]))
    neg = ModelParams(arch, -w.values)
    out = fedavg_aggregate([(w, 4), (neg, 4)])
    assert np.all(out.values == 0.0)


def test_aggregate_matches_exact_rational_oracle():
    rng = np.random.default_rng(1)
    arch = ModelArch(7, 2)
    updates = []
    for _ in range(7):
        params = ModelParams(arch, rng.uniform(-3, 3, arch.param_count))
        updates.append((params, int(rng.integers(1, 100))))
    result = fedavg_aggregate(updates)
    total = sum(c for _, c in updates)
    for j in range(arch.param_count):
        exact = sum(Fraction(c) * Fraction(float(p.values[j])) for p, c in updates)
        exact /= total
        assert abs(result.values[j] - float(exact)) < 1e-12


def test_aggregate_permutation_bit_equality():
    rng = np.random.default_rng(2)
    arch = ModelArch(4)
    updates = [
        (ModelParams(arch, rng.normal(size=arch.param_count)), int(rng.integers(1, 9)))
        for _ in range(6)
    ]
    base = fedavg_aggregate(updates)
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(len(updates)))
        shuffled = fedavg_aggregate([updates[i] for i in perm])
        assert np.array_equal(base.values, shuffled.values)


def test_aggregate_all_equal_updates_identity():
    arch = ModelArch(3)
    w = ModelParams(arch, np.array([0.5, 1.5, -0.5, 2.0]))
    out = fedavg_aggregate([(w, 3), (w, 9), (w, 1)])
    assert np.array_equal(out.values, w.values)


def test_aggregate_validation():
    arch = ModelArch(2)
    w = ModelParams(arch, np.zeros(3))
    other = ModelParams(ModelArch(3), np.zeros(4))
    with pytest.raises(InvalidInputError):
        fedavg_aggregate([])
    with pytest.raises(InvalidInputError):
        fedavg_aggregate([(w, 1), (other, 1)])
    with pytest.raises(InvalidInputError):
        fedavg_aggregate([(w, 0)])


# --- config and topology -------------------------------------------------------


def test_config_requires_strategy_extras():
    tc = _train_cfg()
    with pytest.raises(InvalidInputError):
        FederationConfig(3, 5, "dp-fl", tc)  # dp missing
    with pytest.raises(InvalidInputError):
        FederationConfig(3, 5, "fedavg", tc, dp=DpConfig(1.0, 1.0))  # dp illegal
    with pytest.raises(InvalidInputError):
        FederationConfig(3, 5, "he-fl", tc)  # he_bits missing
    with pytest.raises(InvalidInputError):
        FederationConfig(3, 5, "ours", tc, he_bits=256)  # extractor missing
    with pytest.raises(InvalidInputError):
        FederationConfig(3, 5, "mystery", tc)


@pytest.mark.parametrize("strategy", ["fedavg", "he-fl"])
def test_round_cost_model_pinned(strategy):
    from crossfed.federation import _simulate_round

    # 3 nodes x 50 samples, 6 params. Nodes 0 and 2 sit in the server's
    # cloud (1e5 bytes/ms, 0.1 ms); node 1 is across clouds (1000 bytes/ms,
    # 5 ms), so it is both the slowest upload and the slowest broadcast.
    # A transfer costs bytes / rate + latency.
    shards, test = _blob_setting(k=3, samples=150)
    assert [s.count for s in shards] == [50, 50, 50]
    train = 1 * 50 * 6 * 1e-6  # epochs x samples x params x 1e-6 ms
    down = 8 * 6
    if strategy == "fedavg":
        up, crypto, server = 8 * 6, 0.0, 6 * 3 * 1e-6
    else:  # 256-bit keys cost (256/512)^3 = 1/8 of the 512-bit figures
        up = 12 + 6 * (4 + 256 // 4)
        crypto = 6 * 0.35 / 8
        server = 6 * (3 * 0.02 / 8 + 0.35 / 8)
    cfg = FederationConfig(3, 1, strategy, _train_cfg(), seed=5,
                           he_bits=256 if strategy == "he-fl" else None)
    state = init_federation(cfg, shards, test)
    state, record = run_round(state, cfg)
    assert record.simulated_comm_bytes == 3 * up + 3 * down
    inter = (train + crypto + up / 1000.0 + 5.0) + server + (down / 1000.0 + 5.0)
    assert record.simulated_millis == pytest.approx(inter, rel=1e-12)
    # with node 1 moved into the server's cloud every link is intra-cloud
    state.nodes[1].cloud_id = state.nodes[0].cloud_id
    intra_ms, comm = _simulate_round(state, cfg, [50, 50, 50])
    intra = (train + crypto + up / 1e5 + 0.1) + server + (down / 1e5 + 0.1)
    assert intra_ms == pytest.approx(intra, rel=1e-12)
    assert intra_ms < record.simulated_millis
    assert comm == record.simulated_comm_bytes


# --- rounds ----------------------------------------------------------------


def test_noop_round_keeps_global():
    shards, test = _blob_setting(k=1)
    cfg = FederationConfig(1, 1, "fedavg", _train_cfg(epochs=0), seed=3)
    state = init_federation(cfg, shards, test)
    before = state.global_params.values.copy()
    state, record = run_round(state, cfg)
    assert np.array_equal(state.global_params.values, before)
    assert record.round_index == 0
    assert record.simulated_comm_bytes > 0


def test_he_round_tracks_fedavg():
    shards, test = _blob_setting()
    plain = FederationConfig(5, 5, "fedavg", _train_cfg(), target_accuracy=1.0, seed=4)
    he = FederationConfig(5, 5, "he-fl", _train_cfg(), target_accuracy=1.0, seed=4,
                          he_bits=256)
    ps, hs = init_federation(plain, shards, test), init_federation(he, shards, test)
    for _ in range(5):
        ps, pr = run_round(ps, plain)
        hs, hr = run_round(hs, he)
        assert np.max(np.abs(hr.global_params.values - pr.global_params.values)) <= 1e-6


def test_smc_round_tracks_fedavg_within_codec_bound():
    shards, test = _blob_setting()
    n_total = sum(s.count for s in shards)
    plain = FederationConfig(5, 5, "smc-fl", _train_cfg(), target_accuracy=1.0, seed=5)
    smc_cfg = plain
    plain = FederationConfig(5, 5, "fedavg", _train_cfg(), target_accuracy=1.0, seed=5)
    ps, ss = init_federation(plain, shards, test), init_federation(smc_cfg, shards, test)
    per_round = 5 / (2 * SMC_SCALE * n_total) + 1e-9
    for t in range(5):
        ps, pr = run_round(ps, plain)
        ss, sr = run_round(ss, smc_cfg)
        diff = np.max(np.abs(sr.global_params.values - pr.global_params.values))
        assert diff <= (t + 1) * per_round


def test_round_records_are_deterministic():
    shards, test = _blob_setting()
    cfg = FederationConfig(5, 4, "dp-fl", _train_cfg(), target_accuracy=1.0, seed=6,
                           dp=DpConfig(2.0, 1.0, rounds=4))
    a = run_training(cfg, shards, test)
    b = run_training(cfg, shards, test)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.global_params.values, rb.global_params.values)
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.train_accuracy == rb.train_accuracy
        assert ra.mean_local_loss == rb.mean_local_loss
        assert ra.simulated_millis == rb.simulated_millis
        assert ra.simulated_comm_bytes == rb.simulated_comm_bytes


def test_training_stops_immediately_with_zero_target():
    shards, test = _blob_setting()
    cfg = FederationConfig(5, 50, "fedavg", _train_cfg(), target_accuracy=0.0, seed=7)
    result = run_training(cfg, shards, test)
    assert len(result.records) == 1
    assert result.rounds_to_target == 1


def test_training_zero_rounds_empty_history():
    shards, test = _blob_setting()
    cfg = FederationConfig(5, 0, "fedavg", _train_cfg(), seed=8)
    result = run_training(cfg, shards, test)
    assert result.records == []
    assert result.rounds_to_target is None


def test_ours_strategy_trains_in_feature_space():
    shards, test = _blob_setting(dim=2, samples=200, k=2)
    fx = FeatureExtractor(seed=1, input_dim=2, output_dim=12)
    cfg = FederationConfig(2, 2, "ours", _train_cfg(), target_accuracy=1.0, seed=9,
                           he_bits=256, extractor=fx)
    result = run_training(cfg, shards, test)
    assert result.final_params.arch.input_dim == 12


def test_ours_is_he_fl_on_augmented_data():
    # the front-end is the only thing "ours" adds to he-fl
    train = generate(SyntheticSpec("xor", dim=2, samples=300, seed=31))
    test = generate(SyntheticSpec("xor", dim=2, samples=100, seed=32))
    shards = partition(train, PartitionScheme("dirichlet", 3, 0.5), seed=33)
    fx = FeatureExtractor(seed=4, input_dim=2, output_dim=8, gamma=1.0)
    ours = FederationConfig(3, 4, "ours", _train_cfg(), target_accuracy=1.0, seed=5,
                            he_bits=256, extractor=fx)
    he = replace(ours, strategy="he-fl", extractor=None)
    a = run_training(ours, shards, test).records
    b = run_training(he, [augment_dataset(fx, s) for s in shards],
                     augment_dataset(fx, test)).records
    assert len(a) == len(b) == 4
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.global_params.values, rb.global_params.values)
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.simulated_millis == rb.simulated_millis
        assert ra.simulated_comm_bytes == rb.simulated_comm_bytes


def test_round_failure_names_node_on_numeric_error():
    data = LabeledDataset(np.array([[1e20], [1e20]]), [0, 1])
    cfg = FederationConfig(1, 1, "fedavg", _train_cfg(lr=0.1, batch=1), seed=20,
                           hidden_units=1)
    state = init_federation(cfg, [data], data)
    # force the blow-up construction into the broadcast parameters
    state.global_params = ModelParams(ModelArch(1, 1), np.array([0.0, 0.0, 1e300, 0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(RoundError, match="round 0, node 0"):
            run_round(state, cfg)


def test_round_failure_on_crypto_range_error():
    from crossfed.paillier import FixedPointCodec

    shards, test = _blob_setting(k=2, samples=100)
    cfg = FederationConfig(2, 1, "he-fl", _train_cfg(), seed=21, he_bits=256)
    state = init_federation(cfg, shards, test)
    state.codec = FixedPointCodec(modulus=35, scale=1 << 40)  # nothing fits
    with pytest.raises(RoundError, match="round 0"):
        run_round(state, cfg)


def test_he_round_encrypts_and_decrypts_once_per_parameter(monkeypatch):
    # perfbench's tracer counts these module globals, so the CRT arithmetic
    # must run through them, once per element, with the key holder's sk
    from crossfed import paillier

    calls = {"encrypt": [], "decrypt": []}
    for name, seen in calls.items():
        def counted(*args, _original=getattr(paillier, name), _seen=seen, **kwargs):
            _seen.append(kwargs.get("sk"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(paillier, name, counted)
    shards, test = _blob_setting(k=3, samples=150)
    cfg = FederationConfig(3, 1, "he-fl", _train_cfg(), seed=7, he_bits=256)
    state = init_federation(cfg, shards, test)
    state, _ = run_round(state, cfg)
    d = state.global_params.arch.param_count
    assert len(calls["encrypt"]) == 3 * d
    assert len(calls["decrypt"]) == d
    assert all(sk is state.sk for sk in calls["encrypt"])


def _he_state_at_codec_limit():
    """A 256-bit he-fl state and parameters of alternating sign whose scaled
    magnitude is just under n/2, the most one encoded coordinate may hold."""
    shards, test = _blob_setting(k=2, samples=100)
    cfg = FederationConfig(2, 1, "he-fl", _train_cfg(), seed=21, he_bits=256)
    state = init_federation(cfg, shards, test)
    w = float(state.pk.n // 2 // state.codec.scale) * (1 - 2.0**-20)
    arch = state.global_params.arch
    return state, cfg, ModelParams(arch, np.resize([w, -w], arch.param_count))


@pytest.mark.parametrize("counts", [(1, 1), (300, 200)])
def test_he_aggregation_rejects_sum_past_half_modulus(counts):
    from crossfed import paillier
    from crossfed.federation import _aggregate_with_strategy

    state, cfg, params = _he_state_at_codec_limit()
    updates = [(node, params, count) for node, count in enumerate(counts)]
    # unchecked, the count-weighted sum wraps mod n and decodes to garbage
    rng = random.Random(0)
    encrypted = [(paillier.encrypt_params(state.pk, state.codec, p, rng), c) for _, p, c in updates]
    aggregate, total = paillier.aggregate_encrypted(state.pk, encrypted)
    wrapped = paillier.decrypt_params(state.sk, state.pk, state.codec, aggregate, total, params.arch)
    assert not np.allclose(wrapped.values, params.values)
    with pytest.raises(CryptoRangeError, match="exceeds n/2"):
        _aggregate_with_strategy(state, cfg, updates, 0)


def test_he_aggregation_admits_single_update_at_codec_limit():
    from crossfed.federation import _aggregate_with_strategy

    state, cfg, params = _he_state_at_codec_limit()
    out = _aggregate_with_strategy(state, cfg, [(0, params, 1)], 0)
    assert np.array_equal(out.values, params.values)


def test_smc_aggregation_checks_the_sum_over_nodes():
    from crossfed.federation import _aggregate_with_strategy
    from crossfed.privacy import reconstruct_sum, share

    shards, test = _blob_setting(k=2, samples=100)
    cfg = FederationConfig(2, 1, "smc-fl", _train_cfg(), seed=21)
    state = init_federation(cfg, shards, test)
    arch = state.global_params.arch

    def updates(fraction):  # two nodes, each at fraction * 2^60 once scaled
        w = fraction * 2.0**60 / SMC_SCALE
        return [(node, ModelParams(arch, np.resize([w, -w], arch.param_count)), 1)
                for node in range(2)]

    # each node passes share's own check, but unchecked their sum of
    # 1.5 * 2^60 passes half the field and decodes with the wrong sign
    over = updates(0.75)
    rng = np.random.default_rng(0)
    wrapped = reconstruct_sum([share(p.values, SMC_SCALE, 2, rng) for _, p, _ in over])
    assert np.array_equal(np.sign(wrapped), -np.sign(over[0][1].values))
    with pytest.raises(CryptoRangeError, match="exceeds n/2"):
        _aggregate_with_strategy(state, cfg, over, 0)
    # a sum of 0.98 * 2^60 still fits and averages exactly
    under = updates(0.49)
    out = _aggregate_with_strategy(state, cfg, under, 0)
    assert np.array_equal(out.values, under[0][1].values)


def test_shard_count_must_match_nodes():
    shards, test = _blob_setting(k=3)
    cfg = FederationConfig(5, 1, "fedavg", _train_cfg(), seed=10)
    with pytest.raises(InvalidInputError):
        init_federation(cfg, shards, test)


def test_privacy_noise_hurts_utility_monotonically():
    # mean over 5 seeds: dp(eps=0.5) <= dp(eps=8) <= fedavg + 0.02
    accs = {0.5: [], 8.0: [], "plain": []}
    for seed in range(1, 6):
        shards, test = _blob_setting(seed=seed, samples=1000)
        for eps in (0.5, 8.0):
            cfg = FederationConfig(5, 15, "dp-fl", _train_cfg(seed=seed),
                                   target_accuracy=1.0, seed=seed,
                                   dp=DpConfig(eps, 1.0, rounds=15))
            accs[eps].append(run_training(cfg, shards, test).records[-1].test_accuracy)
        cfg = FederationConfig(5, 15, "fedavg", _train_cfg(seed=seed),
                               target_accuracy=1.0, seed=seed)
        accs["plain"].append(run_training(cfg, shards, test).records[-1].test_accuracy)
    assert np.mean(accs[0.5]) <= np.mean(accs[8.0])
    assert np.mean(accs[8.0]) <= np.mean(accs["plain"]) + 0.02


# --- migration ---------------------------------------------------------------


def test_finetune_zero_epochs_is_identity():
    shards, _ = _blob_setting(k=1)
    node = NodeState(0, "cloud-b", shards[0], seed=0)
    w = ModelParams(ModelArch(5), np.linspace(-1, 1, 6))
    tuned, delta = migrate_and_finetune(w, node, _train_cfg(epochs=0))
    assert np.array_equal(tuned.values, w.values)
    assert np.all(delta == 0.0)


def test_finetune_delta_identity():
    shards, _ = _blob_setting(k=1)
    node = NodeState(0, "cloud-b", shards[0], seed=0)
    w = ModelParams(ModelArch(5), np.linspace(-1, 1, 6))
    tuned, delta = migrate_and_finetune(w, node, _train_cfg(epochs=3))
    assert np.max(np.abs(apply_delta(w, delta).values - tuned.values)) < 1e-12


def test_finetune_through_extractor():
    shards, _ = _blob_setting(k=1, dim=5)
    node = NodeState(0, "cloud-b", shards[0], seed=0)
    fx = FeatureExtractor(seed=2, input_dim=5, output_dim=8, gamma=0.1)
    w = ModelParams(ModelArch(8), np.zeros(9))
    tuned, delta = migrate_and_finetune(w, node, _train_cfg(epochs=2), extractor=fx)
    assert tuned.arch == w.arch
    assert not np.array_equal(tuned.values, w.values)
    assert np.max(np.abs(apply_delta(w, delta).values - tuned.values)) < 1e-12


def test_finetune_recovers_covariate_shift():
    shards, test = _blob_setting(seed=2, dim=4, samples=800)
    cfg = FederationConfig(5, 30, "fedavg", _train_cfg(), target_accuracy=0.9, seed=11)
    w = run_training(cfg, shards, test).final_params
    shift = generate(SyntheticSpec("blobs", dim=4, samples=400, seed=777, separation=6.0))
    shifted_train = LabeledDataset(shift.features + 2.0, shift.labels)
    holdout = generate(SyntheticSpec("blobs", dim=4, samples=400, seed=778, separation=6.0))
    shifted_test = LabeledDataset(holdout.features + 2.0, holdout.labels)
    node = NodeState(0, "cloud-b", shifted_train, seed=12)
    tuned, _ = migrate_and_finetune(w, node, _train_cfg(epochs=20))
    assert accuracy(tuned, shifted_test) >= accuracy(w, shifted_test) + 0.05
