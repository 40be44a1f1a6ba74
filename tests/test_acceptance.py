"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import csv
import random
import time
from fractions import Fraction

import numpy as np

from crossfed.config import parse_config_text
from crossfed.datasets import PartitionScheme, SyntheticSpec, generate, partition
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
from crossfed.harness import CSV_COLUMNS, run_sweep
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
)
from crossfed.paillier import (
    FixedPointCodec,
    add_cipher,
    decrypt,
    deserialize_cipher_vector,
    encrypt,
    encrypt_params,
    keygen,
    keypair_from_primes,
    scalar_mul,
    serialize_cipher_vector,
)
from crossfed.privacy import SMC_SCALE, DpConfig, clip_update, dp_privatize, gaussian_sigma, membership_advantage


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _blob_run(seed, dim, samples, separation=4.0, noise=1.0, test_samples=500):
    train = generate(SyntheticSpec("blobs", dim=dim, samples=samples, seed=seed * 1000,
                                   separation=separation, noise=noise))
    test = generate(SyntheticSpec("blobs", dim=dim, samples=test_samples,
                                  seed=seed * 1000 + 1, separation=separation, noise=noise))
    return train, test


def test_criterion_1_paillier_correctness():
    start = time.perf_counter()
    pk, sk = keypair_from_primes(5, 7)
    rng = random.Random(0)
    ok = all(decrypt(sk, pk, encrypt(pk, m, rng)) == m for m in range(35))

    pk, sk = keygen(256, seed=2024)
    for _ in range(1000):
        m = rng.randrange(pk.n)
        ok = ok and decrypt(sk, pk, encrypt(pk, m, rng)) == m
    for _ in range(200):
        a, b, k = rng.randrange(pk.n), rng.randrange(pk.n), rng.randrange(1, 1000)
        ok = ok and decrypt(sk, pk, add_cipher(pk, encrypt(pk, a, rng), encrypt(pk, b, rng))) == (a + b) % pk.n
        ok = ok and decrypt(sk, pk, scalar_mul(pk, encrypt(pk, a, rng), k)) == a * k % pk.n
    elapsed = time.perf_counter() - start
    _report(1, "Paillier correctness", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_secure_strategy_equivalence():
    start = time.perf_counter()
    train, test = _blob_run(seed=1, dim=20, samples=2000)
    shards = partition(train, PartitionScheme("iid", 5), seed=1)
    tc = TrainConfig(0.05, 1, 64, 0)
    plain_cfg = FederationConfig(5, 20, "fedavg", tc, target_accuracy=1.0, seed=1)
    he_cfg = FederationConfig(5, 20, "he-fl", tc, target_accuracy=1.0, seed=1, he_bits=512)
    smc_cfg = FederationConfig(5, 20, "smc-fl", tc, target_accuracy=1.0, seed=1)
    states = [init_federation(c, shards, test) for c in (plain_cfg, he_cfg, smc_cfg)]
    n_total = sum(s.count for s in shards)
    smc_per_round = 5 / (2 * SMC_SCALE * n_total) + 1e-9
    ok, worst_he, worst_smc = True, 0.0, 0.0
    for t in range(20):
        states[0], pr = run_round(states[0], plain_cfg)
        states[1], hr = run_round(states[1], he_cfg)
        states[2], sr = run_round(states[2], smc_cfg)
        he_diff = float(np.max(np.abs(hr.global_params.values - pr.global_params.values)))
        smc_diff = float(np.max(np.abs(sr.global_params.values - pr.global_params.values)))
        worst_he, worst_smc = max(worst_he, he_diff), max(worst_smc, smc_diff)
        ok = ok and he_diff <= 1e-6 and smc_diff <= (t + 1) * smc_per_round
    elapsed = time.perf_counter() - start
    _report(2, "HE/SMC track plain FedAvg", ok and elapsed < 60.0,
            f"max he={worst_he:.2e}, max smc={worst_smc:.2e}, {elapsed:.1f}s")


def test_criterion_3_aggregation_oracle():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        arch = ModelArch(int(rng.integers(1, 9)), int(rng.integers(0, 4)))
        k = int(rng.integers(1, 8))
        updates = [
            (ModelParams(arch, rng.uniform(-10, 10, arch.param_count)),
             int(rng.integers(1, 1000)))
            for _ in range(k)
        ]
        result = fedavg_aggregate(updates).values
        total = sum(c for _, c in updates)
        for j in range(arch.param_count):
            exact = sum(Fraction(c) * Fraction(float(p.values[j])) for p, c in updates)
            exact /= total
            ok = ok and abs(result[j] - float(exact)) < 1e-12
    _report(3, "weighted mean matches exact rational oracle", ok)


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(4)
    h = 1e-5
    ok = True
    for hidden in (0, 8):
        for _ in range(100):
            arch = ModelArch(3, hidden)
            params = ModelParams(arch, rng.uniform(-1, 1, arch.param_count))
            batch = LabeledDataset(rng.uniform(-2, 2, (6, 3)), rng.integers(0, 2, 6))
            analytic = gradient(params, batch)
            fd = np.empty_like(analytic)
            for i in range(analytic.size):
                up, down = params.values.copy(), params.values.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (
                    dataset_loss(ModelParams(arch, up), batch)
                    - dataset_loss(ModelParams(arch, down), batch)
                ) / (2 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
            ok = ok and bool(np.all(np.abs(analytic - fd) / denom < 1e-5))
    _report(4, "analytic gradient matches finite differences", ok)


def test_criterion_5_dp_calibration():
    sigma = gaussian_sigma(1.0, 1.0, 1e-5)
    noise = dp_privatize(np.zeros(100_000), DpConfig(1.0, 1.0), np.random.default_rng(5))
    std_ok = abs(float(np.std(noise)) - sigma) / sigma < 0.05
    rng = np.random.default_rng(6)
    clip_ok = True
    for _ in range(500):
        v = rng.normal(size=12) * rng.uniform(0.01, 50)
        c = rng.uniform(0.1, 5.0)
        # float-rounding allowance only; the exact-math bound is <= c
        clip_ok = clip_ok and float(np.linalg.norm(clip_update(v, c))) <= c * (1 + 1e-12)
    _report(5, "gaussian noise calibrated, clip bound respected", std_ok and clip_ok,
            f"std err={abs(float(np.std(noise)) - sigma) / sigma:.3%}")


def test_criterion_6_convergence_target():
    start = time.perf_counter()
    ok = True
    rounds = []
    for seed in (1, 2, 3, 4, 5):
        train, test = _blob_run(seed, dim=10, samples=2000, separation=4.0, noise=1.0)
        shards = partition(train, PartitionScheme("iid", 5), seed=seed)
        cfg = FederationConfig(5, 200, "fedavg", TrainConfig(0.05, 1, 32, seed),
                               hidden_units=16, target_accuracy=0.85, seed=seed)
        result = run_training(cfg, shards, test)
        rounds.append(result.rounds_to_target)
        ok = ok and result.rounds_to_target is not None
    elapsed = time.perf_counter() - start
    _report(6, "FedAvg reaches 0.85 within 200 rounds, 5/5 seeds",
            ok and elapsed < 120.0, f"rounds={rounds}, {elapsed:.1f}s")


def test_criterion_7_feature_augmentation_benefit():
    hits = 0
    details = []
    for seed in (1, 2, 3, 4, 5):
        train = generate(SyntheticSpec("xor", dim=2, samples=400, seed=seed * 10, noise=0.3))
        test = generate(SyntheticSpec("xor", dim=2, samples=400, seed=seed * 10 + 1, noise=0.3))
        tc = TrainConfig(0.5, 150, 32, seed)
        raw, _ = local_train(init_params(ModelArch(2), seed), train, tc)
        raw_acc = accuracy(raw, test)
        fx = FeatureExtractor(seed=seed, input_dim=2, output_dim=64, gamma=1.0)
        aug, _ = local_train(
            init_params(ModelArch(64), seed), augment_dataset(fx, train), tc
        )
        aug_acc = accuracy(aug, augment_dataset(fx, test))
        details.append(f"{raw_acc:.2f}->{aug_acc:.2f}")
        if aug_acc >= 0.85 and raw_acc <= 0.60:
            hits += 1
    _report(7, "random-Fourier lift on xor (4/5 seeds)", hits >= 4, ", ".join(details))


def test_criterion_8_migration_finetune():
    train, test = _blob_run(seed=3, dim=10, samples=2000)
    shards = partition(train, PartitionScheme("iid", 5), seed=3)
    cfg = FederationConfig(5, 50, "fedavg", TrainConfig(0.05, 1, 32, 3),
                           target_accuracy=0.9, seed=3)
    w = run_training(cfg, shards, test).final_params
    shifted = generate(SyntheticSpec("blobs", dim=10, samples=400, seed=991))
    shifted = LabeledDataset(shifted.features + 2.0, shifted.labels)
    holdout = generate(SyntheticSpec("blobs", dim=10, samples=400, seed=992))
    holdout = LabeledDataset(holdout.features + 2.0, holdout.labels)
    node = NodeState(0, "cloud-b", shifted, seed=3)
    tuned, delta = migrate_and_finetune(w, node, TrainConfig(0.05, 20, 32, 3))
    pre, post = accuracy(w, holdout), accuracy(tuned, holdout)
    delta_ok = float(np.max(np.abs(apply_delta(w, delta).values - tuned.values))) < 1e-12
    _report(8, "fine-tune gains >= 5pp on shifted shard, delta exact",
            post >= pre + 0.05 and delta_ok, f"pre={pre:.3f}, post={post:.3f}")


def test_criterion_9_privacy_budget_direction():
    eps_grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    seeds = (1, 2, 3, 4, 5)
    mean_acc = []
    adv_low, adv_plain = [], []
    for eps in eps_grid:
        accs = []
        for seed in seeds:
            train, test = _blob_run(seed, dim=5, samples=2000, separation=6.0)
            shards = partition(train, PartitionScheme("iid", 5), seed=seed)
            cfg = FederationConfig(5, 30, "dp-fl", TrainConfig(0.05, 1, 64, seed),
                                   target_accuracy=1.0, seed=seed,
                                   dp=DpConfig(eps, 1.0, rounds=30))
            result = run_training(cfg, shards, test)
            accs.append(result.records[-1].test_accuracy)
            if eps == 0.5:
                adv_low.append(membership_advantage(result.final_params, train, test))
        mean_acc.append(float(np.mean(accs)))
    for seed in seeds:
        train, test = _blob_run(seed, dim=5, samples=2000, separation=6.0)
        shards = partition(train, PartitionScheme("iid", 5), seed=seed)
        cfg = FederationConfig(5, 30, "fedavg", TrainConfig(0.05, 1, 64, seed),
                               target_accuracy=1.0, seed=seed)
        result = run_training(cfg, shards, test)
        adv_plain.append(membership_advantage(result.final_params, train, test))
    monotone = all(b >= a - 0.01 for a, b in zip(mean_acc, mean_acc[1:]))
    mia_ok = float(np.mean(adv_low)) <= float(np.mean(adv_plain)) + 0.05
    _report(9, "accuracy non-decreasing in epsilon, MIA bounded",
            monotone and mia_ok,
            "acc=" + "/".join(f"{a:.3f}" for a in mean_acc)
            + f", adv dp0.5={np.mean(adv_low):.3f} vs fedavg={np.mean(adv_plain):.3f}")


def test_criterion_10_learning_rate_direction():
    means = {}
    for lr in (0.001, 0.05):
        rounds = []
        for seed in (1, 2, 3, 4, 5):
            train, test = _blob_run(seed, dim=10, samples=2000)
            shards = partition(train, PartitionScheme("iid", 5), seed=seed)
            cfg = FederationConfig(5, 500, "fedavg", TrainConfig(lr, 1, 32, seed),
                                   target_accuracy=0.85, seed=seed)
            result = run_training(cfg, shards, test)
            # unreached targets count as the cap so they can only hurt
            rounds.append(result.rounds_to_target or 500)
        means[lr] = float(np.mean(rounds))
    _report(10, "eta=0.05 converges in strictly fewer rounds than eta=0.001",
            means[0.05] < means[0.001],
            f"mean rounds {means[0.05]:.1f} vs {means[0.001]:.1f}")


def test_criterion_11_sweep_determinism(tmp_path):
    config = f"""\
[experiment]
strategies = fedavg, dp-fl
seeds = 1, 2
sweep = privacy
sweep_values = 0.5, 8
output = {tmp_path / "m.csv"}

[data]
kind = blobs
dim = 4
samples = 200
test_samples = 60
seed = 5
separation = 6.0

[federation]
nodes = 3
max_rounds = 4
target_accuracy = 1.0

[train]
learning_rate = 0.05
local_epochs = 1
batch_size = 16
"""
    cfg = parse_config_text(config)
    run_sweep(cfg, tmp_path / "a.csv")
    run_sweep(cfg, tmp_path / "b.csv")

    def masked(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        wall = CSV_COLUMNS.index("wall_millis_total")
        for row in rows[1:]:
            row[wall] = "-"
        return rows

    _report(11, "sweep CSV byte-identical modulo wall clock",
            masked(tmp_path / "a.csv") == masked(tmp_path / "b.csv"))


def test_criterion_12_wire_format_roundtrip():
    ok = True
    rng_np = np.random.default_rng(12)
    for bits in (256, 512):
        pk, _ = keygen(bits, seed=bits)
        codec = FixedPointCodec(pk.n)
        rng = random.Random(bits)
        for _ in range(100):
            params = ModelParams(ModelArch(9), rng_np.uniform(-100, 100, 10))
            cv = encrypt_params(pk, codec, params, rng)
            blob = serialize_cipher_vector(cv)
            back = deserialize_cipher_vector(blob)
            ok = ok and back.elements == cv.elements and back.key_bits == cv.key_bits
            ok = ok and serialize_cipher_vector(back) == blob
    _report(12, "FCS1 wire roundtrip bitwise exact at 256/512 bits", ok)
