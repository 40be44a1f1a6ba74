"""Federated round state machine: broadcast, local training, a per-strategy
privacy transform, weighted aggregation, and cross-cloud migration.

Five presets = four protections x an optional feature front-end, all
wrapping the same round skeleton. ``PRESETS`` is the only place a strategy
name is interpreted.

Every stream of randomness is derived from the config seed plus
(namespace, node, round) tags, so runs are reproducible bit for bit.
Wall-clock time is measured; communication bytes and the simulated time
column come from a fixed cost model so they are reproducible too. The
cross-cloud architecture lives only in that model: nodes alternate
between two clouds, the server sits in the first, and each transfer costs
``bytes / rate + latency`` on the intra- or inter-cloud link.

The ``smc`` and ``he`` protections encode with one ``FixedPointCodec``
(``state.codec``) and check with ``paillier.check_sum_headroom`` that the
count-weighted sum fits the codec's signed range before anything is
encoded, so an oversized update ends as a ``RoundError``, never as a
silently wrapped sum.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

import numpy as np

from . import paillier
from .errors import CryptoRangeError, InvalidInputError, NumericError, RoundError
from .features import FeatureExtractor, augment_dataset
from .models import (
    LabeledDataset,
    ModelArch,
    ModelParams,
    TrainConfig,
    accuracy,
    init_params,
    local_train,
    param_delta,
)
from .privacy import SMC_FIELD_PRIME, SMC_SCALE, DpConfig, dp_privatize, reconstruct_sum, share
from .rngutil import derive_int, derive_rng

# strategy name -> (protection, trains on extractor-augmented features)
PRESETS = {
    "fedavg": ("plain", False),  # plaintext sample-count-weighted averaging
    "dp-fl": ("dp", False),  # per-node deltas clipped and Gaussian-noised
    "smc-fl": ("smc", False),  # count-weighted parameters additively secret-shared
    "he-fl": ("he", False),  # Paillier-encrypted parameters, summed encrypted
    "ours": ("he", True),  # he-fl over extractor-augmented features
}
STRATEGIES = tuple(PRESETS)

# seed-derivation namespaces
_TAG_INIT, _TAG_TRAIN, _TAG_DP, _TAG_SMC, _TAG_HE, _TAG_KEYS = range(6)

# Cost model for the simulated-time column. The absolute numbers are
# arbitrary bookkeeping; only per-strategy comparisons are meaningful.
_MS_PER_SAMPLE_PARAM = 1e-6  # one epoch of SGD, per sample per parameter
_MS_PER_HE_ELEMENT = 0.35  # encrypt or decrypt one element at 512-bit keys
_MS_PER_HE_SCALARMUL = 0.02  # one homomorphic weighting at 512-bit keys
_MS_PER_SMC_ELEMENT = 1e-4
_MS_PER_PLAIN_ELEMENT = 1e-6
_WIRE_HEADER_BYTES = 12  # magic + key bits + element count
_CLOUDS = ("cloud-a", "cloud-b")  # nodes alternate; the server sits in the first
_INTRA_CLOUD_LINK = (1e5, 0.1)  # (bytes per ms, latency ms) within one cloud
_INTER_CLOUD_LINK = (1000.0, 5.0)  # (bytes per ms, latency ms) between clouds


def _he_ms(base: float, bits: int) -> float:
    return base * (bits / 512) ** 3


@dataclass
class NodeState:
    node_id: int
    cloud_id: str
    data: LabeledDataset
    seed: int

    def __post_init__(self):
        if self.data.count < 1:
            raise InvalidInputError(f"node {self.node_id} has no samples")


@dataclass
class FederationConfig:
    """Everything one training run needs; strategy extras are mandatory
    exactly when the strategy uses them."""

    num_nodes: int
    max_rounds: int
    strategy: str
    train: TrainConfig
    hidden_units: int = 0
    target_accuracy: float = 0.85
    seed: int = 0
    dp: DpConfig | None = None
    he_bits: int | None = None
    extractor: FeatureExtractor | None = None

    def __post_init__(self):
        if self.strategy not in PRESETS:
            raise InvalidInputError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.num_nodes < 1:
            raise InvalidInputError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.max_rounds < 0:
            raise InvalidInputError(f"max_rounds must be >= 0, got {self.max_rounds}")
        protection, front_end = PRESETS[self.strategy]
        if (protection == "dp") != (self.dp is not None):
            raise InvalidInputError("dp config is required iff strategy is dp-fl")
        if (protection == "he") != (self.he_bits is not None):
            raise InvalidInputError("he_bits is required iff strategy is he-fl or ours")
        if front_end != (self.extractor is not None):
            raise InvalidInputError("extractor is required iff strategy is ours")


@dataclass
class RoundRecord:
    round_index: int
    global_params: ModelParams
    train_accuracy: float
    test_accuracy: float
    mean_local_loss: float
    wall_millis: float  # measured, excluded from determinism guarantees
    simulated_millis: float
    simulated_comm_bytes: int


@dataclass
class FederationState:
    nodes: list[NodeState]
    global_params: ModelParams
    test_data: LabeledDataset
    round_index: int = 0
    pk: paillier.PaillierPublicKey | None = None
    sk: paillier.PaillierPrivateKey | None = None
    codec: paillier.FixedPointCodec | None = None


@dataclass
class TrainingResult:
    records: list[RoundRecord]
    rounds_to_target: int | None  # 1-based count of rounds; None if never reached
    final_params: ModelParams


def fedavg_aggregate(updates) -> ModelParams:
    """Sample-count-weighted mean of parameter vectors.

    The list is sorted by a canonical content key before summing, so any
    permutation of the same updates aggregates to bit-identical output.
    """
    if not updates:
        raise InvalidInputError("no updates to aggregate")
    arch = updates[0][0].arch
    for params, count in updates:
        if params.arch != arch:
            raise InvalidInputError("updates have mixed architectures")
        if count < 1:
            raise InvalidInputError(f"sample count must be >= 1, got {count}")
    ordered = sorted(updates, key=lambda u: (u[1], u[0].values.tobytes()))
    total = sum(count for _, count in ordered)
    acc = np.zeros(arch.param_count, dtype=np.float64)
    for params, count in ordered:
        acc += (count / total) * params.values
    return ModelParams(arch, acc)


def init_federation(
    cfg: FederationConfig, shards: list[LabeledDataset], test_data: LabeledDataset
) -> FederationState:
    """Build nodes, initial global parameters, and strategy machinery."""
    if len(shards) != cfg.num_nodes:
        raise InvalidInputError(
            f"got {len(shards)} shards for {cfg.num_nodes} nodes"
        )
    if any(s.count == 0 for s in shards):
        raise InvalidInputError("every shard must be nonempty")
    protection, front_end = PRESETS[cfg.strategy]
    if front_end:
        shards = [augment_dataset(cfg.extractor, s) for s in shards]
        test_data = augment_dataset(cfg.extractor, test_data)
    input_dim = shards[0].dim
    if any(s.dim != input_dim for s in shards) or test_data.dim != input_dim:
        raise InvalidInputError("shards and test data disagree on feature dim")
    arch = ModelArch(input_dim, cfg.hidden_units)
    global_params = init_params(arch, derive_int(cfg.seed, _TAG_INIT))
    nodes = [
        NodeState(
            node_id=i,
            cloud_id=_CLOUDS[i % len(_CLOUDS)],
            data=shard,
            seed=derive_int(cfg.seed, _TAG_TRAIN, i),
        )
        for i, shard in enumerate(shards)
    ]
    state = FederationState(nodes, global_params, test_data)
    if protection == "smc":
        state.codec = paillier.FixedPointCodec(SMC_FIELD_PRIME, SMC_SCALE)
    elif protection == "he":
        state.pk, state.sk = paillier.keygen(
            cfg.he_bits, derive_int(cfg.seed, _TAG_KEYS)
        )
        state.codec = paillier.FixedPointCodec(state.pk.n)
    return state


def _aggregate_with_strategy(
    state: FederationState, cfg: FederationConfig, updates, round_index: int
) -> ModelParams:
    """updates: list of (node_id, trained ModelParams, sample count)."""
    arch = state.global_params.arch
    protection = PRESETS[cfg.strategy][0]
    if protection == "plain":
        return fedavg_aggregate([(p, n) for _, p, n in updates])
    if protection == "dp":
        # clip/noise the per-round delta, not the raw parameters; averaging
        # (global + noised delta_i) equals global + averaged noised deltas
        base = state.global_params.values
        noised = []
        for node_id, params, count in updates:
            rng = derive_rng(cfg.seed, _TAG_DP, node_id, round_index)
            delta = dp_privatize(params.values - base, cfg.dp, rng)
            noised.append((ModelParams(arch, base + delta), count))
        return fedavg_aggregate(noised)
    if protection == "smc":
        # nodes share count-weighted parameters; the field sum is their total
        weighted = [(node_id, params.values * count) for node_id, params, count in updates]
        paillier.check_sum_headroom(state.codec, [(w, 1) for _, w in weighted])
        bundles = []
        for node_id, w in weighted:
            rng = derive_rng(cfg.seed, _TAG_SMC, node_id, round_index)
            bundles.append(share(w, state.codec.scale, cfg.num_nodes, rng))
        total = sum(count for _, _, count in updates)
        return ModelParams(arch, reconstruct_sum(bundles) / total)
    # he: the ciphertexts are weighted by count after encryption
    paillier.check_sum_headroom(state.codec, [(w.values, count) for _, w, count in updates])
    encrypted = []
    for node_id, params, count in updates:
        rng = random.Random(derive_int(cfg.seed, _TAG_HE, node_id, round_index))
        cv = paillier.encrypt_params(state.pk, state.codec, params, rng, sk=state.sk)
        encrypted.append((cv, count))
    aggregate, total = paillier.aggregate_encrypted(state.pk, encrypted)
    return paillier.decrypt_params(state.sk, state.pk, state.codec, aggregate, total, arch)


def _upload_bytes(strategy: str, param_count: int, num_nodes: int, he_bits) -> int:
    """Per-node upstream payload for one round, by strategy."""
    protection = PRESETS[strategy][0]
    if protection in ("plain", "dp"):
        return 8 * param_count
    if protection == "smc":
        return 8 * param_count * num_nodes  # one share vector per recipient
    # ciphertexts: worst-case fixed width keeps the estimate deterministic
    return _WIRE_HEADER_BYTES + param_count * (4 + he_bits // 4)


def _simulate_round(
    state: FederationState, cfg: FederationConfig, counts: list[int]
) -> tuple[float, int]:
    """Deterministic (simulated_millis, comm_bytes) for one round."""
    d = state.global_params.arch.param_count
    k = cfg.num_nodes
    up_bytes = _upload_bytes(cfg.strategy, d, k, cfg.he_bits)
    down_bytes = 8 * d

    protection = PRESETS[cfg.strategy][0]
    if protection == "he":
        node_crypto = d * _he_ms(_MS_PER_HE_ELEMENT, cfg.he_bits)
        server_ms = d * (
            k * _he_ms(_MS_PER_HE_SCALARMUL, cfg.he_bits)
            + _he_ms(_MS_PER_HE_ELEMENT, cfg.he_bits)
        )
    elif protection == "smc":
        node_crypto = d * k * _MS_PER_SMC_ELEMENT
        server_ms = d * k * _MS_PER_SMC_ELEMENT
    else:
        node_crypto = 0.0
        server_ms = d * k * _MS_PER_PLAIN_ELEMENT

    slowest_node = 0.0
    slowest_broadcast = 0.0
    for node, count in zip(state.nodes, counts):
        rate, latency = _INTRA_CLOUD_LINK if node.cloud_id == _CLOUDS[0] else _INTER_CLOUD_LINK
        compute = cfg.train.local_epochs * count * d * _MS_PER_SAMPLE_PARAM + node_crypto
        slowest_node = max(slowest_node, compute + (up_bytes / rate + latency))
        slowest_broadcast = max(slowest_broadcast, down_bytes / rate + latency)
    comm = k * up_bytes + k * down_bytes
    return slowest_node + server_ms + slowest_broadcast, comm


def run_round(
    state: FederationState, cfg: FederationConfig
) -> tuple[FederationState, RoundRecord]:
    """Advance one round in place; returns the state and its record."""
    t = state.round_index
    start = time.perf_counter()
    updates = []  # ascending node_id
    losses = []
    for node in state.nodes:
        train_cfg = replace(cfg.train, rng_seed=derive_int(node.seed, t))
        try:
            trained, loss = local_train(state.global_params, node.data, train_cfg)
        except NumericError as exc:
            raise RoundError(t, node.node_id, str(exc)) from exc
        updates.append((node.node_id, trained, node.data.count))
        losses.append(loss)
    try:
        new_global = _aggregate_with_strategy(state, cfg, updates, t)
    except (CryptoRangeError, NumericError, InvalidInputError) as exc:
        raise RoundError(t, None, str(exc)) from exc

    state.global_params = new_global
    state.round_index = t + 1

    total = sum(n.data.count for n in state.nodes)
    train_acc = sum(accuracy(new_global, n.data) * n.data.count for n in state.nodes) / total
    sim_ms, comm = _simulate_round(state, cfg, [n.data.count for n in state.nodes])
    record = RoundRecord(
        round_index=t,
        global_params=new_global,
        train_accuracy=train_acc,
        test_accuracy=accuracy(new_global, state.test_data),
        mean_local_loss=float(np.mean(losses)),
        wall_millis=(time.perf_counter() - start) * 1000.0,
        simulated_millis=sim_ms,
        simulated_comm_bytes=comm,
    )
    return state, record


def run_training(
    cfg: FederationConfig, shards: list[LabeledDataset], test_data: LabeledDataset
) -> TrainingResult:
    """Run rounds until the accuracy target is hit or max_rounds elapse.

    rounds_to_target is the 1-based index of the first round whose test
    accuracy reached the target, or None.
    """
    state = init_federation(cfg, shards, test_data)
    records = []
    rounds_to_target = None
    for _ in range(cfg.max_rounds):
        state, record = run_round(state, cfg)
        records.append(record)
        if record.test_accuracy >= cfg.target_accuracy:
            rounds_to_target = record.round_index + 1
            break
    return TrainingResult(records, rounds_to_target, state.global_params)


def migrate_and_finetune(
    params: ModelParams,
    target: NodeState,
    ft: TrainConfig,
    extractor: FeatureExtractor | None = None,
) -> tuple[ModelParams, np.ndarray]:
    """Adapt a migrated model to the target node's data.

    Returns the fine-tuned parameters and the delta such that applying it
    to the input reproduces the result.
    """
    data = target.data if extractor is None else augment_dataset(extractor, target.data)
    tuned, _ = local_train(params, data, ft)
    return tuned, param_delta(params, tuned)
