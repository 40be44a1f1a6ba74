"""Experiment harness: expands a config into (strategy, sweep value, seed)
cells, runs each, and writes one deterministic metrics CSV.

Only the two wall-clock columns vary between reruns of the same config;
everything else is derived from seeds. Cells that fail are recorded in
their row's status column and the sweep keeps going.
"""
from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, fields

from .config import ExperimentConfig
from .datasets import PartitionScheme, SyntheticSpec, generate, load_csv, partition
from .errors import CrossFedError, InvalidInputError
from .features import FeatureExtractor, augment_dataset
from .federation import PRESETS, FederationConfig, RoundRecord, TrainingResult, run_training
from .models import LabeledDataset, TrainConfig, accuracy
from .privacy import DpConfig, membership_advantage
from .rngutil import derive_int, derive_rng

_SWEEP_PARAM_NAMES = {
    "privacy": "epsilon",
    "hidden": "hidden_units",
    "lr": "learning_rate",
    "single": "single",
}

# data-derivation namespaces
_TAG_TRAIN_DATA, _TAG_TEST_DATA, _TAG_PARTITION = range(3)


@dataclass
class MetricsRow:
    strategy: str
    sweep_param_name: str
    sweep_param_value: float | None
    seed: int
    rounds_to_target: int
    final_accuracy: float
    privacy_score: float
    membership_advantage: float
    wall_millis_total: float
    simulated_millis_total: float
    comm_bytes_total: int
    status: str


CSV_COLUMNS = [f.name for f in fields(MetricsRow)]
_ROUND_LOG_COLUMNS = [f.name for f in fields(RoundRecord) if f.name != "global_params"]


def _csv_cells(record, columns: list[str]) -> list[str]:
    """One row of cells: empty for None, repr for floats (an exact round
    trip), str otherwise."""
    values = [getattr(record, c) for c in columns]
    return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values]


def build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Train and held-out test sets for one sweep cell."""
    d = cfg.data
    if d.kind == "csv":
        full = load_csv(d.path, d.label_column)
        if full.count < d.test_samples + cfg.nodes:
            raise InvalidInputError(
                f"csv has {full.count} rows, too few for test_samples={d.test_samples}"
            )
        order = derive_rng(seed, _TAG_TEST_DATA).permutation(full.count)
        return full.subset(order[d.test_samples :]), full.subset(order[: d.test_samples])
    train_spec = SyntheticSpec(
        kind=d.kind,
        dim=d.dim,
        samples=d.samples,
        seed=derive_int(d.seed, seed, _TAG_TRAIN_DATA),
        separation=d.separation,
        noise=d.noise,
    )
    test_spec = SyntheticSpec(
        kind=d.kind,
        dim=d.dim,
        samples=d.test_samples,
        seed=derive_int(d.seed, seed, _TAG_TEST_DATA),
        separation=d.separation,
        noise=d.noise,
    )
    return generate(train_spec), generate(test_spec)


def build_federation_config(
    cfg: ExperimentConfig,
    strategy: str,
    sweep_value: float | None,
    seed: int,
    input_dim: int,
) -> FederationConfig:
    """Apply the sweep parameter and strategy extras to one cell's config."""
    hidden_units = cfg.hidden_units
    learning_rate = cfg.learning_rate
    epsilon = cfg.dp_epsilon
    if sweep_value is not None:
        if cfg.sweep == "hidden":
            hidden_units = int(sweep_value)
        elif cfg.sweep == "lr":
            learning_rate = float(sweep_value)
        elif cfg.sweep == "privacy":
            epsilon = float(sweep_value)
    # an unknown name gets no extras; FederationConfig then rejects it
    protection, front_end = PRESETS.get(strategy, (None, False))
    dp = None
    if protection == "dp":
        dp = DpConfig(
            epsilon=epsilon,
            clip_norm=cfg.dp_clip_norm,
            delta=cfg.dp_delta,
            rounds=max(cfg.max_rounds, 1),
        )
    extractor = None
    if front_end:
        extractor = FeatureExtractor(
            seed=cfg.extractor_seed,
            input_dim=input_dim,
            output_dim=cfg.extractor_output_dim,
            kind=cfg.extractor_kind,
            gamma=cfg.extractor_gamma,
        )
    return FederationConfig(
        num_nodes=cfg.nodes,
        max_rounds=cfg.max_rounds,
        strategy=strategy,
        train=TrainConfig(
            learning_rate=learning_rate,
            local_epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            rng_seed=seed,
        ),
        hidden_units=hidden_units,
        target_accuracy=cfg.target_accuracy,
        seed=seed,
        dp=dp,
        he_bits=cfg.he_bits if protection == "he" else None,
        extractor=extractor,
    )


def run_cell(
    cfg: ExperimentConfig, strategy: str, sweep_value: float | None, seed: int
) -> tuple[MetricsRow, TrainingResult | None]:
    """One (strategy, sweep value, seed) training run plus its metrics."""
    name = _SWEEP_PARAM_NAMES[cfg.sweep]
    try:
        train_data, test_data = build_datasets(cfg, seed)
        shards = partition(
            train_data,
            PartitionScheme(cfg.data.partition, cfg.nodes, cfg.data.alpha),
            derive_int(seed, _TAG_PARTITION),
        )
        fed_cfg = build_federation_config(cfg, strategy, sweep_value, seed, train_data.dim)
        result = run_training(fed_cfg, shards, test_data)
        members, nonmembers = train_data, test_data
        if fed_cfg.extractor is not None:
            members = augment_dataset(fed_cfg.extractor, members)
            nonmembers = augment_dataset(fed_cfg.extractor, nonmembers)
        advantage = membership_advantage(result.final_params, members, nonmembers)
        final_accuracy = accuracy(result.final_params, nonmembers)
        row = MetricsRow(
            strategy=strategy,
            sweep_param_name=name,
            sweep_param_value=sweep_value,
            seed=seed,
            rounds_to_target=result.rounds_to_target
            if result.rounds_to_target is not None
            else -1,
            final_accuracy=final_accuracy,
            privacy_score=1.0 - advantage,
            membership_advantage=advantage,
            wall_millis_total=sum(r.wall_millis for r in result.records),
            simulated_millis_total=sum(r.simulated_millis for r in result.records),
            comm_bytes_total=sum(r.simulated_comm_bytes for r in result.records),
            status="ok",
        )
        return row, result
    except CrossFedError as exc:
        nan = math.nan
        row = MetricsRow(
            strategy=strategy,
            sweep_param_name=name,
            sweep_param_value=sweep_value,
            seed=seed,
            rounds_to_target=-1,
            final_accuracy=nan,
            privacy_score=nan,
            membership_advantage=nan,
            wall_millis_total=0.0,
            simulated_millis_total=0.0,
            comm_bytes_total=0,
            status=f"error: {exc}",
        )
        return row, None


def run_sweep(cfg: ExperimentConfig, output_path=None) -> list[MetricsRow]:
    """Run the full grid in canonical order and write the metrics CSV."""
    values: list[float | None]
    values = [None] if cfg.sweep == "single" else list(cfg.sweep_values)
    rows = []
    for strategy in cfg.strategies:
        for value in values:
            for seed in cfg.seeds:
                row, _ = run_cell(cfg, strategy, value, seed)
                rows.append(row)
    write_metrics_csv(rows, output_path or cfg.output)
    return rows


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """Atomic rewrite: assemble in a temp file, then rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow(_csv_cells(row, CSV_COLUMNS))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_round_log(result: TrainingResult, path) -> None:
    """One flat record per round; the optional side output of ``run``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ROUND_LOG_COLUMNS)
        for r in result.records:
            writer.writerow(_csv_cells(r, _ROUND_LOG_COLUMNS))
