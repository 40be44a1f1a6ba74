"""Experiment harness: expands a config into (strategy, sweep value, seed)
cells, runs each, and writes one deterministic metrics CSV.

Only the two wall-clock columns vary between reruns of the same config;
everything else is derived from seeds. Cells that fail are recorded in
their row's status column and the sweep keeps going. ``run_cell`` first
sets the cell's sweep value (``config.cell_config``) and hands that
config to everything after it, so nothing here knows the sweep kinds.
It alone applies the feature front-end: it augments a cell's train and
test sets once, before partitioning, for training and metrics alike.
Every output file goes through ``write_atomic``, and ``run_sweep`` checks
its output directory before the first cell.
"""
from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, fields

from .config import SWEEPS, ExperimentConfig, cell_config
from .datasets import PartitionScheme, SyntheticSpec, generate, load_csv, partition
from .errors import CrossFedError, InvalidInputError
from .features import FeatureExtractor, augment_dataset
from .federation import PRESETS, FederationConfig, RoundRecord, TrainingResult, run_training
from .models import LabeledDataset, TrainConfig, accuracy
from .privacy import DpConfig, membership_advantage
from .rngutil import derive_int, derive_rng

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
    cfg: ExperimentConfig, strategy: str, seed: int, *, diagnostics: bool = False
) -> FederationConfig:
    """One cell's federation config, with its strategy's extras."""
    # an unknown name gets no extras; FederationConfig then rejects it
    protection = PRESETS.get(strategy, (None,))[0]
    dp = None
    if protection == "dp":
        dp = DpConfig(
            epsilon=cfg.dp_epsilon,
            clip_norm=cfg.dp_clip_norm,
            delta=cfg.dp_delta,
            rounds=max(cfg.max_rounds, 1),
        )
    return FederationConfig(
        num_nodes=cfg.nodes,
        max_rounds=cfg.max_rounds,
        strategy=strategy,
        train=TrainConfig(
            learning_rate=cfg.learning_rate,
            local_epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            rng_seed=seed,
        ),
        hidden_units=cfg.hidden_units,
        target_accuracy=cfg.target_accuracy,
        seed=seed,
        dp=dp,
        he_bits=cfg.he_bits if protection == "he" else None,
        diagnostics=diagnostics,
    )


def run_cell(
    cfg: ExperimentConfig,
    strategy: str,
    sweep_value: float | None,
    seed: int,
    *,
    diagnostics: bool = False,
) -> tuple[MetricsRow, TrainingResult | None]:
    """One (strategy, sweep value, seed) training run plus its metrics.

    ``diagnostics`` fills each round's train accuracy and mean local loss,
    which only the round log reads.
    """
    name = SWEEPS[cfg.sweep].param_name
    cfg = cell_config(cfg, sweep_value)
    try:
        train_data, test_data = build_datasets(cfg, seed)
        fed_cfg = build_federation_config(cfg, strategy, seed, diagnostics=diagnostics)
        if PRESETS[strategy][1]:
            extractor = FeatureExtractor(
                seed=cfg.extractor_seed,
                input_dim=train_data.dim,
                output_dim=cfg.extractor_output_dim,
                gamma=cfg.extractor_gamma,
            )
            # partition reads only labels and row count: it picks the same rows
            train_data = augment_dataset(extractor, train_data)
            test_data = augment_dataset(extractor, test_data)
        shards = partition(
            train_data,
            PartitionScheme(cfg.data.partition, cfg.nodes, cfg.data.alpha),
            derive_int(seed, _TAG_PARTITION),
        )
        result = run_training(fed_cfg, shards, test_data)
        advantage = membership_advantage(result.final_params, train_data, test_data)
        # the last round already evaluated final_params on test_data
        if result.records:
            final_accuracy = result.records[-1].test_accuracy
        else:
            final_accuracy = accuracy(result.final_params, test_data)
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


def run_sweep(cfg: ExperimentConfig, output_path=None, on_cell=None) -> list[MetricsRow]:
    """Run the full grid in canonical order and write the metrics CSV.

    ``on_cell(done, total, row)``, if given, is called after each cell.
    A missing output directory is reported before the first cell.
    """
    output_path = output_path or cfg.output
    check_output_dir(output_path)
    values: list[float | None]
    values = [None] if cfg.sweep == "single" else list(cfg.sweep_values)
    cells = [(s, v, seed) for s in cfg.strategies for v in values for seed in cfg.seeds]
    rows = []
    for strategy, value, seed in cells:
        row, _ = run_cell(cfg, strategy, value, seed)
        rows.append(row)
        if on_cell is not None:
            on_cell(len(rows), len(cells), row)
    write_metrics_csv(rows, output_path)
    return rows


def check_output_dir(path) -> None:
    """Raise ``CrossFedError`` if the directory that would hold ``path`` is
    missing, or ``path`` is a directory, so a run can fail before its work
    rather than after it."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise CrossFedError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise CrossFedError(f"cannot write {path}: it is a directory")


def write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it over
    ``path``, so a reader never sees a partial file. An ``OSError`` becomes a
    ``CrossFedError`` that names ``path``; no temp file is left behind."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise CrossFedError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path, columns: list[str], records) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow(_csv_cells(record, columns))

    write_atomic(path, write)


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """The metrics CSV, written atomically."""
    _write_csv(path, CSV_COLUMNS, rows)


def write_round_log(result: TrainingResult, path) -> None:
    """One flat record per round, written atomically; the optional side
    output of ``run``. The records must carry the diagnostics."""
    if any(None in (r.train_accuracy, r.mean_local_loss) for r in result.records):
        raise InvalidInputError(
            "round log needs records trained with FederationConfig.diagnostics set"
        )
    _write_csv(path, _ROUND_LOG_COLUMNS, result.records)
