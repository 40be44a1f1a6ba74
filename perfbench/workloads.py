"""Benchmark workloads: one INI config per (workload, seed), plus what each
workload is expected to exercise.

The program only ever sees the generated config. The workload seed picks
the data seed, the cell seed and the feature-extractor seed; shapes,
round counts and strategies are fixed, so every seed asks for the same
amount of work. Each config sets ``target_accuracy = 1.0`` on overlapping
blobs, which no cell reaches, so every cell runs exactly ``max_rounds``
rounds: early stopping would make the work per sweep depend on the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

PAILLIER = (
    "paillier.keygen",
    "paillier.encrypt",
    "paillier.decrypt",
    "paillier.encrypt_params",
    "paillier.aggregate_encrypted",
    "paillier.decrypt_params",
)
COMMON = (
    "config.parse_config",
    "datasets.generate",
    "datasets.partition",
    "models.local_train",
    "models.accuracy",
    "privacy.membership_advantage",
    "federation.init_federation",
    "federation.run_training",
    "federation.run_round",
    "harness.run_sweep",
    "harness.run_cell",
    "harness.write_metrics_csv",
)
SMC = ("privacy.share", "privacy.reconstruct_sum")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategies: tuple[str, ...]
    sweep: str
    sweep_values: tuple[float, ...]
    nodes: int
    max_rounds: int
    he_bits: int
    samples: int
    partition: str
    # traced functions that must record calls, and ones that must record none
    active: tuple[str, ...]
    inactive: tuple[str, ...]

    @property
    def cells(self) -> int:
        values = max(1, len(self.sweep_values))
        return len(self.strategies) * values

    def config_text(self, seed: int, output: str) -> str:
        """The INI the program runs for this workload seed."""
        rng = random.Random(f"crossfed-perfbench:{self.name}:{seed}")
        data_seed = rng.randrange(1, 1 << 31)
        cell_seed = rng.randrange(1, 1 << 31)
        extractor_seed = rng.randrange(1, 1 << 31)
        lines = [
            "[experiment]",
            f"strategies = {', '.join(self.strategies)}",
            f"seeds = {cell_seed}",
            f"sweep = {self.sweep}",
        ]
        if self.sweep_values:
            lines.append(f"sweep_values = {', '.join(repr(v) for v in self.sweep_values)}")
        lines += [
            f"output = {output}",
            "",
            "[data]",
            "kind = blobs",
            "dim = 10",
            f"samples = {self.samples}",
            "test_samples = 400",
            f"seed = {data_seed}",
            "separation = 3.0",
            "noise = 1.0",
            f"partition = {self.partition}",
            "alpha = 0.5",
            "",
            "[federation]",
            f"nodes = {self.nodes}",
            f"max_rounds = {self.max_rounds}",
            "target_accuracy = 1.0",
            "hidden_units = 0",
            f"he_bits = {self.he_bits}",
            "",
            "[train]",
            "learning_rate = 0.05",
            "local_epochs = 1",
            "batch_size = 32",
            "",
            "[dp]",
            "epsilon = 4.0",
            "delta = 1e-5",
            "clip_norm = 1.0",
            "",
            "[extractor]",
            "kind = rff",
            "output_dim = 8",
            "gamma = 0.1",
            f"seed = {extractor_seed}",
            "",
        ]
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="he-1024",
            why="he-fl and ours at 1024-bit keys, 3 nodes: Paillier encrypt, decrypt "
            "and keygen carry almost all the time",
            strategies=("he-fl", "ours"),
            sweep="single",
            sweep_values=(),
            nodes=3,
            max_rounds=4,
            he_bits=1024,
            samples=1200,
            partition="iid",
            active=COMMON + PAILLIER + ("features.augment_dataset",),
            inactive=SMC + ("privacy.dp_privatize", "federation.fedavg_aggregate"),
        ),
        Workload(
            name="plain-mlp",
            why="fedavg, dp-fl and smc-fl on a small and a large hidden layer, 5 nodes: "
            "no Paillier, so crypto changes must leave it flat",
            strategies=("fedavg", "dp-fl", "smc-fl"),
            sweep="hidden",
            sweep_values=(8.0, 64.0),
            nodes=5,
            max_rounds=20,
            he_bits=256,
            samples=2000,
            partition="iid",
            active=COMMON + SMC + ("privacy.dp_privatize", "federation.fedavg_aggregate"),
            inactive=PAILLIER + ("features.augment_dataset",),
        ),
        Workload(
            name="wide-16node",
            why="fedavg, smc-fl and he-fl with 16 nodes on a Dirichlet split at 256-bit "
            "keys: 16 encryptions per decryption",
            strategies=("fedavg", "smc-fl", "he-fl"),
            sweep="single",
            sweep_values=(),
            nodes=16,
            max_rounds=10,
            he_bits=256,
            samples=3200,
            partition="dirichlet",
            active=COMMON + PAILLIER + SMC + ("federation.fedavg_aggregate",),
            inactive=("privacy.dp_privatize", "features.augment_dataset"),
        ),
    )
}
