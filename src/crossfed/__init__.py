"""Deterministic simulator for privacy-preserving cross-cloud federated
learning: weighted averaging, feature augmentation, Paillier secure
aggregation, DP and secret-sharing baselines, and migration fine-tuning.
"""

from .models import (
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
from .features import FeatureExtractor, augment_dataset, extract
from .datasets import PartitionScheme, SyntheticSpec, generate, load_csv, partition, save_csv
from .federation import (
    FederationConfig,
    NodeState,
    RoundRecord,
    TrainingResult,
    fedavg_aggregate,
    init_federation,
    migrate_and_finetune,
    run_round,
    run_training,
)
from .privacy import (
    DpConfig,
    ShareBundle,
    clip_update,
    dp_privatize,
    gaussian_sigma,
    membership_advantage,
    reconstruct_sum,
    share,
)
from .config import ExperimentConfig, parse_config, render_config
from .harness import MetricsRow, run_sweep

__version__ = "0.1.0"
