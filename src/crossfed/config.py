"""Experiment config files: INI-style ``key = value`` under sections.

Parsing is schema-driven so unknown keys, type errors, and constraint
violations all raise ConfigError naming the section, key, and (best
effort) the line in the file. ``render_config`` emits a canonical form
whose parse-render cycle is a fixed point, which is what the CLI's
print-config subcommand prints.
"""
from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

from . import datasets
from .errors import ConfigError
from .federation import PRESETS, STRATEGIES
from .paillier import KEY_BITS_CHOICES
from .privacy import gaussian_delta, gaussian_sigma

SWEEP_KINDS = ("privacy", "hidden", "lr", "single")
DATA_KINDS = datasets.KINDS + ("csv",)

_SYNTHETIC_ONLY = ("dim", "samples", "seed", "separation", "noise")
_CSV_ONLY = ("path", "label_column")


@dataclass
class DataSection:
    kind: str = "blobs"
    dim: int = 10
    samples: int = 1000
    test_samples: int = 250
    seed: int = 7
    separation: float = 4.0
    noise: float = 1.0
    path: str = ""
    label_column: str = "label"
    partition: str = "iid"
    alpha: float = 0.5


@dataclass
class ExperimentConfig:
    strategies: list[str] = field(default_factory=lambda: ["fedavg"])
    seeds: list[int] = field(default_factory=lambda: [1])
    sweep: str = "single"
    sweep_values: list[float] = field(default_factory=list)
    output: str = "metrics.csv"
    data: DataSection = field(default_factory=DataSection)
    nodes: int = 5
    max_rounds: int = 50
    target_accuracy: float = 0.85
    hidden_units: int = 0
    he_bits: int = 512
    learning_rate: float = 0.05
    local_epochs: int = 1
    batch_size: int = 32
    dp_epsilon: float = 1.0
    dp_delta: float = 1e-5
    dp_clip_norm: float = 1.0
    extractor_output_dim: int = 64
    extractor_gamma: float = 1.0
    extractor_seed: int = 0


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_int_list(raw: str) -> list[int]:
    return [int(part.strip()) for part in raw.split(",") if part.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(part.strip()) for part in raw.split(",") if part.strip()]


def _parse_str_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# (section, key) -> (attribute path on ExperimentConfig, parser)
_SCHEMA = {
    ("experiment", "strategies"): ("strategies", _parse_str_list),
    ("experiment", "seeds"): ("seeds", _parse_int_list),
    ("experiment", "sweep"): ("sweep", _parse_str),
    ("experiment", "sweep_values"): ("sweep_values", _parse_float_list),
    ("experiment", "output"): ("output", _parse_str),
    ("data", "kind"): ("data.kind", _parse_str),
    ("data", "dim"): ("data.dim", _parse_int),
    ("data", "samples"): ("data.samples", _parse_int),
    ("data", "test_samples"): ("data.test_samples", _parse_int),
    ("data", "seed"): ("data.seed", _parse_int),
    ("data", "separation"): ("data.separation", _parse_float),
    ("data", "noise"): ("data.noise", _parse_float),
    ("data", "path"): ("data.path", _parse_str),
    ("data", "label_column"): ("data.label_column", _parse_str),
    ("data", "partition"): ("data.partition", _parse_str),
    ("data", "alpha"): ("data.alpha", _parse_float),
    ("federation", "nodes"): ("nodes", _parse_int),
    ("federation", "max_rounds"): ("max_rounds", _parse_int),
    ("federation", "target_accuracy"): ("target_accuracy", _parse_float),
    ("federation", "hidden_units"): ("hidden_units", _parse_int),
    ("federation", "he_bits"): ("he_bits", _parse_int),
    ("train", "learning_rate"): ("learning_rate", _parse_float),
    ("train", "local_epochs"): ("local_epochs", _parse_int),
    ("train", "batch_size"): ("batch_size", _parse_int),
    ("dp", "epsilon"): ("dp_epsilon", _parse_float),
    ("dp", "delta"): ("dp_delta", _parse_float),
    ("dp", "clip_norm"): ("dp_clip_norm", _parse_float),
    ("extractor", "output_dim"): ("extractor_output_dim", _parse_int),
    ("extractor", "gamma"): ("extractor_gamma", _parse_float),
    ("extractor", "seed"): ("extractor_seed", _parse_int),
}

_SECTION_ORDER = ("experiment", "data", "federation", "train", "dp", "extractor")


def _find_line(text: str, section: str, key: str) -> str:
    # configparser lower-cases keys, so the text may spell one in any case
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
    current = None
    for number, line in enumerate(text.splitlines(), start=1):
        if header := re.match(r"^\s*\[(.+)\]", line):
            current = header.group(1).strip()
        elif current == section and pattern.match(line):
            return f" (line {number})"
    return ""


def _set_attr(cfg: ExperimentConfig, path: str, value) -> None:
    if "." in path:
        head, tail = path.split(".", 1)
        setattr(getattr(cfg, head), tail, value)
    else:
        setattr(cfg, path, value)


def _get_attr(cfg: ExperimentConfig, path: str):
    obj = cfg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _fail(section: str, key: str, text: str, message: str):
    raise ConfigError(f"[{section}] {key}{_find_line(text, section, key)}: {message}")


def _validate(cfg: ExperimentConfig, text: str, present: set[tuple[str, str]]) -> None:
    def check(condition: bool, section: str, key: str, message: str):
        if not condition:
            _fail(section, key, text, message)

    check(bool(cfg.strategies), "experiment", "strategies", "must not be empty")
    for s in cfg.strategies:
        check(s in STRATEGIES, "experiment", "strategies",
              f"unknown strategy {s!r}, expected one of {STRATEGIES}")
    check(len(set(cfg.strategies)) == len(cfg.strategies), "experiment",
          "strategies", "contains duplicates")
    check(bool(cfg.seeds), "experiment", "seeds", "must not be empty")
    check(cfg.sweep in SWEEP_KINDS, "experiment", "sweep",
          f"must be one of {SWEEP_KINDS}, got {cfg.sweep!r}")
    if cfg.sweep == "single":
        check(not cfg.sweep_values, "experiment", "sweep_values",
              "must be empty when sweep = single")
    else:
        check(bool(cfg.sweep_values), "experiment", "sweep_values",
              f"must be provided for sweep = {cfg.sweep}")
    if cfg.sweep == "privacy":
        for v in cfg.sweep_values:
            check(v > 0, "experiment", "sweep_values", "epsilon values must be positive")
    if cfg.sweep == "hidden":
        for v in cfg.sweep_values:
            check(v == int(v) and v >= 0, "experiment", "sweep_values",
                  "hidden-unit values must be non-negative integers")
    if cfg.sweep == "lr":
        for v in cfg.sweep_values:
            check(0 < v <= 1, "experiment", "sweep_values",
                  "learning rates must be in (0, 1]")
    check(bool(cfg.output), "experiment", "output", "must not be empty")

    d = cfg.data
    check(d.kind in DATA_KINDS, "data", "kind",
          f"must be one of {DATA_KINDS}, got {d.kind!r}")
    if d.kind == "csv":
        check(bool(d.path), "data", "path", "required when kind = csv")
        for key in _SYNTHETIC_ONLY:
            check(("data", key) not in present, "data", key,
                  "not allowed when kind = csv")
    else:
        for key in _CSV_ONLY:
            check(("data", key) not in present, "data", key,
                  f"only allowed when kind = csv")
        check(d.dim >= 1, "data", "dim", "must be >= 1")
        check(d.kind != "xor" or d.dim == 2, "data", "dim", "must be 2 for xor")
        check(d.samples >= 2, "data", "samples", "must be >= 2")
        check(d.separation >= 0, "data", "separation", "must be >= 0")
        check(d.noise >= 0, "data", "noise", "must be >= 0")
    check(d.test_samples >= 2, "data", "test_samples", "must be >= 2")
    check(d.partition in datasets.PARTITION_KINDS, "data", "partition",
          f"must be one of {datasets.PARTITION_KINDS}, got {d.partition!r}")
    check(d.alpha > 0, "data", "alpha", "must be positive")

    check(cfg.nodes >= 1, "federation", "nodes", "must be >= 1")
    check(cfg.max_rounds >= 0, "federation", "max_rounds", "must be >= 0")
    check(0 <= cfg.target_accuracy <= 1, "federation", "target_accuracy",
          "must be in [0, 1]")
    check(cfg.hidden_units >= 0, "federation", "hidden_units", "must be >= 0")
    check(cfg.he_bits in KEY_BITS_CHOICES, "federation", "he_bits",
          f"must be one of {KEY_BITS_CHOICES}")

    check(0 < cfg.learning_rate <= 1, "train", "learning_rate",
          f"must be in (0, 1], got {cfg.learning_rate}")
    check(cfg.local_epochs >= 0, "train", "local_epochs", "must be >= 0")
    check(cfg.batch_size >= 1, "train", "batch_size", "must be >= 1")

    check(cfg.dp_epsilon > 0, "dp", "epsilon", "must be positive")
    check(0 < cfg.dp_delta < 1, "dp", "delta", "must be in (0, 1)")
    check(cfg.dp_clip_norm > 0, "dp", "clip_norm", "must be positive")
    if any(PRESETS[s][0] == "dp" for s in cfg.strategies):
        # the classical sigma is proved only for epsilon < 1; past that it
        # can miss delta, so check it against the exact curve
        if cfg.sweep == "privacy":
            section, key, epsilons = "experiment", "sweep_values", cfg.sweep_values
        else:
            section, key, epsilons = "dp", "epsilon", [cfg.dp_epsilon]
        for eps in epsilons:
            sigma = gaussian_sigma(cfg.dp_clip_norm, eps, cfg.dp_delta)
            reached = gaussian_delta(sigma, eps, cfg.dp_clip_norm)
            check(reached <= cfg.dp_delta, section, key,
                  f"at epsilon {eps:g} the classical Gaussian sigma reaches delta "
                  f"{reached:.2e} on the exact curve, above [dp] delta = {cfg.dp_delta:g}")

    check(cfg.extractor_output_dim >= 1, "extractor", "output_dim", "must be >= 1")
    check(cfg.extractor_gamma > 0, "extractor", "gamma", "must be positive")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = ExperimentConfig()
    present: set[tuple[str, str]] = set()
    for section in parser.sections():
        if section not in _SECTION_ORDER:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) == ("extractor", "kind"):  # rff, the one feature map
                if raw.strip() != "rff":
                    _fail(section, key, text, f"must be 'rff', got {raw.strip()!r}")
                continue
            if (section, key) not in _SCHEMA:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]{_find_line(text, section, key)}"
                )
            attr, cast = _SCHEMA[(section, key)]
            try:
                value = cast(raw)
            except ValueError:
                _fail(section, key, text, f"cannot parse {raw!r}")
            _set_attr(cfg, attr, value)
            present.add((section, key))
    _validate(cfg, text, present)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    skip_csv = cfg.data.kind != "csv"
    lines = []
    for section in _SECTION_ORDER:
        body = []
        for (sec, key), (attr, _) in _SCHEMA.items():
            if sec != section:
                continue
            if sec == "data" and skip_csv and key in _CSV_ONLY:
                continue
            if sec == "data" and not skip_csv and key in _SYNTHETIC_ONLY:
                continue
            if key == "sweep_values" and cfg.sweep == "single":
                continue
            body.append(f"{key} = {_format_value(_get_attr(cfg, attr))}")
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)
