"""Experiment config files: INI-style ``key = value`` under sections.

Each setting is stated once, as a field of ``ExperimentConfig`` or
``DataSection``: ``_SECTIONS`` names the section and key it is read
from, and its type picks the parser (int, float, str, or a
comma-separated list of one of them; floats must be finite). Unknown
keys, type errors, and constraint violations all raise ConfigError
naming the section, key, and (best effort) the line in the file.
``render_config`` emits a canonical form whose parse-render cycle is a
fixed point, which is what the CLI's print-config subcommand prints.

Each sweep kind is one row of ``SWEEPS``: its CSV name, the field a
sweep value sets, and the check every value must pass. ``cell_config``
applies one sweep value.
"""
from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from . import datasets
from .errors import ConfigError
from .federation import PRESETS, STRATEGIES
from .paillier import KEY_BITS_CHOICES
from .privacy import gaussian_delta, gaussian_sigma

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


class _NotFinite(ValueError):
    """A float that parses as inf or nan."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise _NotFinite(raw)
    return value


_SCALARS = {int: int, float: _finite, str: str}


def _parser(kind) -> Callable[[str], object]:
    """Parser of a raw value into a field of type ``kind``: int, float, str,
    or a comma-separated list of one of them."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        scalar = _SCALARS[item]
        return lambda raw: [scalar(part.strip()) for part in raw.split(",") if part.strip()]
    scalar = _SCALARS[kind]
    return lambda raw: scalar(raw.strip())


# evaluated once: each call evaluates every annotation string afresh
_HINTS = {kind: get_type_hints(kind) for kind in (ExperimentConfig, DataSection)}


def _field_type(path: str):
    """Type of the ExperimentConfig attribute at a dotted path."""
    kind = ExperimentConfig
    for name in path.split("."):
        kind = _HINTS[kind][name]
    return kind


# section -> (prefix of its ExperimentConfig attributes, keys in canonical order)
_SECTIONS = {
    "experiment": ("", ("strategies", "seeds", "sweep", "sweep_values", "output")),
    "data": ("data.", tuple(f.name for f in fields(DataSection))),
    "federation": ("", ("nodes", "max_rounds", "target_accuracy", "hidden_units", "he_bits")),
    "train": ("", ("learning_rate", "local_epochs", "batch_size")),
    "dp": ("dp_", ("epsilon", "delta", "clip_norm")),
    "extractor": ("extractor_", ("output_dim", "gamma", "seed")),
}

# (section, key) -> (attribute path on ExperimentConfig, parser)
_SCHEMA = {
    (section, key): (prefix + key, _parser(_field_type(prefix + key)))
    for section, (prefix, keys) in _SECTIONS.items()
    for key in keys
}


class Sweep(NamedTuple):
    param_name: str  # the CSV's sweep_param_name
    field: str | None  # the ExperimentConfig attribute a sweep value sets
    valid: Callable[[float], bool]  # every sweep value must pass it
    message: str


SWEEPS = {
    "privacy": Sweep("epsilon", "dp_epsilon", lambda v: v > 0,
                     "epsilon values must be positive"),
    "hidden": Sweep("hidden_units", "hidden_units", lambda v: v == int(v) and v >= 0,
                    "hidden-unit values must be non-negative integers"),
    "lr": Sweep("learning_rate", "learning_rate", lambda v: 0 < v <= 1,
                "learning rates must be in (0, 1]"),
    "single": Sweep("single", None, lambda v: False, "must be empty when sweep = single"),
}
SWEEP_KINDS = tuple(SWEEPS)


def cell_config(cfg: ExperimentConfig, value: float | None) -> ExperimentConfig:
    """``cfg`` with the swept field set to ``value``, cast to the field's
    type; ``cfg`` itself for ``single`` or no value."""
    field_name = SWEEPS[cfg.sweep].field
    if field_name is None or value is None:
        return cfg
    return replace(cfg, **{field_name: _field_type(field_name)(value)})


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
    sweep = SWEEPS[cfg.sweep]
    check(bool(cfg.sweep_values) or sweep.field is None, "experiment", "sweep_values",
          f"must be provided for sweep = {cfg.sweep}")
    for v in cfg.sweep_values:  # single takes none, so it fails the first
        check(sweep.valid(v), "experiment", "sweep_values", sweep.message)
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
        if sweep.field == "dp_epsilon":
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
        if section not in _SECTIONS:
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
            except _NotFinite:
                _fail(section, key, text, f"must be finite, got {raw.strip()!r}")
            except ValueError:
                _fail(section, key, text, f"cannot parse {raw!r}")
            owner, _, name = attr.rpartition(".")
            setattr(attrgetter(owner)(cfg) if owner else cfg, name, value)
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
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    skipped = {("experiment", "sweep_values")} if cfg.sweep == "single" else set()
    skipped.update(("data", key) for key in
                   (_SYNTHETIC_ONLY if cfg.data.kind == "csv" else _CSV_ONLY))
    lines = []
    for section, (prefix, keys) in _SECTIONS.items():
        body = [f"{key} = {_format_value(attrgetter(prefix + key)(cfg))}"
                for key in keys if (section, key) not in skipped]
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)
