from pathlib import Path

import pytest

from crossfed.config import (
    ExperimentConfig,
    parse_config,
    parse_config_text,
    render_config,
)
from crossfed.errors import ConfigError

FULL = """\
[experiment]
strategies = fedavg, he-fl
seeds = 3, 5, 8
sweep = lr
sweep_values = 0.001, 0.05
output = out.csv

[data]
kind = blobs
dim = 6
samples = 300
test_samples = 80
seed = 11
separation = 5.0
noise = 0.9
partition = dirichlet
alpha = 0.3

[federation]
nodes = 4
max_rounds = 12
target_accuracy = 0.8
hidden_units = 8
he_bits = 256

[train]
learning_rate = 0.02
local_epochs = 2
batch_size = 16

[dp]
epsilon = 2.0
delta = 1e-06
clip_norm = 0.5

[extractor]
kind = rff
output_dim = 32
gamma = 2.0
seed = 4
"""


def test_minimal_config_populates_defaults():
    cfg = parse_config_text("")
    assert cfg.strategies == ["fedavg"]
    assert cfg.seeds == [1]
    assert cfg.sweep == "single"
    assert cfg.target_accuracy == 0.85
    assert cfg.dp_delta == 1e-5
    assert cfg.he_bits == 512
    assert cfg.data.kind == "blobs"


def test_full_config_parses():
    cfg = parse_config_text(FULL)
    assert cfg.strategies == ["fedavg", "he-fl"]
    assert cfg.seeds == [3, 5, 8]
    assert cfg.sweep_values == [0.001, 0.05]
    assert cfg.data.partition == "dirichlet"
    assert cfg.nodes == 4
    assert cfg.dp_delta == 1e-6
    assert cfg.extractor_output_dim == 32


def test_negative_learning_rate_names_key():
    text = "[train]\nlearning_rate = -0.5\n"
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_text(text)


def test_error_carries_line_number():
    text = "[federation]\nnodes = 3\nmax_rounds = -1\n"
    with pytest.raises(ConfigError, match=r"max_rounds \(line 3\)"):
        parse_config_text(text)


@pytest.mark.parametrize("key, first, bad", [("kind", "blobs", "bogus"), ("seed", "4", "x")])
def test_error_line_is_searched_inside_the_named_section(key, first, bad):
    text = (f"[experiment]\nseeds = 1\n\n[data]\n{key} = {first}\ndim = 2\n\n"
            f"[extractor]\n{key} = {bad}\n")
    with pytest.raises(ConfigError, match=rf"^\[extractor\] {key} \(line 9\): "):
        parse_config_text(text)


@pytest.mark.parametrize("spelled", ["Kind", "KIND"])
def test_error_line_found_for_a_key_in_any_case(spelled):
    text = f"[data]\n{spelled} = bogus\n"
    with pytest.raises(ConfigError, match=r"^\[data\] kind \(line 2\): "):
        parse_config_text(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="turbo"):
        parse_config_text("[train]\nturbo = yes\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text("[mystery]\nx = 1\n")


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError, match="strategies"):
        parse_config_text("[experiment]\nstrategies = fedsgd\n")


def test_type_error_names_key():
    with pytest.raises(ConfigError, match="nodes"):
        parse_config_text("[federation]\nnodes = many\n")


def test_sweep_values_required_unless_single():
    with pytest.raises(ConfigError, match="sweep_values"):
        parse_config_text("[experiment]\nsweep = privacy\n")
    with pytest.raises(ConfigError, match="sweep_values"):
        parse_config_text("[experiment]\nsweep = single\nsweep_values = 1, 2\n")


def test_hidden_sweep_values_must_be_integers():
    with pytest.raises(ConfigError, match="sweep_values"):
        parse_config_text("[experiment]\nsweep = hidden\nsweep_values = 2.5\n")


def test_csv_and_synthetic_keys_are_exclusive():
    with pytest.raises(ConfigError, match="path"):
        parse_config_text("[data]\nkind = csv\n")  # path required
    with pytest.raises(ConfigError, match="dim"):
        parse_config_text("[data]\nkind = csv\npath = x.csv\ndim = 4\n")
    with pytest.raises(ConfigError, match="path"):
        parse_config_text("[data]\nkind = blobs\npath = x.csv\n")


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_render_parse_is_fixed_point():
    cfg = parse_config_text(FULL)
    text1 = render_config(cfg)
    cfg2 = parse_config_text(text1)
    assert cfg2 == cfg
    assert render_config(cfg2) == text1


def test_shipped_configs_render_to_a_fixed_point():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
    assert paths
    for path in paths:
        cfg = parse_config(path)
        text = render_config(cfg)
        assert parse_config_text(text) == cfg, path.name
        assert render_config(parse_config_text(text)) == text, path.name


def test_render_defaults_roundtrip():
    cfg = ExperimentConfig()
    text = render_config(cfg)
    assert parse_config_text(text) == cfg


def test_render_csv_kind_roundtrip():
    text = "[data]\nkind = csv\npath = somewhere.csv\nlabel_column = y\n"
    cfg = parse_config_text(text)
    canonical = render_config(cfg)
    assert "path = somewhere.csv" in canonical
    assert "\ndim =" not in canonical  # synthetic keys omitted for csv
    assert "\nsamples =" not in canonical
    assert parse_config_text(canonical) == cfg
    assert render_config(parse_config_text(canonical)) == canonical


# --- DP calibration against the exact Gaussian curve -------------------------

DP_SINGLE = "[experiment]\nstrategies = {strategies}\n\n[dp]\nepsilon = {eps}\ndelta = {delta}\n"
DP_PRIVACY_SWEEP = (
    "[experiment]\nstrategies = {strategies}\nsweep = privacy\nsweep_values = {values}\n\n"
    "[dp]\ndelta = {delta}\n"
)


def test_dp_epsilon_whose_classical_sigma_misses_delta_is_rejected():
    text = DP_SINGLE.format(strategies="fedavg, dp-fl", eps=16, delta=1e-5)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    message = str(err.value)
    assert message.startswith("[dp] epsilon (line 5): at epsilon 16 ")
    assert "reaches delta 3.36e-04" in message
    assert "delta = 1e-05" in message


def test_privacy_sweep_value_whose_classical_sigma_misses_delta_is_rejected():
    text = DP_PRIVACY_SWEEP.format(strategies="dp-fl", values="0.5, 1, 8", delta=1e-3)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    message = str(err.value)
    assert message.startswith("[experiment] sweep_values (line 4): at epsilon 8 ")
    assert "reaches delta 1.31e-03" in message
    # the same values pass at the shipped delta
    parse_config_text(DP_PRIVACY_SWEEP.format(strategies="dp-fl", values="0.5, 1, 8", delta=1e-5))


def test_dp_calibration_checked_only_when_dp_fl_runs():
    parse_config_text(DP_SINGLE.format(strategies="fedavg, he-fl", eps=16, delta=1e-5))
    parse_config_text(
        DP_PRIVACY_SWEEP.format(strategies="fedavg, smc-fl", values="8, 16", delta=1e-3)
    )


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_shipped_dp_budgets_accepted(eps):
    cfg = parse_config_text(DP_SINGLE.format(strategies="dp-fl", eps=eps, delta=1e-5))
    assert cfg.dp_epsilon == eps
    cfg = parse_config_text(
        DP_PRIVACY_SWEEP.format(strategies="dp-fl", values=eps, delta=1e-5)
    )
    assert cfg.sweep_values == [eps]


def test_shipped_configs_pass_the_dp_calibration_check():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
    assert paths
    for path in paths:
        assert "dp-fl" in parse_config(path).strategies, path.name
