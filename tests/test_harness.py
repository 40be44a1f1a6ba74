import csv
import json

import pytest

from crossfed import harness
from crossfed.cli import main
from crossfed.config import parse_config_text
from crossfed.federation import PRESETS, STRATEGIES, run_training
from crossfed.harness import CSV_COLUMNS, run_cell, run_sweep

SMALL = """\
[experiment]
strategies = fedavg
seeds = 1
sweep = single
output = {out}

[data]
kind = blobs
dim = 4
samples = 120
test_samples = 40
seed = 2
separation = 6.0

[federation]
nodes = 3
max_rounds = 3
target_accuracy = 1.0

[train]
learning_rate = 0.05
local_epochs = 1
batch_size = 16
"""


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_single_sweep_emits_one_row(tmp_path):
    out = tmp_path / "m.csv"
    cfg = parse_config_text(SMALL.format(out=out))
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert rows[0].sweep_param_name == "single"
    content = _read_rows(out)
    assert content[0] == CSV_COLUMNS
    assert len(content) == 2
    assert all(len(r) == len(CSV_COLUMNS) for r in content[1:])


def test_sweep_grid_row_count_and_order(tmp_path):
    out = tmp_path / "g.csv"
    text = SMALL.format(out=out).replace(
        "strategies = fedavg", "strategies = fedavg, smc-fl"
    ).replace("sweep = single", "sweep = lr\nsweep_values = 0.01, 0.05")
    text = text.replace("seeds = 1", "seeds = 1, 2")
    cfg = parse_config_text(text)
    rows = run_sweep(cfg)
    assert len(rows) == 8  # 2 strategies x 2 values x 2 seeds
    keys = [(r.strategy, r.sweep_param_value, r.seed) for r in rows]
    assert keys == sorted(keys, key=lambda k: (
        ["fedavg", "smc-fl"].index(k[0]), k[1], k[2]))


def test_sweep_deterministic_modulo_wall_clock(tmp_path):
    cfg = parse_config_text(SMALL.format(out=tmp_path / "a.csv"))
    run_sweep(cfg, tmp_path / "a.csv")
    run_sweep(cfg, tmp_path / "b.csv")
    a, b = _read_rows(tmp_path / "a.csv"), _read_rows(tmp_path / "b.csv")
    wall = CSV_COLUMNS.index("wall_millis_total")
    for row in a[1:]:
        row[wall] = "-"
    for row in b[1:]:
        row[wall] = "-"
    assert a == b


def test_failed_cell_is_recorded_and_sweep_continues(tmp_path):
    out = tmp_path / "f.csv"
    text = f"""\
[experiment]
strategies = fedavg
seeds = 1, 2
output = {out}

[data]
kind = csv
path = {tmp_path / "missing.csv"}
"""
    cfg = parse_config_text(text)
    rows = run_sweep(cfg)
    assert len(rows) == 2
    assert all(r.status.startswith("error:") for r in rows)
    assert all(r.rounds_to_target == -1 for r in rows)
    content = _read_rows(out)
    assert len(content) == 3  # header + 2 rows despite failures


def test_run_cell_reports_target(tmp_path):
    cfg = parse_config_text(SMALL.format(out=tmp_path / "x.csv"))
    cfg.target_accuracy = 0.5
    row, result = run_cell(cfg, "fedavg", None, 1)
    assert row.status == "ok"
    assert row.rounds_to_target == result.rounds_to_target
    assert 0.0 <= row.membership_advantage <= 1.0
    assert row.privacy_score == 1.0 - row.membership_advantage
    assert row.comm_bytes_total == sum(r.simulated_comm_bytes for r in result.records)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_cell_builds_preset_extras(tmp_path, monkeypatch, strategy):
    text = SMALL.format(out=tmp_path / "x.csv")
    cfg = parse_config_text(text.replace("max_rounds = 3", "max_rounds = 2\nhe_bits = 256"))
    built = []

    def spy(fed_cfg, shards, test_data):
        built.append(fed_cfg)
        return run_training(fed_cfg, shards, test_data)

    monkeypatch.setattr(harness, "run_training", spy)
    row, _ = run_cell(cfg, strategy, None, 1)
    assert row.status == "ok"
    (fed_cfg,) = built
    protection, front_end = PRESETS[strategy]
    assert (fed_cfg.dp is not None) == (protection == "dp")
    assert fed_cfg.he_bits == (256 if protection == "he" else None)
    assert (fed_cfg.extractor is not None) == front_end


# --- cli ---------------------------------------------------------------------


def test_cli_sweep_and_exit_code(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    out = tmp_path / "m.csv"
    conf.write_text(SMALL.format(out=out))
    assert main(["sweep", "-c", str(conf)]) == 0
    assert out.exists()
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_sweep_fails_on_bad_cells(tmp_path):
    conf = tmp_path / "exp.ini"
    conf.write_text(
        f"[experiment]\noutput = {tmp_path/'m.csv'}\n\n"
        f"[data]\nkind = csv\npath = {tmp_path/'absent.csv'}\n"
    )
    assert main(["sweep", "-c", str(conf)]) == 1


def test_cli_run_with_round_log(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    log = tmp_path / "rounds.csv"
    conf.write_text(SMALL.format(out=tmp_path / "m.csv"))
    assert main(["run", "-c", str(conf), "--round-log", str(log)]) == 0
    assert "final_accuracy=" in capsys.readouterr().out
    content = _read_rows(log)
    assert content[0][0] == "round_index"
    assert len(content) == 1 + 3  # header + max_rounds records


def test_cli_print_config_roundtrip(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    conf.write_text(SMALL.format(out=tmp_path / "m.csv"))
    assert main(["print-config", "-c", str(conf)]) == 0
    echoed = capsys.readouterr().out
    assert parse_config_text(echoed) == parse_config_text(conf.read_text())


def test_cli_config_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    conf.write_text("[train]\nlearning_rate = -1\n")
    assert main(["sweep", "-c", str(conf)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_keygen(tmp_path, capsys):
    out = tmp_path / "keys.json"
    assert main(["keygen", "--bits", "256", "--seed", "7", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    n = int(payload["public"]["n"], 16)
    assert n.bit_length() == 256
    assert int(payload["public"]["g"], 16) == n + 1
    # deterministic: same seed reproduces the same modulus
    out2 = tmp_path / "keys2.json"
    main(["keygen", "--bits", "256", "--seed", "7", "-o", str(out2)])
    assert json.loads(out2.read_text())["public"]["n"] == payload["public"]["n"]
