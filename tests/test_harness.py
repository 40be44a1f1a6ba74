import csv
import ctypes
import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from crossfed import cli, features, federation, harness, paillier
from crossfed.cli import main
from crossfed.config import SWEEP_KINDS, parse_config_text
from crossfed.errors import CrossFedError, InvalidInputError
from crossfed.federation import PRESETS, STRATEGIES, run_training
from crossfed.harness import CSV_COLUMNS, run_cell, run_sweep, write_round_log

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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sweep_survives_values_that_overflow_once_scaled(tmp_path):
    # finite features near 1e300 train to parameters that are finite but
    # overflow to inf once multiplied by the HE codec's scale of 2^40
    data = tmp_path / "huge.csv"
    lines = ["x0,x1,label"]
    for i in range(60):
        sign = 1 if i % 2 else -1
        lines.append(f"{sign * (1 + i / 60) * 1e300!r},{(2 - i / 60) * 1e299!r},{i % 2}")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.csv"
    text = f"""\
[experiment]
strategies = fedavg, smc-fl, he-fl
seeds = 1
output = {out}

[data]
kind = csv
path = {data}
test_samples = 20

[federation]
nodes = 2
max_rounds = 2
he_bits = 256
"""
    rows = run_sweep(parse_config_text(text))
    assert [r.strategy for r in rows] == ["fedavg", "smc-fl", "he-fl"]
    assert rows[2].status.startswith("error:") and "non-finite" in rows[2].status
    content = _read_rows(out)
    assert [r[0] for r in content[1:]] == ["fedavg", "smc-fl", "he-fl"]
    assert content[3][CSV_COLUMNS.index("status")] == rows[2].status


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
    built, augmented = [], []

    def spy(fed_cfg, shards, test_data):
        built.append((fed_cfg, shards, test_data))
        return run_training(fed_cfg, shards, test_data)

    def counted(*args, _original=features.transform):
        augmented.append(1)
        return _original(*args)

    monkeypatch.setattr(harness, "run_training", spy)
    # every augment_dataset call, from any module, is one transform pass
    monkeypatch.setattr(features, "transform", counted)
    row, _ = run_cell(cfg, strategy, None, 1)
    assert row.status == "ok"
    ((fed_cfg, shards, test_data),) = built
    protection, front_end = PRESETS[strategy]
    assert (fed_cfg.dp is not None) == (protection == "dp")
    assert fed_cfg.he_bits == (256 if protection == "he" else None)
    # the front-end runs once per cell, on the train and the test set
    width = cfg.extractor_output_dim if front_end else cfg.data.dim
    assert {s.dim for s in shards} == {test_data.dim} == {width}
    assert len(augmented) == (2 if front_end else 0)


# kind -> (CSV name, sweep value, where the cell's FederationConfig holds it,
# the value held there); single sets nothing, so the base hidden_units stays
SWEPT = {
    "privacy": ("epsilon", 2.0, lambda fed: fed.dp.epsilon, 2.0),
    "hidden": ("hidden_units", 8.0, lambda fed: fed.hidden_units, 8),
    "lr": ("learning_rate", 0.125, lambda fed: fed.train.learning_rate, 0.125),
    "single": ("single", None, lambda fed: fed.hidden_units, 0),
}


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_swept_value_reaches_the_cell_with_its_field_type(tmp_path, monkeypatch, kind):
    name, value, read, held = SWEPT[kind]
    values = "" if value is None else f"\nsweep_values = {value}"
    text = (SMALL.format(out=tmp_path / "x.csv")
            .replace("strategies = fedavg", "strategies = dp-fl")
            .replace("sweep = single", f"sweep = {kind}{values}")
            .replace("max_rounds = 3", "max_rounds = 1"))
    cfg = parse_config_text(text)
    built = []

    def spy(fed_cfg, shards, test_data):
        built.append(fed_cfg)
        return run_training(fed_cfg, shards, test_data)

    monkeypatch.setattr(harness, "run_training", spy)
    row, _ = run_cell(cfg, "dp-fl", value, 1)
    assert (row.status, row.sweep_param_name, row.sweep_param_value) == ("ok", name, value)
    (fed_cfg,) = built
    assert read(fed_cfg) == held and type(read(fed_cfg)) is type(held)
    assert cfg == parse_config_text(text)  # the sweep's own config is untouched


def test_sweep_evaluates_only_the_test_set_each_round(tmp_path, monkeypatch):
    text = SMALL.format(out=tmp_path / "x.csv").replace(
        "strategies = fedavg", "strategies = fedavg, smc-fl, dp-fl")
    calls = {"loss": 0, "accuracy": 0, "round": 0}

    def counted(key, original):
        def spy(*args):
            calls[key] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(federation, "dataset_loss", counted("loss", federation.dataset_loss))
    monkeypatch.setattr(federation, "accuracy", counted("accuracy", federation.accuracy))
    monkeypatch.setattr(federation, "run_round", counted("round", federation.run_round))
    rows = run_sweep(parse_config_text(text))
    assert [r.status for r in rows] == ["ok"] * 3
    assert calls["round"] > 0
    assert calls == {"loss": 0, "accuracy": calls["round"], "round": calls["round"]}


def test_round_log_refuses_records_without_diagnostics(tmp_path):
    cfg = parse_config_text(SMALL.format(out=tmp_path / "x.csv"))
    _, result = run_cell(cfg, "fedavg", None, 1)
    log = tmp_path / "rounds.csv"
    with pytest.raises(InvalidInputError, match="diagnostics"):
        write_round_log(result, log)
    assert os.listdir(tmp_path) == []


def test_oversized_hidden_layer_ends_in_its_cell_status(tmp_path):
    out = tmp_path / "h.csv"
    text = SMALL.format(out=out).replace(
        "sweep = single", "sweep = hidden\nsweep_values = 4, 1e300")
    rows = run_sweep(parse_config_text(text))
    assert [r.sweep_param_value for r in rows] == [4.0, 1e300]
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("error: parameter count ")
    assert [r[-1] for r in _read_rows(out)[1:]] == [r.status for r in rows]


# --- reuse of the key holder's randomisers across cells ----------------------

HE_PAIR = (
    SMALL.replace("strategies = fedavg", "strategies = he-fl, ours")
    .replace("separation = 6.0", "separation = 0.5")  # accuracy 1.0 stays out of reach
    .replace("target_accuracy = 1.0", "target_accuracy = 1.0\nhe_bits = 256")
    + "\n[extractor]\noutput_dim = 8\n"
)
HE_PAIR_SWEEP = HE_PAIR.replace("sweep = single", "sweep = lr\nsweep_values = 0.01, 0.05")


def _rows_without_wall_clock(path):
    rows = _read_rows(path)
    wall = CSV_COLUMNS.index("wall_millis_total")
    for row in rows[1:]:
        row[wall] = "-"
    return rows


def test_cells_sharing_a_seed_reuse_randomisers(tmp_path, monkeypatch):
    cfg = parse_config_text(HE_PAIR.format(out=tmp_path / "x.csv"))
    encrypted = []

    def counted(*args, _original=paillier.encrypt, **kwargs):
        encrypted.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(paillier, "encrypt", counted)
    memo = paillier._r_to_the_n
    memo.cache_clear()
    _, he = run_cell(cfg, "he-fl", None, 1)
    assert len(he.records) == cfg.max_rounds
    # no r repeats inside a cell: every lookup of the he-fl cell misses
    assert (memo.cache_info().hits, memo.cache_info().misses) == (0, len(encrypted))
    _, ours = run_cell(cfg, "ours", None, 1)
    assert len(ours.records) == cfg.max_rounds
    d_he, d_ours = he.final_params.arch.param_count, ours.final_params.arch.param_count
    assert (d_he, d_ours) == (5, 9)
    # ours draws the same r's per (node, round), so its first d_he coordinates hit
    lookups = cfg.nodes * cfg.max_rounds
    assert memo.cache_info().hits == lookups * min(d_he, d_ours)
    assert memo.cache_info().misses == lookups * (d_he + d_ours - min(d_he, d_ours))
    assert len(encrypted) == lookups * (d_he + d_ours)


def test_sweep_csv_same_with_memo_bypassed(tmp_path, monkeypatch):
    cfg = parse_config_text(HE_PAIR_SWEEP.format(out=tmp_path / "m.csv"))
    paillier._r_to_the_n.cache_clear()
    run_sweep(cfg, tmp_path / "memo.csv")
    assert paillier._r_to_the_n.cache_info().hits > 0
    monkeypatch.setattr(paillier, "_r_to_the_n", paillier._r_to_the_n.__wrapped__)
    run_sweep(cfg, tmp_path / "bypass.csv")
    memo = _rows_without_wall_clock(tmp_path / "memo.csv")
    assert len(memo) == 1 + 4
    assert memo == _rows_without_wall_clock(tmp_path / "bypass.csv")


def _sweep_recording_crypto(cfg, path, monkeypatch):
    """Run the sweep with cold keygen and r^n memos; return its keypairs and
    the ciphertexts of every upload."""
    keygen, encrypt_params = paillier.keygen, paillier.encrypt_params
    keygen.cache_clear()
    paillier._r_to_the_n.cache_clear()
    keys, uploads = [], []

    def recorded_keygen(*args, **kwargs):
        keys.append(keygen(*args, **kwargs))
        return keys[-1]

    def recorded_encrypt_params(*args, **kwargs):
        cv = encrypt_params(*args, **kwargs)
        uploads.append(list(cv.elements))
        return cv

    with monkeypatch.context() as patch:
        patch.setattr(paillier, "keygen", recorded_keygen)
        patch.setattr(paillier, "encrypt_params", recorded_encrypt_params)
        run_sweep(cfg, path)
    return keys, uploads


def test_sweep_same_keys_ciphertexts_and_csv_with_builtin_pow(tmp_path, monkeypatch):
    cfg = parse_config_text(HE_PAIR_SWEEP.format(out=tmp_path / "m.csv"))
    keys, uploads = _sweep_recording_crypto(cfg, tmp_path / "backend.csv", monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(paillier, "_LIBCRYPTO_SONAMES", ())
        _, powmod, crt_halves = paillier._libcrypto_powmod()
    assert powmod is pow
    monkeypatch.setattr(paillier, "_powmod", powmod)
    monkeypatch.setattr(paillier, "_crt_halves", crt_halves)
    pow_keys, pow_uploads = _sweep_recording_crypto(cfg, tmp_path / "pow.csv", monkeypatch)
    assert len(keys) == 4 and len(uploads) == 4 * 3 * 3  # cells x rounds x nodes
    assert keys == pow_keys
    assert uploads == pow_uploads
    rows = _rows_without_wall_clock(tmp_path / "backend.csv")
    assert len(rows) == 1 + 4
    assert rows == _rows_without_wall_clock(tmp_path / "pow.csv")


@pytest.mark.skipif(paillier.MODEXP_BACKEND == "builtin pow", reason="no libcrypto loaded")
def test_libcrypto_failure_ends_in_the_cell_status(tmp_path, monkeypatch):
    text = HE_PAIR.format(out=tmp_path / "m.csv").replace("he-fl, ours", "he-fl, fedavg")
    cfg = parse_config_text(text)
    row, _ = run_cell(cfg, "he-fl", None, 1)  # memoises the key, so keygen will not run again
    assert row.status == "ok"
    loaded = ctypes.CDLL

    def failing(soname, *args, **kwargs):
        lib = loaded(soname, *args, **kwargs)
        lib.BN_mod_exp_mont = mock.Mock(return_value=0)  # reports failure
        return lib

    with monkeypatch.context() as patch:
        patch.setattr(ctypes, "CDLL", failing)
        _, powmod, _ = paillier._libcrypto_powmod()
    monkeypatch.setattr(paillier, "_powmod", powmod)
    rows = run_sweep(cfg)
    assert [r.strategy for r in rows] == ["he-fl", "fedavg"]
    assert rows[0].status == "error: round 0: libcrypto BN_mod_exp failed, 512-bit modulus"
    assert rows[1].status == "ok"
    assert [r[-1] for r in _read_rows(tmp_path / "m.csv")[1:]] == [r.status for r in rows]


# --- cli ---------------------------------------------------------------------


def test_cli_sweep_and_exit_code(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    out = tmp_path / "m.csv"
    conf.write_text(SMALL.format(out=out))
    assert main(["sweep", "-c", str(conf)]) == 0
    assert out.exists()
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_sweep_reports_progress_on_stderr(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    conf.write_text(HE_PAIR_SWEEP.format(out=tmp_path / "cli.csv"))
    paillier._r_to_the_n.cache_clear()
    assert main(["sweep", "-c", str(conf)]) == 0
    out, err = capsys.readouterr()
    assert out == f"wrote 4 rows to {tmp_path / 'cli.csv'}\n"
    lines = err.splitlines()
    assert len(lines) == 4 + 2
    cells = [("he-fl", 0.01), ("he-fl", 0.05), ("ours", 0.01), ("ours", 0.05)]
    for i, (line, (strategy, value)) in enumerate(zip(lines, cells), start=1):
        assert line.startswith(f"cell {i}/4 {strategy} value={value} seed=1 ok elapsed=")
        assert " eta=" in line
    # r depends on (seed, node, round) only: 3 nodes x 3 rounds x 9 distinct
    # r's, of which the first he-fl cell draws 5 and the first ours cell 9
    assert lines[-2] == "r^n memo: 171 hits, 81 misses"
    assert lines[-1] == f"modexp: {paillier.MODEXP_BACKEND}"
    # the CSV is the one run_sweep writes without the callback
    run_sweep(parse_config_text(conf.read_text()), tmp_path / "lib.csv")
    assert _rows_without_wall_clock(tmp_path / "cli.csv") == _rows_without_wall_clock(
        tmp_path / "lib.csv"
    )


def test_cli_sweep_names_the_modexp_backend_last_on_stderr(tmp_path):
    conf = tmp_path / "exp.ini"
    conf.write_text(HE_PAIR_SWEEP.format(out=tmp_path / "cli.csv"))
    src = Path(paillier.__file__).resolve().parent.parent
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-m", "crossfed.cli", "sweep", "-c", str(conf)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote 4 rows to {tmp_path / 'cli.csv'}\n"
    lines = done.stderr.splitlines()
    assert len(lines) == 4 + 2
    assert lines[-2].startswith("r^n memo: ")
    assert lines[-1] == f"modexp: {paillier.MODEXP_BACKEND}"
    # the CSV is the one run_sweep writes in this process
    run_sweep(parse_config_text(conf.read_text()), tmp_path / "lib.csv")
    assert _rows_without_wall_clock(tmp_path / "cli.csv") == _rows_without_wall_clock(
        tmp_path / "lib.csv"
    )


def test_import_crossfed_loads_numpy_random():
    # numpy loads numpy.random lazily; crossfed imports it up front, so the
    # first cell of a sweep does not pay for the import
    src = Path(paillier.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import crossfed; "
            "print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-E", "-s", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


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


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize("command", ["sweep", "run"])
def test_cli_unwritable_output_fails_before_any_cell(
    tmp_path, monkeypatch, capsys, command, where
):
    conf = tmp_path / "exp.ini"
    conf.write_text(SMALL.format(out=tmp_path / "m.csv"))
    target = tmp_path / "missing" / "out.csv"
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    cells = []

    def spy(*args, **kwargs):
        cells.append(args)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(harness, "run_cell", spy)
    monkeypatch.setattr(cli, "run_cell", spy)
    flag = "-o" if command == "sweep" else "--round-log"
    assert main([command, "-c", str(conf), flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert cells == []
    left = ["exp.ini", "taken"] if where == "directory" else ["exp.ini"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == left


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_keygen_reports_an_unwritable_output(tmp_path, capsys, where):
    target = tmp_path / "missing" / "keys.json"
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    assert main(["keygen", "--bits", "256", "--seed", "7", "-o", str(target)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    left = ["taken"] if where == "directory" else []
    assert [p.name for p in tmp_path.rglob("*")] == left


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "m.csv"
    out.write_text("old\n")

    def write(fh):
        fh.write("partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(CrossFedError, match=f"cannot write {out}: No space left on device"):
        harness.write_atomic(out, write)
    # and a rename over a directory fails after the whole write
    (tmp_path / "taken").mkdir()
    with pytest.raises(CrossFedError, match="cannot write .*taken: Is a directory"):
        harness.write_atomic(tmp_path / "taken", lambda fh: fh.write("new\n"))
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["m.csv", "taken"]


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
