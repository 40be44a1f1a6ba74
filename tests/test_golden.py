"""Golden digests of the shipped sweeps and of two round logs.

A reduced grid of each ``configs/*.ini`` (every strategy, seed 1, the sweep
values in ``GRIDS``) runs through ``harness.run_sweep``, and ``crossfed run
--round-log`` writes the round log of one ``ours`` and one ``smc-fl`` run of
``privacy_sweep.ini``. Each CSV cell is digested as ``column=value``, the
form perfbench's ``cell_digests`` hashes, leaving out the measured
wall-clock column, and compared with ``golden_digests.json``. A mismatch
names the first row and column that differ.

After a deliberate change of results, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest

from crossfed.cli import main
from crossfed.config import parse_config
from crossfed.harness import run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
# both ends of each sweep range, except hidden_sweep, which stops at 16 of
# 64 units: its 32- and 64-unit cells take ~2.5 s each
GRIDS = {
    "privacy_sweep": [0.5, 8.0],
    "lr_sweep": [0.001, 0.1],
    "hidden_sweep": [4.0, 16.0],
}
CASES = list(GRIDS) + ["round_log_ours", "round_log_smc-fl"]


def _write_case(case: str, directory: Path) -> tuple[Path, str, int]:
    """Writes one case's CSV; returns its path, the measured column and the
    number of leading columns that name a row."""
    out = directory / f"{case}.csv"
    if case in GRIDS:
        cfg = parse_config(CONFIGS / f"{case}.ini")
        cfg.seeds, cfg.sweep_values = [1], GRIDS[case]
        run_sweep(cfg, out)
        return out, "wall_millis_total", 4
    strategy = case.removeprefix("round_log_")
    text = (CONFIGS / "privacy_sweep.ini").read_text()
    conf = directory / f"{case}.ini"
    conf.write_text(re.sub(r"^strategies = .*$", f"strategies = {strategy}", text, flags=re.M))
    assert main(["run", "-c", str(conf), "--round-log", str(out)]) == 0
    return out, "wall_millis", 1


def _digests(path: Path, measured: str) -> tuple[list[str], list[dict], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in rows[0] if c != measured]
    digests = [
        [hashlib.sha256(f"{c}={row[c]}".encode()).hexdigest()[:8] for c in columns]
        for row in rows
    ]
    return columns, rows, digests


@pytest.mark.parametrize("case", CASES)
def test_golden_digests(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    path, measured, key_width = _write_case(case, tmp_path)
    columns, rows, digests = _digests(path, measured)
    assert columns == expected["columns"]
    for number, (row, want, got) in enumerate(zip(rows, expected["rows"], digests), start=1):
        for column, w, g in zip(columns, want.split(), got):
            if w != g:
                name = " ".join(f"{c}={row[c]}" for c in columns[:key_width])
                pytest.fail(f"{case}: row {number} ({name}) first differs in column "
                            f"{column}, now {row[column]!r}")
    assert len(digests) == len(expected["rows"]), f"{case}: row count changed"


if __name__ == "__main__":
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            path, measured, _ = _write_case(case, Path(tmp))
            columns, _, digests = _digests(path, measured)
            record[case] = {"columns": columns, "rows": [" ".join(d) for d in digests]}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
