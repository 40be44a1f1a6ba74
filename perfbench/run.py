"""crossfed sweep benchmark.

    python3 perfbench/run.py --workload he-1024 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file's location). Each timed sweep runs in a fresh interpreter
(``worker.py``), one after the other, until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sweeps and reports the per-layer metrics. Every
sweep's metrics CSV is checked against ``reference.json``. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. A fuller record, with machine provenance and every sample, goes
to ``perfbench/out/``. See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

import layers  # noqa: E402  (sibling modules resolve through this file's directory)
from workloads import WORKLOADS  # noqa: E402

# Single-threaded BLAS: the models are small, the machine may be shared,
# and float results must not depend on a thread count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The whole invocation must end within 180 s; stop starting sweeps well before.
DEADLINE_S = 165.0
END_TO_END = {"sweep_s": "s", "round_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
MEASURED_COLUMN = "wall_millis_total"


class BenchError(Exception):
    pass


def cell_digests(rows: list[dict]) -> list[str]:
    """One digest per cell over every CSV column except the measured one."""
    out = []
    for row in rows:
        kept = "\x1f".join(f"{k}={v}" for k, v in row.items() if k != MEASURED_COLUMN)
        out.append(hashlib.sha256(kept.encode()).hexdigest()[:16])
    return out


def run_sweep(workload, seed: int, work_dir: Path, traced: bool, deadline: float) -> dict:
    """One sweep in a fresh interpreter; returns its samples and outputs."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (work_dir / "sweep.ini").write_text(workload.config_text(seed, "metrics.csv"))
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), str(SRC), "sweep.ini", "result.json"]
    if traced:
        cmd.append("spans.jsonl")
    # a private HOME and TMPDIR keep any on-disk cache from outliving the sweep
    env = dict(os.environ, HOME=str(work_dir), TMPDIR=str(work_dir),
               XDG_CACHE_HOME=str(work_dir), **BLAS_ENV)
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=work_dir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} sweep did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload.name} sweep exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads((work_dir / "result.json").read_text())
    with open(work_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ok = [r for r in rows if r["status"] == "ok"]
    rounds = sum(int(r["rounds_to_target"]) if int(r["rounds_to_target"]) > 0
                 else workload.max_rounds for r in ok)
    sweep = {
        "traced": traced,
        "setup_s": (result["setup_end_ns"] - start) / 1e9,
        "sweep_s": (result["sweep_end_ns"] - result["setup_end_ns"]) / 1e9,
        # 0 only when every cell failed, which already makes the run incorrect
        "round_ms": sum(float(r[MEASURED_COLUMN]) for r in ok) / rounds if rounds else 0.0,
        "peak_rss_mb": (result["maxrss_kib_self"] + result["maxrss_kib_children"]) / 1024,
        "statuses": [r["status"] for r in rows],
        "digests": cell_digests(rows),
    }
    if traced:
        with open(work_dir / "spans.jsonl", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        sweep["layers"] = layers.sweep_layers(spans, result, rows)
        sweep["problems"] = layers.self_check(sweep["layers"], result, workload)
        sweep["keys"] = result["keys"]
    shutil.rmtree(work_dir)
    return sweep


def config_digest(workload, seed: int) -> str:
    return hashlib.sha256(workload.config_text(seed, "metrics.csv").encode()).hexdigest()[:16]


def reference_entry(workload, seed: int) -> tuple[dict | None, list[str]]:
    """Recorded cell digests and key digest for this seed (None if not
    recorded) and problems."""
    if not REFERENCE.exists():
        return None, []
    entry = json.loads(REFERENCE.read_text())["digests"].get(workload.name, {}).get(str(seed))
    if entry is None:
        return None, []
    if entry["config"] != config_digest(workload, seed):
        return None, ["reference.json was recorded for another config; re-record it"]
    return entry, []


def check_outputs(workload, seed: int, sweeps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every cell of every sweep.

    A cell fails when its status is not ok or its digest differs from the
    recorded reference; for a seed with no reference, from the first sweep.
    A traced sweep whose Paillier keys differ is a problem.
    """
    entry, problems = reference_entry(workload, seed)
    if entry is None:
        first_traced = next((s for s in sweeps if s["traced"]), {})
        entry = {"cells": sweeps[0]["digests"], "keys": first_traced.get("keys")}
        source = "the run's first sweep"
    else:
        source = "reference.json"
    expected = entry["cells"]
    attempted = failed = 0
    for i, sweep in enumerate(sweeps):
        cells = max(workload.cells, len(sweep["digests"]))
        attempted += cells
        if len(sweep["digests"]) != len(expected):
            failed += cells
            problems.append(f"sweep {i}: {len(sweep['digests'])} rows, expected {len(expected)}")
            continue
        for j, (digest, status) in enumerate(zip(sweep["digests"], sweep["statuses"])):
            if status != "ok":
                failed += 1
                problems.append(f"sweep {i} cell {j}: {status}")
            elif digest != expected[j]:
                failed += 1
                problems.append(f"sweep {i} cell {j}: output differs from {source}")
        problems.extend(f"sweep {i}: {p}" for p in sweep.get("problems", []))
        if sweep["traced"] and sweep["keys"] != entry["keys"]:
            problems.append(f"sweep {i}: Paillier keys differ from {source}")
    return attempted, failed, problems


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    return {
        name: {"median": statistics.median(v), "tail": tail_percentile(v), "n": len(v),
               "unit": units[name], "samples": v}
        for name, v in samples.items()
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "crossfed").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_env": BLAS_ENV,
        "git_sha": _git_sha(),
        # identifies the sources where there is no git checkout
        "src_sha256": src_digest(),
    }


def run_workload(workload, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Sweeps back to back for `seconds`; traced runs alternate untraced/traced."""
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance()}
    stop = time.monotonic() + seconds
    sweeps: list[dict] = []
    took: list[float] = []
    while True:
        began = time.monotonic()
        traced = trace and len(sweeps) % 2 == 1
        sweeps.append(run_sweep(workload, seed, OUT / f"work-{workload.name}", traced, deadline))
        took.append(time.monotonic() - began)
        if trace and len(sweeps) % 2 == 1:
            continue  # traced runs measure untraced/traced pairs
        # start no sweep (or pair) that would end after the measuring window
        step = statistics.median(took) * (2 if trace else 1)
        if time.monotonic() + step > min(stop, deadline):
            break
    attempted, failed, problems = check_outputs(workload, seed, sweeps)
    untraced = [s for s in sweeps if not s["traced"]]
    if trace:
        traced_sweeps = [s for s in sweeps if s["traced"]]
        units = {**layers.metric_units(), **dict(layers.CALIBRATION)}
        samples = {name: [s["layers"][name] for s in traced_sweeps]
                   for name in units if name != "trace.overhead_s"}
        medians = {name: statistics.median(v) for name, v in samples.items()}
        medians["trace.overhead_s"] = (statistics.median(s["sweep_s"] for s in traced_sweeps)
                                       - statistics.median(s["sweep_s"] for s in untraced))
        metrics = {name: {"value": medians[name], "unit": units[name]}
                   for name in layers.metric_units()}
        record["calibration"] = {name: medians[name] for name, _ in layers.CALIBRATION}
    else:
        units = END_TO_END
        samples = {name: [s[name] for s in untraced] for name in END_TO_END}
        metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
                   for name, v in samples.items()}
    record.update(
        summary=summarize(samples, units),
        sweeps=len(sweeps),
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        problems=problems,
        correct=failed == 0 and not problems,
        metrics=metrics,
    )
    return record


def print_summary(record: dict) -> None:
    name = record["workload"]
    print(f"# {name} seed={record['seed']} trace={int(record['trace'])} "
          f"sweeps={record['sweeps']} cells={record['attempted']}")
    for metric, stats in record["summary"].items():
        tail = stats["tail"]
        tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "tail=n/a"
        note = "  (calibration, not a gain)" if metric in record.get("calibration", ()) else ""
        print(f"{name:12s} {metric:48s} median={stats['median']:<12.6g} {tail_text:14s} "
              f"n={stats['n']:<3d} {stats['unit']}{note}")
    if record["trace"]:
        m = record["metrics"]
        print(f"{name:12s} {'trace.overhead_s':48s} {m['trace.overhead_s']['value']:.6g} s")
    print(f"{name:12s} {'fail_ratio':48s} {record['fail_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']} cells)")
    for problem in record["problems"]:
        print(f"{name:12s} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossfed" / "__init__.py").is_file():
        print(f"crossfed sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  deadline)
            tag = f"{name}-seed{args.seed}-trace{args.trace}"
            (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
            print_summary(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
