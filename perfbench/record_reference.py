"""Record the expected outputs that run.py checks every sweep against.

    python3 perfbench/record_reference.py

For every workload and workload seed 0-31, runs one untraced and one
traced sweep and writes to perfbench/reference.json the digest of every
cell's deterministic CSV columns (all but wall_millis_total), the digest
of the Paillier keys the sweep generated, and a digest of the generated
config. Only a change that alters results on purpose (or changes a
workload) re-records, as a benchmark change of its own.
"""
from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        recorded = digests[name] = {}
        for seed in SEEDS:
            work_dir = run.OUT / f"record-{name}"
            plain, traced = (run.run_sweep(workload, seed, work_dir, trace,
                                           time.monotonic() + run.DEADLINE_S)
                             for trace in (False, True))
            problems = [s for s in plain["statuses"] if s != "ok"] + traced["problems"]
            if traced["digests"] != plain["digests"]:
                problems.append("traced outputs differ from untraced")
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            recorded[str(seed)] = {"config": run.config_digest(workload, seed),
                                   "cells": plain["digests"], "keys": traced["keys"]}
            print(f"{name} seed {seed}: {len(plain['digests'])} cells")
    run.REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
