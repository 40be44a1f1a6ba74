"""Command-line entry point.

Subcommands:
  run           one training run (first strategy, no sweep), summary to stdout
  sweep         full experiment grid, metrics CSV to the configured path,
                progress per cell, r^n memo reuse and the modexp backend
                to stderr
  keygen        Paillier keypair to a JSON file
  print-config  canonical echo of a parsed config
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import paillier
from .config import parse_config, render_config
from .errors import ConfigError, CrossFedError
from .harness import run_cell, write_round_log
from .harness import run_sweep as _run_sweep


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    strategy = cfg.strategies[0]
    seed = cfg.seeds[0]
    row, result = run_cell(cfg, strategy, None, seed)
    if result is not None and args.round_log:
        write_round_log(result, args.round_log)
    print(f"strategy={row.strategy} seed={row.seed} rounds={len(result.records) if result else 0}")
    print(f"final_accuracy={row.final_accuracy:.4f} rounds_to_target={row.rounds_to_target}")
    print(f"privacy_score={row.privacy_score:.4f} comm_bytes={row.comm_bytes_total}")
    if row.status != "ok":
        print(row.status, file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    output = args.output or cfg.output
    start = time.perf_counter()
    memo_before = paillier._r_to_the_n.cache_info()

    def progress(done, total, row):
        elapsed = time.perf_counter() - start
        eta = elapsed / done * (total - done)
        print(
            f"cell {done}/{total} {row.strategy} value={row.sweep_param_value} "
            f"seed={row.seed} {row.status} elapsed={elapsed:.1f}s eta={eta:.1f}s",
            file=sys.stderr,
        )

    rows = _run_sweep(cfg, output, on_cell=progress)
    memo = paillier._r_to_the_n.cache_info()
    print(
        f"r^n memo: {memo.hits - memo_before.hits} hits, "
        f"{memo.misses - memo_before.misses} misses",
        file=sys.stderr,
    )
    print(f"modexp: {paillier.MODEXP_BACKEND}", file=sys.stderr)
    failures = [r for r in rows if r.status != "ok"]
    print(f"wrote {len(rows)} rows to {output}")
    for row in failures:
        print(
            f"cell failed: strategy={row.strategy} value={row.sweep_param_value} "
            f"seed={row.seed}: {row.status}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_keygen(args) -> int:
    pk, sk = paillier.keygen(args.bits, args.seed)
    payload = {
        "bits": args.bits,
        "seed": args.seed,
        "public": {"n": hex(pk.n), "g": hex(pk.g)},
        "private": {"lambda": hex(sk.lam), "mu": hex(sk.mu)},
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.bits}-bit keypair to {args.output}")
    return 0


def _cmd_print_config(args) -> int:
    cfg = parse_config(args.config)
    sys.stdout.write(render_config(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfed",
        description="Privacy-preserving cross-cloud federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single training run")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("--round-log", help="write per-round records to this CSV")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="full experiment sweep")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("-o", "--output", help="override the configured CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_key = sub.add_parser("keygen", help="generate a Paillier keypair")
    p_key.add_argument("--bits", type=int, default=512, choices=paillier.KEY_BITS_CHOICES)
    p_key.add_argument("--seed", type=int, required=True)
    p_key.add_argument("-o", "--output", required=True)
    p_key.set_defaults(func=_cmd_keygen)

    p_print = sub.add_parser("print-config", help="echo the parsed config")
    p_print.add_argument("-c", "--config", required=True)
    p_print.set_defaults(func=_cmd_print_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
