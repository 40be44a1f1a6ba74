"""Span tracer that wraps crossfed's public functions from outside.

Each traced function object is replaced at every module that binds it,
not only where it is defined: ``federation`` and ``harness`` import
several functions by name, and a call through such a name would
otherwise go unrecorded. A span is ``[name, attr, start_ns, end_ns,
parent]``, where ``parent`` is the index of the enclosing span or -1.
Spans stay in memory and are written once, after the sweep.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "crossfed"


def _strategy(bound):
    return bound.arguments["cfg"].strategy


def _sample_params(bound):
    # SGD work: epochs x shard samples x parameter count
    a = bound.arguments
    return a["cfg"].local_epochs * a["data"].count * a["params"].arch.param_count


def _share_elements(bound):
    # field elements emitted: one per coordinate per recipient
    a = bound.arguments
    return len(a["update"]) * a["num_parties"]


# "module.function" -> span attribute taken from the call's arguments
TRACED = {
    "paillier.keygen": None,
    "paillier.encrypt": None,
    "paillier.decrypt": None,
    "paillier.encrypt_params": None,
    "paillier.aggregate_encrypted": None,
    "paillier.decrypt_params": None,
    "privacy.share": _share_elements,
    "privacy.reconstruct_sum": None,
    "privacy.dp_privatize": None,
    "privacy.membership_advantage": None,
    "models.local_train": _sample_params,
    "models.accuracy": None,
    "features.augment_dataset": None,
    "datasets.generate": None,
    "datasets.partition": None,
    "federation.init_federation": None,
    "federation.run_training": None,
    "federation.run_round": _strategy,
    "federation.fedavg_aggregate": None,
    "harness.run_sweep": None,
    "harness.run_cell": None,
    "harness.write_metrics_csv": None,
    "config.parse_config": None,
}


# functions whose arguments and results the crypto self-check reads
KEPT = ("paillier.keygen", "paillier.encrypt_params")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        # the unwrapped functions, for checks made after the sweep
        self.original: dict[str, object] = {}
        # (arguments, result) of every call to a function in KEPT
        self.kept: dict[str, list[tuple]] = {name: [] for name in KEPT}

    def _wrap(self, name: str, fn, attr):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns
        signature = inspect.signature(fn)
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if attr or kept is not None else None
            record = [name, attr(bound) if attr else None, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if kept is not None:
                kept.append((bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function at each crossfed module that holds it."""
        prefix = PACKAGE + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]
        for name, attr in TRACED.items():
            module_name, func_name = name.split(".")
            fn = getattr(sys.modules.get(prefix + module_name), func_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            self.original[name] = fn
            wrapper = self._wrap(name, fn, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
