"""Per-layer metrics from one traced sweep, and the tracer self-checks.

For every traced function ``X`` (named ``module.function``) the sweep
reports ``X.calls``, ``X.ms`` (total span time) and ``X.self_ms`` (span
time minus the time of its traced children), plus the derived metrics
listed in ``DERIVED``. The ``CALIBRATION`` ratios are printed and
recorded but are not benchmark metrics: they report how far the cost
model is off and never count as a gain.
"""
from __future__ import annotations

from tracer import TRACED

STRATEGIES = ("fedavg", "dp-fl", "smc-fl", "he-fl", "ours")

DERIVED = (
    ("paillier.encrypt.ms_per_call", "ms"),
    ("paillier.decrypt.ms_per_call", "ms"),
    ("paillier.decrypt_per_encrypt", "ratio"),
    ("paillier.wire_bytes", "bytes"),
    ("privacy.share.elements", "count"),
    ("models.local_train.ns_per_sample_param", "ns"),
    *((f"federation.run_round.{s}.ms_per_call", "ms") for s in STRATEGIES),
    ("harness.run_cell.child_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

CALIBRATION = (
    ("paillier.cost_model_bytes_per_wire_byte", "ratio"),
    *((f"federation.sim_to_wall.{s}", "ratio") for s in STRATEGIES),
)

# the share of run_cell time that its traced children must account for
MIN_CHILD_SHARE = 0.9


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sweep_layers(spans: list[list], worker: dict, rows: list[dict]) -> dict[str, float]:
    """Per-layer and calibration metrics of one traced sweep (all but
    trace.overhead_s).

    spans: the tracer's records; worker: the worker's result JSON;
    rows: the sweep's metrics CSV as dicts.
    """
    calls = dict.fromkeys(TRACED, 0)
    total_ns = dict.fromkeys(TRACED, 0)
    child_ns = [0] * len(spans)
    attr_sum = dict.fromkeys(TRACED, 0)
    round_ns = dict.fromkeys(STRATEGIES, 0)
    round_calls = dict.fromkeys(STRATEGIES, 0)
    self_ns = dict.fromkeys(TRACED, 0)
    for name, attr, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        total_ns[name] += duration
        if parent >= 0:
            child_ns[parent] += duration
        if name == "federation.run_round":
            round_ns[attr] = round_ns.get(attr, 0) + duration
            round_calls[attr] = round_calls.get(attr, 0) + 1
        elif attr is not None:
            attr_sum[name] += attr
    for (name, _, start, end, _), children in zip(spans, child_ns):
        self_ns[name] += end - start - children
    run_cell_children = sum(
        c for span, c in zip(spans, child_ns) if span[0] == "harness.run_cell"
    )

    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = total_ns[name] / 1e6
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    out["paillier.encrypt.ms_per_call"] = _ratio(out["paillier.encrypt.ms"], calls["paillier.encrypt"])
    out["paillier.decrypt.ms_per_call"] = _ratio(out["paillier.decrypt.ms"], calls["paillier.decrypt"])
    out["paillier.decrypt_per_encrypt"] = _ratio(calls["paillier.decrypt"], calls["paillier.encrypt"])
    out["paillier.wire_bytes"] = worker["wire_bytes"]
    out["paillier.cost_model_bytes_per_wire_byte"] = _ratio(
        worker["cost_model_upload_bytes"], worker["wire_bytes"]
    )
    out["privacy.share.elements"] = attr_sum["privacy.share"]
    out["models.local_train.ns_per_sample_param"] = _ratio(
        total_ns["models.local_train"], attr_sum["models.local_train"]
    )
    for s in STRATEGIES:
        out[f"federation.run_round.{s}.ms_per_call"] = _ratio(round_ns[s] / 1e6, round_calls[s])
        mine = [r for r in rows if r["strategy"] == s]
        out[f"federation.sim_to_wall.{s}"] = _ratio(
            sum(float(r["simulated_millis_total"]) for r in mine),
            sum(float(r["wall_millis_total"]) for r in mine),
        )
    out["harness.run_cell.child_share"] = _ratio(run_cell_children, total_ns["harness.run_cell"])
    out["trace.spans"] = len(spans)
    return out


def self_check(layers: dict[str, float], worker: dict, workload) -> list[str]:
    """Problems with one traced sweep; empty when the trace is complete."""
    problems = [f"{name} not found in crossfed" for name in worker["missing"]]
    problems += worker["crypto_problems"]
    for bits in worker["key_bits"]:
        if bits != workload.he_bits:
            problems.append(f"keygen made a {bits}-bit modulus, expected {workload.he_bits}")
    for name in workload.active:
        if layers[f"{name}.calls"] == 0:
            problems.append(f"{name} recorded no calls on {workload.name}")
    for name in workload.inactive:
        if layers[f"{name}.calls"] != 0:
            problems.append(f"{name} recorded calls on {workload.name}, expected none")
    share = layers["harness.run_cell.child_share"]
    if share < MIN_CHILD_SHARE:
        problems.append(
            f"traced children cover {share:.1%} of run_cell time, below {MIN_CHILD_SHARE:.0%}"
        )
    return problems
