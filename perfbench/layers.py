"""Per-layer metrics from a trace written by trace_cli.py, and their checks.

Self time is a span's duration minus the part of it its child spans cover.
Counts marked exact must repeat bit for bit between traced runs of the same
workload and seed; computed values come from array shapes.
"""
from __future__ import annotations

import math
from collections import defaultdict

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "dataset.load_s": "s",
    "rff.sample_frequencies_s": "s",
    "rff.features_s": "s",
    "rff.cache_mb": "MB",
    "linear.pcr_smoother.calls": "count",
    "linear.pcr_smoother.self_s": "s",
    "linear.weights_s": "s",
    "linear.svd_gflop": "GFLOP",
    "trees.fit_tree.calls": "count",
    "trees.nodes": "count",
    "trees.node_rows": "count",
    "trees.fit_tree.self_s": "s",
    "trees.leaf_ids.rows": "count",
    "trees.leaf_ids.self_s": "s",
    "trees.leaf_weight_rows.self_s": "s",
    "boosting.rounds": "count",
    "boosting.fit_boost.self_s": "s",
    "boosting.replay.calls": "count",
    "boosting.replay.rounds": "count",
    "boosting.replay_ratio": "ratio",
    "boosting.replay.self_s": "s",
    "boosting.state_gb": "GB",
    "families.init_s": "s",
    "families.evaluate.calls": "count",
    "families.evaluate.self_s": "s",
    "sweep.points": "count",
    "sweep.prefit_tasks": "count",
    "sweep.prefit_s": "s",
    "sweep.evaluate_s": "s",
    "sweep.pool_busy_frac": "fraction",
    "sweep.thread_speedup": "ratio",
    "tableio.write_csv_s": "s",
    "tableio.csv_bytes": "bytes",
    "tableio.csv_identical": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_frac": "fraction",
}

EXACT = (
    "linear.pcr_smoother.calls",
    "trees.fit_tree.calls",
    "trees.nodes",
    "trees.node_rows",
    "trees.leaf_ids.rows",
    "boosting.rounds",
    "boosting.replay.calls",
    "boosting.replay.rounds",
    "families.evaluate.calls",
    "sweep.points",
    "sweep.prefit_tasks",
    "tableio.csv_bytes",
    "rff.cache_mb",
    "linear.svd_gflop",
    "boosting.state_gb",
)

FLOAT64_BYTES = 8
# |traced wall - sum of span self-times| / traced wall may not exceed this
SELF_SUM_BOUND = 0.1


def svd_flops(a: int, b: int) -> float:
    """Operation count of a thin SVD of an a x b matrix forming U1, S and V.

    Golub and Van Loan's R-SVD count, 6 m n^2 + 20 n^3 with m >= n. It is an
    estimate of the work, not a measured rate.
    """
    m, n = max(a, b), min(a, b)
    return 6.0 * m * n * n + 20.0 * n ** 3


def pcr_flops(n: int, p: int, p_pc: int) -> float:
    """The two SVDs of pcr_smoother: the standardized n x p design, then the
    n x (k + 1) projected design with intercept, k = min(p_pc, n, p)."""
    return svd_flops(n, p) + svd_flops(n, min(p_pc, n, p) + 1)


def self_times(spans: list[dict]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


class _Layer:
    def __init__(self):
        self.calls = 0
        self.dur = 0.0
        self.self_s = 0.0
        self.attrs: dict[str, float] = defaultdict(float)


def _aggregate(spans: list[dict], own: dict[int, float]) -> dict[str, _Layer]:
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for s in spans:
        layer = layers[s["name"]]
        layer.calls += 1
        layer.dur += s["end"] - s["start"]
        layer.self_s += own[s["id"]]
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)):
                layer.attrs[key] += value
    return layers


def per_layer(trace: dict) -> dict[str, float]:
    """Every per-layer metric readable from the trace itself."""
    spans = trace["spans"]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    L = _aggregate(spans, own)

    rff_features = cache_bytes = 0.0
    for s in spans:
        if s["name"] == "families.init" and s["attrs"]["family"] == "rff_linear":
            rff_features += own[s["id"]]
        if s["name"] == "rff.sample_frequencies":
            init = by_id[s["parent"]]["attrs"]
            rows = init["n_train"] + init["n_test"]
            cache_bytes += rows * s["attrs"]["p_max"] * FLOAT64_BYTES
    svd = sum(
        pcr_flops(s["attrs"]["n"], s["attrs"]["p"], s["attrs"]["p_pc"])
        for s in spans if s["name"] == "linear.pcr_smoother"
    )
    state_bytes = sum(
        (2 * a["n"] * a["leaves"] + a["n"] * a["n"]) * FLOAT64_BYTES
        for a in (s["attrs"] for s in spans if s["name"] == "boosting.fit_boost")
    )
    parallel = any(
        s["name"] == "families.init" and s["attrs"]["parallel_points"] for s in spans
    )
    pooled = L["sweep.prefit_task"].dur + (L["families.evaluate"].dur if parallel else 0.0)
    rounds = L["boosting.fit_boost"].attrs["rounds"]
    return {
        "cli.import_s": L["cli.import"].dur,
        "dataset.load_s": L["dataset.load"].dur,
        "rff.sample_frequencies_s": L["rff.sample_frequencies"].dur,
        "rff.features_s": rff_features,
        "rff.cache_mb": cache_bytes / 1e6,
        "linear.pcr_smoother.calls": L["linear.pcr_smoother"].calls,
        "linear.pcr_smoother.self_s": L["linear.pcr_smoother"].self_s,
        "linear.weights_s": L["linear.weights"].dur,
        "linear.svd_gflop": svd / 1e9,
        "trees.fit_tree.calls": L["trees.fit_tree"].calls,
        "trees.nodes": int(L["trees.fit_tree"].attrs["nodes"]),
        "trees.node_rows": int(L["trees.fit_tree"].attrs["node_rows"]),
        "trees.fit_tree.self_s": L["trees.fit_tree"].self_s,
        "trees.leaf_ids.rows": int(L["trees.leaf_ids"].attrs["rows"]),
        "trees.leaf_ids.self_s": L["trees.leaf_ids"].self_s,
        "trees.leaf_weight_rows.self_s": L["trees.leaf_weight_rows"].self_s,
        "boosting.rounds": int(rounds),
        "boosting.fit_boost.self_s": L["boosting.fit_boost"].self_s,
        "boosting.replay.calls": L["boosting.replay"].calls,
        "boosting.replay.rounds": int(L["boosting.replay"].attrs["rounds"]),
        "boosting.replay_ratio": L["boosting.replay"].attrs["rounds"] / rounds if rounds else 0.0,
        "boosting.replay.self_s": L["boosting.replay"].self_s,
        "boosting.state_gb": state_bytes / 1e9,
        "families.init_s": L["families.init"].dur,
        "families.evaluate.calls": L["families.evaluate"].calls,
        "families.evaluate.self_s": L["families.evaluate"].self_s,
        "sweep.points": int(L["tableio.write_csv"].attrs["rows"]),
        "sweep.prefit_tasks": trace["counts"].get("sweep.prefit_tasks", 0),
        "sweep.prefit_s": L["sweep.prefit_task"].dur,
        "sweep.evaluate_s": L["families.evaluate"].dur,
        "sweep.pool_busy_frac": pooled / L["sweep.run"].dur if L["sweep.run"].dur else 0.0,
        "tableio.write_csv_s": L["tableio.write_csv"].dur,
        "tableio.csv_bytes": int(L["tableio.write_csv"].attrs["bytes"]),
    }


def unaccounted_frac(trace: dict, wall_s: float) -> float:
    """Share of the traced process's wall time that no span's self time covers."""
    return abs(wall_s - sum(self_times(trace["spans"]).values())) / wall_s


def check_trace(trace, metrics, wall_s, csv, family, n_train, n_test) -> list[str]:
    """Self-times non-negative and summing to the wall; computed values
    matching their shape formulas. Returns the problems found."""
    problems = []
    negative = [v for v in self_times(trace["spans"]).values() if v < -1e-9]
    if negative:
        problems.append(f"{len(negative)} spans with negative self time")
    unaccounted = unaccounted_frac(trace, wall_s)
    if unaccounted > SELF_SUM_BOUND:
        problems.append(f"span self-times miss {unaccounted:.1%} of the traced wall")
    for s in trace["spans"]:
        a = s["attrs"]
        if s["name"] == "boosting.fit_boost":
            formula = (2 * a["n"] * a["leaves"] + a["n"] * a["n"]) * FLOAT64_BYTES
            if a["state_bytes"] != formula:
                problems.append(f"boosting state {a['state_bytes']} B, formula {formula} B")
    table = [line.split(",") for line in csv.decode().splitlines()]
    col = {name: i for i, name in enumerate(table[0])}
    rows = [(int(r[col["raw_params"]]), int(r[col["axis1_value"]])) for r in table[1:]]
    expect = {"linear.svd_gflop": 0.0, "rff.cache_mb": 0.0}
    if family == "rff_linear":
        expect["linear.svd_gflop"] = sum(pcr_flops(n_train, p, k) for p, k in rows) / 1e9
        p_max = max(
            s["attrs"]["p_max"] for s in trace["spans"] if s["name"] == "rff.sample_frequencies"
        )
        if p_max < max(p for p, _ in rows):
            problems.append(f"RFF cache of {p_max} columns is narrower than the sweep")
        expect["rff.cache_mb"] = (n_train + n_test) * p_max * FLOAT64_BYTES / 1e6
    if family != "boosting":
        expect["boosting.state_gb"] = 0.0
    for name, want in expect.items():
        if not math.isclose(metrics[name], want, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"{name} = {metrics[name]!r}, shape formula gives {want!r}")
    return problems


def exact_counts(metrics: dict) -> dict:
    return {name: metrics[name] for name in EXACT}


def compare_counts(actual: dict, expected: dict) -> list[str]:
    return [
        f"{name} = {actual.get(name)!r}, expected exactly {want!r}"
        for name, want in expected.items()
        if actual.get(name) != want
    ]
