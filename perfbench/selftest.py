"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

- the output check rejects corrupted CSVs, and a run counts them as failed;
- span self-times are computed correctly on a hand-made trace;
- for each workload, two traced runs of one seed give the same exact counts
  (and the stored ones, for a shipped seed), computed values match their
  shape formulas, and span self-times are non-negative and sum to the traced
  wall within layers.SELF_SUM_BOUND.

Prints PASS/FAIL per test and exits 1 if any failed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import layers
import run


def corrupted_csvs_fail() -> list[str]:
    workload = run.WORKLOADS["rff_pcr"]
    good = run.reference_csv(workload, run.SHIPPED_SEEDS[0])
    if good is None:
        return ["no shipped reference to corrupt"]
    rows = [line.split(",") for line in good.decode().splitlines()]

    def edited(row: int, col: int, value: str | None) -> bytes:
        table = [list(r) for r in rows]
        if value is None:
            del table[row][col]
        else:
            table[row][col] = value
        return "".join(",".join(r) + "\n" for r in table).encode()

    test_mse = float(rows[3][7])
    corrupt = {
        "perturbed cell": edited(3, 7, repr(test_mse * (1 + 1e-4))),
        "non-finite cell": edited(3, 8, "nan"),
        "short row": edited(2, -1, None),
        "missing row": "".join(",".join(r) + "\n" for r in rows[:-1]).encode(),
    }
    problems = []
    if run.check_csv(good, good, workload.rows) is not None:
        problems.append("the reference fails its own check")
    runner = run.Runner(workload, run.SHIPPED_SEEDS[0], time.perf_counter() + 60)
    try:
        ok_proc = run.Proc(code=0, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, log="")
        for name, text in corrupt.items():
            if runner.judge(ok_proc, text).error is None:
                problems.append(f"{name} passed the check")
        crashed = run.Proc(code=2, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, log="boom")
        if runner.judge(crashed, good).error is None:
            problems.append("a nonzero exit passed the check")
        if runner.judge(ok_proc, None).error is None:
            problems.append("a missing CSV passed the check")
        # a seed without a reference: later runs must match the first byte for byte
        runner.reference = None
        runner.judge(ok_proc, good)
        if runner.judge(ok_proc, corrupt["perturbed cell"]).error is None:
            problems.append("a CSV differing from the seed's first run passed")
    finally:
        runner.close()
    return problems


def self_times_on_hand_made_trace() -> list[str]:
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps a
        {"id": 3, "name": "c", "start": 1.5, "end": 2.0, "parent": 1},
    ]
    got = layers.self_times(spans)
    want = {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}
    return [] if got == want else [f"self times {got}, expected {want}"]


def traced_runs_repeat(workload_name: str, seed: int) -> list[str]:
    workload = run.WORKLOADS[workload_name]
    runner = run.Runner(workload, seed, time.perf_counter() + 600)
    problems, counts = [], []
    try:
        for i in range(2):
            spans = runner.dir / f"spans{i}.json"
            inv = runner.invoke(1, traced_spans=spans)
            if inv.error:
                return [f"traced run {i}: {inv.error}"]
            trace = json.loads(spans.read_text())
            metrics = layers.per_layer(trace)
            problems += layers.check_trace(
                trace, metrics, inv.proc.wall_s, inv.csv,
                workload.family, workload.n_train, workload.n_test,
            )
            counts.append(layers.exact_counts(metrics))
    finally:
        runner.close()
    problems += layers.compare_counts(counts[1], counts[0])
    expected = run.reference_counts(workload, seed)
    if expected is not None:
        problems += layers.compare_counts(counts[0], expected)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=run.SHIPPED_SEEDS[0])
    args = parser.parse_args(argv)
    tests = {
        "corrupted CSVs are counted as failed": corrupted_csvs_fail,
        "span self-times on a hand-made trace": self_times_on_hand_made_trace,
    }
    for name in args.workload or run.WORKLOADS:
        tests[f"{name}: two traced runs agree, shapes and self-times check"] = (
            lambda name=name: traced_runs_repeat(name, args.seed)
        )
    failed = 0
    for title, test in tests.items():
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {title}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
