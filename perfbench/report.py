"""Print every end-to-end metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this makes one end-to-end run (as ``run.py --trace 0``) and
one traced run (as ``run.py --trace 1``). The traced run's untraced
``--threads 1`` baseline over the end-to-end median wall gives
``sweep.thread_speedup``, printed beside ``wall_s``. Also printed:
``error_rate`` (failed / attempted invocations) and ``tableio.csv_identical``.
Exits 1 if any output or trace check failed.
"""
from __future__ import annotations

import argparse
import sys

import run

COLUMNS = ("wall_s", "thread_speedup", "setup_s", "points_per_s", "cpu_s",
           "peak_rss_mb", "error_rate", "csv_identical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.SHIPPED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=55.0)
    args = parser.parse_args(argv)
    units = dict(run.END_TO_END_UNITS, thread_speedup="ratio", error_rate="fraction",
                 csv_identical="fraction")
    rows, problems, env = [], [], None
    for name in run.WORKLOADS:
        try:
            e2e = run.run(name, args.seed, args.seconds, trace=False)
            traced = run.run(name, args.seed, args.seconds, trace=True)
        except run.BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        for record in (e2e, traced):
            run.save(record)
            problems += [f"{name} trace={record['trace']}: {p}" for p in record["problems"]]
        env = e2e["env"]
        values = {k: m["value"] for k, m in e2e["result"]["metrics"].items()}
        wall_n = len(e2e["samples"]["wall_s"])
        threads1 = traced["samples"]["threads1_wall_s"][0]
        records = (e2e, traced)
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        identical = sum(r["identical"] for r in records)
        values.update(
            thread_speedup=threads1 / values["wall_s"],
            error_rate=failed / attempted,
            csv_identical=identical / attempted,
        )
        rows.append((name, wall_n, values))

    print("env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    print(f"seed={args.seed}; wall_s is the median of n --threads 2 runs; "
          "thread_speedup = --threads 1 wall / that median")
    header = ["workload"] + [f"{c} [{units[c]}]" for c in COLUMNS]
    print(" | ".join(header))
    for name, wall_n, values in rows:
        cells = [name] + [f"{values[c]:.4g}" for c in COLUMNS]
        cells[1] += f" (n={wall_n})"
        print(" | ".join(cells))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
