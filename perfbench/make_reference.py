"""Write the reference CSVs and exact counts for the shipped seeds.

    python3 perfbench/make_reference.py [--workload NAME ...] [--seed N ...]

For each workload and seed, one untraced ``--threads 2`` run and one traced
``--threads 1`` run must write byte-identical CSVs. The CSV becomes
reference/<workload>/<seed>.csv and the traced run's exact counts
<seed>.counts.json. Regenerate only for a change that is meant to alter the
CSVs or the work done, and say so in that change.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import layers
import run


def make(workload: run.Workload, seed: int) -> str | None:
    runner = run.Runner(workload, seed, time.perf_counter() + 600)
    runner.reference = None  # compare the two runs with each other only
    try:
        untraced = runner.invoke(run.POOL_THREADS)
        spans = runner.dir / "spans.json"
        traced = runner.invoke(1, traced_spans=spans)
        error = untraced.error or traced.error
        if error:
            return error
        counts = layers.exact_counts(layers.per_layer(json.loads(spans.read_text())))
    finally:
        runner.close()
    target = run.REFERENCE_DIR / workload.name
    target.mkdir(parents=True, exist_ok=True)
    (target / f"{seed}.csv").write_bytes(traced.csv)
    (target / f"{seed}.counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args(argv)
    failed = 0
    for name in args.workload or run.WORKLOADS:
        for seed in args.seed or run.SHIPPED_SEEDS:
            error = make(run.WORKLOADS[name], seed)
            failed += error is not None
            print(f"{name} seed {seed}: {error or 'written'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
