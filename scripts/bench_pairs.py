"""Paired end-to-end benchmark of the working tree against a base commit.

    python3 scripts/bench_pairs.py --base HEAD~1 --name pcr_memory --what "..."
    python3 scripts/bench_pairs.py --base HEAD~1 --name x --workloads boost_fold,forest_deep

Extracts the committed files of ``--base`` (``git archive``) into
``parent/`` and copies this working tree's tracked and untracked,
non-ignored files into ``change/``, two sibling directories of one
temporary directory, so both sides run from paths of the same length (the
peak RSS of a run can move with the length of the paths it is given). It
runs ``perfbench/run.py --trace 0`` in each, in ``PAIRS`` alternating
pairs per workload: the base ("parent") runs first on even pair indices
and the working tree ("change") on odd ones, and pair i uses seed i. The
workloads are BENCHMARK.json's, or those named by ``--workloads``: any
that perfbench/run.py runs, such as ``forest_deep``. Run length and the
direction in which each metric is better come from BENCHMARK.json. Each
side runs its own perfbench. The record, written again after every pair,
is BENCH_<name>.json at the repository root: per workload and metric the
parent's and change's median and quartiles, the pairs the change wins,
the change of the median as a fraction of the parent's, and the median
and quartiles of the per-pair change/parent ratio, over all pairs and
separately over the pairs each side ran first. Both sides of a pair run
the same seed back to back, so the ratio cancels that seed's cost and
most of the host's drift over the record, which widen each side's own
quartiles; a ratio that moves with the side that ran first is an order
effect of the host, not of the change.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: ten alternating pairs per workload, the fewest a gain claim rests on
PAIRS = 10


def checkout(rev: str, dest: Path) -> str:
    """The committed files of `rev` under `dest`; returns the full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    archive.unlink()
    return sha


def copy_working_tree(dest: Path, root: Path = ROOT) -> None:
    """The tracked and untracked, non-ignored files of the working tree at
    `root`, as they are on disk, under `dest`; a deleted tracked file is
    left out."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result line: correct, attempted, failed, metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        stats = {side: spread(values[side]) for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        by_first = {side: [r for r, pair in zip(ratios, pairs) if pair["first"] == side]
                    for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_frac": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "change_ratio": spread(ratios),
            # keyed by the side that ran first; a side that has not yet run
            # first in any pair is left out
            "change_ratio_by_first": {side: spread(r) for side, r in by_first.items() if r},
        }
    return out


def record(args, sha: str, bench: dict, runs: dict) -> dict:
    seconds = bench["run_seconds"]
    workloads = {}
    for name, pairs in runs.items():
        workloads[name] = {
            "summary": summarize(pairs, bench["end_to_end"]),
            "invocations_failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "invocations_attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "pairs": pairs,
        }
    return {
        "what": args.what,
        "base": sha,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "host": f"{os.cpu_count()}-vCPU {platform.system()}, Python "
                f"{platform.python_version()}, numpy {version('numpy')}",
        "method": "alternating pairs: parent first on even pair index, change first on "
                  "odd; seed = pair index; medians and quartiles (statistics.quantiles, "
                  "n=4) over the pairs and over the per-pair change/parent ratios, the "
                  "ratios also split by the side that ran first; a win is a pair "
                  "where the change reads better",
        "workloads": workloads,
    }


def workload_names(spec: str | None, bench: dict) -> list[str]:
    """The workloads to pair: BENCHMARK.json's without ``spec``, else the
    comma-separated names in ``spec``, in its order."""
    if spec is None:
        return [w["name"] for w in bench["workloads"]]
    names = spec.split(",")
    if "" in names or len(set(names)) < len(names):
        raise ValueError(f"--workloads must be distinct names separated by commas, got {spec!r}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit to compare against")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--what", default="", help="what the change does, for the record")
    parser.add_argument("--workloads", metavar="NAME[,NAME]",
                        help="perfbench workloads to pair (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        names = workload_names(args.workloads, bench)
    except ValueError as exc:
        parser.error(str(exc))
    out = ROOT / f"BENCH_{args.name}.json"
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        sha = checkout(args.base, roots["parent"])
        copy_working_tree(roots["change"])
        runs: dict = {name: [] for name in names}
        for seed in range(PAIRS):
            for workload, pairs in runs.items():
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, seed, bench["run_seconds"])
                pairs.append(pair)
                rss = {s: pair[s]["metrics"]["peak_rss_mb"]["value"] for s in SIDES}
                print(f"{workload} seed {seed}: peak_rss_mb parent {rss['parent']:.1f} "
                      f"change {rss['change']:.1f}", file=sys.stderr, flush=True)
            out.write_text(json.dumps(record(args, sha, bench, runs), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
