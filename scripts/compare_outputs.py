"""Byte-identity check of the CLI's outputs: the working tree against a base commit.

    python3 scripts/compare_outputs.py --base HEAD~1
    python3 scripts/compare_outputs.py --base HEAD~1 --full

Extracts the committed files of ``--base`` into ``parent/`` and copies this
working tree into ``change/`` (``bench_pairs.checkout`` and
``copy_working_tree``), two sibling directories of one temporary directory.
Each side runs every command of ``runs()`` from its own root, with its own
``src`` on PYTHONPATH, ``OPENBLAS_NUM_THREADS=1`` and the same relative
``--out`` directory. The desk runs are ``sweep``, ``grid``, ``peaks`` and
``back-to-u`` for every family at ``--threads 1`` and ``2`` with ``--svg``,
``fit`` and ``effparams`` for every model kind of ``cli.MODEL_DEFAULTS``,
``bias-variance`` for every analytic model kind, and every other
subcommand at its defaults; ``--full`` adds full-scale
``sweep`` and ``back-to-u`` for every family. Every file a run writes, its
exit code and its stdout are compared byte for byte; for a CSV that
differs, the columns that differ are named, each with its worst relative
difference over cells larger than 1e-9. Prints each difference and one
summary line; exits 1 if anything differs or a run exits non-zero on
either side.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, checkout, copy_working_tree

sys.path.insert(0, str(ROOT / "src"))
from smootherlab.cli import MODEL_DEFAULTS  # noqa: E402

FAMILIES = ("rff_linear", "tree", "boosting")
SWEEPS = ("sweep", "grid", "peaks", "back-to-u")
OTHERS = ("ingest", "cond-study", "fixed-design", "select")
# the model kinds of experiments.studies.AnalyticModelConfig
ANALYTIC_KINDS = ("ols", "knn", "minnorm", "mean")


def runs(full: bool = False) -> dict[str, list[str]]:
    """CLI arguments by run name, without ``--out``."""
    out = {
        f"{command}-{family}-t{threads}":
            [command, "--set", f"family={family}", "--threads", str(threads), "--svg"]
        for family in FAMILIES for command in SWEEPS for threads in (1, 2)
    }
    out.update({command: [command] for command in OTHERS})
    kinds = {"fit": MODEL_DEFAULTS, "effparams": MODEL_DEFAULTS, "bias-variance": ANALYTIC_KINDS}
    out.update({f"{command}-{kind}": [command, "--set", f"model.kind={kind}"]
                for command, kinds_of in kinds.items() for kind in kinds_of})
    if full:
        out.update({
            f"full-{command}-{family}":
                [command, "--set", f"family={family}", "--threads", "2", "--full-scale"]
            for family in FAMILIES for command in ("sweep", "back-to-u")
        })
    return out


def run_side(root: Path, runs: dict[str, list[str]]) -> dict[str, tuple[int, str]]:
    """(exit code, stdout) of each run, from `root`; run `name` writes to
    ``out/<name>`` under it."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    results = {}
    for name, args in runs.items():
        argv = [sys.executable, "-m", "smootherlab.cli", *args, "--out", f"out/{name}"]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        results[name] = proc.returncode, proc.stdout
    return results


def csv_columns(parent: bytes, change: bytes) -> str:
    """The columns in which two CSVs differ, each with its worst relative
    difference over the differing cells larger than 1e-9 (inf where a cell
    is not a number)."""
    tables = [list(csv.reader(io.StringIO(data.decode()))) for data in (parent, change)]
    if len(tables[0]) != len(tables[1]) or tables[0][:1] != tables[1][:1]:
        return "header or row count differs"
    worst: dict = {}
    for row_a, row_b in zip(tables[0][1:], tables[1][1:]):
        if len(row_a) != len(row_b):
            return "row lengths differ"
        for name, a, b in zip(tables[0][0], row_a, row_b):
            if a != b:
                try:
                    x, y = float(a), float(b)
                    size = max(abs(x), abs(y))
                    rel = abs(x - y) / size if size > 1e-9 else 0.0
                except ValueError:
                    rel = math.inf
                worst[name] = max(worst.get(name, 0.0), rel)
    return ", ".join(f"column {name} worst relative difference {rel:.3g}"
                     for name, rel in worst.items())


def differences(roots: dict[str, Path], results: dict[str, dict]) -> tuple[list[str], int]:
    """The runs and output files that differ between the sides, and the
    number of files compared."""
    found = [f"{name}: exit code or stdout" for name in results["parent"]
             if results["parent"][name] != results["change"][name]]
    found += [f"{name}: exit code {code[0]} on the {side} side"
              for side in SIDES for name, code in results[side].items() if code[0] != 0]
    files = {side: {p.relative_to(root / "out")
                    for p in (root / "out").rglob("*") if p.is_file()}
             for side, root in roots.items()}
    for path in sorted(files["parent"] ^ files["change"]):
        found.append(f"{path}: written on one side only")
    common = sorted(files["parent"] & files["change"])
    for path in common:
        data = [(roots[side] / "out" / path).read_bytes() for side in SIDES]
        if data[0] != data[1]:
            found.append(f"{path}: {csv_columns(*data)}" if path.suffix == ".csv" else str(path))
    return found, len(common)


def compare(base: str, runs: dict[str, list[str]], root: Path = ROOT) -> tuple[list[str], int]:
    """``differences`` of the runs, `base` against the working tree at `root`."""
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        checkout(base, roots["parent"], root)
        copy_working_tree(roots["change"], root)
        results = {side: run_side(roots[side], runs) for side in SIDES}
        return differences(roots, results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit to compare against")
    parser.add_argument("--full", action="store_true",
                        help="also run full-scale sweep and back-to-u of every family")
    args = parser.parse_args(argv)
    selected = runs(args.full)
    found, n_files = compare(args.base, selected)
    for line in found:
        print(f"differs: {line}")
    print(f"compare_outputs --base {args.base}{' --full' if args.full else ''}: "
          f"{len(selected)} runs, {n_files} files; "
          + (f"{len(found)} differences" if found else
             "every file, exit code and stdout identical"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
