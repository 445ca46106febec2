"""End-to-end benchmark of the smootherlab CLI.

Runs one workload the way users run the CLI: one fresh interpreter per
invocation, one invocation at a time (a closed loop with one client), with
``--threads 2``. Every invocation's CSV is checked against a stored reference
(or, for a seed without one, against the run's other invocations).

    python3 perfbench/run.py --workload rff_pcr --seed 0 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one traced
``--threads 1`` run plus untraced ``--threads 1`` and ``--threads 2`` runs
and reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench_out"

POOL_THREADS = 2
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_INVOCATIONS = 2
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
# CSV cells that parse as floats must agree with the reference to this
# tolerance; every other cell must be equal as text
REL_TOL = 1e-6
ABS_TOL = 1e-9
# shipped references: reference/<workload>/<seed>.csv and <seed>.counts.json
SHIPPED_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    family: str
    full_scale: bool
    csv: str
    rows: int  # sweep points the CSV must hold
    n_train: int
    n_test: int

    def sets(self, seed: int) -> list[str]:
        return [f"family={self.family}", f"dataset.seed={seed}"]

    def cli_args(self, seed: int, threads: int, out: Path) -> list[str]:
        args = [self.command]
        if self.full_scale:
            args.append("--full-scale")
        for expr in self.sets(seed):
            args += ["--set", expr]
        return args + ["--seed", str(seed), "--threads", str(threads), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # 11 axis-1 values (2..999) plus the two nonzero axis-2 values
        Workload("rff_pcr", "sweep", "rff_linear", True, "sweep.csv", 13, 1000, 2000),
        # 8 leaf budgets + 4 ensemble sizes + 4 contours of 8 points
        Workload("forest_deep", "back-to-u", "tree", True, "back_to_u.csv", 44, 1000, 2000),
        # 8 round counts + 4 ensemble sizes + 4 contours of 8 points
        Workload("boost_fold", "back-to-u", "boosting", False, "back_to_u.csv", 44, 300, 600),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

ENV_CODE = """\
import json, platform, numpy, scipy
import smootherlab.cli
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": blas["name"] + " " + str(blas["version"]),
}))
"""

SETUP_CODE = """\
import json, sys
import smootherlab.cli as cli
command, sets, full_scale = json.loads(sys.argv[1])
cli.load_datasets(cli.build_config(command, {}, sets, full_scale=full_scale)["dataset"])
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, broken probe)."""


# --------------------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    env.pop("SMOOTHERLAB_THREADS", None)
    env["TMPDIR"] = str(OUT_DIR)
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: str


def spawn(argv: list[str], log_path: Path, timeout: float) -> Proc:
    """Run argv to completion; wall time from spawn to exit, usage from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log=log_path.read_text(errors="replace"),
    )


# --------------------------------------------------------------------------- output check


def _cells(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()]


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_csv(data: bytes | None, reference: bytes | None, rows: int) -> str | None:
    """None if the CSV passes, else why it fails.

    Always: the header plus ``rows`` rows of equal width, every numeric cell
    finite. With a reference: the same header and, cell by cell, floats within
    REL_TOL/ABS_TOL and any other cell equal as text.
    """
    if data is None:
        return "no CSV written"
    table = _cells(data)
    if len(table) != rows + 1:
        return f"{len(table) - 1} rows, expected {rows}"
    width = len(table[0])
    for i, row in enumerate(table[1:], 1):
        if len(row) != width:
            return f"row {i} has {len(row)} cells, header has {width}"
        for cell in row:
            value = _as_float(cell)
            if value is not None and not math.isfinite(value):
                return f"row {i} holds non-finite {cell!r}"
    if reference is None:
        return None
    expected = _cells(reference)
    if table[0] != expected[0] or len(table) != len(expected):
        return "header or row count differs from the reference"
    for i, (row, ref) in enumerate(zip(table[1:], expected[1:]), 1):
        for col, (cell, want) in enumerate(zip(row, ref)):
            a, b = _as_float(cell), _as_float(want)
            if a is None or b is None:
                ok = cell == want
            else:
                ok = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            if not ok:
                return f"row {i} {table[0][col]}={cell}, reference {want}"
    return None


def reference_csv(workload: Workload, seed: int) -> bytes | None:
    path = REFERENCE_DIR / workload.name / f"{seed}.csv"
    return path.read_bytes() if path.exists() else None


def reference_counts(workload: Workload, seed: int) -> dict | None:
    path = REFERENCE_DIR / workload.name / f"{seed}.counts.json"
    return json.loads(path.read_text()) if path.exists() else None


# --------------------------------------------------------------------------- invocations


@dataclass
class Invocation:
    proc: Proc
    csv: bytes | None
    error: str | None = None
    identical: bool = False


class Runner:
    """Spawns the CLI for one workload and seed and checks every output."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.reference = reference_csv(workload, seed)
        self.first_csv: bytes | None = None
        self.dir = OUT_DIR / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def _workdir(self) -> Path:
        self.count += 1
        work = self.dir / str(self.count)
        work.mkdir()
        return work

    def probe(self, code: str, *args: str) -> Proc:
        work = self._workdir()
        proc = spawn([sys.executable, "-c", code, *args], work / "log.txt", self.time_left())
        if proc.code != 0:
            raise BenchError(f"probe exited with {proc.code}:\n{proc.log}")
        return proc

    def environment(self) -> dict:
        env = json.loads(self.probe(ENV_CODE).log.strip().splitlines()[-1])
        env.update(
            nproc=os.cpu_count(), pool_threads=POOL_THREADS, blas_threads=BLAS_THREADS
        )
        return env

    def setup(self) -> float:
        w = self.workload
        payload = json.dumps([w.command, w.sets(self.seed), w.full_scale])
        return self.probe(SETUP_CODE, payload).wall_s

    def invoke(self, threads: int, traced_spans: Path | None = None) -> Invocation:
        work = self._workdir()
        cli = self.workload.cli_args(self.seed, threads, work / "out")
        if traced_spans is None:
            argv = [sys.executable, "-m", "smootherlab.cli", *cli]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(traced_spans), *cli]
        proc = spawn(argv, work / "log.txt", self.time_left())
        csv_path = work / "out" / self.workload.csv
        csv = csv_path.read_bytes() if csv_path.exists() else None
        shutil.rmtree(work, ignore_errors=True)
        return self.judge(proc, csv)

    def judge(self, proc: Proc, csv: bytes | None) -> Invocation:
        """An invocation fails on a nonzero exit, a missing CSV or a failed check."""
        inv = Invocation(proc=proc, csv=csv)
        if proc.code != 0:
            inv.error = f"exit code {proc.code}: {proc.log.strip()[-300:]}"
            return inv
        inv.error = check_csv(csv, self.reference, self.workload.rows)
        if inv.error is None:
            baseline = self.reference if self.reference is not None else self.first_csv
            if baseline is None:
                self.first_csv = baseline = csv
            inv.identical = csv == baseline
            if self.reference is None and not inv.identical:
                inv.error = "CSV differs from this seed's first run"
        return inv


# --------------------------------------------------------------------------- runs


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(runner: Runner, seconds: float):
    """End-to-end metrics from `seconds` of (setup probe, --threads 2 run) rounds.

    The host's speed drifts by tens of percent over a few seconds, so setup
    probes are spread over the whole window rather than bunched at its start.
    A round starts if one as long as the last would end nearer to `seconds`
    than stopping now does, so a run measures as near `seconds` as whole
    rounds allow.
    """
    setups: list[float] = []
    invs: list[Invocation] = []
    start = time.perf_counter()
    while len(invs) < MIN_INVOCATIONS or (
        time.perf_counter() - start + (setups[-1] + invs[-1].proc.wall_s) / 2 <= seconds
    ):
        if invs and runner.time_left() < 1.5 * (setups[-1] + invs[-1].proc.wall_s):
            break
        setups.append(runner.setup())
        invs.append(runner.invoke(POOL_THREADS))
    setup_s = _median(setups)
    good = [inv for inv in invs if inv.error is None] or invs
    walls = [inv.proc.wall_s for inv in good]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": setup_s,
        "points_per_s": _median(
            runner.workload.rows / (wall - setup_s) for wall in walls
        ),
        "cpu_s": _median(inv.proc.cpu_s for inv in good),
        "peak_rss_mb": _median(inv.proc.rss_mb for inv in good),
    }
    samples = {"setup_s": setups, "wall_s": [inv.proc.wall_s for inv in invs]}
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, invs, samples, []


def run_traced(runner: Runner):
    """Per-layer metrics from one traced --threads 1 run, plus two baselines."""
    spans_path = runner.dir / "spans.json"
    t2 = runner.invoke(POOL_THREADS)
    t1 = runner.invoke(1)
    traced = runner.invoke(1, traced_spans=spans_path)
    invs = [t2, t1, traced]
    samples = {
        "threads2_wall_s": [t2.proc.wall_s],
        "threads1_wall_s": [t1.proc.wall_s],
        "traced_wall_s": [traced.proc.wall_s],
    }
    if any(inv.error for inv in invs):
        return {}, invs, samples, []
    trace = json.loads(spans_path.read_text())
    metrics = layers.per_layer(trace)
    metrics["sweep.thread_speedup"] = t1.proc.wall_s / t2.proc.wall_s
    metrics["trace.overhead_frac"] = traced.proc.wall_s / t1.proc.wall_s - 1.0
    metrics["trace.unaccounted_frac"] = layers.unaccounted_frac(trace, traced.proc.wall_s)
    metrics["tableio.csv_identical"] = sum(inv.identical for inv in invs) / len(invs)
    w = runner.workload
    problems = layers.check_trace(
        trace, metrics, traced.proc.wall_s, traced.csv, w.family, w.n_train, w.n_test
    )
    expected = reference_counts(runner.workload, runner.seed)
    if expected is not None:
        problems += layers.compare_counts(layers.exact_counts(metrics), expected)
    units = layers.PER_LAYER_UNITS
    return {k: _metric(metrics[k], units[k]) for k in units}, invs, samples, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result record."""
    if not (SRC / "smootherlab" / "cli.py").is_file():
        raise BenchError(f"no smootherlab sources under {SRC}")
    workload = WORKLOADS[workload_name]
    deadline = time.perf_counter() + RUN_BUDGET_S
    runner = Runner(workload, seed, deadline)
    try:
        env = runner.environment()  # also warms the bytecode and page caches
        if trace:
            metrics, invs, samples, problems = run_traced(runner)
        else:
            metrics, invs, samples, problems = run_end_to_end(runner, seconds)
    finally:
        runner.close()
    failed = sum(inv.error is not None for inv in invs)
    problems += [f"invocation {i}: {inv.error}" for i, inv in enumerate(invs) if inv.error]
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "reference": runner.reference is not None,
        "samples": samples,
        "identical": sum(inv.identical for inv in invs),
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(invs),
            "failed": failed,
            "metrics": metrics,
        },
    }


def describe(record: dict) -> list[str]:
    env, result = record["env"], record["result"]
    lines = [
        "env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)),
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"reference={'yes' if record['reference'] else 'no'} "
        f"error_rate={result['failed'] / result['attempted']:.3g} "
        f"csv_identical={record['identical'] / result['attempted']:.3g}",
    ]
    for key, sample in record["samples"].items():
        lines.append(f"  {key} samples: " + " ".join(f"{v:.3f}" for v in sample))
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines += [f"  FAIL {p}" for p in record["problems"]]
    return lines


def save(record: dict) -> None:
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    save(record)
    print("\n".join(describe(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
