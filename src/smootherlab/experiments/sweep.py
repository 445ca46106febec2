"""Sweep execution: schedules in, per-point records and CSV tables out.

The engine guarantees that a configuration point (axis1, axis2) evaluated
under the same shared config yields the same record no matter which sweep it
appears in: composite schedules, plain grids and contour branches all route
through the same family adapters, whose caches are keyed by configuration
alone. That is what lets a composite curve be checked against the
concatenation of its single-axis grids bit for bit.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..blas import one_blas_thread
from ..dataset import Dataset
from ..errors import ScheduleError, WorkerDiedError
from ..tableio import write_csv
from .families import FAMILY_RUNNERS
from .schedule import AXES, AXIS2_INIT, SweepConfig, SweepSchedule, composite_schedule

SWEEP_HEADER = [
    "point_index",
    "axis1_name",
    "axis1_value",
    "axis2_name",
    "axis2_value",
    "raw_params",
    "train_mse",
    "test_mse",
    "test_zero_one",
    "p_train",
    "p_test",
    "seed",
]

def resolve_threads(threads: int | None = None) -> int:
    """Worker processes: the argument, else one per core."""
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise ScheduleError(f"threads must be >= 1, got {threads}")
    return threads


_WORK = None  # (fn, items), set in each forked pool worker


def _init_worker(fn, items):
    global _WORK
    _WORK = fn, items


def _run_item(i):
    fn, items = _WORK
    return fn(items[i])


def _pool_map(fn, items, threads, stage):
    """[fn(item) for item in items], in up to `threads` forked worker processes.

    The workers inherit fn and items through fork, closures and family
    caches included, so nothing is pickled on the way in; only results and
    raised exceptions travel back. Workers may also fill arrays that the
    family made in shared memory before the fork (the rff_linear feature
    caches); those writes reach the parent without being pickled. The pool
    forks every worker before it starts its own manager thread. Runs
    serially for one worker or where fork is unavailable. A worker that
    dies (a signal, the OOM killer, ``os._exit``) raises WorkerDiedError
    naming `stage`.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_init_worker, initargs=(fn, items)
    ) as pool:
        try:
            return list(pool.map(_run_item, range(len(items))))
        except BrokenProcessPool as exc:
            raise WorkerDiedError(
                f"a sweep worker process died during the {stage} stage"
            ) from exc


# --------------------------------------------------------------------------- records


@dataclass
class SweepRecord:
    point_index: int
    axis1_name: str
    axis1_value: int
    axis2_name: str
    axis2_value: int
    raw_params: int
    train_mse: float
    test_mse: float
    test_zero_one: float
    p_train: float
    p_test: float
    seed: int
    wall_time: float = 0.0  # in memory only; 0 on a repeated state's later records

    def row(self) -> list:
        return [getattr(self, name) for name in SWEEP_HEADER]


@dataclass
class SweepResult:
    """A runner's records in evaluation order, and optionally a branch label
    per record, written as a leading ``branch`` CSV column."""

    family: str
    schedule: SweepSchedule
    records: list[SweepRecord] = field(default_factory=list)
    branches: list[str] | None = None

    @property
    def test_mse(self) -> np.ndarray:
        return np.array([r.test_mse for r in self.records])

    @property
    def train_mse(self) -> np.ndarray:
        return np.array([r.train_mse for r in self.records])

    @property
    def p_test(self) -> np.ndarray:
        return np.array([r.p_test for r in self.records])

    @property
    def p_train(self) -> np.ndarray:
        return np.array([r.p_train for r in self.records])

    def branch(self, name: str) -> list[SweepRecord]:
        return [r for b, r in zip(self.branches, self.records) if b == name]

    def branch_names(self) -> list[str]:
        return list(dict.fromkeys(self.branches))

    def write_csv(self, path) -> None:
        header, rows = SWEEP_HEADER, [r.row() for r in self.records]
        if self.branches is not None:
            header = ["branch", *header]
            rows = [[b, *row] for b, row in zip(self.branches, rows)]
        write_csv(path, header, rows)


# --------------------------------------------------------------------------- running


def _run_states(family, states, threads):
    """Prefit, then evaluate each state; every family's points run in the pool.

    Prefit runs in rounds: each round's tasks run in the pool and their
    results are stored, until the family lists no more tasks. A round's
    workers fork after the previous round is stored, so they inherit its
    results (the tree and boosting row blocks read the stored members'
    leaf ids). The family's caches are filled before the evaluation pool
    forks, so the workers inherit them; points run largest first, so no big
    one is left to run alone at the end, and come back in input order.
    """
    while tasks := family.prefit_tasks():
        family.store(_pool_map(lambda task: task(), tasks, threads, "prefit"))

    def one(state):
        start = time.perf_counter()
        ev = family.evaluate(*state)
        return ev, time.perf_counter() - start

    schedule = sorted(range(len(states)), key=lambda i: -sum(states[i]))
    done = _pool_map(one, [states[i] for i in schedule], threads, "evaluate")
    out = [None] * len(states)
    for i, result in zip(schedule, done):
        out[i] = result
    return out


def evaluate_states(
    family: str,
    labeled_states,
    train: Dataset,
    test: Dataset,
    shared: SweepConfig,
    threads: int | None,
) -> list[SweepRecord]:
    """The evaluation core behind every sweep runner.

    Takes (label, (axis1, axis2)) pairs, builds one family runner over all
    the states (told the pool size, so it can split its prefit work into
    enough tasks), evaluates each distinct state once (evaluation is a pure
    function of the state), and returns one record per pair in input order.
    Records, and the point index of a ScheduleError raised while the runner
    is built, are numbered within their label. BLAS runs on one thread
    throughout, in the workers too, so the bits do not depend on
    OPENBLAS_NUM_THREADS or on `threads`.
    """
    threads = resolve_threads(threads)
    labels = [label for label, _ in labeled_states]
    states = [state for _, state in labeled_states]
    index = [labels[:i].count(label) for i, label in enumerate(labels)]
    with one_blas_thread():
        try:
            runner = FAMILY_RUNNERS[family](train, test, shared, states, threads)
        except ScheduleError as exc:
            if exc.point_index is None:
                raise
            raise ScheduleError(exc.detail, index[exc.point_index]) from exc
        distinct = list(dict.fromkeys(states))
        evs, walls = zip(*_run_states(runner, distinct, threads))
    evs, walls = dict(zip(distinct, evs)), dict(zip(distinct, walls))
    names = AXES[family]
    # a state's first record carries its evaluation time, its repeats 0
    return [
        SweepRecord(i, names[0], a1, names[1], a2, **vars(evs[a1, a2]),
                    seed=shared.base_seed, wall_time=walls.pop((a1, a2), 0.0))
        for i, (a1, a2) in zip(index, states)
    ]


def run_sweep(
    schedule: SweepSchedule,
    train: Dataset,
    test: Dataset,
    threads: int | None = None,
) -> SweepResult:
    """Evaluate a composite schedule point by point, in schedule order."""
    schedule.validate()
    labeled = [("", state) for state in schedule.expand()]
    records = evaluate_states(
        schedule.family, labeled, train, test, schedule.shared, threads
    )
    return SweepResult(schedule.family, schedule, records)


def run_grid(
    family: str,
    axis1_values,
    axis2_values,
    train: Dataset,
    test: Dataset,
    shared: SweepConfig | None = None,
    threads: int | None = None,
) -> SweepResult:
    """Full cross product of the two axes, axis1-major point order; the
    composite schedule over the same values validates them."""
    shared = shared if shared is not None else SweepConfig()
    if not len(axis1_values) or not len(axis2_values):
        raise ScheduleError("grid axes must both be non-empty")
    schedule = composite_schedule(family, axis1_values, axis2_values, shared=shared)
    labeled = [("", (int(a1), int(a2))) for a1 in axis1_values for a2 in axis2_values]
    records = evaluate_states(family, labeled, train, test, shared, threads)
    return SweepResult(family, schedule, records)


# --------------------------------------------------------------------------- composite studies


def peak_move(
    family: str,
    switch_values,
    train: Dataset,
    test: Dataset,
    shared: SweepConfig | None = None,
    axis1_grid=None,
    axis2_values=None,
    threads: int | None = None,
) -> list[SweepResult]:
    """One composite sweep per switch point, all evaluated by one family.

    Each sweep walks axis 1 up to its switch value, then continues along
    axis 2 with axis 1 pinned, so the interpolation peak sits wherever the
    switch was placed.
    """
    shared = shared if shared is not None else SweepConfig()
    if axis1_grid is None or axis2_values is None:
        raise ScheduleError("peak_move needs explicit axis1_grid and axis2_values")
    schedules = [
        composite_schedule(
            family, [v for v in axis1_grid if v < switch] + [int(switch)],
            list(axis2_values), shared=shared,
        )
        for switch in switch_values
    ]
    labeled = [(k, state) for k, s in enumerate(schedules) for state in s.expand()]
    records = evaluate_states(family, labeled, train, test, shared, threads)
    return [
        SweepResult(family, s, [r for (i, _), r in zip(labeled, records) if i == k])
        for k, s in enumerate(schedules)
    ]


def multiple_descent(
    schedule: SweepSchedule,
    train: Dataset,
    test: Dataset,
    threads: int | None = None,
) -> SweepResult:
    """Run a schedule that alternates axes more than once.

    Requires at least two switch points; each return to the first axis sets
    up another ascent toward interpolation, hence another peak.
    """
    if len(schedule.switch_indices()) < 2:
        raise ScheduleError(
            "multiple descent needs a schedule with at least two axis switches"
        )
    return run_sweep(schedule, train, test, threads=threads)


def back_to_u(
    family: str,
    train: Dataset,
    test: Dataset,
    axis1_values,
    axis2_values,
    shared: SweepConfig | None = None,
    threads: int | None = None,
) -> SweepResult:
    """Composite sweep plus constant-axis-2 contours, as labeled branches.

    Branch "axis1" is the first leg of the composite walk, branch "axis2" the
    second. For every axis-2 value visited, a contour branch re-walks the
    axis-1 grid with axis 2 held fixed; overlaying the contours recovers a
    family of classical U-shaped curves through the composite picture.
    """
    shared = shared if shared is not None else SweepConfig()
    schedule = composite_schedule(family, axis1_values, axis2_values, shared=shared)
    axis1_values = [int(v) for v in axis1_values]
    axis2_values = [int(v) for v in axis2_values]
    names = AXES[family]
    labeled = [("axis1", (a1, AXIS2_INIT[family])) for a1 in axis1_values]
    labeled += [("axis2", (axis1_values[-1], a2)) for a2 in axis2_values]
    for a2 in axis2_values:
        labeled += [(f"contour_{names[1]}={a2}", (a1, a2)) for a1 in axis1_values]
    records = evaluate_states(family, labeled, train, test, shared, threads)
    return SweepResult(family, schedule, records, [branch for branch, _ in labeled])


# --------------------------------------------------------------------------- noise band


def median_curve(curves) -> np.ndarray:
    """Pointwise median across per-seed sweep curves (rows = seeds)."""
    stacked = np.asarray(curves, dtype=float)
    if stacked.ndim != 2:
        raise ScheduleError(f"expected a 2-d stack of curves, got {stacked.shape}")
    return np.median(stacked, axis=0)


def seed_standard_error(curves) -> np.ndarray:
    stacked = np.asarray(curves, dtype=float)
    k = stacked.shape[0]
    if k < 2:
        return np.zeros(stacked.shape[1])
    return np.std(stacked, axis=0, ddof=1) / np.sqrt(k)


def increase_violations(
    values, standard_errors=None, rel_tol: float = 0.02
) -> list[int]:
    """Indices i where values[i] rises above values[i-1] beyond the noise band.

    A step counts as a violation only when the increase exceeds rel_tol of the
    previous value *and* (when per-point standard errors are supplied) one
    standard error of the larger point. Small wobbles within either band are
    treated as seed noise.
    """
    values = np.asarray(values, dtype=float)
    out = []
    for i in range(1, values.size):
        step = values[i] - values[i - 1]
        if step <= 0:
            continue
        beyond_rel = step > rel_tol * abs(values[i - 1])
        beyond_se = True
        if standard_errors is not None:
            beyond_se = step > float(np.asarray(standard_errors)[i])
        if beyond_rel and beyond_se:
            out.append(i)
    return out


def replicated_sweep(
    schedule: SweepSchedule,
    train: Dataset,
    test: Dataset,
    seeds,
    threads: int | None = None,
) -> list[SweepResult]:
    """The same schedule under several base seeds (for noise-band medians)."""
    return [
        run_sweep(schedule.with_seed(int(s)), train, test, threads=threads)
        for s in seeds
    ]
