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
from dataclasses import dataclass, field, fields

import numpy as np

from ..blas import one_blas_thread
from ..dataset import Dataset
from ..errors import ScheduleError, WorkerDiedError
from ..tableio import write_csv
from .families import FAMILY_RUNNERS
from .schedule import AXES, SweepConfig, SweepSchedule, composite_schedule


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


#: the CSV columns: a record's fields but the in-memory ``wall_time``
SWEEP_HEADER = [f.name for f in fields(SweepRecord) if f.name != "wall_time"]


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

    Prefit runs one stage at a time: the tasks the family lists run in the
    pool and their results are stored, in task order, until the family
    lists no more tasks. A stage's workers fork after the stage before it
    is stored, so they inherit what it holds (the tree and boosting row
    blocks read the stored members' leaf ids). Every stage is stored
    before the evaluation pool forks, so the workers inherit it; points
    run largest first, so no big one is left to run alone at the end, and
    come back in input order.
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
    if not len(axis1_values) or not len(axis2_values):
        raise ScheduleError("grid axes must both be non-empty")
    schedule = composite_schedule(family, axis1_values, axis2_values, shared=shared)
    labeled = [("", (int(a1), int(a2))) for a1 in axis1_values for a2 in axis2_values]
    records = evaluate_states(family, labeled, train, test, schedule.shared, threads)
    return SweepResult(family, schedule, records)


# --------------------------------------------------------------------------- composite studies


def peak_move(
    family: str,
    switch_values,
    train: Dataset,
    test: Dataset,
    shared: SweepConfig | None = None,
    *,
    axis1_grid,
    axis2_values,
    threads: int | None = None,
) -> list[SweepResult]:
    """One composite sweep per switch point, all evaluated by one family.

    Each sweep walks axis 1 up to its switch value, then continues along
    axis 2 with axis 1 pinned, so the interpolation peak sits wherever the
    switch was placed.
    """
    shared = shared if shared is not None else SweepConfig()
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
    schedule = composite_schedule(family, axis1_values, axis2_values, shared=shared)
    walk = schedule.expand()
    leg1, leg2 = walk[:len(axis1_values)], walk[len(axis1_values):]
    labeled = [("axis1", state) for state in leg1] + [("axis2", state) for state in leg2]
    for _, a2 in leg2:
        labeled += [(f"contour_{AXES[family][1]}={a2}", (a1, a2)) for a1, _ in leg1]
    records = evaluate_states(family, labeled, train, test, schedule.shared, threads)
    return SweepResult(family, schedule, records, [branch for branch, _ in labeled])
