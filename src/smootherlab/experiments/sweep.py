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
from ..errors import ScheduleError
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


def _pool_map(fn, items, threads):
    """[fn(item) for item in items], in up to `threads` forked worker processes.

    The workers inherit fn and items through fork, closures and family
    caches included, so nothing is pickled on the way in; only results and
    raised exceptions travel back. Workers may also fill arrays that the
    family made in shared memory before the fork (the rff_linear feature
    caches); those writes reach the parent without being pickled. The pool
    forks every worker before it starts its own manager thread. Runs
    serially for one worker or where fork is unavailable.
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

    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_init_worker, initargs=(fn, items)
    ) as pool:
        return list(pool.map(_run_item, range(len(items))))


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
    wall_time: float = 0.0  # kept in memory only, not serialized

    def row(self) -> list:
        return [getattr(self, name) for name in SWEEP_HEADER]


@dataclass
class SweepResult:
    family: str
    schedule: SweepSchedule
    records: list[SweepRecord] = field(default_factory=list)

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

    def write_csv(self, path) -> None:
        write_csv(path, SWEEP_HEADER, [r.row() for r in self.records])


# --------------------------------------------------------------------------- running


def _run_states(family, states, threads):
    """Prefit, then evaluate each state; every family's points run in the pool.

    The family's caches are filled before the evaluation pool forks, so the
    workers inherit them; points run largest first, so no big one is left
    to run alone at the end, and come back in input order.
    """
    family.store(_pool_map(lambda task: task(), family.prefit_tasks(), threads))

    def one(state):
        start = time.perf_counter()
        ev = family.evaluate(*state)
        return ev, time.perf_counter() - start

    schedule = sorted(range(len(states)), key=lambda i: -sum(states[i]))
    done = _pool_map(one, [states[i] for i in schedule], threads)
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
) -> list[tuple[str, SweepRecord]]:
    """The evaluation core behind every sweep runner.

    Takes (label, (axis1, axis2)) pairs, builds the family runner over all
    the states, runs them, and returns (label, record) pairs in input order;
    records are numbered within their label. BLAS runs on one thread
    throughout, in the workers too, so the bits do not depend on
    OPENBLAS_NUM_THREADS or on `threads`.
    """
    threads = resolve_threads(threads)
    states = [state for _, state in labeled_states]
    with one_blas_thread():
        runner = FAMILY_RUNNERS[family](train, test, shared, states)
        evaluated = _run_states(runner, states, threads)
    names = AXES[family]
    index_in_label: dict[str, int] = {}
    out = []
    for (label, state), (ev, wall) in zip(labeled_states, evaluated):
        i = index_in_label.get(label, 0)
        index_in_label[label] = i + 1
        record = SweepRecord(
            i, names[0], state[0], names[1], state[1], **vars(ev),
            seed=shared.base_seed, wall_time=wall,
        )
        out.append((label, record))
    return out


def run_sweep(
    schedule: SweepSchedule,
    train: Dataset,
    test: Dataset,
    threads: int | None = None,
) -> SweepResult:
    """Evaluate a composite schedule point by point, in schedule order."""
    schedule.validate()
    labeled = [("", state) for state in schedule.expand()]
    evaluated = evaluate_states(
        schedule.family, labeled, train, test, schedule.shared, threads
    )
    return SweepResult(schedule.family, schedule, [rec for _, rec in evaluated])


def run_grid(
    family: str,
    axis1_values,
    axis2_values,
    train: Dataset,
    test: Dataset,
    shared: SweepConfig | None = None,
    threads: int | None = None,
) -> SweepResult:
    """Full cross product of the two axes, axis1-major point order."""
    shared = shared if shared is not None else SweepConfig()
    if not len(axis1_values) or not len(axis2_values):
        raise ScheduleError("grid axes must both be non-empty")
    names = AXES[family]
    # A grid is not expressible as one composite walk, so build the state
    # list directly and push the values through a schedule for validation.
    labeled = [("", (int(a1), int(a2))) for a1 in axis1_values for a2 in axis2_values]
    probe = SweepSchedule(
        family=family,
        points=[(names[0], a1) for a1 in axis1_values]
        + [(names[1], a2) for a2 in axis2_values],
        shared=shared,
    )
    probe.validate()
    evaluated = evaluate_states(family, labeled, train, test, shared, threads)
    return SweepResult(family, probe, [rec for _, rec in evaluated])


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
    """One composite sweep per switch point.

    Each sweep walks axis 1 up to its switch value, then continues along
    axis 2 with axis 1 pinned, so the interpolation peak sits wherever the
    switch was placed.
    """
    shared = shared if shared is not None else SweepConfig()
    if axis1_grid is None or axis2_values is None:
        raise ScheduleError("peak_move needs explicit axis1_grid and axis2_values")
    results = []
    for switch in switch_values:
        axis1_leg = [v for v in axis1_grid if v < switch] + [int(switch)]
        schedule = composite_schedule(family, axis1_leg, list(axis2_values), shared=shared)
        results.append(run_sweep(schedule, train, test, threads=threads))
    return results


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
    schedule.validate()
    if len(schedule.switch_indices()) < 2:
        raise ScheduleError(
            "multiple descent needs a schedule with at least two axis switches"
        )
    return run_sweep(schedule, train, test, threads=threads)


@dataclass
class BranchRecord:
    branch: str
    record: SweepRecord

    def row(self) -> list:
        return [self.branch] + self.record.row()


@dataclass
class BackToUResult:
    family: str
    records: list[BranchRecord] = field(default_factory=list)

    def branch(self, name: str) -> list[SweepRecord]:
        return [br.record for br in self.records if br.branch == name]

    def branch_names(self) -> list[str]:
        seen = []
        for br in self.records:
            if br.branch not in seen:
                seen.append(br.branch)
        return seen

    def write_csv(self, path) -> None:
        write_csv(path, ["branch"] + SWEEP_HEADER, [br.row() for br in self.records])


def back_to_u(
    family: str,
    train: Dataset,
    test: Dataset,
    axis1_values,
    axis2_values,
    shared: SweepConfig | None = None,
    threads: int | None = None,
) -> BackToUResult:
    """Composite sweep plus constant-axis-2 contours.

    Branch "axis1" is the first leg of the composite walk, branch "axis2" the
    second. For every axis-2 value visited, a contour branch re-walks the
    axis-1 grid with axis 2 held fixed; overlaying the contours recovers a
    family of classical U-shaped curves through the composite picture.
    """
    shared = shared if shared is not None else SweepConfig()
    axis1_values = [int(v) for v in axis1_values]
    axis2_values = [int(v) for v in axis2_values]
    names = AXES[family]
    a2_init = AXIS2_INIT[family]
    a1_top = axis1_values[-1]

    labeled: list[tuple[str, tuple[int, int]]] = []
    for a1 in axis1_values:
        labeled.append(("axis1", (a1, a2_init)))
    for a2 in axis2_values:
        labeled.append(("axis2", (a1_top, a2)))
    for a2 in axis2_values:
        name = f"contour_{names[1]}={a2}"
        for a1 in axis1_values:
            labeled.append((name, (a1, a2)))

    composite_schedule(family, axis1_values, axis2_values, shared=shared).validate()
    evaluated = evaluate_states(family, labeled, train, test, shared, threads)
    return BackToUResult(family, [BranchRecord(b, rec) for b, rec in evaluated])


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
