"""Sweep harness: composite walks, grids, reproducibility, noise-band helpers.

The binding reproducibility property: a point's evaluation is a pure function
of its (axis1, axis2) state plus the shared config, so the same state reached
through a composite walk, a grid, or a differently sized feature cache must
give bitwise-identical numbers.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from noise_band import increase_violations, seed_standard_error
from smootherlab import blas, boosting, linear
from smootherlab.boosting import fit_boost, fit_boost_ensemble
from smootherlab.dataset import (
    SyntheticSpec,
    one_vs_all_targets,
    synth_generate,
    synth_images,
)
from smootherlab.effparams import p_eff, p_eff_of_sq_norms
from smootherlab.errors import ScheduleError, WorkerDiedError
from smootherlab.experiments import families
from smootherlab.experiments.families import FAMILY_RUNNERS, RffLinearFamily
from smootherlab.experiments.schedule import (
    SweepConfig,
    SweepSchedule,
    composite_schedule,
)
from smootherlab.experiments.sweep import (
    SWEEP_HEADER,
    back_to_u,
    peak_move,
    resolve_threads,
    run_grid,
    run_sweep,
)
from smootherlab.linear import pcr_smoother, standardize
from smootherlab.rff import BLOCK, RffMap, sample_frequencies, transform
from smootherlab.trees import RegressionTree, fit_ensemble, fit_tree


# ---------------------------------------------------------------------------
# Record layout (a frozen external interface)
# ---------------------------------------------------------------------------


def test_sweep_header_is_frozen():
    assert SWEEP_HEADER == [
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


def test_run_sweep_record_bookkeeping(toy_images):
    train, test = toy_images
    sched = composite_schedule(
        "rff_linear", [2, 10, 30], [60, 120], shared=SweepConfig(base_seed=3)
    )
    result = run_sweep(sched, train, test)
    assert result.family == "rff_linear"
    assert [r.point_index for r in result.records] == [0, 1, 2, 3, 4]
    assert [r.axis1_value for r in result.records] == [2, 10, 30, 30, 30]
    assert [r.axis2_value for r in result.records] == [0, 0, 0, 60, 120]
    assert all(r.axis1_name == "p_pc" and r.axis2_name == "p_ex" for r in result.records)
    assert all(r.seed == 3 for r in result.records)
    for r in result.records:
        assert r.raw_params == r.axis1_value + r.axis2_value  # rff: total features
        assert np.isfinite(r.train_mse) and r.train_mse >= 0
        assert np.isfinite(r.test_mse) and r.test_mse >= 0
        assert 0.0 <= r.test_zero_one <= 1.0
        assert len(r.row()) == len(SWEEP_HEADER)


def test_tree_family_weights_stay_in_moving_average_range(toy_images):
    train, test = toy_images
    result = run_grid("tree", [2, 10, 60], [1, 4], train, test, SweepConfig())
    for r in result.records:
        assert 1.0 - 1e-9 <= r.p_train <= 60.0 + 1e-9
        assert 1.0 - 1e-9 <= r.p_test <= 60.0 + 1e-9


def _prefitted(family):
    """The family with its prefit rounds run and stored, as the sweep does:
    until it lists no more tasks."""
    while tasks := family.prefit_tasks():
        family.store([task() for task in tasks])
    return family


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "regression"])
@pytest.mark.parametrize("family", ["tree", "boosting"])
def test_point_is_the_fitted_ensemble_read_through_the_protocol(
    toy_images, family, labeled
):
    if labeled:
        train, test = toy_images
    else:
        full = synth_generate(SyntheticSpec("sine", 100, 2, 0.1, seed=3))
        train, test = full.take(slice(None, 40)), full.take(slice(40, None))
    shared = SweepConfig(base_seed=2, effparams_class=1 if labeled else 0)
    y = one_vs_all_targets(train, train.task_classes)[:, shared.effparams_class]
    a1_values = [2, 5, 12] if family == "tree" else [1, 3, 6]
    states = [(a1, p_ens) for a1 in a1_values for p_ens in (1, 2, 4)]
    runner = _prefitted(FAMILY_RUNNERS[family](train, test, shared, states))
    n = train.n
    Y_train = one_vs_all_targets(train, train.task_classes)
    Y_test = one_vs_all_targets(test, train.task_classes)

    def fitted(y, a1, p_ens):
        if family == "tree":
            return fit_ensemble(train.features, y, a1, p_ens, shared.base_seed)
        return fit_boost_ensemble(
            train.features, y, a1, p_ens, shared.base_seed,
            learning_rate=shared.learning_rate, leaf_budget=shared.boost_leaf_budget,
        )

    for a1, p_ens in states:
        model = fitted(y, a1, p_ens)
        ev = runner.evaluate(a1, p_ens)
        assert ev.p_train == p_eff(model.weight_matrix(train.features), n)
        assert ev.p_test == p_eff(model.weight_matrix(test.features), n)
        if family == "tree":
            raw_params = sum(m.n_leaves for m in model.members)
        else:
            raw_params = sum(t.n_leaves for m in model.members for t in m.trees)
        assert ev.raw_params == raw_params
        per_class = [fitted(Y_train[:, c], a1, p_ens) for c in range(Y_train.shape[1])]
        preds_train = np.column_stack([m.train_predictions() for m in per_class])
        preds_test = np.column_stack([m.predict(test.features) for m in per_class])
        assert ev.train_mse == float(np.mean(np.sum((preds_train - Y_train) ** 2, axis=1)))
        assert ev.test_mse == float(np.mean(np.sum((preds_test - Y_test) ** 2, axis=1)))


@pytest.mark.parametrize("family", ["tree", "boosting"])
def test_member_p0_does_not_depend_on_the_row_blocks(monkeypatch, family):
    full = synth_generate(SyntheticSpec("sine", 101, 2, 0.1, seed=4))
    train, test = full.take(slice(None, 38)), full.take(slice(38, None))  # 38 and 63 rows
    shared = SweepConfig(base_seed=3)
    small, large = (2, 6) if family == "tree" else (1, 4)
    # tree member 3 is fit only at the small budget: a budget's members end
    # at the largest p_ens the schedule pairs with it
    states = [(small, 1), (small, 3), (large, 1), (large, 2)]
    values = {}
    for block in (5, 8):  # several blocks each, neither dividing 38 nor 63
        monkeypatch.setattr(families, "ROW_BLOCK", block)
        runner = FAMILY_RUNNERS[family](train, test, shared, states)
        runner.store([task() for task in runner.prefit_tasks()])  # the members
        tasks = runner.prefit_tasks()  # then one task per row block
        sides = [task.args[0] for task in tasks]
        for side, ds in (("train", train), ("test", test)):
            assert sides.count(side) == math.ceil(ds.n / block)
        runner.store([task() for task in tasks])
        # two stages: once both are stored, nothing is left to prefit
        assert runner.prefit_tasks() == []
        values[block] = [runner.evaluate(*state) for state in states]
    for (a1, p_ens), ev in zip(states, values[5]):
        if family == "tree":
            model = fit_ensemble(train.features, train.targets, a1, p_ens, shared.base_seed)
        else:
            model = fit_boost_ensemble(
                train.features, train.targets, a1, p_ens, shared.base_seed,
                learning_rate=shared.learning_rate, leaf_budget=shared.boost_leaf_budget,
            )
        assert ev.p_train == p_eff(model.weight_matrix(train.features), train.n)
        assert ev.p_test == p_eff(model.weight_matrix(test.features), train.n)
    assert values[5] == values[8]


@pytest.mark.parametrize("family", ["tree", "boosting"])
def test_member_predictions_are_those_of_the_member_fitted_alone(toy_images, family):
    """``evaluate`` forms each member's predictions from its leaf ids and leaf
    values; they are the bits of the member's own tree or boosted run at
    every a1, a1 = 1 included."""
    train, test = toy_images
    shared = SweepConfig(base_seed=2)
    a1_values = [1, 2, 9] if family == "tree" else [1, 2, 5]
    states = [(a1, p_ens) for a1 in a1_values for p_ens in (1, 2)]
    runner = _prefitted(FAMILY_RUNNERS[family](train, test, shared, states))
    Y = one_vs_all_targets(train, train.task_classes)

    def alone(c, member, a1):
        """(train predictions, test predictions, leaf count) of the member."""
        seed, k = shared.base_seed + member, shared.tree_subset
        if family == "tree":
            tree = fit_tree(train.features, Y[:, c], a1, seed=seed, subset_size=k)
            return tree.train_predictions(), tree.predict(test.features), tree.n_leaves
        model = fit_boost(train.features, Y[:, c], n_rounds=a1,
                          learning_rate=shared.learning_rate,
                          leaf_budget=shared.boost_leaf_budget, seed=seed,
                          stop_tol=None, subset_size=k)
        test_lids = [t.leaf_ids(test.features) for t in model.trees]
        return (model.predictions_from_leaf_ids(model.train_leaf_ids, train.n),
                model.predictions_from_leaf_ids(test_lids, test.n),
                sum(t.n_leaves for t in model.trees))

    for a1 in a1_values:
        want = {c: alone(c, 1, a1) for c in runner.classes}
        for c in runner.classes:
            got = runner._snapshot(1, runner._members[c, 1], a1)
            assert np.array_equal(got[0], want[c][0]) and np.array_equal(got[1], want[c][1])
            assert got[2] == want[c][2]
        # a point of one member is the record of those predictions
        preds_train, preds_test = (np.column_stack([want[c][side] for c in runner.classes])
                                   for side in (0, 1))
        assert runner.evaluate(a1, 1) == runner._point(
            want[runner.weights_class][2], preds_train, preds_test, *runner._p_values[a1, 1])
    # member 2's record too, at the largest a1
    c, a1 = runner.weights_class, a1_values[-1]
    got, want = runner._snapshot(2, runner._members[c, 2], a1), alone(c, 2, a1)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _assert_lean_payloads(results, n):
    """No prefit task sends back a model, weight rows, predictions or anything
    of n² values. A members task sends back, per (class, member), each
    tree's leaf ids in the narrowest unsigned dtype that holds its leaf
    count, and its leaf values; a row block, its rows' squared norms."""

    def leaves(value):
        if isinstance(value, (tuple, list)):
            return [x for v in value for x in leaves(v)]
        if isinstance(value, dict):
            return leaves(list(value.values()))
        return [value]

    for value in leaves(results):
        assert not isinstance(value, (boosting.BoostedModel, RegressionTree))
        assert np.size(value) < n * n
        # no weight rows: those are formed only where they are read
        array = np.asarray(value)
        assert not (array.ndim == 2 and np.issubdtype(array.dtype, np.floating))
    for result in results:
        for record in result.values():
            if isinstance(record, np.ndarray):  # a row block's squared norms
                assert record.ndim == 1 and record.size <= families.ROW_BLOCK
                continue
            # no predictions: those are formed only where they are read
            for array in map(np.asarray, leaves(record)):
                assert not (np.issubdtype(array.dtype, np.floating) and array.size >= n)
            train_lids, test_lids, values = record
            assert len(train_lids) == len(test_lids) == len(values) > 0
            for train, test, v in zip(train_lids, test_lids, values):
                assert train.dtype == test.dtype == np.min_scalar_type(v.size - 1)


def _row_blocks(train, test):
    """(side, start) of every row block, training rows first: together they
    cover every row."""
    return [(side, start) for side, ds in (("train", train), ("test", test))
            for start in range(0, ds.n, families.ROW_BLOCK)]


def test_boosting_weights_are_computed_only_where_they_are_read(monkeypatch):
    from smootherlab.cli import command_defaults, load_datasets

    train, test = load_datasets(command_defaults("sweep")["dataset"])  # desk scale
    shared = SweepConfig(effparams_class=2)
    Y = one_vs_all_targets(train, train.task_classes)
    class_of, step_runs, runs, blocks, results, in_task, in_store = {}, [], [], [], [], [], []
    fit_boost, steps, store = families.fit_boost, boosting.weight_steps, families.BoostFamily.store
    fit_members, block_sq_norms = (families.BoostFamily._fit_members,
                                   families.BoostFamily._block_sq_norms)
    round_step, member_rows = boosting._round_step, families.BoostFamily._member_rows

    def counted_fit_boost(X, y, **kwargs):
        model = fit_boost(X, y, **kwargs)
        class_of[id(model.train_leaf_ids)] = [
            np.array_equal(y, col) for col in Y.T
        ].index(True)
        return model

    def counted_steps(train_leaf_ids, *args):
        assert not in_store, "store stepped a weight recursion"
        step_runs.append((class_of[id(train_leaf_ids)], in_task[-1] if in_task else None))
        return steps(train_leaf_ids, *args)

    def checked_round_step(*args):
        assert not in_store, "store stepped weight rows"
        return round_step(*args)

    def checked_member_rows(self, *args):
        assert not in_store, "store stepped weight rows"
        assert in_task[-1][0] == "block", "weight rows outside a row block"
        yield from member_rows(self, *args)

    def recorded(kind, task, log):
        def run(self, *args):
            in_task.append((kind, *args))
            try:
                result = task(self, *args)
            finally:
                in_task.pop()
            log.append(args)
            results.append(result)
            return result
        return run

    def guarded_store(self, results):
        in_store.append(True)
        try:
            return store(self, results)
        finally:
            in_store.pop()

    monkeypatch.setattr(families, "fit_boost", counted_fit_boost)
    monkeypatch.setattr(boosting, "weight_steps", counted_steps)
    monkeypatch.setattr(families, "weight_steps", counted_steps)
    monkeypatch.setattr(boosting, "_round_step", checked_round_step)
    monkeypatch.setattr(families.BoostFamily, "_member_rows", checked_member_rows)
    monkeypatch.setattr(families.BoostFamily, "_fit_members",
                        recorded("member", fit_members, runs))
    monkeypatch.setattr(families.BoostFamily, "_block_sq_norms",
                        recorded("block", block_sq_norms, blocks))
    monkeypatch.setattr(families.BoostFamily, "store", guarded_store)
    schedule = composite_schedule("boosting", [1, 3, 6], [2, 4], shared=shared)
    run_sweep(schedule, train, test, threads=1)
    # one task per member 1..4, fitting all of that member's classes
    classes = range(train.task_classes)
    assert runs == [(member, classes) for member in range(1, 5)]
    # one weight walk per member, for the effparams class, inside its task
    c = shared.effparams_class
    assert step_runs == [(c, ("member", *run)) for run in runs]
    # then the row blocks cover the training and the test rows
    assert blocks == _row_blocks(train, test)
    _assert_lean_payloads(results, train.n)


def test_tree_sweep_forms_no_weight_matrices(toy_images, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree sweep formed a tree's weight matrix")

    for name in ("leaf_weight_rows", "weight_matrix"):
        monkeypatch.setattr(RegressionTree, name, refuse)
    runs, blocks, results = [], [], []

    def recorded(task, log):
        def run(self, *args):
            log.append(args)
            results.append(task(self, *args))
            return results[-1]
        return run

    monkeypatch.setattr(families.TreeFamily, "_fit_members",
                        recorded(families.TreeFamily._fit_members, runs))
    monkeypatch.setattr(families.TreeFamily, "_block_sq_norms",
                        recorded(families.TreeFamily._block_sq_norms, blocks))
    train, test = toy_images
    schedule = composite_schedule("tree", [2, 8, 30], [3], shared=SweepConfig())
    result = run_sweep(schedule, train, test, threads=1)
    assert len(result.records) == 4
    assert all(np.isfinite(r.p_test) and r.p_test > 0 for r in result.records)
    # one task per member, fitting all of its classes, then the row blocks
    assert runs == [(member, range(train.task_classes)) for member in (1, 2, 3)]
    assert blocks == _row_blocks(train, test)
    _assert_lean_payloads(results, train.n)


def test_infeasible_point_fails_before_any_fitting(toy_images):
    train, test = toy_images
    # p_pc beyond n-1 can never be fit on n training points
    sched = composite_schedule("rff_linear", [2, 60], [0], shared=SweepConfig())
    with pytest.raises(ScheduleError) as err:
        run_sweep(sched, train, test)
    assert "point 1" in str(err.value)


def test_grid_rejects_empty_axes(toy_images):
    train, test = toy_images
    with pytest.raises(ScheduleError):
        run_grid("tree", [], [1], train, test, SweepConfig())
    with pytest.raises(ScheduleError):
        run_grid("tree", [2], [], train, test, SweepConfig())


# ---------------------------------------------------------------------------
# Bitwise equality of composite walks and grids
# ---------------------------------------------------------------------------


def _by_state(result):
    return {(r.axis1_value, r.axis2_value): r for r in result.records}


@pytest.mark.parametrize(
    "family,axis1,axis2",
    [
        ("rff_linear", [4, 20, 59], [0, 60]),  # holds the start value AXIS2_INIT
        ("tree", [2, 5, 20], [2, 5]),
        ("boosting", [1, 4, 9], [3, 6]),
    ],
)
def test_grid_records_are_back_to_u_contour_records(toy_images, family, axis1, axis2):
    # the axis-1 x axis-2 grid is the contour rows of back_to_u, so no
    # subcommand writes it on its own
    train, test = toy_images
    shared = SweepConfig(base_seed=1)
    grid = run_grid(family, axis1, axis2, train, test, shared)
    btu = back_to_u(family, train, test, axis1, axis2, shared)
    contours = {(r.axis1_value, r.axis2_value): r
                for b, r in zip(btu.branches, btu.records) if b.startswith("contour")}
    assert len(grid.records) == len(axis1) * len(axis2)
    for g in grid.records:
        c = contours[(g.axis1_value, g.axis2_value)]
        assert g.row()[1:] == c.row()[1:]  # all but point_index


@pytest.mark.parametrize(
    "family,axis1,axis2,grid_axis1",
    [
        ("rff_linear", [2, 10, 30, 59], [60, 180], [2, 10, 30, 59]),
        ("tree", [2, 10, 25], [2, 4], [2, 10, 25]),
        ("boosting", [2, 5, 12], [2, 4], [2, 5, 12, 20]),
    ],
)
def test_composite_walk_matches_grid_bitwise(toy_images, family, axis1, axis2, grid_axis1):
    train, test = toy_images
    shared = SweepConfig(base_seed=1)
    composite = run_sweep(
        composite_schedule(family, axis1, axis2, shared=shared), train, test
    )
    # the grid for boosting runs more rounds overall: prefix stability must hold
    grid = run_grid(family, grid_axis1, [1] + axis2 if family != "rff_linear" else [0] + axis2,
                    train, test, shared)
    grid_map = _by_state(grid)
    for r in composite.records:
        g = grid_map[(r.axis1_value, r.axis2_value)]
        assert r.raw_params == g.raw_params
        assert r.train_mse == g.train_mse
        assert r.test_mse == g.test_mse
        assert r.test_zero_one == g.test_zero_one
        assert r.p_train == g.p_train
        assert r.p_test == g.p_test


def test_rff_values_independent_of_cache_width(toy_images):
    train, test = toy_images
    shared = SweepConfig(base_seed=0)
    # (2, 2n) is a wide point with few components, whose small products
    # would show a dependence on the cache's row stride
    points = [(10, 0), (2, 2 * train.n)]
    narrow = _prefitted(RffLinearFamily(train, test, shared, points))
    wide = _prefitted(RffLinearFamily(train, test, shared, points + [(59, 700)]))
    assert narrow.Xs_train.shape[1] < wide.Xs_train.shape[1]
    for point in points:
        a, b = narrow.evaluate(*point), wide.evaluate(*point)
        assert (a.train_mse, a.test_mse, a.p_train, a.p_test) == (
            b.train_mse, b.test_mse, b.p_train, b.p_test
        )


def _explicit_point(family, p_pc, p_ex):
    """A point's (train_mse, test_mse, p_train, p_test) read off explicit
    weight rows of a PCR fit on the raw cosine columns, and that fit."""
    train, test, shared = family.train, family.test, family.shared
    p_phi, p_cache = p_pc + p_ex, family.Xs_train.shape[1]
    fmap = sample_frequencies(shared.base_seed, p_cache, train.d, shared.rff_scale)
    raw = [np.hstack([families.feature_block(fmap, ds.features, s)
                      for s in range(0, p_cache, BLOCK)])[:, :p_phi]
           for ds in (train, test)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero-variance column's drop warning
        sm = pcr_smoother(raw[0], p_pc)
    W_train, W_test = sm.hat_matrix(), sm.weight_matrix(raw[1])
    Y, n = family.Y_train, train.n
    values = (
        np.mean(np.sum((W_train @ Y - Y) ** 2, axis=1)),
        np.mean(np.sum((W_test @ Y - family.Y_test) ** 2, axis=1)),
        p_eff(W_train, n),
        p_eff(W_test, n),
    )
    return values, sm


def _plain_point(family, p_pc, p_ex):
    """A point's record from the plain expression on intact designs: the
    fit, its coefficients, both projections and (D * D) @ sa_inv_sq."""
    p_phi = p_pc + p_ex
    kept = family.kept[:p_phi]
    q = int(np.count_nonzero(kept))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero-variance column's drop warning
        sm = pcr_smoother(family.Xs_train[:, :p_phi], p_pc,
                          scaling=(family.mean[:q], family.std[:q], kept))
    Xs_test = family.Xs_test[:, :p_phi]
    A = sm.train_design
    A0 = sm.standardized_design(Xs_test if q == p_phi else Xs_test[:, kept])
    beta, n = sm.coefficients(family.Y_train), family.train.n
    return family._point(p_phi, A @ beta, A0 @ beta,
                         p_eff_of_sq_norms((A * A) @ sm.sa_inv_sq, n),
                         p_eff_of_sq_norms((A0 * A0) @ sm.sa_inv_sq, n))


def _masking_block(block):
    """Cosine block with column 1 a copy of column 0 and column 2 constant."""
    def patched(fmap, X, start):
        Phi = block(fmap, X, start).copy()
        Phi[:, 1], Phi[:, 2] = Phi[:, 0], 0.5
        return Phi
    return patched


def test_rff_caches_hold_each_block_standardized_in_place(toy_images, monkeypatch):
    train, test = toy_images
    shared = SweepConfig()
    block = _masking_block(families.feature_block)
    monkeypatch.setattr(families, "feature_block", block)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = _prefitted(RffLinearFamily(train, test, shared, [(20, 300)]))
    # as wide as the widest point, from a map of whole blocks
    p_cache = family.Xs_train.shape[1]
    assert p_cache == 320 and family.kept.size == p_cache
    fmap = sample_frequencies(shared.base_seed, 2 * BLOCK, train.d, shared.rff_scale)
    for start in range(0, p_cache, BLOCK):
        cols = slice(start, start + BLOCK)
        # each block standardized in full; the caches hold its first columns
        Xs, mean, std, kept = standardize(block(fmap, train.features, start))
        w = family.Xs_train[:, cols].shape[1]
        # the constant column is dropped; its duplicated neighbour is kept
        assert kept[1] and not kept[2]
        held = kept[:w]
        assert np.array_equal(family.Xs_train[:, cols][:, held], Xs[:, :held.sum()])
        Phi_test = block(fmap, test.features, start)[:, :w][:, held]
        assert np.array_equal(family.Xs_test[:, cols][:, held],
                              (Phi_test - mean[:held.sum()]) / std[:held.sum()])
        assert np.array_equal(family.kept[cols], held)
    assert np.isfinite(family.Xs_train).all() and np.isfinite(family.Xs_test).all()


@pytest.mark.parametrize(
    "p_pc, p_ex, masked",
    [(8, 0, False), (8, 100, False), (59, 0, False), (20, 0, True)],
    ids=["narrow", "wide", "interpolating", "masked-component"],
)
def test_rff_point_p0_closed_form_matches_explicit_rows(
    toy_images, monkeypatch, p_pc, p_ex, masked
):
    train, test = toy_images
    if masked:
        monkeypatch.setattr(families, "feature_block",
                            _masking_block(families.feature_block))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = _prefitted(RffLinearFamily(train, test, SweepConfig(), [(p_pc, p_ex)]))
        got = family.evaluate(p_pc, p_ex)
    # evaluate frees the training design before it projects the test rows
    # and squares each design in place, keeping every bit of the plain
    # expression; the masked point's prefix also drops a constant column
    assert got == _plain_point(family, p_pc, p_ex)
    assert family.kept[:p_pc + p_ex].all() != masked
    want, sm = _explicit_point(family, p_pc, p_ex)
    # the cutoff masks the duplicated direction, and only there
    assert (sm.rank < sm.train_design.shape[1]) == masked
    # an interpolating point's train_mse is rounding noise far below 1e-20
    np.testing.assert_allclose(
        [got.train_mse, got.test_mse, got.p_train, got.p_test], want,
        rtol=1e-9, atol=1e-20,
    )
    if p_pc == train.n - 1 and p_ex == 0:
        assert abs(got.p_train - train.n) <= 1e-9 * train.n


def test_rff_point_frees_its_training_design_before_the_test_design(monkeypatch):
    """The training design is dead when the test rows are projected, and the
    traced peak of a point whose test design dominates stays below the
    components plus 1.5 test designs: the test design is never held
    together with the training design or with its own square."""
    full = synth_images(60 + 1500, side=6, n_classes=3, noise_std=0.25, seed=7,
                        label_noise=0.15)
    train, test = full.take(slice(None, 60)), full.take(slice(60, None))
    p_pc, p_ex = 59, 140
    family = _prefitted(RffLinearFamily(train, test, SweepConfig(), [(p_pc, p_ex)]))
    project, designs = linear._project, []

    def watched(Xs, components):
        if Xs.shape[0] == test.n:
            assert designs and designs[-1]() is None, "training design still alive"
        A = project(Xs, components)
        designs.append(weakref.ref(A))
        return A

    monkeypatch.setattr(linear, "_project", watched)
    family.evaluate(p_pc, p_ex)  # also warms numpy's caches outside the trace
    assert len(designs) == 2
    monkeypatch.setattr(linear, "_project", project)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        family.evaluate(p_pc, p_ex)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    components, test_design = 8 * (p_pc + p_ex) * p_pc, 8 * test.n * (p_pc + 1)
    assert test_design > 4 * components
    assert peak < components + 1.5 * test_design, (peak, components, test_design)


def test_rff_peak_p0_matches_an_svd_of_the_standardized_design():
    """At the desk interpolation peak, p_pc = n - 1 with no excess features,
    the smallest kept singular value is 3e-4 of the largest and p_test is
    about 4e5. p0 from the Gram eigendecomposition still agrees with one
    read off an SVD of the standardized design itself, whose error grows
    with the condition number κ rather than κ²."""
    from smootherlab.cli import command_defaults, load_datasets

    train, test = load_datasets(command_defaults("sweep")["dataset"])
    n, shared = train.n, SweepConfig()
    family = _prefitted(RffLinearFamily(train, test, shared, [(n - 1, 0)]))
    got = family.evaluate(n - 1, 0)
    fmap = sample_frequencies(shared.base_seed, family.Xs_train.shape[1], train.d,
                              shared.rff_scale)
    Xs, mean, std, kept = standardize(transform(fmap, train.features, n - 1))
    Xs0 = (transform(fmap, test.features, n - 1)[:, kept] - mean) / std
    U, sig, Vt = np.linalg.svd(Xs, full_matrices=False)
    assert Xs.shape == (n, n - 1) and sig[-1] / sig[0] < 1e-3
    # s(x0) = Xs0 V diag(1/sig) U' + 1'/n; U is orthonormal and, Xs being
    # centered, orthogonal to 1
    p_train = p_eff_of_sq_norms(np.sum(U**2, axis=1) + 1 / n, n)
    p_test = p_eff_of_sq_norms(np.sum((Xs0 @ Vt.T / sig) ** 2, axis=1) + 1 / n, n)
    assert p_test > 1e5
    np.testing.assert_allclose([got.p_train, got.p_test], [p_train, p_test], rtol=1e-8)


def test_rff_sweep_forms_no_weight_matrices(toy_images, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an rff_linear point formed explicit weight rows")

    for name in ("hat_matrix", "weight_matrix"):
        monkeypatch.setattr(linear.PcrSmoother, name, refuse)
    train, test = toy_images
    schedule = composite_schedule("rff_linear", [2, 8, 59], [60], shared=SweepConfig())
    result = run_sweep(schedule, train, test, threads=1)
    assert len(result.records) == 4
    assert all(np.isfinite(r.p_test) and r.p_test > 0 for r in result.records)


def test_rff_family_drops_its_frequency_bank_once_the_blocks_are_stored(toy_images):
    train, test = toy_images
    family = RffLinearFamily(train, test, SweepConfig(), [(10, 0), (59, 700)])
    assert isinstance(family.fmap, RffMap)
    _prefitted(family)
    # the evaluation workers fork after store and so inherit no map
    assert not any(isinstance(value, RffMap) for value in vars(family).values())


def test_rff_wide_point_peak_memory_is_bounded():
    """One wide point's evaluate holds at most one (p, k) components array,
    one (n, k+1) training design and one (m, k+1) test design, plus 64 KiB
    for the predictions and small products. At this point, scaling the
    components out of place, keeping the solver or squaring a design out of
    place exceeds the bound."""
    full = synth_images(420, side=6, n_classes=3, noise_std=0.25, seed=7,
                        label_noise=0.15)
    train, test = full.take(slice(None, 120)), full.take(slice(120, None))
    p_pc, p_ex = 119, 900
    family = _prefitted(RffLinearFamily(train, test, SweepConfig(), [(p_pc, p_ex)]))
    p, k, n, m = p_pc + p_ex, p_pc, train.n, test.n
    floats = p * k + n * (k + 1) + m * (k + 1)
    bound = 8 * floats + 64 * 1024
    family.evaluate(p_pc, p_ex)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        family.evaluate(p_pc, p_ex)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_rff_prefit_values_hold_one_block_of_column_statistics(toy_images):
    train, test = toy_images
    family = RffLinearFamily(train, test, SweepConfig(), [(10, 0), (59, 700)])
    # means, scales and kept mask of one full block; the standardized
    # columns stay in the shared caches
    bound = len(pickle.dumps((np.zeros(BLOCK), np.zeros(BLOCK), np.ones(BLOCK, bool))))
    tasks = family.prefit_tasks()
    assert len(tasks) == -(-family.Xs_train.shape[1] // BLOCK)
    results = [task() for task in tasks]
    for value in results:
        assert len(pickle.dumps(value)) <= bound
    # one stage: once it is stored, nothing is left to prefit
    family.store(results)
    assert family.prefit_tasks() == []


def test_rerun_is_bitwise_deterministic(toy_images, tmp_path):
    train, test = toy_images
    sched = composite_schedule("boosting", [2, 6], [3], shared=SweepConfig(base_seed=5))
    a = run_sweep(sched, train, test)
    b = run_sweep(sched, train, test)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    text = pa.read_text()
    assert text.startswith(",".join(SWEEP_HEADER) + "\n")
    assert len(text.strip().split("\n")) == 1 + 3


def test_different_seeds_change_values(toy_images):
    train, test = toy_images
    runs = [
        run_sweep(composite_schedule("tree", [4, 12], [2],
                                     shared=SweepConfig(base_seed=s)), train, test)
        for s in (0, 1, 2)
    ]
    assert [r.records[0].seed for r in runs] == [0, 1, 2]
    curves = [r.test_mse for r in runs]
    assert not np.array_equal(curves[0], curves[1])


# ---------------------------------------------------------------------------
# Composite studies
# ---------------------------------------------------------------------------


def test_peak_move_places_switch_at_leg_end(toy_images):
    train, test = toy_images
    results = peak_move(
        "rff_linear",
        switch_values=[30, 48],
        train=train,
        test=test,
        shared=SweepConfig(),
        axis1_grid=[2, 10, 30, 48],
        axis2_values=[60, 120],
    )
    assert len(results) == 2
    first, second = results
    assert [r.axis1_value for r in first.records] == [2, 10, 30, 30, 30]
    assert [r.axis1_value for r in second.records] == [2, 10, 30, 48, 48, 48]
    # the axis-1 leg ends exactly at the switch, axis 2 carries on from there
    assert first.schedule.switch_indices() == [3]
    assert second.schedule.switch_indices() == [4]


@pytest.mark.parametrize(
    "family, axis1, switches, axis2",
    [
        ("rff_linear", [2, 10, 30, 48], [30, 48], [60, 120]),
        ("tree", [2, 10, 25, 60], [10, 25, 60], [2, 4]),
        ("boosting", [1, 3, 6, 12], [6, 12], [2, 3]),
    ],
)
def test_peak_move_builds_one_family_for_all_switches(
    toy_images, monkeypatch, family, axis1, switches, axis2
):
    train, test = toy_images
    shared = SweepConfig(base_seed=1)
    built = []

    class Counted(FAMILY_RUNNERS[family]):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setitem(FAMILY_RUNNERS, family, Counted)
    results = peak_move(family, switches, train, test, shared=shared,
                        axis1_grid=axis1, axis2_values=axis2, threads=2)
    assert len(built) == 1
    monkeypatch.undo()
    # each switch's records are those of its own sweep, bit for bit
    for result in results:
        alone = run_sweep(result.schedule, train, test, threads=1)
        assert [r.row() for r in result.records] == [r.row() for r in alone.records]


def test_peak_move_reports_the_index_within_the_switch(toy_images):
    train, test = toy_images
    with pytest.raises(ScheduleError) as err:
        peak_move("rff_linear", [30, 70], train, test, axis1_grid=[2, 10, 30, 59],
                  axis2_values=[60])
    # the second walk is [2, 10, 30, 59, 70]; 70 exceeds n-1 = 59
    assert err.value.point_index == 4
    assert str(err.value) == "schedule point 4: p_pc=70 exceeds n-1=59"


def test_multiple_descent_produces_two_peaks(toy_images):
    """Growing PCs, then excess features, then PCs again yields two ascents.

    The second climb approaches p_pc = n-1 while the raw feature count stays
    near n, so the near-square conditioning spike reappears after the first
    descent. Medians over three seeds keep the shape stable at this scale.
    """
    train, test = toy_images
    points = (
        [("p_pc", v) for v in (4, 12, 24, 40, 48)]
        + [("p_ex", v) for v in (8, 16)]
        + [("p_pc", v) for v in (52, 56, 59)]
    )
    curves, train_curves = [], []
    for seed in (0, 1, 2):
        sched = SweepSchedule(
            family="rff_linear", points=list(points), shared=SweepConfig(base_seed=seed)
        )
        assert len(sched.switch_indices()) == 2
        result = run_sweep(sched, train, test)
        curves.append(result.test_mse)
        train_curves.append(result.train_mse)
    med = np.median(curves, axis=0)
    rises = [
        i
        for i in range(1, med.size)
        if med[i] > med[i - 1] and (i == med.size - 1 or med[i] > med[i + 1])
    ]
    # one peak where the first mechanism stops, one at the second approach
    assert 4 in rises
    assert med.size - 1 in rises
    assert med[4] >= 1.3 * med[:4].min()
    assert med[-1] >= 1.3 * med[5:-1].min()
    # the descent segment really descends from the first peak
    assert med[5] < med[4] and med[6] < med[4]
    # training error keeps falling through both climbs (median, 2% band)
    med_train = np.median(train_curves, axis=0)
    assert increase_violations(med_train) == []
    assert med_train[-1] <= 1e-10


def test_back_to_u_branch_structure(toy_images):
    train, test = toy_images
    result = back_to_u(
        "tree",
        train,
        test,
        axis1_values=[2, 10, 30],
        axis2_values=[1, 3],
        shared=SweepConfig(base_seed=2),
    )
    assert result.branch_names() == [
        "axis1",
        "axis2",
        "contour_p_ens=1",
        "contour_p_ens=3",
    ]
    axis1 = result.branch("axis1")
    axis2 = result.branch("axis2")
    assert [(r.axis1_value, r.axis2_value) for r in axis1] == [(2, 1), (10, 1), (30, 1)]
    assert [(r.axis1_value, r.axis2_value) for r in axis2] == [(30, 1), (30, 3)]
    # the fold-back branch starts exactly where the first leg ended
    assert axis2[0].test_mse == axis1[-1].test_mse
    assert axis2[0].p_test == axis1[-1].p_test
    # contour at the initial axis-2 value retraces the first leg bitwise
    contour = result.branch("contour_p_ens=1")
    assert [r.test_mse for r in contour] == [r.test_mse for r in axis1]
    # per-branch point indices restart from zero
    assert [r.point_index for r in axis2] == [0, 1]


def test_back_to_u_csv_layout(toy_images, tmp_path):
    train, test = toy_images
    result = back_to_u(
        "tree", train, test, axis1_values=[2, 6], axis2_values=[1, 2],
        shared=SweepConfig(),
    )
    path = tmp_path / "fold.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "branch," + ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + 2 + 2 + 4
    assert lines[1].startswith("axis1,0,")


@pytest.mark.parametrize(
    "family, axis1, axis2",
    [
        ("rff_linear", [2, 10, 30], [0, 60]),
        ("tree", [2, 10, 30], [1, 3]),
        ("boosting", [2, 5, 12], [1, 3]),
    ],
)
def test_each_distinct_state_is_evaluated_once(toy_images, monkeypatch, family,
                                               axis1, axis2):
    train, test = toy_images
    calls = []
    evaluate = FAMILY_RUNNERS[family].evaluate

    def counted(self, *state):
        calls.append(state)
        return evaluate(self, *state)

    monkeypatch.setattr(FAMILY_RUNNERS[family], "evaluate", counted)
    fold = back_to_u(family, train, test, axis1, axis2, threads=1)
    n_fold = len(calls)
    walks = peak_move(family, axis1[1:], train, test, axis1_grid=axis1,
                      axis2_values=axis2[1:], threads=1)
    runs = [(fold.records, calls[:n_fold]),
            ([r for w in walks for r in w.records], calls[n_fold:])]
    for records, evaluated in runs:
        states = [(r.axis1_value, r.axis2_value) for r in records]
        assert sorted(evaluated) == sorted(set(states)) and len(evaluated) < len(states)
        # a repeated state repeats its record; only its place in the walk
        # differs, and its time is counted once, on the first record
        first = {}
        for r in records:
            twin = first.setdefault((r.axis1_value, r.axis2_value), r)
            if r is not twin:
                assert r.wall_time == 0.0 < twin.wall_time
            assert dataclasses.replace(r, point_index=twin.point_index,
                                       wall_time=twin.wall_time) == twin


# ---------------------------------------------------------------------------
# Noise band helpers and thread resolution
# ---------------------------------------------------------------------------


def test_increase_violations_band_logic():
    assert increase_violations([1.0, 1.01, 0.9]) == []  # within 2%
    assert increase_violations([1.0, 1.2, 0.9]) == [1]
    assert increase_violations([3.0, 2.0, 1.0]) == []
    # a standard error wider than the step absorbs it
    assert increase_violations([1.0, 1.2], standard_errors=[0.0, 0.5]) == []
    assert increase_violations([1.0, 1.2], standard_errors=[0.0, 0.05]) == [1]
    # custom relative tolerance
    assert increase_violations([1.0, 1.05], rel_tol=0.10) == []
    assert increase_violations([1.0, 1.05], rel_tol=0.01) == [1]


def test_seed_standard_error_single_curve_is_zero():
    assert np.array_equal(seed_standard_error([np.array([1.0, 2.0])]), [0.0, 0.0])
    se = seed_standard_error([np.array([1.0, 2.0]), np.array([3.0, 2.0])])
    assert se[0] == pytest.approx(np.std([1.0, 3.0], ddof=1) / np.sqrt(2))
    assert se[1] == 0.0


def test_resolve_threads():
    assert resolve_threads(4) == 4
    assert resolve_threads() >= 1
    with pytest.raises(ScheduleError):
        resolve_threads(0)


def test_one_blas_thread_pins_and_restores(monkeypatch):
    funcs = blas._openblas_threads()
    if funcs is not None:  # numpy's bundled OpenBLAS
        get, set_ = funcs
        before = get()
        set_(2)
        try:
            with blas.one_blas_thread():
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)
    monkeypatch.setattr(blas, "_openblas_threads", lambda: None)
    with blas.one_blas_thread():  # any other BLAS: nothing to pin
        pass


@pytest.mark.parametrize(
    "family, axis1, axis2, runner",
    [
        # p_phi up to 730 spans three feature blocks: three prefit workers
        # fill the shared caches
        ("rff_linear", [2, 10, 30], [60, 700], "sweep"),
        ("tree", [2, 10, 30], [1, 3], "sweep"),
        ("boosting", [2, 5, 12], [1, 3], "sweep"),
        # contours revisit small points after large ones: out-of-order dispatch
        ("rff_linear", [2, 10, 30], [0, 60], "back_to_u"),
    ],
    ids=["rff_linear", "tree", "boosting", "rff_linear-back_to_u"],
)
def test_threaded_sweep_matches_serial(toy_images, family, axis1, axis2, runner):
    train, test = toy_images
    shared = SweepConfig(base_seed=4)

    def run(threads):
        if runner == "back_to_u":
            result = back_to_u(family, train, test, axis1, axis2, shared, threads=threads)
            return [r.row() for r in result.records]
        sched = composite_schedule(family, axis1, axis2, shared=shared)
        return [r.row() for r in run_sweep(sched, train, test, threads=threads).records]

    pooled = run(3)
    assert pooled == run(1)
    if family == "rff_linear":
        # points run largest first; each record must still hold its own
        # point's values: raw_params is that point's p_pc + p_ex
        assert all(row[5] == row[2] + row[4] for row in pooled)


def test_pooled_errors_cross_the_process_boundary(toy_images, monkeypatch):
    train, test = toy_images

    class Failing(RffLinearFamily):
        def evaluate(self, p_pc, p_ex):
            if p_pc == 10:
                raise ScheduleError(f"raised in process {os.getpid()}", point_index=1)
            return super().evaluate(p_pc, p_ex)

    # installed before the pool forks, so the workers inherit it
    monkeypatch.setitem(FAMILY_RUNNERS, "rff_linear", Failing)
    sched = composite_schedule("rff_linear", [2, 10, 30], [60], shared=SweepConfig())
    with pytest.raises(ScheduleError) as err:
        run_sweep(sched, train, test, threads=2)
    assert err.value.point_index == 1
    message = str(err.value)
    assert message.startswith("schedule point 1: raised in process ")
    assert int(message.rsplit(" ", 1)[1]) != os.getpid()


@pytest.mark.parametrize("stage", ["prefit", "evaluate"])
def test_a_dead_worker_is_named_with_its_stage(toy_images, monkeypatch, stage):
    train, test = toy_images
    parent = os.getpid()

    class Dying(RffLinearFamily):
        def _prefit(self, start):
            if stage == "prefit" and os.getpid() != parent:
                os._exit(1)
            return super()._prefit(start)

        def evaluate(self, p_pc, p_ex):
            if stage == "evaluate" and os.getpid() != parent:
                os._exit(1)
            return super().evaluate(p_pc, p_ex)

    monkeypatch.setitem(FAMILY_RUNNERS, "rff_linear", Dying)
    # p_phi up to 730 spans three feature blocks, so both stages pool
    sched = composite_schedule("rff_linear", [2, 10, 30], [60, 700], shared=SweepConfig())
    with pytest.raises(WorkerDiedError, match=f"died during the {stage} stage"):
        run_sweep(sched, train, test, threads=2)
