"""Per-family point evaluators behind the sweep engine.

A family adapter prepares whatever is shared across a sweep (feature caches,
prefit trees, boosted runs) and then evaluates individual (axis1, axis2)
points. Preparation runs as prefit tasks in the sweep's pool. An rff_linear
task draws one ``rff.BLOCK`` of frequency rows, computes that block of
cosine columns, writes them standardized with train statistics straight
into train and test caches in shared memory and sends back only the
block's per-column means, scales and kept mask; a point fits PCR on column
prefixes of those caches. Evaluation is a pure function of the axis values
and the shared config — never of the schedule position — so composite
sweeps, grids and contour branches that visit the same point produce
bit-identical records, and the sweep can run every family's points in its
process pool. An rff_linear point forms no weight rows: its p0 values are
sums over the projection coefficients of its train and test designs
(``linear.PcrSmoother.sq_norms``).

A tree or boosting point averages its seeded members' predictions and
weight rows, and both p_train and p_test are p0 of the averaged rows. Both
families share one path for them (``_MemberFamily``), in two prefit stages.
The members stage holds one ``MemberRecord`` per (class, member): each of
its trees' training and test leaf ids, in the narrowest unsigned dtype that
holds the tree's leaf count, and leaf values. A tree is its leaf partition,
so a member's predictions and weight rows follow from its record; no
prediction is sent back, and ``evaluate`` forms them, summing a boosted
member's rounds. The one-vs-all classes of a member share its seed, hence
its trees' feature draws, so one task fits a member's classes at every a1
the member needs and draws each feature subset once for all of them. The
row-block stage holds p_train and p_test of every point: one task per
block of training or test rows takes every member's weight rows of its
block, keeps running member sums and sends back each row's squared norm
per point. No task sends back weight rows; the parent only joins the
blocks' norms into p0.

Multiclass data is handled one-vs-all: C binary {0,1} tasks share the inputs,
squared losses are summed across tasks, and the 0-1 error takes the argmax
over per-class predictions. Effective parameters are read from the sub-task
picked by shared.effparams_class (weights of linear smoothers are the same
for every task; trees and boosting adapt to their targets).
"""
from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..boosting import boosted_predictions, fit_boost, weight_steps
from ..dataset import Dataset, one_vs_all_targets
from ..effparams import p_eff_of_sq_norms
from ..errors import ScheduleError, ValidationError
from ..linear import column_scales, pcr_smoother
from ..rff import BLOCK, feature_block, sample_frequencies
from ..trees import FeatureDraws, fit_tree, leaf_rows, presort


@dataclass
class PointEval:
    raw_params: int
    train_mse: float
    test_mse: float
    test_zero_one: float
    p_train: float
    p_test: float


class _FamilyBase:
    """Shared data of every family, and the record of a point.

    A family prefits in stages. The sweep runs the tasks that
    ``prefit_tasks()`` lists in its pool and hands their results, in task
    order, to ``store``, until ``prefit_tasks()`` is empty; a stage's tasks
    may read what ``store`` kept of the stages before it. ``threads`` is the
    size of the sweep's pool.
    """

    #: every family's points run in the pool; kept for perfbench's tracer,
    #: nothing in the package branches on it
    parallel_points = True

    def __init__(self, train: Dataset, test: Dataset, shared, threads: int = 1):
        if train.d != test.d:
            raise ValidationError(
                f"train d={train.d} and test d={test.d} differ"
            )
        self.train = train
        self.test = test
        self.shared = shared
        self.threads = threads
        self.n_classes = train.task_classes
        if self.n_classes and not (0 <= shared.effparams_class < self.n_classes):
            raise ValidationError(
                f"effparams_class {shared.effparams_class} out of range "
                f"[0, {self.n_classes})"
            )
        self.classes = range(max(1, self.n_classes))
        # the one-vs-all task whose weights p_train and p_test are read from
        self.weights_class = shared.effparams_class if self.n_classes else 0
        self.Y_train = one_vs_all_targets(train, self.n_classes)
        self.Y_test = one_vs_all_targets(test, self.n_classes)

    def _point(self, raw_params, preds_train, preds_test, p_train, p_test) -> PointEval:
        """A point's record: the errors of its predictions and its p0 values."""
        train_mse = float(np.mean(np.sum((preds_train - self.Y_train) ** 2, axis=1)))
        test_mse = float(np.mean(np.sum((preds_test - self.Y_test) ** 2, axis=1)))
        if self.n_classes:
            picked = np.argmax(preds_test, axis=1)
            zero_one = float(np.mean(picked != self.test.class_labels))
        else:
            zero_one = 0.0  # not meaningful for plain regression targets
        return PointEval(raw_params, train_mse, test_mse, zero_one, p_train, p_test)


# --------------------------------------------------------------------------- rff linear


class RffLinearFamily(_FamilyBase):
    """Principal-component regression on a growing random cosine design.

    The train and test cosine designs are standardized once, with train
    statistics, into caches in shared memory. The parent only builds the
    frequency map, which draws no row; each prefit task draws its own
    ``rff.BLOCK`` of rows, writes (Phi - mean) / scale for that block of
    columns in place into both caches and sends back only the block's
    means, scales and kept mask. The caches are as wide as the sweep's
    widest point: the last block is computed, with its statistics, in full
    and only its first columns are written. A dropped column is cached with
    scale 1, finite but never read: a point selects the kept columns. A
    point fits on column prefixes of the standardized caches, neither
    copied nor standardized again: every statistic is per column, so a
    prefix holds what standardizing that prefix alone would give.

    A point never forms its (n, n) hat matrix or (m, n) test weights, and
    it holds one design at a time. It solves for the coefficients, predicts
    the training rows, squares the training design in place for p_train and
    frees it; only then does it project the test prefix onto the fit's
    components, predict through the coefficients and square the test
    design in place for p_test. Both come from the squared norms that the
    orthogonal columns of [Z, 1] give in closed form; p_train is summed
    from the training design, not assumed to be the rank.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, threads)
        for i, (p_pc, _) in enumerate(states):
            if p_pc > train.n - 1:
                raise ScheduleError(
                    f"p_pc={p_pc} exceeds n-1={train.n - 1}", point_index=i
                )
        p_widest = max(p_pc + p_ex for p_pc, p_ex in states)
        # a map of whole transform blocks, so every cached column comes from
        # a full-width block whatever the sweep's widest point is; the
        # caches hold only the columns up to the widest point
        p_blocks = -(-p_widest // BLOCK) * BLOCK
        self.fmap = sample_frequencies(shared.base_seed, p_blocks, train.d, shared.rff_scale)
        self.Xs_train = _shared_zeros(train.n, p_widest)
        self.Xs_test = _shared_zeros(test.n, p_widest)
        self.kept = None  # the kept mask of every cached column, once stored

    def prefit_tasks(self):
        if self.kept is not None:
            return []
        starts = range(0, self.Xs_train.shape[1], BLOCK)
        return [functools.partial(self._prefit, start) for start in starts]

    def _prefit(self, start):
        cols = slice(start, start + BLOCK)
        # the whole block and its statistics, whose bits depend on its
        # width, but only the first w columns, those the caches hold
        Phi = feature_block(self.fmap, self.train.features, start)
        w = self.Xs_train[:, cols].shape[1]
        mean, scale, kept = (a[:w] for a in column_scales(Phi))
        Phi_test = feature_block(self.fmap, self.test.features, start)
        for cache, block in ((self.Xs_train, Phi), (self.Xs_test, Phi_test)):
            out = np.subtract(block[:, :w], mean, out=cache[:, cols])
            out /= scale
        return mean[kept], scale[kept], kept

    def store(self, results):
        """Store the blocks' statistics, joined in column order, and drop the
        frequency map: every block is cached, so the evaluation workers
        need not inherit it or any rows it drew."""
        self.mean, self.std, self.kept = map(np.concatenate, zip(*results))
        del self.fmap

    def evaluate(self, p_pc: int, p_ex: int) -> PointEval:
        p_phi = p_pc + p_ex
        kept = self.kept[:p_phi]
        q = int(np.count_nonzero(kept))  # kept columns come first in mean, std
        sm = pcr_smoother(self.Xs_train[:, :p_phi], p_pc,
                          scaling=(self.mean[:q], self.std[:q], kept))
        beta, n = sm.coefficients(self.Y_train), self.train.n
        # finish the training side and free its design before the test
        # design exists; sq_norms squares each design in place
        A, sm.train_design = sm.train_design, None
        preds_train = A @ beta
        p_train = p_eff_of_sq_norms(sm.sq_norms(A), n)
        del A
        Xs_test = self.Xs_test[:, :p_phi]
        A0 = sm.standardized_design(Xs_test if q == p_phi else Xs_test[:, kept])
        preds_test = A0 @ beta
        return self._point(p_phi, preds_train, preds_test, p_train,
                           p_eff_of_sq_norms(sm.sq_norms(A0), n))


def _shared_zeros(*shape: int) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: writes from
    processes forked after it is made reach the parent's pages."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)


# --------------------------------------------------------------------------- averaged members


#: training or test rows per row-block task; a row's weights and squared
#: norm are the same bits in any block
ROW_BLOCK = 128


class MemberRecord(NamedTuple):
    """A (class, member)'s fitted trees, in fit order: one per leaf budget of
    a tree member, one per round of a boosted one. A tree is its leaf
    partition, so it is kept as its training and test leaf ids, each in the
    narrowest unsigned dtype that holds its leaf count, and its 1-D leaf
    values; its predictions and weight rows follow from those."""

    train_lids: list
    test_lids: list
    values: list


def _record(trees, X_test) -> MemberRecord:
    """The ``MemberRecord`` of fitted trees, whose test inputs are X_test."""
    dtypes = [np.min_scalar_type(tree.n_leaves - 1) for tree in trees]
    return MemberRecord(
        [tree.train_leaf.astype(dtype) for tree, dtype in zip(trees, dtypes)],
        [tree.leaf_ids(X_test).astype(dtype) for tree, dtype in zip(trees, dtypes)],
        [tree.leaf_values for tree in trees],
    )


class _MemberFamily(_FamilyBase):
    """Trees or boosted runs of seeded members, one per one-vs-all class;
    a point (a1, p_ens) averages members 1 .. p_ens, so member m is needed
    at ``a1_values[m]``, the a1 values the schedule pairs with a p_ens of
    at least m. Two prefit stages, then nothing more to prefit:

    Members. ``_members`` holds a ``MemberRecord`` by (class, member), for
    every class: ``evaluate`` forms each member's predictions from it, and
    ``_member_rows`` reads the effparams class's. A member fits every class
    from the same seed, so one ``_fit_members`` task fits a member's
    classes with one shared ``trees.FeatureDraws``, and each feature subset
    is drawn once. Where there are fewer members than pool workers, a
    member's classes are split over several tasks; the draws are the same
    bits in any task.

    Row blocks. ``_p_values`` holds (p_train, p_test) by state. One
    ``_block_sq_norms`` task per ``ROW_BLOCK`` training or test rows adds
    up the members' weight rows of its block in member order, at every
    needed a1, and sends back each row's squared norm of the sum over p_ens
    at every state. ``store`` joins the blocks in row order into p_train
    and p_test, so ``evaluate`` only forms and averages predictions.

    A subclass supplies ``_prefit(c, member, draws)`` -> ``MemberRecord``;
    ``_snapshot(member, record, a1)``, the member's (train predictions,
    test predictions, leaf count) at a1; and ``_member_rows(member, side,
    rows)``, which yields (a1, weight rows) of the member's training or
    test rows ``rows`` at each of its a1 values.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, threads)
        self.order = presort(train.features)  # shared by every prefit fit
        self.states = set(states)
        self.p_ens_max = max(a2 for _, a2 in states)
        self.a1_values = {
            m: sorted({a1 for a1, p_ens in states if p_ens >= m})
            for m in range(1, self.p_ens_max + 1)
        }
        self._blocks = [
            (side, start)
            for side, rows in (("train", train.n), ("test", test.n))
            for start in range(0, rows, ROW_BLOCK)
        ]
        self._members: dict = {}  # (class, member) -> MemberRecord
        self._p_values: dict = {}  # (a1, p_ens) -> (p_train, p_test)

    def prefit_tasks(self):
        if not self._members:
            parts = -(-self.threads // len(self.a1_values))
            return [
                functools.partial(self._fit_members, member, self.classes[i::parts])
                for member in self.a1_values
                for i in range(min(parts, len(self.classes)))
            ]
        if not self._p_values:
            return [functools.partial(self._block_sq_norms, *block) for block in self._blocks]
        return []

    def _fit_members(self, member, classes):
        """{(class, member): MemberRecord} of the member's classes, fitted
        with one shared draw of each feature subset."""
        draws = FeatureDraws()
        return {(c, member): self._prefit(c, member, draws) for c in classes}

    def _block_sq_norms(self, side, start):
        """{(a1, p_ens): squared norms} of the weight rows of training or test
        rows start .. start + ROW_BLOCK, at every state. Member sums are
        added in member order and divided by p_ens before squaring, so a
        row's norm does not depend on its block."""
        rows = slice(start, start + ROW_BLOCK)
        sums, sq_norms = {}, {}
        for member in range(1, self.p_ens_max + 1):
            for a1, W in self._member_rows(member, side, rows):
                sums[a1] = sums[a1] + W if member > 1 else W
                if (a1, member) in self.states:
                    W = sums[a1] / member
                    sq_norms[(a1, member)] = np.sum(W * W, axis=1)
        return sq_norms

    def store(self, results):
        """Store one prefit stage: the members, then p_train and p_test of
        every state from the row blocks' norms, joined in row order."""
        if not self._members:
            for members in results:
                self._members.update(members)
            return
        n = self.train.n
        for state in self.states:
            self._p_values[state] = tuple(
                p_eff_of_sq_norms(np.concatenate(
                    [sq[state] for (s, _), sq in zip(self._blocks, results) if s == side]), n)
                for side in ("train", "test")
            )

    def evaluate(self, a1: int, p_ens: int) -> PointEval:
        # each class's (train, test, leaf count) snapshots, in member order
        snapshots = [[self._snapshot(m, self._members[c, m], a1)
                      for m in range(1, p_ens + 1)] for c in self.classes]
        preds_train, preds_test = (
            np.column_stack([functools.reduce(np.add, (s[side] for s in per_class))
                             for per_class in snapshots]) / p_ens
            for side in (0, 1)
        )
        raw_params = sum(s[2] for s in snapshots[self.weights_class])
        return self._point(raw_params, preds_train, preds_test, *self._p_values[(a1, p_ens)])


class TreeFamily(_MemberFamily):
    """Best-first trees averaged over independently seeded members.

    A task fits one member's classes at each of its leaf budgets and sends
    back each class's record: one tree per budget. A member's predictions
    at a budget are that tree's leaf values at its leaf ids; its weight
    rows of a row block are the tree's leaf rows, whose leaf counts are
    counted from the training leaf ids, at the block's leaf ids.
    """

    def _prefit(self, c, member, draws):
        trees = [
            fit_tree(
                self.train.features,
                self.Y_train[:, c],
                budget,
                seed=self.shared.base_seed + member,
                subset_size=self.shared.tree_subset,
                order=self.order,
                draws=draws,
            )
            for budget in self.a1_values[member]
        ]
        return _record(trees, self.test.features)

    def _snapshot(self, member, record, budget):
        i = self.a1_values[member].index(budget)
        values = record.values[i]
        return (values.take(record.train_lids[i]), values.take(record.test_lids[i]),
                values.size)

    def _member_rows(self, member, side, rows):
        record = self._members[self.weights_class, member]
        for budget, train_lids, test_lids in zip(self.a1_values[member], record.train_lids,
                                                 record.test_lids):
            query = train_lids if side == "train" else test_lids
            yield budget, leaf_rows(train_lids, np.bincount(train_lids))[query[rows]]


class BoostFamily(_MemberFamily):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the member's largest round
    count in ``a1_values``; shorter points read round prefixes, which are
    identical bit for bit because round p is seeded by (member seed, p). A
    run sends back its record: one tree per round. ``evaluate`` sums a
    member's first p rounds from zeros with ``boosting.boosted_predictions``,
    as ``BoostedModel.predictions_from_leaf_ids`` does, and reads its leaf
    count off the rounds' leaf values. The effparams class's run also walks
    its recursion once with ``weight_steps`` and writes each round's step
    lr * (W_p - R_p) into ``steps``, an array in shared memory; a row block
    steps its rows through a member's rounds by adding the step rows at
    their leaf ids.

    A training block steps rows that ``weight_steps`` has stepped already.
    Keeping each member's training state at every a1 for the blocks would
    hold members x |a1| x n^2 floats: 58 MB at desk scale (10 x 8 x 300^2
    x 8 B) and 640 MB at full scale. Stepping them again costs the 300
    training rows among the 900 rows of the desk blocks.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, states, threads)
        # lr * (W_p - R_p) of each effparams member and round, zero past the
        # tree's leaves; member 1 runs the most rounds
        self.steps = _shared_zeros(
            self.p_ens_max, max(self.a1_values[1]), shared.boost_leaf_budget, train.n
        )

    def _prefit(self, c, member, draws):
        lr = self.shared.learning_rate
        model = fit_boost(
            self.train.features,
            self.Y_train[:, c],
            n_rounds=max(self.a1_values[member]),
            learning_rate=lr,
            leaf_budget=self.shared.boost_leaf_budget,
            seed=self.shared.base_seed + member,
            stop_tol=None,
            subset_size=self.shared.tree_subset,
            order=self.order,
            draws=draws,
        )
        if c == self.weights_class:  # weights only for the class they are read from
            walk = weight_steps(model.train_leaf_ids, lr, self.train.n)
            for p, (W, R, _) in enumerate(walk):
                self.steps[member - 1, p, :len(R)] = lr * (W - R)
        return _record(model.trees, self.test.features)

    def _snapshot(self, member, record, rounds):
        lr, values = self.shared.learning_rate, record.values[:rounds]
        return (boosted_predictions(values, record.train_lids, lr, self.train.n),
                boosted_predictions(values, record.test_lids, lr, self.test.n),
                sum(v.size for v in values))

    def _member_rows(self, member, side, rows):
        record = self._members[self.weights_class, member]
        queries = record.train_lids if side == "train" else record.test_lids
        acc = np.zeros((len(queries[0][rows]), self.train.n))
        for p, (step, query) in enumerate(zip(self.steps[member - 1], queries), start=1):
            acc = acc + step[query[rows]]
            if p in self.a1_values[member]:
                yield p, acc


FAMILY_RUNNERS = {
    "rff_linear": RffLinearFamily,
    "tree": TreeFamily,
    "boosting": BoostFamily,
}
