"""Per-family point evaluators behind the sweep engine.

A family adapter prepares whatever is shared across a sweep (feature caches,
prefit trees, boosted runs) and then evaluates individual (axis1, axis2)
points. Preparation runs as prefit tasks in the sweep's pool. An rff_linear
task computes one ``rff.BLOCK`` of cosine columns, standardizes it with
train statistics, writes it into train and test caches in shared memory
and sends back only the block's per-column means, scales and kept mask; a
point fits PCR on column prefixes of those caches. Evaluation is a pure
function of the axis values and the shared config — never of the schedule
position — so composite sweeps, grids and contour branches that visit the
same point produce bit-identical records, and the sweep can run every
family's points in its process pool.

A tree or boosting point averages its seeded members' predictions and
weight rows, and both p_train and p_test are p_eff of the averaged rows.
Boosting computes weights only for the class they are read from, in one
forward pass when its prefit results are stored: each member's rounds are
stepped through once by ``boosting.weight_steps``, and running member sums at
every needed round count give every point's p0. Its prefit tasks send back
prediction snapshots and, for that class only, the per-round train and test
leaf ids; no weight rows and never the n×n state.

Multiclass data is handled one-vs-all: C binary {0,1} tasks share the inputs,
squared losses are summed across tasks, and the 0-1 error takes the argmax
over per-class predictions. Effective parameters are read from the sub-task
picked by shared.effparams_class (weights of linear smoothers are the same
for every task; trees and boosting adapt to their targets).
"""
from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np

from ..boosting import _round_step, fit_boost, weight_steps
from ..dataset import Dataset, one_vs_all_targets
from ..effparams import p_eff
from ..errors import ScheduleError, ValidationError
from ..linear import pcr_smoother, standardize
from ..rff import BLOCK, feature_block, sample_frequencies
from ..trees import fit_tree, presort


@dataclass
class PointEval:
    raw_params: int
    train_mse: float
    test_mse: float
    test_zero_one: float
    p_train: float
    p_test: float


class _FamilyBase:
    """Shared data and the prefit protocol.

    A fitted family lists the keys it needs in ``_needed`` and fits one with
    ``_prefit(key) -> (key, value)``; the sweep runs ``prefit_tasks()`` in
    its pool and hands the whole list of results to ``store``.
    """

    #: every family's points run in the pool; kept for perfbench's tracer,
    #: nothing in the package branches on it
    parallel_points = True

    def __init__(self, train: Dataset, test: Dataset, shared):
        if train.d != test.d:
            raise ValidationError(
                f"train d={train.d} and test d={test.d} differ"
            )
        self.train = train
        self.test = test
        self.shared = shared
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
        self._needed: list = []
        self._cache: dict = {}

    def prefit_tasks(self):
        missing = [key for key in self._needed if key not in self._cache]
        return [functools.partial(self._prefit, key) for key in missing]

    def store(self, results):
        self._cache.update(results)

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
    statistics, into caches in shared memory. Each prefit task fills one
    ``rff.BLOCK`` of columns of both caches and sends back only that block's
    means, scales and kept mask. A point fits on column prefixes of the
    standardized caches, neither copied nor standardized again: every
    statistic is per column, so a prefix holds what standardizing that
    prefix alone would give.
    """

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        for i, (p_pc, _) in enumerate(states):
            if p_pc > train.n - 1:
                raise ScheduleError(
                    f"p_pc={p_pc} exceeds n-1={train.n - 1}", point_index=i
                )
        p_needed = max(p_pc + p_ex for p_pc, p_ex in states)
        # whole transform blocks, so every cached column comes from a
        # full-width block whatever the sweep's widest point is
        p_cache = -(-p_needed // BLOCK) * BLOCK
        self.fmap = sample_frequencies(
            shared.resolved_rff_seed(), p_cache, train.d, shared.rff_scale
        )
        self.Xs_train = _shared_zeros(train.n, p_cache)
        self.Xs_test = _shared_zeros(test.n, p_cache)
        self._needed = list(range(0, p_cache, BLOCK))

    def _prefit(self, start):
        cols = slice(start, start + BLOCK)
        Xs, mean, std, kept = standardize(
            feature_block(self.fmap, self.train.features, start)
        )
        self.Xs_train[:, cols][:, kept] = Xs
        Phi_test = feature_block(self.fmap, self.test.features, start)
        self.Xs_test[:, cols][:, kept] = (Phi_test[:, kept] - mean) / std
        return start, (mean, std, kept)

    def store(self, results):
        """Store the blocks' statistics, joined in column order."""
        super().store(results)
        blocks = (self._cache[start] for start in self._needed)
        self.mean, self.std, self.kept = map(np.concatenate, zip(*blocks))

    def evaluate(self, p_pc: int, p_ex: int) -> PointEval:
        p_phi = p_pc + p_ex
        kept = self.kept[:p_phi]
        q = int(np.count_nonzero(kept))  # kept columns come first in mean, std
        sm = pcr_smoother(self.Xs_train[:, :p_phi], p_pc,
                          scaling=(self.mean[:q], self.std[:q], kept))
        Xs_test = self.Xs_test[:, :p_phi]
        W_train = sm.hat_matrix()
        W_test = sm.standardized_weight_matrix(
            Xs_test if q == p_phi else Xs_test[:, kept]
        )
        Y, n = self.Y_train, self.train.n
        return self._point(p_phi, W_train @ Y, W_test @ Y,
                           p_eff(W_train, n), p_eff(W_test, n))


def _shared_zeros(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) float array in anonymous shared memory: writes
    from processes forked after it is made reach the parent's pages."""
    return np.frombuffer(mmap.mmap(-1, rows * cols * 8)).reshape(rows, cols)


# --------------------------------------------------------------------------- averaged members


def _sums(parts):
    """Elementwise sums of tuples of arrays, added in the order given."""
    return functools.reduce(lambda acc, part: tuple(a + b for a, b in zip(acc, part)), parts)


def _mean_predictions(per_class, p_ens):
    """Train and test predictions, (n, C) and (m, C), from each class's
    iterable of member (train, test) prediction pairs, summed in member order."""
    return (np.column_stack(p) / p_ens for p in zip(*(_sums(m) for m in per_class)))


class TreeFamily(_FamilyBase):
    """Best-first trees averaged over independently seeded members.

    A point averages p_ens seeded members, per one-vs-all class. The mean of
    the members' weight rows is the ensemble's smoother, so p_train and
    p_test both come from p_eff.
    """

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit tree
        self._needed = sorted(
            {
                (c, member, budget)
                for budget, k in states
                for member in range(1, k + 1)
                for c in self.classes
            }
        )

    def _prefit(self, key):
        c, member, budget = key
        tree = fit_tree(
            self.train.features,
            self.Y_train[:, c],
            budget,
            seed=self.shared.base_seed + member,
            subset_size=self.shared.tree_subset,
            order=self.order,
        )
        return key, (tree, tree.leaf_ids(self.test.features))

    def _predictions(self, c, member, p_leaf):
        tree, test_lids = self._cache[(c, member, p_leaf)]
        return tree.leaf_values[tree.train_leaf], tree.leaf_values[test_lids]

    def _weights(self, member, p_leaf):
        tree, test_lids = self._cache[(self.weights_class, member, p_leaf)]
        rows = tree.leaf_weight_rows()
        return rows[tree.train_leaf], rows[test_lids], tree.n_leaves

    def evaluate(self, p_leaf: int, p_ens: int) -> PointEval:
        members = range(1, p_ens + 1)
        preds_train, preds_test = _mean_predictions(
            ((self._predictions(c, m, p_leaf) for m in members) for c in self.classes),
            p_ens,
        )
        W_train, W_test, raw_params = _sums(self._weights(m, p_leaf) for m in members)
        n = self.train.n
        return self._point(raw_params, preds_train, preds_test,
                           p_eff(W_train / p_ens, n), p_eff(W_test / p_ens, n))


class BoostFamily(_FamilyBase):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the largest round count the
    schedule needs; shorter points read round prefixes, which are identical
    bit for bit because round p is seeded by (member seed, p). A prefit task
    sends back only what evaluation reads: the member's train and test
    predictions and its cumulative leaf count at each needed round count,
    and, for the effparams class only, the per-round train and test leaf ids.
    ``store`` then walks each of those members' weights forward once and
    records p_train and p_test of every point, so ``evaluate`` only averages
    snapshots.
    """

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit run
        self.states = set(states)
        self.p_boosts = {a1 for a1, _ in states}
        self.p_ens_max = max(a2 for _, a2 in states)
        self._needed = sorted(
            (c, member) for member in range(1, self.p_ens_max + 1) for c in self.classes
        )
        self._p_values: dict = {}  # (p_boost, p_ens) -> (p_train, p_test)

    def _prefit(self, key):
        c, member = key
        model = fit_boost(
            self.train.features,
            self.Y_train[:, c],
            n_rounds=max(self.p_boosts),
            learning_rate=self.shared.learning_rate,
            leaf_budget=self.shared.boost_leaf_budget,
            seed=self.shared.base_seed + member,
            stop_tol=None,
            subset_size=self.shared.tree_subset,
            order=self.order,
        )
        train_lids = model.train_leaf_ids
        test_lids = [t.leaf_ids(self.test.features) for t in model.trees]
        snapshots = {
            p: (model.predictions_from_leaf_ids(train_lids[:p], self.train.n),
                model.predictions_from_leaf_ids(test_lids[:p], self.test.n),
                sum(t.n_leaves for t in model.trees[:p]))
            for p in self.p_boosts
        }
        # store walks the weights, and only for the class they are read from
        lids = (train_lids, test_lids) if c == self.weights_class else None
        return key, (snapshots, lids)

    def store(self, results):
        """Store the prefit results, then walk the weights forward.

        Each effparams-class member's train (n, n) rows, from
        ``weight_steps``, and its test (m, n) rows are stepped through its
        rounds once. At each needed p_boost they are added into that
        p_boost's running member sum; once the member count reaches a
        point's p_ens, p0 of the sum over p_ens is recorded.
        """
        super().store(results)
        n, m, lr = self.train.n, self.test.n, self.shared.learning_rate
        sums = {}
        for member in range(1, self.p_ens_max + 1):
            train_lids, test_lids = self._cache[(self.weights_class, member)][1]
            acc_test = np.zeros((m, n))
            steps = zip(weight_steps(train_lids, lr, n), test_lids)
            for p, ((W, R, acc_train), lids) in enumerate(steps, start=1):
                acc_test = _round_step(acc_test, W, R, lids, lr)
                if p in self.p_boosts:
                    pair = (acc_train, acc_test)
                    sums[p] = _sums([sums[p], pair]) if member > 1 else pair
            for p_boost in self.p_boosts:
                if (p_boost, member) in self.states:
                    W_train, W_test = sums[p_boost]
                    self._p_values[(p_boost, member)] = (
                        p_eff(W_train / member, n), p_eff(W_test / member, n)
                    )

    def evaluate(self, p_boost: int, p_ens: int) -> PointEval:
        members = range(1, p_ens + 1)
        preds_train, preds_test = _mean_predictions(
            ((self._cache[(c, m)][0][p_boost][:2] for m in members) for c in self.classes),
            p_ens,
        )
        raw_params = sum(
            self._cache[(self.weights_class, m)][0][p_boost][2] for m in members
        )
        return self._point(raw_params, preds_train, preds_test,
                           *self._p_values[(p_boost, p_ens)])


FAMILY_RUNNERS = {
    "rff_linear": RffLinearFamily,
    "tree": TreeFamily,
    "boosting": BoostFamily,
}
