"""Per-family point evaluators behind the sweep engine.

A family adapter prepares whatever is shared across a sweep (feature caches,
prefit trees, boosted runs) and then evaluates individual (axis1, axis2)
points. Evaluation is a pure function of the axis values and the shared
config — never of the schedule position — so composite sweeps, grids and
contour branches that visit the same point produce bit-identical records,
and the sweep can run every family's points in its process pool.

Tree and boosting points share one evaluate: a point averages its seeded
members' predictions and weight rows, and both p_train and p_test are p_eff
of the averaged rows.

Multiclass data is handled one-vs-all: C binary {0,1} tasks share the inputs,
squared losses are summed across tasks, and the 0-1 error takes the argmax
over per-class predictions. Effective parameters are read from the sub-task
picked by shared.effparams_class (weights of linear smoothers are the same
for every task; trees and boosting adapt to their targets).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..boosting import fit_boost
from ..dataset import Dataset, one_vs_all_targets
from ..effparams import p_eff
from ..errors import ScheduleError, ValidationError
from ..linear import pcr_smoother
from ..rff import BLOCK, sample_frequencies, transform
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
    its pool and hands each result back through ``store``.
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
        self.Y_train = one_vs_all_targets(train, self.n_classes)
        self.Y_test = one_vs_all_targets(test, self.n_classes)
        self._needed: list = []
        self._cache: dict = {}

    def prefit_tasks(self):
        missing = [key for key in self._needed if key not in self._cache]
        return [functools.partial(self._prefit, key) for key in missing]

    def store(self, key, value):
        self._cache[key] = value

    def _point(self, raw_params, preds_train, preds_test, W_train, W_test) -> PointEval:
        """A point's record: the errors of its predictions, p0 of its weight rows."""
        train_mse = float(np.mean(np.sum((preds_train - self.Y_train) ** 2, axis=1)))
        test_mse = float(np.mean(np.sum((preds_test - self.Y_test) ** 2, axis=1)))
        if self.n_classes:
            picked = np.argmax(preds_test, axis=1)
            zero_one = float(np.mean(picked != self.test.class_labels))
        else:
            zero_one = 0.0  # not meaningful for plain regression targets
        n = self.train.n
        return PointEval(raw_params, train_mse, test_mse, zero_one,
                         p_eff(W_train, n), p_eff(W_test, n))


# --------------------------------------------------------------------------- rff linear


class RffLinearFamily(_FamilyBase):
    """Principal-component regression on a growing random cosine design."""

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
        self.Phi_train = transform(self.fmap, train.features, p_cache)
        self.Phi_test = transform(self.fmap, test.features, p_cache)

    def evaluate(self, p_pc: int, p_ex: int) -> PointEval:
        p_phi = p_pc + p_ex
        sm = pcr_smoother(self.Phi_train[:, :p_phi], p_pc)
        W_train = sm.hat_matrix()
        W_test = sm.weight_matrix(self.Phi_test[:, :p_phi])
        Y = self.Y_train
        return self._point(p_phi, W_train @ Y, W_test @ Y, W_train, W_test)


# --------------------------------------------------------------------------- averaged members


def _sums(parts):
    """Elementwise sums of tuples of arrays, added in the order given."""
    return functools.reduce(lambda acc, part: tuple(a + b for a, b in zip(acc, part)), parts)


class _AveragedFamily(_FamilyBase):
    """A point averages p_ens seeded members, per one-vs-all class.

    Subclasses give one member's train and test predictions,
    ``_predictions(c, member, a1)``, and its train and test weight rows plus
    its raw parameter count, ``_weights(c, member, a1)``. The mean of the
    members' weight rows is the ensemble's smoother, so p_train and p_test
    both come from p_eff.
    """

    def evaluate(self, a1: int, p_ens: int) -> PointEval:
        members = range(1, p_ens + 1)
        per_class = [
            _sums(self._predictions(c, member, a1) for member in members)
            for c in range(max(1, self.n_classes))
        ]
        preds_train, preds_test = (np.column_stack(p) / p_ens for p in zip(*per_class))
        cls = self.shared.effparams_class if self.n_classes else 0
        W_train, W_test, raw_params = _sums(
            self._weights(cls, member, a1) for member in members
        )
        return self._point(raw_params, preds_train, preds_test,
                           W_train / p_ens, W_test / p_ens)


class TreeFamily(_AveragedFamily):
    """Best-first trees averaged over independently seeded members."""

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit tree
        self._needed = sorted(
            {
                (c, member, budget)
                for budget, k in states
                for member in range(1, k + 1)
                for c in range(max(1, self.n_classes))
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

    def _weights(self, c, member, p_leaf):
        tree, test_lids = self._cache[(c, member, p_leaf)]
        rows = tree.leaf_weight_rows()
        return rows[tree.train_leaf], rows[test_lids], tree.n_leaves


class BoostFamily(_AveragedFamily):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the largest round count the
    schedule needs; shorter points reuse round prefixes, which are identical
    bit for bit because round p is seeded by (member seed, p).
    """

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit run
        self.r_max = max(a1 for a1, _ in states)
        self._needed = sorted(
            (c, member)
            for member in range(1, max(a2 for _, a2 in states) + 1)
            for c in range(max(1, self.n_classes))
        )

    def _prefit(self, key):
        c, member = key
        model = fit_boost(
            self.train.features,
            self.Y_train[:, c],
            n_rounds=self.r_max,
            learning_rate=self.shared.learning_rate,
            leaf_budget=self.shared.boost_leaf_budget,
            seed=self.shared.base_seed + member,
            stop_tol=None,
            subset_size=self.shared.tree_subset,
            order=self.order,
        )
        return key, (model, [t.leaf_ids(self.test.features) for t in model.trees])

    def _predictions(self, c, member, p_boost):
        model, test_lids = self._cache[(c, member)]
        return (
            model.train_predictions(upto=p_boost),
            model.predictions_from_leaf_ids(test_lids[:p_boost], self.test.n),
        )

    def _weights(self, c, member, p_boost):
        model, test_lids = self._cache[(c, member)]
        return (
            model.train_weight_matrix(upto=p_boost),
            model.weights_from_leaf_ids(test_lids[:p_boost], self.test.n),
            sum(t.n_leaves for t in model.trees[:p_boost]),
        )


FAMILY_RUNNERS = {
    "rff_linear": RffLinearFamily,
    "tree": TreeFamily,
    "boosting": BoostFamily,
}
