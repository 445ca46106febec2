"""Per-family point evaluators behind the sweep engine.

A family adapter prepares whatever is shared across a sweep (feature caches,
prefit trees, boosted runs) and then evaluates individual (axis1, axis2)
points. Evaluation is a pure function of the axis values and the shared
config — never of the schedule position — so composite sweeps, grids and
contour branches that visit the same point produce bit-identical records.

Multiclass data is handled one-vs-all: C binary {0,1} tasks share the inputs,
squared losses are summed across tasks, and the 0-1 error takes the argmax
over per-class predictions. Effective parameters are read from the sub-task
picked by shared.effparams_class (weights of linear smoothers are the same
for every task; trees and boosting adapt to their targets).
"""
from __future__ import annotations

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
    #: whether evaluate() calls may be dispatched concurrently
    parallel_points = False

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

    def prefit_tasks(self):
        return []

    def store(self, key, value):  # pragma: no cover - only fitted families store
        raise NotImplementedError

    def _errors(self, preds_train, preds_test) -> tuple[float, float, float]:
        train_mse = float(np.mean(np.sum((preds_train - self.Y_train) ** 2, axis=1)))
        test_mse = float(np.mean(np.sum((preds_test - self.Y_test) ** 2, axis=1)))
        if self.n_classes:
            picked = np.argmax(preds_test, axis=1)
            zero_one = float(np.mean(picked != self.test.class_labels))
        else:
            zero_one = 0.0  # not meaningful for plain regression targets
        return train_mse, test_mse, zero_one


# --------------------------------------------------------------------------- rff linear


class RffLinearFamily(_FamilyBase):
    """Principal-component regression on a growing random cosine design."""

    parallel_points = True

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
        tr, te, zo = self._errors(W_train @ self.Y_train, W_test @ self.Y_train)
        n = self.train.n
        return PointEval(
            raw_params=p_phi,
            train_mse=tr,
            test_mse=te,
            test_zero_one=zo,
            p_train=p_eff(W_train, n),
            p_test=p_eff(W_test, n),
        )


# --------------------------------------------------------------------------- trees


class TreeFamily(_FamilyBase):
    """Best-first trees averaged over independently seeded members."""

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit tree
        self._cache: dict[tuple[int, int, int], dict] = {}
        self._needed = sorted(
            {
                (c, member, budget)
                for budget, k in states
                for member in range(1, k + 1)
                for c in range(max(1, self.n_classes))
            }
        )

    def prefit_tasks(self):
        def make(key):
            c, member, budget = key

            def task():
                y = self.Y_train[:, c]
                tree = fit_tree(
                    self.train.features,
                    y,
                    budget,
                    seed=self.shared.base_seed + member,
                    subset_size=self.shared.tree_subset,
                    order=self.order,
                )
                return key, {
                    "tree": tree,
                    "test_lids": tree.leaf_ids(self.test.features),
                }

            return task

        return [make(k) for k in self._needed if k not in self._cache]

    def store(self, key, value):
        self._cache[key] = value

    def evaluate(self, p_leaf: int, p_ens: int) -> PointEval:
        n, m = self.train.n, self.test.n
        C = max(1, self.n_classes)
        preds_train = np.zeros((n, C))
        preds_test = np.zeros((m, C))
        raw_params = 0
        p_train = p_test = 0.0
        for c in range(C):
            for member in range(1, p_ens + 1):
                entry = self._cache[(c, member, p_leaf)]
                tree = entry["tree"]
                preds_train[:, c] += tree.leaf_values[tree.train_leaf]
                preds_test[:, c] += tree.leaf_values[entry["test_lids"]]
            preds_train[:, c] /= p_ens
            preds_test[:, c] /= p_ens
        cls = self.shared.effparams_class if self.n_classes else 0
        W_train = np.zeros((n, n))
        W_test = np.zeros((m, n))
        for member in range(1, p_ens + 1):
            entry = self._cache[(cls, member, p_leaf)]
            tree = entry["tree"]
            rows = tree.leaf_weight_rows()
            W_train += rows[tree.train_leaf]
            W_test += rows[entry["test_lids"]]
            raw_params += tree.n_leaves
        W_train /= p_ens
        W_test /= p_ens
        tr, te, zo = self._errors(preds_train, preds_test)
        return PointEval(
            raw_params=raw_params,
            train_mse=tr,
            test_mse=te,
            test_zero_one=zo,
            p_train=p_eff(W_train, n),
            p_test=p_eff(W_test, n),
        )


# --------------------------------------------------------------------------- boosting


class BoostFamily(_FamilyBase):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the largest round count the
    schedule needs; shorter points reuse round prefixes, which are identical
    bit for bit because round p is seeded by (member seed, p).
    """

    def __init__(self, train, test, shared, states):
        super().__init__(train, test, shared)
        self.order = presort(train.features)  # shared by every prefit run
        self.r_max = max(a1 for a1, _ in states)
        self.e_max = max(a2 for _, a2 in states)
        self._runs: dict[tuple[int, int], dict] = {}
        self._needed = sorted(
            (c, member)
            for member in range(1, self.e_max + 1)
            for c in range(max(1, self.n_classes))
        )

    def prefit_tasks(self):
        def make(key):
            c, member = key

            def task():
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
                test_lids = [t.leaf_ids(self.test.features) for t in model.trees]
                return key, {"model": model, "test_lids": test_lids}

            return task

        return [make(k) for k in self._needed if k not in self._runs]

    def store(self, key, value):
        self._runs[key] = value

    def evaluate(self, p_boost: int, p_ens: int) -> PointEval:
        n, m = self.train.n, self.test.n
        C = max(1, self.n_classes)
        preds_train = np.zeros((n, C))
        preds_test = np.zeros((m, C))
        raw_params = 0
        for c in range(C):
            for member in range(1, p_ens + 1):
                entry = self._runs[(c, member)]
                model = entry["model"]
                preds_train[:, c] += model.train_predictions(upto=p_boost)
                preds_test[:, c] += model.predictions_from_leaf_ids(
                    entry["test_lids"][:p_boost], m
                )
            preds_train[:, c] /= p_ens
            preds_test[:, c] /= p_ens
        cls = self.shared.effparams_class if self.n_classes else 0
        if p_ens == 1:
            entry = self._runs[(cls, 1)]
            model = entry["model"]
            p_train = model.p_train_history[p_boost - 1]
            W_test = model.weights_from_leaf_ids(entry["test_lids"][:p_boost], m)
            raw_params = sum(t.n_leaves for t in model.trees[:p_boost])
        else:
            S_train = np.zeros((n, n))
            W_test = np.zeros((m, n))
            raw_params = 0
            for member in range(1, p_ens + 1):
                entry = self._runs[(cls, member)]
                model = entry["model"]
                S_train += model.train_weight_matrix(upto=p_boost)
                W_test += model.weights_from_leaf_ids(entry["test_lids"][:p_boost], m)
                raw_params += sum(t.n_leaves for t in model.trees[:p_boost])
            S_train /= p_ens
            W_test /= p_ens
            p_train = float(np.einsum("ij,ij->", S_train, S_train))
        tr, te, zo = self._errors(preds_train, preds_test)
        return PointEval(
            raw_params=raw_params,
            train_mse=tr,
            test_mse=te,
            test_zero_one=zo,
            p_train=float(p_train),
            p_test=p_eff(W_test, n),
        )


FAMILY_RUNNERS = {
    "rff_linear": RffLinearFamily,
    "tree": TreeFamily,
    "boosting": BoostFamily,
}
