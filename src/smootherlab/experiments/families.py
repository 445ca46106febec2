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
family's points in its process pool. An rff_linear point forms no weight
rows: its p0 values are sums over the projection coefficients of its train
and test designs (``linear.PcrSmoother.sq_norms``).

A tree or boosting point averages its seeded members' predictions and
weight rows, and both p_train and p_test are p0 of the averaged rows. The
one-vs-all classes of a member share its seed, hence its trees' feature
draws, so one prefit task fits a member's classes (per leaf budget, for
trees) and draws each feature subset once for all of them.
Boosting computes weights only for the class they are read from, in two
prefit rounds. A member's task sends back prediction snapshots and, for that
class only, the per-round train and test leaf ids; its member's recursion is
stepped through once by ``boosting.weight_steps``, whose per-round
corrections go to an array in shared memory. Then one task per block of
training or test rows steps its rows through every member's rounds, with
running member sums at every needed round count, and sends back each row's
squared norm per point. No task sends back weight rows or the n×n state;
the parent only joins the blocks' norms into p0.

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

import numpy as np

from ..boosting import _round_step, fit_boost, weight_steps
from ..dataset import Dataset, one_vs_all_targets
from ..effparams import p_eff, p_eff_of_sq_norms
from ..errors import ScheduleError, ValidationError
from ..linear import pcr_smoother, standardize
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
    """Shared data and the prefit protocol.

    A fitted family lists the keys it needs in ``_needed`` and fits one with
    ``_prefit(key) -> (key, value)``. The sweep prefits in rounds: it runs
    ``prefit_tasks()`` in its pool and hands that round's list of results to
    ``store``, until ``prefit_tasks()`` is empty. ``store`` may list more
    keys, whose tasks read the stored results (boosting's row blocks).
    ``threads`` is the size of the sweep's pool.
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

    A point never forms its (n, n) hat matrix or (m, n) test weights. It
    projects the test prefix onto the fit's components, predicts through
    the coefficients, and takes p_train and p_test from the squared norms
    that the orthogonal columns of [Z, 1] give in closed form; p_train is
    summed from the training design, not assumed to be the rank.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, threads)
        for i, (p_pc, _) in enumerate(states):
            if p_pc > train.n - 1:
                raise ScheduleError(
                    f"p_pc={p_pc} exceeds n-1={train.n - 1}", point_index=i
                )
        p_needed = max(p_pc + p_ex for p_pc, p_ex in states)
        # whole transform blocks, so every cached column comes from a
        # full-width block whatever the sweep's widest point is
        p_cache = -(-p_needed // BLOCK) * BLOCK
        self.fmap = sample_frequencies(shared.base_seed, p_cache, train.d, shared.rff_scale)
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
        """Store the blocks' statistics, joined in column order, and drop the
        frequency bank: every block is cached, so the evaluation workers
        need not inherit it."""
        super().store(results)
        blocks = (self._cache[start] for start in self._needed)
        self.mean, self.std, self.kept = map(np.concatenate, zip(*blocks))
        del self.fmap

    def evaluate(self, p_pc: int, p_ex: int) -> PointEval:
        p_phi = p_pc + p_ex
        kept = self.kept[:p_phi]
        q = int(np.count_nonzero(kept))  # kept columns come first in mean, std
        sm = pcr_smoother(self.Xs_train[:, :p_phi], p_pc,
                          scaling=(self.mean[:q], self.std[:q], kept))
        Xs_test = self.Xs_test[:, :p_phi]
        A = sm.train_design
        A0 = sm.standardized_design(Xs_test if q == p_phi else Xs_test[:, kept])
        beta, n = sm.coefficients(self.Y_train), self.train.n
        return self._point(p_phi, A @ beta, A0 @ beta,
                           p_eff_of_sq_norms(sm.sq_norms(A), n),
                           p_eff_of_sq_norms(sm.sq_norms(A0), n))


def _shared_zeros(*shape: int) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: writes from
    processes forked after it is made reach the parent's pages."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)


# --------------------------------------------------------------------------- averaged members


def _sums(parts):
    """Elementwise sums of tuples of arrays, added in the order given."""
    return functools.reduce(lambda acc, part: tuple(a + b for a, b in zip(acc, part)), parts)


def _mean_predictions(per_class, p_ens):
    """Train and test predictions, (n, C) and (m, C), from each class's
    iterable of member (train, test) prediction pairs, summed in member order."""
    return (np.column_stack(p) / p_ens for p in zip(*(_sums(m) for m in per_class)))


class _MemberFamily(_FamilyBase):
    """Trees or boosted runs of seeded members, one per one-vs-all class.

    A member fits every class from the same seed, so its classes' trees draw
    the same feature subsets. One prefit task fits a member's classes (per
    leaf budget, for trees) and shares one ``trees.FeatureDraws`` among
    them, so each subset is drawn once; a task sends back a list of
    (key, value) pairs. Where there are fewer such tasks than pool workers,
    each member's classes are split over several tasks, so that the prefit
    still fills the pool; the draws are the same bits in any task.
    """

    def __init__(self, train, test, shared, threads=1):
        super().__init__(train, test, shared, threads)
        self.order = presort(train.features)  # shared by every prefit fit

    def _task_of(self, key):
        """The task a key is fit in: a run key's member (and budget)."""
        return key[1:]

    def prefit_tasks(self):
        tasks: dict = {}
        for key in self._needed:
            if key not in self._cache:
                tasks.setdefault(self._task_of(key), []).append(key)
        parts = -(-self.threads // max(1, len(tasks)))
        return [
            functools.partial(self._prefit_keys, keys[i::parts])
            for keys in tasks.values()
            for i in range(min(parts, len(keys)))
        ]

    def _prefit_keys(self, keys):
        draws = FeatureDraws()
        return [self._prefit(key, draws) for key in keys]

    def store(self, results):
        super().store(pair for pairs in results for pair in pairs)


class TreeFamily(_MemberFamily):
    """Best-first trees averaged over independently seeded members.

    A point averages p_ens seeded members, per one-vs-all class. The mean of
    the members' weight rows is the ensemble's smoother, so p_train and
    p_test both come from p_eff. A prefit task fits one member's classes at
    one leaf budget, with shared feature draws.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, threads)
        self._needed = sorted(
            {
                (c, member, budget)
                for budget, k in states
                for member in range(1, k + 1)
                for c in self.classes
            }
        )

    def _prefit(self, key, draws):
        c, member, budget = key
        tree = fit_tree(
            self.train.features,
            self.Y_train[:, c],
            budget,
            seed=self.shared.base_seed + member,
            subset_size=self.shared.tree_subset,
            order=self.order,
            draws=draws,
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


#: training or test rows per stage-2 boosting task; a row's weights and
#: squared norm are the same bits in any block
ROW_BLOCK = 128


class BoostFamily(_MemberFamily):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the largest round count the
    schedule needs; shorter points read round prefixes, which are identical
    bit for bit because round p is seeded by (member seed, p). One prefit
    task fits a member's runs, every class's round-p tree reading the same
    shared feature draws. A run sends back only what evaluation reads: the
    member's train and test predictions and its cumulative leaf count at
    each needed round count, and, for the effparams class only, the
    per-round train and test leaf ids.

    p0 is read off the weights in two stages, both in the sweep's pool. In
    stage 1 each member's effparams-class run walks its recursion once
    with ``weight_steps`` and writes every round's corrections R_p into
    ``corrections``, an array in shared memory. Once the runs are stored,
    the family asks for a second prefit round: one task per ``ROW_BLOCK``
    training or test rows. Stage 2 steps its block through every member's
    rounds, in member order, with W_p rebuilt from the leaf ids and R_p read
    from ``corrections``, keeps running member sums at the needed round
    counts, and sends back only each row's squared norm at every state.
    ``store`` joins the blocks in row order into p_train and p_test, so
    ``evaluate`` only averages snapshots. A row's float operations do not
    depend on its block.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, threads)
        self.states = set(states)
        self.p_boosts = {a1 for a1, _ in states}
        self.p_ens_max = max(a2 for _, a2 in states)
        self._needed = sorted(
            (c, member) for member in range(1, self.p_ens_max + 1) for c in self.classes
        )
        self._blocks = [
            (side, start)
            for side, rows in (("train", train.n), ("test", test.n))
            for start in range(0, rows, ROW_BLOCK)
        ]
        # R_p of each effparams member and round, zero past the tree's leaves
        self.corrections = _shared_zeros(
            self.p_ens_max, max(self.p_boosts), shared.boost_leaf_budget, train.n
        )
        self._p_values: dict = {}  # (p_boost, p_ens) -> (p_train, p_test)

    def _task_of(self, key):
        return key if key in self._blocks else key[1:]

    def _prefit(self, key, draws):
        if key in self._blocks:
            return key, self._block_sq_norms(*key)
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
            draws=draws,
        )
        train_lids = model.train_leaf_ids
        test_lids = [t.leaf_ids(self.test.features) for t in model.trees]
        snapshots = {
            p: (model.predictions_from_leaf_ids(train_lids[:p], self.train.n),
                model.predictions_from_leaf_ids(test_lids[:p], self.test.n),
                sum(t.n_leaves for t in model.trees[:p]))
            for p in self.p_boosts
        }
        if c != self.weights_class:
            return key, (snapshots, None)
        # stage 1: weights only for the class they are read from
        steps = weight_steps(train_lids, self.shared.learning_rate, self.train.n)
        for p, (_, R, _) in enumerate(steps):
            self.corrections[member - 1, p, :len(R)] = R
        return key, (snapshots, (train_lids, test_lids))

    def _block_sq_norms(self, side, start):
        """Stage 2: {(p_boost, p_ens): squared norms} of the weight rows of
        training or test rows start .. start + ROW_BLOCK, at every state."""
        n, lr = self.train.n, self.shared.learning_rate
        rows = slice(start, start + ROW_BLOCK)
        sums, sq_norms = {}, {}
        for member in range(1, self.p_ens_max + 1):
            train_lids, test_lids = self._cache[(self.weights_class, member)][1]
            queries = train_lids if side == "train" else test_lids
            acc = np.zeros((len(queries[0][rows]), n))
            for p, (lids, query) in enumerate(zip(train_lids, queries), start=1):
                W = leaf_rows(lids, np.bincount(lids))
                R = self.corrections[member - 1, p - 1, :len(W)]
                acc = _round_step(acc, W, R, query[rows], lr)
                if p in self.p_boosts:
                    sums[p] = sums[p] + acc if member > 1 else acc
            for p_boost in self.p_boosts:
                if (p_boost, member) in self.states:
                    W = sums[p_boost] / member
                    sq_norms[(p_boost, member)] = np.sum(W * W, axis=1)
        return sq_norms

    def store(self, results):
        """Store one prefit round. After the runs, ask for the row blocks;
        after the blocks, record p_train and p_test of every state."""
        super().store(results)
        if self._blocks[0] not in self._cache:
            self._needed += self._blocks
            return
        n = self.train.n
        for state in self.states:
            train_sq, test_sq = (
                np.concatenate([self._cache[key][state] for key in self._blocks
                                if key[0] == side])
                for side in ("train", "test")
            )
            self._p_values[state] = (p_eff_of_sq_norms(train_sq, n),
                                     p_eff_of_sq_norms(test_sq, n))

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
