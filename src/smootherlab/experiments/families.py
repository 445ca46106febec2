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
families share one path for them (``_MemberFamily``), in two prefit rounds.
The one-vs-all classes of a member share its seed, hence its trees' feature
draws, so one task fits a member's classes at every a1 the member needs,
draws each feature subset once for all of them and sends back prediction
snapshots and, for the effparams class only, leaf ids. Then one task per
block of training or test rows takes every member's weight rows of its
block, keeps running member sums and sends back each row's squared norm per
point. No task sends back weight rows; the parent only joins the blocks'
norms into p0.

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

from ..boosting import fit_boost, weight_steps
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
    """Shared data and the prefit protocol.

    A fitted family lists the keys it needs in ``_needed`` and fits one with
    ``_prefit(key) -> (key, value)``. The sweep prefits in rounds: it runs
    ``prefit_tasks()`` in its pool and hands that round's list of results to
    ``store``, until ``prefit_tasks()`` is empty. ``store`` may list more
    keys, whose tasks read the stored results (the tree and boosting row
    blocks). ``threads`` is the size of the sweep's pool.
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
    statistics, into caches in shared memory. The parent only builds the
    frequency map, which draws no row; each prefit task draws its own
    ``rff.BLOCK`` of rows, writes (Phi - mean) / scale for that block of
    columns in place into both caches and sends back only the block's
    means, scales and kept mask. A dropped column is cached with scale 1,
    finite but never read: a point selects the kept columns. A point fits
    on column prefixes of the standardized caches, neither copied nor
    standardized again: every statistic is per column, so a prefix holds
    what standardizing that prefix alone would give.

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
        Phi = feature_block(self.fmap, self.train.features, start)
        mean, scale, kept = column_scales(Phi)
        Phi_test = feature_block(self.fmap, self.test.features, start)
        for cache, block in ((self.Xs_train, Phi), (self.Xs_test, Phi_test)):
            out = np.subtract(block, mean, out=cache[:, cols])
            out /= scale
        return start, (mean[kept], scale[kept], kept)

    def store(self, results):
        """Store the blocks' statistics, joined in column order, and drop the
        frequency map: every block is cached, so the evaluation workers
        need not inherit it or any rows it drew."""
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


#: training or test rows per row-block task; a row's weights and squared
#: norm are the same bits in any block
ROW_BLOCK = 128


class _MemberFamily(_FamilyBase):
    """Trees or boosted runs of seeded members, one per one-vs-all class;
    a point (a1, p_ens) averages members 1 .. p_ens, so member m is needed
    at ``a1_values[m]``, the a1 values the schedule pairs with a p_ens of
    at least m. Two prefit rounds:

    Members. A prefit key is (class, member). A member fits every class
    from the same seed, so one task fits a member's classes with one shared
    ``trees.FeatureDraws``, and each feature subset is drawn once. Where
    there are fewer such tasks than pool workers, a member's classes are
    split over several tasks; the draws are the same bits in any task. A
    key's value is (snapshots, weights), each a dict by a1: what
    ``_snapshot`` reads and, for the effparams class only, what
    ``_member_rows`` reads.

    Row blocks. One task per ``ROW_BLOCK`` training or test rows adds up the
    members' weight rows of its block in member order, at every needed a1,
    and sends back each row's squared norm of the sum over p_ens at every
    state. ``store`` joins the blocks in row order into p_train and p_test,
    so ``evaluate`` only averages snapshots.

    A subclass supplies ``_prefit(key, draws)`` -> (key, (snapshots,
    weights)), whose snapshots map each a1 of the member to (train
    predictions, test predictions, leaf count); and ``_member_rows(member,
    side, rows)``, which yields (a1, weight rows) of the member's training
    or test rows ``rows`` at each of its a1 values.
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
        self._needed = sorted((c, m) for m in self.a1_values for c in self.classes)
        self._blocks = [
            (side, start)
            for side, rows in (("train", train.n), ("test", test.n))
            for start in range(0, rows, ROW_BLOCK)
        ]
        self._p_values: dict = {}  # (a1, p_ens) -> (p_train, p_test)

    def prefit_tasks(self):
        tasks: dict = {}  # a row block, or a member -> its keys
        for key in self._needed:
            if key not in self._cache:
                tasks.setdefault(key if key in self._blocks else key[1:], []).append(key)
        parts = -(-self.threads // max(1, len(tasks)))
        return [
            functools.partial(self._prefit_keys, keys[i::parts])
            for keys in tasks.values()
            for i in range(min(parts, len(keys)))
        ]

    def _prefit_keys(self, keys):
        draws = FeatureDraws()
        return [
            (key, self._block_sq_norms(*key)) if key in self._blocks
            else self._prefit(key, draws)
            for key in keys
        ]

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
        """Store one prefit round. After the members, ask for the row
        blocks; after the blocks, record p_train and p_test of every state."""
        super().store(pair for pairs in results for pair in pairs)
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

    def _snapshot(self, c, member, a1):
        """(train predictions, test predictions, leaf count) of a member's
        class c at a1."""
        return self._cache[(c, member)][0][a1]

    def evaluate(self, a1: int, p_ens: int) -> PointEval:
        members = range(1, p_ens + 1)
        preds_train, preds_test = _mean_predictions(
            ((self._snapshot(c, m, a1)[:2] for m in members) for c in self.classes),
            p_ens,
        )
        raw_params = sum(self._snapshot(self.weights_class, m, a1)[2] for m in members)
        return self._point(raw_params, preds_train, preds_test, *self._p_values[(a1, p_ens)])


class TreeFamily(_MemberFamily):
    """Best-first trees averaged over independently seeded members.

    A task fits one member's classes at each of its leaf budgets and sends
    back, per budget, each class's train and test predictions and leaf
    count and, for the effparams class, the train and test leaf ids and the
    leaf counts; a member's weight rows of a row block are its leaf rows at
    the block's leaf ids.
    """

    def _prefit(self, key, draws):
        c, member = key
        snapshots, weights = {}, {}
        for budget in self.a1_values[member]:
            tree = fit_tree(
                self.train.features,
                self.Y_train[:, c],
                budget,
                seed=self.shared.base_seed + member,
                subset_size=self.shared.tree_subset,
                order=self.order,
                draws=draws,
            )
            test_lids = tree.leaf_ids(self.test.features)
            snapshots[budget] = (tree.leaf_values[tree.train_leaf],
                                 tree.leaf_values[test_lids], tree.n_leaves)
            weights[budget] = (tree.train_leaf, test_lids, tree.leaf_counts)
        return key, (snapshots, weights if c == self.weights_class else None)

    def _member_rows(self, member, side, rows):
        weights = self._cache[(self.weights_class, member)][1]
        for budget, (train_leaf, test_lids, counts) in weights.items():
            query = train_leaf if side == "train" else test_lids
            yield budget, leaf_rows(train_leaf, counts)[query[rows]]


class BoostFamily(_MemberFamily):
    """Boosted residual trees, optionally averaged over seeded runs.

    Every (class, member) run is fitted once to the member's largest round
    count in ``a1_values``; shorter points read round prefixes, which are
    identical bit for bit because round p is seeded by (member seed, p). A
    run sends back its predictions and cumulative leaf count at each of the
    member's round counts and, for the effparams class only, the per-round
    train and test leaf ids. That run also walks its recursion once with
    ``weight_steps`` and writes each round's step lr * (W_p - R_p) into
    ``steps``, an array in shared memory; a row block steps its rows
    through a member's rounds by adding the step rows at their leaf ids.
    """

    def __init__(self, train, test, shared, states, threads=1):
        super().__init__(train, test, shared, states, threads)
        # lr * (W_p - R_p) of each effparams member and round, zero past the
        # tree's leaves; member 1 runs the most rounds
        self.steps = _shared_zeros(
            self.p_ens_max, max(self.a1_values[1]), shared.boost_leaf_budget, train.n
        )

    def _prefit(self, key, draws):
        c, member = key
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
        train_lids = model.train_leaf_ids
        test_lids = [t.leaf_ids(self.test.features) for t in model.trees]
        snapshots = {
            p: (model.predictions_from_leaf_ids(train_lids[:p], self.train.n),
                model.predictions_from_leaf_ids(test_lids[:p], self.test.n),
                sum(t.n_leaves for t in model.trees[:p]))
            for p in self.a1_values[member]
        }
        if c != self.weights_class:
            return key, (snapshots, None)
        # weights only for the class they are read from
        for p, (W, R, _) in enumerate(weight_steps(train_lids, lr, self.train.n)):
            self.steps[member - 1, p, :len(R)] = lr * (W - R)
        return key, (snapshots, (train_lids, test_lids))

    def _member_rows(self, member, side, rows):
        train_lids, test_lids = self._cache[(self.weights_class, member)][1]
        queries = train_lids if side == "train" else test_lids
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
