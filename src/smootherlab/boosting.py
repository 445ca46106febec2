"""Gradient boosting with squared loss, tracked as a smoother.

Rounds start from f_0 = 0. Round p fits a small best-first tree to the
current residuals y - f_{p-1} (the squared-loss gradient, with the 1/2-factor
convention absorbed into the learning rate), takes leaf values equal to the
leaf-mean residual, and updates f_p = f_{p-1} + lr * tree_p.

Because the leaf-mean of residuals mixes raw targets with earlier fitted
values, the boosted predictor stays an affine function of y_train and its
weight vector obeys the recursion

    s_boost_p(x) = s_boost_{p-1}(x) + lr * (s_tree_p(x) - s_corr_p(x))

where s_corr_p(x) is row leaf_p(x) of the correction matrix R_p whose row j
averages the previous round's weight rows over the training points in leaf j.
``fit_boost`` fits the trees only. The recursion needs only the rounds'
training leaf ids; ``weight_steps`` walks it, the one place the (n, n)
training-point state is stepped, and a ``BoostedModel`` collects that walk on
first use, so runs whose weights are never read never pay for it. Round p is
seeded by (seed, p): a run's first p rounds are the run with ``n_rounds=p``,
and runs of one seed on different targets draw the same feature subsets in
every round, which ``fit_boost``'s ``draws`` lets them draw once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .trees import (
    AveragedSmoother,
    FeatureDraws,
    Presort,
    RegressionTree,
    fit_tree,
    leaf_rows,
    presort,
)

DEFAULT_LEARNING_RATE = 0.85
DEFAULT_LEAF_BUDGET = 10
DEFAULT_STOP_TOL = 1e-4
DEFAULT_MAX_ROUNDS = 500


def _round_step(prev, W, R, lids, lr):
    """One recursion step, prev + (lr * (W - R))[lids]: elementwise the float
    operations of prev + lr * (W[lids] - R[lids]), on the J leaf rows instead
    of the m queries. Training and query rows step by these bits, as do the
    sweep's row blocks, which add stored rows of lr * (W - R)."""
    return prev + (lr * (W - R))[lids]


def boosted_predictions(leaf_values, lids_per_round, learning_rate, m):
    """Predictions of m inputs after the rounds of their leaf ids, summed
    round by round from zeros; ``leaf_values`` holds each round's tree's leaf
    values, and the shorter of the two sets the round count. These are the
    float operations of the training-time update of the fitted values, with
    each product lr * value formed once per leaf instead of once per input."""
    out = np.zeros(m)
    for values, lids in zip(leaf_values, lids_per_round):
        out += (learning_rate * values).take(lids)
    return out


def weight_steps(train_leaf_ids, learning_rate, n):
    """Yield, after each round of the training leaf ids, the tree's leaf weight
    rows W_p and corrections R_p, (J_p, n) each, and the (n, n) weight rows at
    the training points. Row j of R_p is the previous state summed over leaf
    j's training points, in ascending order, over their count."""
    state = np.zeros((n, n))
    for lids in train_leaf_ids:
        counts = np.bincount(lids)
        W = leaf_rows(lids, counts)
        members = np.split(np.argsort(lids, kind="stable"), np.cumsum(counts)[:-1])
        R = np.stack([state[rows].sum(axis=0) / rows.size for rows in members])
        state = _round_step(state, W, R, lids, learning_rate)
        yield W, R, state


@dataclass
class BoostedModel:
    trees: list[RegressionTree]
    train_leaf_ids: list[np.ndarray]       # leaf of each training point, per round
    learning_rate: float
    n_train: int
    train_mse_history: np.ndarray          # per-round training MSE

    @functools.cached_property
    def _recursion(self):
        weight_rows, corrections = [], []
        for W, R, state in weight_steps(self.train_leaf_ids, self.learning_rate,
                                        self.n_train):
            weight_rows.append(W)
            corrections.append(R)
        return weight_rows, corrections, state

    @property
    def tree_weight_rows(self) -> list[np.ndarray]:
        """W_p, (J_p, n): the tree's leaf weight rows, per round."""
        return self._recursion[0]

    @property
    def corrections(self) -> list[np.ndarray]:
        """R_p, (J_p, n): the previous state averaged over each leaf, per round."""
        return self._recursion[1]

    @property
    def train_weight_state(self) -> np.ndarray:
        """Final (n, n) smoother rows at the training points."""
        return self._recursion[2]

    @property
    def n_rounds(self) -> int:
        return len(self.trees)

    def predict(self, X0: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        lids = [t.leaf_ids(X0) for t in self.trees]
        return self.predictions_from_leaf_ids(lids, X0.shape[0])

    def train_predictions(self) -> np.ndarray:
        return self.predictions_from_leaf_ids(self.train_leaf_ids, self.n_train)

    def predictions_from_leaf_ids(self, lids_per_round, m) -> np.ndarray:
        """Predictions of m inputs after the rounds of their leaf ids
        (``boosted_predictions``)."""
        return boosted_predictions([t.leaf_values for t in self.trees], lids_per_round,
                                   self.learning_rate, m)

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        lids = [t.leaf_ids(X0) for t in self.trees]
        return self.weights_from_leaf_ids(lids, X0.shape[0])

    def weights_from_leaf_ids(self, lids_per_round, m) -> np.ndarray:
        """Weight rows of m inputs after the rounds of their leaf ids; a
        prefix of the rounds gives the weights of that shorter run."""
        acc = np.zeros((m, self.n_train))
        for W, R, lids in zip(self.tree_weight_rows, self.corrections, lids_per_round):
            acc = _round_step(acc, W, R, lids, self.learning_rate)
        return acc


def fit_boost(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int = DEFAULT_MAX_ROUNDS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    leaf_budget: int = DEFAULT_LEAF_BUDGET,
    seed: int = 0,
    stop_tol: float | None = DEFAULT_STOP_TOL,
    subset_size: int | None = None,
    order: Presort | None = None,
    draws: FeatureDraws | None = None,
) -> BoostedModel:
    """Boost residual trees for up to n_rounds rounds.

    With ``stop_tol`` set, rounds stop once mean squared training error falls
    below it. Round p's tree is seeded from (seed, p) so a longer run extends
    a shorter one round for round. ``order`` is ``trees.presort(X)``, the
    ``trees.Presort`` shared by every round's tree; it is computed here when
    not given. ``draws`` is a ``trees.FeatureDraws`` shared with runs of the
    same seed on other targets (the one-vs-all classes of a sweep member):
    round p's tree reads the feature subsets that their round-p trees drew.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValidationError(f"bad shapes: X {X.shape}, y {y.shape}")
    if n_rounds < 1:
        raise ValidationError(f"n_rounds must be >= 1, got {n_rounds}")
    if not (0.0 < learning_rate <= 1.0):
        raise ValidationError(f"learning_rate must be in (0, 1], got {learning_rate}")
    if order is None:
        order = presort(X)
    f = np.zeros(X.shape[0])
    trees, leaf_ids, mse_hist = [], [], []
    for p in range(1, n_rounds + 1):
        tree = fit_tree(X, y - f, leaf_budget, seed=[seed, p],
                        subset_size=subset_size, order=order, draws=draws)
        f = f + learning_rate * tree.leaf_values[tree.train_leaf]
        trees.append(tree)
        leaf_ids.append(tree.train_leaf)
        mse_hist.append(float(np.mean((y - f) ** 2)))
        if stop_tol is not None and mse_hist[-1] < stop_tol:
            break
    return BoostedModel(
        trees=trees,
        train_leaf_ids=leaf_ids,
        learning_rate=learning_rate,
        n_train=X.shape[0],
        train_mse_history=np.asarray(mse_hist),
    )


# --------------------------------------------------------------------------- ensembles


def fit_boost_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int,
    p_ens: int,
    base_seed: int,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    leaf_budget: int = DEFAULT_LEAF_BUDGET,
    subset_size: int | None = None,
) -> AveragedSmoother:
    """Average p_ens boosted models seeded base_seed+1 .. base_seed+p_ens,
    each run for all n_rounds (no early stop)."""
    return AveragedSmoother.seeded(X, p_ens, base_seed, lambda seed, order: fit_boost(
        X, y, n_rounds, learning_rate, leaf_budget,
        seed=seed, stop_tol=None, subset_size=subset_size, order=order,
    ))
