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
``fit_boost`` fits the trees only. The recursion depends on nothing but the
fitted trees, so a ``BoostedModel`` walks it forward once, on first use,
carrying the (n, n) training-point weight state from round to round. Runs
whose weights are never read never pay for it. Averages of boosted runs are
``trees.AveragedSmoother``s.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .trees import AveragedSmoother, RegressionTree, fit_tree, presort

DEFAULT_LEARNING_RATE = 0.85
DEFAULT_LEAF_BUDGET = 10
DEFAULT_STOP_TOL = 1e-4
DEFAULT_MAX_ROUNDS = 500


def _round_step(prev, W, R, lids, lr):
    """One recursion step: prev + (lr * (W - R))[lids].

    The difference and the scaling act on the (J, n) leaf rows before the
    rows are gathered to the m queries: elementwise the same float
    operations as prev + lr * (W[lids] - R[lids]), on J rows instead of m.
    Shared by the training-time state update and the weight extraction for
    new inputs so both paths perform bitwise-identical float operations.
    """
    return prev + (lr * (W - R))[lids]


def weight_recursion(trees, learning_rate, n):
    """Per-round tree weight rows W_p and corrections R_p, (J_p, n) each, and
    the final (n, n) smoother rows at the training points, in round order."""
    state = np.zeros((n, n))
    weight_rows, corrections = [], []
    for tree in trees:
        W = tree.leaf_weight_rows()
        R = np.empty_like(W)
        for j, members in enumerate(tree.leaf_members):
            R[j] = state[members].sum(axis=0) / members.size
        state = _round_step(state, W, R, tree.train_leaf, learning_rate)
        weight_rows.append(W)
        corrections.append(R)
    return weight_rows, corrections, state


@dataclass
class BoostedModel:
    trees: list[RegressionTree]
    train_leaf_ids: list[np.ndarray]       # leaf of each training point, per round
    learning_rate: float
    n_train: int
    train_mse_history: np.ndarray          # per-round training MSE

    @functools.cached_property
    def _recursion(self):
        return weight_recursion(self.trees, self.learning_rate, self.n_train)

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

    def _resolve_rounds(self, upto) -> int:
        if upto is None:
            return self.n_rounds
        if not (1 <= upto <= self.n_rounds):
            raise ValidationError(
                f"upto must be in [1, {self.n_rounds}], got {upto}"
            )
        return upto

    def predict(self, X0: np.ndarray, upto: int | None = None) -> np.ndarray:
        upto = self._resolve_rounds(upto)
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        lids = [t.leaf_ids(X0) for t in self.trees[:upto]]
        return self.predictions_from_leaf_ids(lids, X0.shape[0])

    def train_predictions(self, upto: int | None = None) -> np.ndarray:
        """Fitted values at the training points after ``upto`` rounds."""
        upto = self._resolve_rounds(upto)
        return self.predictions_from_leaf_ids(self.train_leaf_ids[:upto], self.n_train)

    def predictions_from_leaf_ids(self, lids_per_round, m) -> np.ndarray:
        """Predictions for precomputed per-round leaf assignments; the same
        float operations as the training-time update of the fitted values."""
        out = np.zeros(m)
        for tree, lids in zip(self.trees, lids_per_round):
            out += self.learning_rate * tree.leaf_values[lids]
        return out

    def weight_matrix(self, X0: np.ndarray, upto: int | None = None) -> np.ndarray:
        upto = self._resolve_rounds(upto)
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        lids = [t.leaf_ids(X0) for t in self.trees[:upto]]
        return self.weights_from_leaf_ids(lids, X0.shape[0])

    def train_weight_matrix(self, upto: int | None = None) -> np.ndarray:
        """Smoother rows at the training points after ``upto`` rounds."""
        upto = self._resolve_rounds(upto)
        return self.weights_from_leaf_ids(self.train_leaf_ids[:upto], self.n_train)

    def weights_from_leaf_ids(self, lids_per_round, m) -> np.ndarray:
        """Weight matrix for precomputed per-round leaf assignments.

        Callers that evaluate many truncations of the same run can cache the
        leaf ids once and replay the recursion from here.
        """
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
    order: np.ndarray | None = None,
) -> BoostedModel:
    """Boost residual trees for up to n_rounds rounds.

    With ``stop_tol`` set, rounds stop once mean squared training error falls
    below it. Round p's tree is seeded from (seed, p) so a longer run extends
    a shorter one round for round. ``order`` is ``trees.presort(X)``, shared
    by every round's tree; it is computed here when not given.
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
                        subset_size=subset_size, order=order)
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
    stop_tol: float | None = None,
    subset_size: int | None = None,
) -> AveragedSmoother:
    """Average p_ens boosted models seeded base_seed+1 .. base_seed+p_ens."""
    if p_ens < 1:
        raise ValidationError(f"p_ens must be >= 1, got {p_ens}")
    order = presort(X)
    members = [
        fit_boost(
            X, y, n_rounds, learning_rate, leaf_budget,
            seed=base_seed + j, stop_tol=stop_tol, subset_size=subset_size,
            order=order,
        )
        for j in range(1, p_ens + 1)
    ]
    return AveragedSmoother(members=members)
