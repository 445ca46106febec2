"""Best-first regression trees and averaged smoothers (forests) as smoothers.

A fitted tree predicts the mean target of the training points sharing the
query's leaf, i.e. it is a smoother with weights

    s(x0)_i = 1{leaf(x0) = leaf(x_i)} / n_leaf(x0)

Growth is best-first: the frontier leaf whose best split removes the most
total squared error is expanded until the leaf budget is reached or no leaf
admits an impurity-reducing split (every leaf pure or singleton). Each node
examines one fresh random subset of floor(sqrt(d)) features; candidate
thresholds are midpoints between consecutive sorted values; gain ties break
toward the lower feature index, then the lower threshold. Leaves keep at
least one sample; there is no pruning and no bootstrapping.

Split search uses the CART presort (Breiman et al., 1984): ``presort(X)``
argsorts every column once, stably, and a node's sorted order for a column
is that order restricted to the node's rows. Node index sets are always
ascending, so the restriction is exactly the stable argsort of the node's
values: the sorted values, cumulative sums, gains and tie-breaks are the
same bit for bit as sorting each node afresh. Ensembles and boosting share
one presort across all trees fit on the same X.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_GAIN_EPS = 1e-12  # absolute guard against float-noise "gains" on pure nodes


def presort(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every column of X, as a read-only C-contiguous
    (d, n) array that every tree fitted on X can share, in forked sweep
    workers too: they inherit it from the parent without a copy."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-d, got shape {X.shape}")
    order = np.ascontiguousarray(np.argsort(X.T, axis=1, kind="stable"))
    order.setflags(write=False)
    return order


def _best_split(X, y, idx, feats, order, mask):
    """Best (gain, feature, threshold) over the given features, or None.

    ``idx`` is ascending, ``order`` is ``presort(X)`` and ``mask`` an
    all-False boolean array of length n, left all False again on return.
    """
    m = idx.size
    if m < 2:
        return None
    ys = y[idx]
    tot = ys.sum()
    base = tot * tot / m
    sq = float(ys @ ys)
    node_sse = sq - base
    if node_sse <= _GAIN_EPS * (1.0 + sq):
        return None  # pure within float noise
    # each feature's presorted order restricted to the node's rows, (k, m)
    mask[idx] = True
    rows = order[feats]
    rows = np.compress(mask[rows].ravel(), rows).reshape(feats.size, m)
    mask[idx] = False
    xs_sorted = X[rows, feats[:, None]]
    left = np.cumsum(y[rows], axis=1)[:, :-1]
    cnt = np.arange(1, m, dtype=float)
    gain = left * left / cnt + (tot - left) ** 2 / (m - cnt) - base
    # a threshold must separate two distinct feature values
    gain[xs_sorted[:, 1:] <= xs_sorted[:, :-1]] = -np.inf
    best = gain.max(axis=1)
    best[~(best > _GAIN_EPS * (1.0 + node_sse))] = -np.inf
    col = int(np.argmax(best))  # first max = lowest feature, feats is sorted
    if best[col] == -np.inf:
        return None
    pos = int(np.argmax(gain[col]))  # first max = lowest threshold
    thr = 0.5 * (xs_sorted[col, pos] + xs_sorted[col, pos + 1])
    return float(best[col]), int(feats[col]), float(thr)


def leaf_rows(train_leaf: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(J, n) leaf weight rows of a tree from the leaf of each training
    point: row j puts 1 / counts[j] on each training point in leaf j."""
    n = train_leaf.size
    W = np.zeros((counts.size, n))
    W[train_leaf, np.arange(n)] = 1.0 / counts[train_leaf]
    return W


@dataclass
class RegressionTree:
    """Array-encoded tree; internal nodes have feature >= 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_slot: np.ndarray          # node id -> leaf index (or -1)
    leaf_values: np.ndarray        # mean target per leaf
    leaf_counts: np.ndarray
    leaf_members: list[np.ndarray]
    train_leaf: np.ndarray         # leaf index of each training point
    n_train: int
    n_features: int
    _weight_rows: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_leaves(self) -> int:
        return self.leaf_values.size

    def leaf_ids(self, X0: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        if X0.shape[1] != self.n_features:
            raise ValidationError(
                f"query has {X0.shape[1]} features, tree was fit on {self.n_features}"
            )
        node = np.zeros(X0.shape[0], dtype=np.intp)
        active = self.feature[node] >= 0
        while active.any():
            live = np.nonzero(active)[0]
            nd = node[live]
            go_left = X0[live, self.feature[nd]] <= self.threshold[nd]
            node[live] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.leaf_slot[node]

    def predict(self, X0: np.ndarray) -> np.ndarray:
        return self.leaf_values[self.leaf_ids(X0)]

    def train_predictions(self) -> np.ndarray:
        return self.leaf_values[self.train_leaf]

    def leaf_weight_rows(self) -> np.ndarray:
        """(n_leaves, n_train) matrix whose row j is the leaf-j weight vector."""
        if self._weight_rows is None:
            self._weight_rows = leaf_rows(self.train_leaf, self.leaf_counts)
        return self._weight_rows

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        return self.leaf_weight_rows()[self.leaf_ids(X0)]


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_leaves: int,
    seed,
    subset_size: int | None = None,
    order: np.ndarray | None = None,
) -> RegressionTree:
    """Grow a best-first tree to at most ``max_leaves`` leaves.

    ``order`` is ``presort(X)``, computed here when not given; callers that
    fit many trees on the same X pass one shared copy.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValidationError(
            f"bad shapes: X {X.shape}, y {y.shape}"
        )
    if max_leaves < 1:
        raise ValidationError(f"max_leaves must be >= 1, got {max_leaves}")
    n, d = X.shape
    if subset_size is None:
        subset_size = max(1, int(np.sqrt(d)))
    elif subset_size < 1:
        raise ValidationError(f"subset_size must be >= 1, got {subset_size}")
    subset_size = min(subset_size, d)
    if order is None:
        order = presort(X)
    elif np.shape(order) != (d, n):
        raise ValidationError(f"order must have shape {(d, n)}, got {np.shape(order)}")
    mask = np.zeros(n, dtype=bool)
    rng = np.random.default_rng(seed)

    feature, threshold, left, right = [], [], [], []
    node_indices: dict[int, np.ndarray] = {}
    heap: list = []
    push_count = 0

    def new_node(idx, search: bool) -> int:
        nonlocal push_count
        nid = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        node_indices[nid] = idx
        if search:
            feats = np.sort(rng.choice(d, size=subset_size, replace=False))
            cand = _best_split(X, y, idx, feats, order, mask)
            if cand is not None:
                heapq.heappush(heap, (-cand[0], push_count, nid, cand))
                push_count += 1
        return nid

    # a node made once the budget is full is never split, so it draws no
    # features and gets no split search; nothing draws after it, so the
    # tree is the same as if it had
    new_node(np.arange(n), search=max_leaves > 1)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        _, _, nid, (_, f, thr) = heapq.heappop(heap)
        idx = node_indices.pop(nid)
        go_left = X[idx, f] <= thr
        feature[nid], threshold[nid] = f, thr
        n_leaves += 1
        left[nid] = new_node(idx[go_left], search=n_leaves < max_leaves)
        right[nid] = new_node(idx[~go_left], search=n_leaves < max_leaves)

    slots = np.full(len(feature), -1, dtype=np.intp)
    members, values, counts = [], [], []
    for nid in range(len(feature)):
        if feature[nid] == -1:
            slots[nid] = len(members)
            idx = node_indices[nid]
            members.append(idx)
            values.append(float(y[idx].mean()))
            counts.append(idx.size)
    train_leaf = np.empty(n, dtype=np.intp)
    for j, idx in enumerate(members):
        train_leaf[idx] = j
    return RegressionTree(
        feature=np.asarray(feature),
        threshold=np.asarray(threshold),
        left=np.asarray(left),
        right=np.asarray(right),
        leaf_slot=slots,
        leaf_values=np.asarray(values),
        leaf_counts=np.asarray(counts, dtype=float),
        leaf_members=members,
        train_leaf=train_leaf,
        n_train=n,
        n_features=d,
    )


# --------------------------------------------------------------------------- ensembles


@dataclass
class AveragedSmoother:
    """Plain average of member smoothers (independently seeded, no bootstrap):
    trees for a forest, boosted runs for a boosted ensemble."""

    members: list

    @property
    def n_train(self) -> int:
        return self.members[0].n_train

    def _mean(self, method: str, *args) -> np.ndarray:
        acc = getattr(self.members[0], method)(*args)
        for m in self.members[1:]:
            acc = acc + getattr(m, method)(*args)
        return acc / len(self.members)

    def predict(self, X0: np.ndarray) -> np.ndarray:
        return self._mean("predict", X0)

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        return self._mean("weight_matrix", X0)

    def train_predictions(self) -> np.ndarray:
        return self._mean("train_predictions")


def fit_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    max_leaves: int,
    p_ens: int,
    base_seed: int,
    subset_size: int | None = None,
) -> AveragedSmoother:
    """Fit p_ens trees with seeds base_seed+1 .. base_seed+p_ens and average."""
    if p_ens < 1:
        raise ValidationError(f"p_ens must be >= 1, got {p_ens}")
    order = presort(X)
    members = [
        fit_tree(X, y, max_leaves, seed=base_seed + j, subset_size=subset_size,
                 order=order)
        for j in range(1, p_ens + 1)
    ]
    return AveragedSmoother(members=members)
