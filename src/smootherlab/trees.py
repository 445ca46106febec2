"""Best-first regression trees and averaged smoothers (forests) as smoothers.

A fitted tree predicts the mean target of the training points sharing the
query's leaf, i.e. it is a smoother with weights

    s(x0)_i = 1{leaf(x0) = leaf(x_i)} / n_leaf(x0)

Growth is best-first: the frontier leaf whose best split removes the most
total squared error is expanded until the leaf budget is reached or no leaf
admits an impurity-reducing split (every leaf pure or singleton). Each node
examines one fresh random subset of floor(sqrt(d)) features; candidate
thresholds are midpoints between consecutive sorted values, or the lower
value where the midpoint rounds up to the higher one; gain ties break toward
the lower feature index, then the lower threshold, and equal gains of two
nodes toward the node made first. Leaves keep at least one sample; there is
no pruning and no bootstrapping.

Split search uses the CART presort (Breiman et al., 1984): ``presort(X)``
argsorts every column once, stably, and keeps that order, the values in it
and each row's rank (its position in the order) as a ``Presort``. A node's
sorted order for a column is that order restricted to the node's rows: the
positions, ascending, whose row is in the node. The stable order lists all
rows by (value, row index), and a subsequence keeps that, so with node index
sets always ascending the restriction is exactly the stable argsort of the
node's values: the sorted values, cumulative sums, gains and tie-breaks are
the same bit for bit as sorting each node afresh. ``_best_split`` finds
those positions in one of three ways, all giving the same ones:

- the root holds every row, so it takes every position;
- a node of fewer than ``_RANK_ROWS`` rows reads its rows' ranks and sorts
  them, which lists the same positions ascending (k m log m work for k
  features and m rows);
- a bigger node marks its rows in a mask and keeps, in order, the positions
  whose row is marked (k n work, cheaper once m is a good share of n).

Ensembles and boosting share one presort across all trees fit on the same X.

Feature draws are shared. A tree's seed is used only for the per-node
feature subsets, drawn in node order, so node i of every tree grown from one
seed (and with the same d and subset size) gets draw i, whatever its
targets. ``FeatureDraws`` keeps each seed's draws as a list extended on
demand; trees that share one, such as the one-vs-all classes of a sweep
member, draw each subset once between them.

Split search is lazy. No split removes more than its node's own squared
error, so a node is first pushed onto the frontier with that bound, and is
searched only when the bound reaches the top; it then goes back with its
exact gain. Nodes whose bound never reaches the top, because the budget
fills first, are never searched. The expansions are exactly those of
searching every node when it is made: see ``_bound`` for why the float
bound cannot put a node behind one it beats.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .dataset import xy_arrays
from .errors import ValidationError

_GAIN_EPS = 1e-12  # absolute guard against float-noise "gains" on pure nodes
_BOUND_SLACK = 2.0 ** -47  # 64 u, with u = 2**-53 the unit roundoff; see _bound
# nodes of fewer rows restrict the presort through their ranks, bigger ones
# through a mask over every row (see the module docstring); the two cost the
# same at about 200-250 rows for n = 300 and 1000
_RANK_ROWS = 200


@dataclass(frozen=True)
class Presort:
    """The CART presort of an (n, d) X: three read-only C-contiguous (d, n)
    arrays, built once per X by ``presort`` and shared by every tree fitted
    on X, in forked sweep workers too (they inherit it without a copy).

    ``order[f]`` is the stable argsort of column f, ``values[f]`` that column
    in this order, and ``ranks[f]`` the inverse permutation:
    ``ranks[f, order[f, j]] == j``. ``order`` and ``ranks`` are int32 where
    every flat position of the (d, n) arrays fits in it (``_index_dtype``).
    """

    order: np.ndarray
    values: np.ndarray
    ranks: np.ndarray


def _index_dtype(size: int) -> np.dtype:
    """int32 for indices into an array of ``size`` entries when they all fit
    in it, intp otherwise: ``_best_split`` adds a feature's flat start to
    ranks, so ranks must hold every flat position of the (d, n) arrays."""
    return np.dtype(np.int32 if size < 2**31 else np.intp)


def presort(X: np.ndarray) -> Presort:
    """The ``Presort`` of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-d, got shape {X.shape}")
    dtype = _index_dtype(X.size)
    order = np.ascontiguousarray(np.argsort(X.T, axis=1, kind="stable"), dtype=dtype)
    values = np.ascontiguousarray(np.take_along_axis(X.T, order, axis=1))
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(X.shape[0], dtype=dtype), axis=1)
    for a in (order, values, ranks):
        a.setflags(write=False)
    return Presort(order, values, ranks)


class FeatureDraws:
    """Per-node feature subsets of tree seeds, each drawn once.

    Node i of a tree grown from ``seed`` examines the i-th
    ``np.sort(rng.choice(d, k, replace=False))`` of ``default_rng(seed)``.
    Trees fit with one FeatureDraws read those subsets from one list per
    (seed, d, k), extended on demand, so trees that share a seed draw each
    subset once between them and get the same bits as drawing alone.
    """

    def __init__(self):
        self._lists: dict = {}

    def __len__(self) -> int:
        """Subsets drawn so far, over every seed."""
        return sum(len(drawn) for _, drawn in self._lists.values())

    def stream(self, seed, d: int, k: int):
        """``draw(i)``, node i's sorted feature subset for this seed, d and k."""
        key = (tuple(np.atleast_1d(seed).tolist()), d, k)
        if key not in self._lists:
            self._lists[key] = (np.random.default_rng(seed), [])
        rng, drawn = self._lists[key]

        def draw(i: int) -> np.ndarray:
            while len(drawn) <= i:
                drawn.append(np.sort(rng.choice(d, size=k, replace=False)))
            return drawn[i]

        return draw


def _node_sums(ys):
    """(tot, sq, sse): the sum of a node's targets, the sum of their squares
    and their squared error about the mean."""
    tot = ys.sum()
    sq = float(ys @ ys)
    return tot, sq, sq - tot * tot / ys.size


def _bound(m: int, sq: float, node_sse: float) -> float:
    """An upper bound on every gain ``_best_split`` can compute for a node of
    m rows with ``_node_sums`` sq and sse.

    In exact arithmetic no split removes more than the node's squared error.
    In floats, let u = 2**-53, g = m u / (1 - m u), S the sum of squares and
    A the sum of absolute targets, so A**2 <= m S. Every sum of up to m terms,
    in any order, errs by at most g A (g S for the dot product); so ``tot``,
    each prefix sum ``left`` and ``tot - left`` are within 3 g A of exact and
    at most A (1 + 3 g) in size. Each term x*x/c (c >= 1, an exact count)
    then errs by at most 8 g A**2, and with the two sums a computed gain is
    within 27 g A**2 of exact; the computed sse ``sq - tot*tot/m`` is within
    11 g A**2. So a computed gain is at most the computed sse plus
    38 g A**2 <= 39 u m**2 S, for m u <= 0.01 (m up to about 9e13). The slack
    64 u m**2 sq covers that, the error of sq itself and the rounding of
    this sum with room to spare.
    """
    return node_sse + _BOUND_SLACK * (m * m) * sq


def _best_split(y, idx, pre, mask, feats, tot, node_sse):
    """Best (gain, feature, threshold) over the given features, or None.

    ``idx`` is ascending with at least two rows, whose targets' sum and
    squared error are ``tot`` and ``node_sse`` (``_node_sums``); ``pre`` is
    the ``Presort`` of X and ``mask`` an all-False boolean array of length n,
    left all False again on return.
    """
    n, m, k = mask.size, idx.size, feats.size
    base = tot * tot / m
    # r: flat positions into pre's (d, n) arrays of each feature's sorted
    # order restricted to the node's rows, (k, m); see the module docstring
    start = (feats * n)[:, None]
    if m == n:
        r = start + np.arange(n)
    elif m < _RANK_ROWS:
        r = pre.ranks.take(start + idx)
        r.sort(axis=1)
        r += start
    else:
        mask[idx] = True
        r = mask.take(pre.order[feats]).ravel().nonzero()[0].reshape(k, m)
        r += ((feats - np.arange(k)) * n)[:, None]
        mask[idx] = False
    xs = pre.values.take(r)
    left = y.take(pre.order.take(r[:, :-1])).cumsum(axis=1)
    cnt = np.arange(1, m, dtype=float)
    gain = left * left / cnt + (tot - left) ** 2 / (m - cnt)
    # a threshold must separate two distinct feature values
    gain[xs[:, 1:] <= xs[:, :-1]] = -np.inf
    # fl(a - base) is non-decreasing in a, so base may come off after the max
    best = gain.max(axis=1) - base
    best[~(best > _GAIN_EPS * (1.0 + node_sse))] = -np.inf
    col = int(best.argmax())  # first max = lowest feature, feats is sorted
    if best[col] == -np.inf:
        return None
    # first max = lowest threshold, among the gains with base off, so that
    # ties are those of the gains themselves
    pos = int((gain[col] - base).argmax())
    lo, hi = float(xs[col, pos]), float(xs[col, pos + 1])
    thr = 0.5 * (lo + hi)
    if not thr < hi:  # adjacent doubles, or lo + hi overflows: hi would go left
        thr = lo
    return float(best[col]), int(feats[col]), thr


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
    train_leaf: np.ndarray         # leaf index of each training point
    n_train: int
    n_features: int

    @property
    def n_leaves(self) -> int:
        return self.leaf_values.size

    def leaf_ids(self, X0: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        if X0.shape[1] != self.n_features:
            raise ValidationError(
                f"query has {X0.shape[1]} features, tree was fit on {self.n_features}"
            )
        out = np.empty(X0.shape[0], dtype=np.intp)
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        stack = [(0, np.arange(X0.shape[0]))]
        while stack:  # one step per node, on the query rows that reach it
            nid, rows = stack.pop()
            f = feature[nid]
            if f < 0:
                out[rows] = self.leaf_slot[nid]
            elif rows.size:
                go_left = X0[:, f].take(rows) <= threshold[nid]
                stack.append((self.left[nid], rows[go_left]))
                stack.append((self.right[nid], rows[~go_left]))
        return out

    def predict(self, X0: np.ndarray) -> np.ndarray:
        return self.leaf_values[self.leaf_ids(X0)]

    def train_predictions(self) -> np.ndarray:
        return self.leaf_values[self.train_leaf]

    def leaf_weight_rows(self) -> np.ndarray:
        """(n_leaves, n_train) matrix whose row j is the leaf-j weight vector."""
        return leaf_rows(self.train_leaf, self.leaf_counts)

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        return self.leaf_weight_rows()[self.leaf_ids(X0)]


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_leaves: int,
    seed,
    subset_size: int | None = None,
    order: Presort | None = None,
    draws: FeatureDraws | None = None,
) -> RegressionTree:
    """Grow a best-first tree to at most ``max_leaves`` leaves.

    ``order`` is ``presort(X)``, the ``Presort`` of X, computed here when not
    given; callers that fit many trees on the same X pass one shared copy.
    ``draws`` is a ``FeatureDraws`` shared with other trees of the same seed,
    or a private one when not given.
    """
    X, y = xy_arrays(X, y)
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
    elif not isinstance(order, Presort) or order.values.shape != (d, n):
        raise ValidationError(f"order must be the Presort of X, with (d, n) = {(d, n)}")
    draw = (FeatureDraws() if draws is None else draws).stream(seed, d, subset_size)
    mask = np.zeros(n, dtype=bool)

    feature, threshold, left, right, node_tot = [], [], [], [], []
    node_indices: dict[int, np.ndarray] = {}
    # (-bound, nid, None) for a node not searched yet, (-gain, nid, split)
    # for a searched one; equal keys pop the node made first
    heap: list = []
    unsearched: dict[int, tuple] = {}  # nid -> (feats, tot, sse)

    def new_node(idx, search: bool) -> int:
        nid = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        node_indices[nid] = idx
        ys = y.take(idx)
        if not search:
            node_tot.append(ys.sum())
            return nid
        tot, sq, node_sse = _node_sums(ys)
        node_tot.append(tot)
        feats = draw(nid)
        # neither a singleton (sse exactly 0) nor pure within float noise
        if node_sse > _GAIN_EPS * (1.0 + sq):
            unsearched[nid] = feats, tot, node_sse
            heapq.heappush(heap, (-_bound(idx.size, sq, node_sse), nid, None))
        return nid

    # a node made once the budget is full is never split, so it draws no
    # features and gets no split search; nothing draws after it, so the
    # tree is the same as if it had
    new_node(np.arange(n), search=max_leaves > 1)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        _, nid, split = heapq.heappop(heap)
        if split is None:  # its bound is on top: search it, push its gain
            split = _best_split(y, node_indices[nid], order, mask, *unsearched.pop(nid))
            if split is not None:
                heapq.heappush(heap, (-split[0], nid, split))
            continue
        _, f, thr = split
        idx = node_indices.pop(nid)
        go_left = X[:, f].take(idx) <= thr
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
            values.append(float(node_tot[nid] / idx.size))  # y[idx].mean()
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

    @classmethod
    def seeded(cls, X: np.ndarray, p_ens: int, base_seed: int,
               fit_member) -> AveragedSmoother:
        """Average p_ens members ``fit_member(seed, order)`` seeded
        base_seed+1 .. base_seed+p_ens, all on one ``presort(X)``."""
        if p_ens < 1:
            raise ValidationError(f"p_ens must be >= 1, got {p_ens}")
        order = presort(X)
        return cls([fit_member(base_seed + j, order) for j in range(1, p_ens + 1)])

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
    return AveragedSmoother.seeded(X, p_ens, base_seed, lambda seed, order: fit_tree(
        X, y, max_leaves, seed=seed, subset_size=subset_size, order=order))
