"""Best-first regression trees and averaged ensembles as convex smoothers."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smootherlab import trees
from smootherlab.errors import ValidationError
from smootherlab.trees import (
    AveragedSmoother,
    FeatureDraws,
    RegressionTree,
    fit_ensemble,
    fit_tree,
    presort,
)


def _toy():
    X = np.array([[0.0], [1.0], [4.0], [5.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    return X, y


# ---------------------------------------------------------------------------
# Hand-built split oracles
# ---------------------------------------------------------------------------


def test_two_leaf_split_oracle():
    X, y = _toy()
    tree = fit_tree(X, y, max_leaves=2, seed=0, subset_size=1)
    assert tree.n_leaves == 2
    # midpoint between the closest differing neighbours 1.0 and 4.0
    assert tree.threshold[0] == pytest.approx(2.5)
    assert np.array_equal(tree.predict(X), y)
    assert np.array_equal(sorted(tree.leaf_values.tolist()), [0.0, 1.0])


def test_single_leaf_is_global_mean():
    X, y = _toy()
    tree = fit_tree(X, y, max_leaves=1, seed=0)
    assert tree.n_leaves == 1
    assert np.allclose(tree.predict(np.array([[9.0], [-3.0]])), 0.5)
    assert np.allclose(tree.weight_matrix(np.array([[9.0]])), 0.25)


def test_constant_targets_stop_before_budget():
    X = np.arange(8.0).reshape(8, 1)
    tree = fit_tree(X, np.full(8, 2.0), max_leaves=8, seed=0)
    assert tree.n_leaves == 1


def test_best_first_expands_largest_gain_first():
    X = np.arange(6.0).reshape(6, 1)
    y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 20.0])
    tree = fit_tree(X, y, max_leaves=3, seed=0, subset_size=1)
    # first split isolates the low block, second splits {10,10,20}
    assert tree.n_leaves == 3
    assert tree.predict(np.array([[3.2]])) == pytest.approx(10.0)
    assert tree.predict(np.array([[5.0]])) == pytest.approx(20.0)
    assert tree.predict(np.array([[0.5]])) == pytest.approx(0.0)


def test_budget_two_takes_dominant_split():
    X = np.arange(6.0).reshape(6, 1)
    y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 20.0])
    tree = fit_tree(X, y, max_leaves=2, seed=0, subset_size=1)
    assert tree.n_leaves == 2
    assert tree.threshold[0] == pytest.approx(2.5)
    assert tree.predict(np.array([[4.0]])) == pytest.approx(40.0 / 3.0)


def test_duplicate_feature_tie_breaks_to_lower_index():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(X, y, max_leaves=2, seed=0, subset_size=2)
    assert tree.feature[0] == 0


def test_fully_grown_tree_has_identity_weights():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 1))
    y = rng.normal(size=12)
    tree = fit_tree(X, y, max_leaves=12, seed=0, subset_size=1)
    assert tree.n_leaves == 12
    assert np.allclose(tree.weight_matrix(X), np.eye(12), atol=1e-12)
    assert np.allclose(tree.predict(X), y, atol=1e-12)


# ---------------------------------------------------------------------------
# Smoother-weight structure
# ---------------------------------------------------------------------------


def test_weights_are_leaf_uniform():
    X, y = _toy()
    tree = fit_tree(X, y, max_leaves=2, seed=0, subset_size=1)
    W = tree.weight_matrix(np.array([[0.5], [4.5]]))
    assert np.allclose(W[0], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    assert np.allclose(W[1], [0.0, 0.0, 0.5, 0.5], atol=1e-15)


def test_weight_rows_convex():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = fit_tree(X, y, max_leaves=9, seed=3)
    W = tree.weight_matrix(rng.normal(size=(25, 3)))
    assert np.all(W >= 0.0)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


def test_duality_weights_times_targets():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree = fit_tree(X, y, max_leaves=7, seed=5)
    X0 = rng.normal(size=(11, 2))
    assert np.allclose(tree.weight_matrix(X0) @ y, tree.predict(X0), atol=1e-12)


def test_single_row_query_matches_batch_row():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(15, 2))
    tree = fit_tree(X, rng.normal(size=15), max_leaves=4, seed=0)
    X0 = rng.normal(size=(5, 2))
    assert np.array_equal(tree.weight_matrix(X0[2][None])[0], tree.weight_matrix(X0)[2])


def test_leaf_partition_and_leaf_means():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    tree = fit_tree(X, y, max_leaves=6, seed=8)
    leaf_members = [np.flatnonzero(tree.train_leaf == j) for j in range(tree.n_leaves)]
    members = np.concatenate(leaf_members)
    assert np.array_equal(np.sort(members), np.arange(25))
    for j, m in enumerate(leaf_members):
        assert tree.leaf_values[j] == pytest.approx(y[m].mean(), abs=1e-12)
        assert tree.leaf_counts[j] == len(m)
    # leaf_ids agrees with the recorded training assignment
    assert np.array_equal(tree.leaf_ids(X), tree.train_leaf)


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    a = fit_tree(X, y, max_leaves=8, seed=17)
    b = fit_tree(X, y, max_leaves=8, seed=17)
    assert np.array_equal(a.feature, b.feature)
    # non-split slots hold NaN thresholds
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.leaf_values, b.leaf_values)
    X0 = rng.normal(size=(10, 4))
    assert np.array_equal(a.predict(X0), b.predict(X0))


def test_feature_subsampling_varies_with_seed():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 9))
    y = rng.normal(size=60)
    trees = [fit_tree(X, y, max_leaves=10, seed=s) for s in range(6)]
    preds = {tuple(t.predict(X[:5]).round(12)) for t in trees}
    assert len(preds) > 1  # sqrt(9)=3 of 9 features per node actually varies


def test_validation():
    X, y = _toy()
    with pytest.raises(ValidationError):
        fit_tree(X, y, max_leaves=0, seed=0)
    with pytest.raises(ValidationError):
        fit_tree(X, y[:2], max_leaves=2, seed=0)
    with pytest.raises(ValidationError):
        fit_tree(X, y, max_leaves=2, seed=0, subset_size=0)
    # oversized subsets clip to d rather than failing
    assert fit_tree(X, y, max_leaves=2, seed=0, subset_size=5).n_leaves == 2
    tree = fit_tree(X, y, max_leaves=2, seed=0)
    with pytest.raises(ValidationError):
        tree.predict(np.zeros((2, 3)))


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 20])
def test_nodes_made_at_a_full_budget_get_no_split_search(monkeypatch, budget):
    calls, search = [], trees._best_split

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(trees, "_best_split", counted)
    rng = np.random.default_rng(11)
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    draws = FeatureDraws()
    tree = fit_tree(X, y, max_leaves=budget, seed=2, draws=draws)
    assert tree.n_leaves == budget
    # the root, then two children per expansion but the last, draw features;
    # only the nodes whose bound reaches the top of the frontier are searched
    assert len(draws) == (0 if budget == 1 else 2 * budget - 3)
    assert len(calls) <= len(draws)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=500),
    budget=st.integers(min_value=1, max_value=16),
)
def test_convexity_property(seed, budget):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(16, 2))
    y = rng.normal(size=16)
    tree = fit_tree(X, y, max_leaves=budget, seed=seed)
    W = tree.weight_matrix(rng.normal(size=(5, 2)))
    assert np.all(W >= 0.0)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-10)
    assert tree.n_leaves <= budget


# ---------------------------------------------------------------------------
# Split search against a brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_split(X, y, idx, feats, eps=1e-12):
    """Every threshold of every feature, scanned in order; a later candidate
    wins only with a strictly larger gain, so ties go to the lower feature,
    then the lower threshold. Same gain formula and guards as the tree."""
    m = idx.size
    if m < 2:
        return None
    ys = y[idx]
    tot = ys.sum()
    base = tot * tot / m
    sq = float(ys @ ys)
    node_sse = sq - base
    if node_sse <= eps * (1.0 + sq):
        return None
    best = None
    for f in feats:
        xs = X[idx, f]
        values = sorted(set(xs.tolist()))
        for lo, hi in zip(values[:-1], values[1:]):
            below = xs <= lo
            left = float(ys[below].sum())  # integer targets: exact
            cnt = float(below.sum())
            g = left * left / cnt + (tot - left) ** 2 / (m - cnt) - base
            if g > eps * (1.0 + node_sse) and (best is None or g > best[0]):
                thr = 0.5 * (lo + hi)
                best = (g, int(f), thr if thr < hi else lo)
    return best


def _oracle_tree(X, y, max_leaves, seed, subset_size):
    """Best-first growth with the tree's random feature draws and heap order."""
    n, d = X.shape
    k = min(subset_size or max(1, int(np.sqrt(d))), d)
    rng = np.random.default_rng(seed)
    feature, threshold, rows, heap = [], [], [], []

    def new_node(idx):
        nid = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        rows.append(idx)
        cand = _oracle_split(X, y, idx, np.sort(rng.choice(d, size=k, replace=False)))
        if cand is not None:
            heapq.heappush(heap, (-cand[0], nid, cand))
        return nid

    new_node(np.arange(n))
    for _ in range(max_leaves - 1):
        if not heap:
            break
        _, nid, (_, f, thr) = heapq.heappop(heap)
        idx = rows[nid]
        feature[nid], threshold[nid] = f, thr
        new_node(idx[X[idx, f] <= thr])
        new_node(idx[X[idx, f] > thr])
    train_leaf = np.empty(n, dtype=np.intp)
    leaves = [nid for nid in range(len(feature)) if feature[nid] == -1]
    for j, nid in enumerate(leaves):
        train_leaf[rows[nid]] = j
    return np.asarray(feature), np.asarray(threshold), train_leaf


#: cutoffs that send every non-root node through the mask restriction, and
#: every node through the rank restriction
_ALL_MASK, _ALL_RANK = 0, 10**9


@settings(deadline=None, max_examples=30)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=24),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_split_search_matches_brute_force_oracle(data, n, d, seed):
    # few distinct values: many tied feature values, thresholds and gains
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    y = rng.integers(0, 3, size=n).astype(float)
    max_leaves = data.draw(st.integers(min_value=1, max_value=n))
    subset_size = data.draw(st.one_of(st.none(), st.integers(1, d)))
    feature, threshold, train_leaf = _oracle_tree(X, y, max_leaves, seed, subset_size)
    for rank_rows in (_ALL_MASK, _ALL_RANK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "_RANK_ROWS", rank_rows)
            tree = fit_tree(X, y, max_leaves, seed=seed, subset_size=subset_size)
        assert np.array_equal(tree.feature, feature)
        assert np.array_equal(tree.threshold, threshold, equal_nan=True)
        assert np.array_equal(tree.train_leaf, train_leaf)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=80),
    d=st.integers(min_value=1, max_value=6),
    levels=st.sampled_from([2, 4, 50]),
)
def test_rank_and_mask_restrictions_agree(seed, n, d, levels):
    # random ascending nodes, tied feature values (few levels) and targets
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    y = rng.integers(0, 3, size=n).astype(float)
    m = int(rng.integers(2, n))
    idx = np.sort(rng.choice(n, size=m, replace=False))
    feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    tot, sq, node_sse = trees._node_sums(y[idx])
    pre, mask = presort(X), np.zeros(n, dtype=bool)
    splits = []
    for rank_rows in (_ALL_MASK, _ALL_RANK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "_RANK_ROWS", rank_rows)
            splits.append(trees._best_split(y, idx, pre, mask, feats, tot, node_sse))
        assert not mask.any()
    assert splits[0] == splits[1]
    assert splits[0] == _oracle_split(X, y, idx, feats)


@pytest.mark.parametrize("lo, hi", [(1.0 + 2.0**-52, 1.0 + 2.0**-51), (1.5e308, 1.7e308)],
                         ids=["adjacent", "overflow"])
def test_split_between_close_values_leaves_no_empty_leaf(lo, hi):
    # the midpoint rounds to hi (or overflows to inf): the split falls on lo
    X, y = np.array([[lo], [hi]]), np.array([0.0, 1.0])
    tree = fit_tree(X, y, 2, seed=0)
    assert tree.threshold[0] == lo
    assert tree.leaf_counts.tolist() == [1.0, 1.0]
    assert tree.weight_matrix(X).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert tree.predict(np.array([[np.inf]])).tolist() == [1.0]


def test_shared_presort_matches_own_presort():
    rng = np.random.default_rng(21)
    X = rng.integers(0, 5, size=(40, 6)).astype(float)
    y = rng.normal(size=40)
    pre = presort(X)
    for a in (pre.order, pre.values, pre.ranks):
        assert a.shape == (6, 40) and a.flags.c_contiguous and not a.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        pre.order = pre.ranks
    # order is the stable argsort of each column, values that column sorted,
    # and ranks inverts order
    for f in range(6):
        assert np.array_equal(pre.order[f], np.argsort(X[:, f], kind="stable"))
        assert np.array_equal(pre.values[f], X[pre.order[f], f])
        assert np.array_equal(pre.ranks[f, pre.order[f]], np.arange(40))
    assert np.all(np.diff(pre.values, axis=1) >= 0)
    own = fit_tree(X, y, max_leaves=12, seed=3)
    shared = fit_tree(X, y, max_leaves=12, seed=3, order=pre)
    _assert_same_tree(own, shared)


def test_presort_indices_are_int32_where_every_flat_position_fits():
    rng = np.random.default_rng(23)
    n, d = 300, 5
    X = rng.integers(0, 40, size=(n, d)).astype(float)
    y = rng.normal(size=n)
    pre = presort(X)
    assert pre.order.dtype == pre.ranks.dtype == np.int32
    assert pre.order.flags.c_contiguous and pre.ranks.flags.c_contiguous
    # the rule at its edge: d * n entries, flat positions 0 .. d * n - 1
    assert trees._index_dtype(2**31 - 1) == np.int32
    assert trees._index_dtype(2**31) == np.intp
    # every path of the split search finds what intp indices find
    wide = trees.Presort(pre.order.astype(np.intp), pre.values, pre.ranks.astype(np.intp))
    mask, feats = np.zeros(n, dtype=bool), np.array([0, 2, 4])
    for m in (n, 250, 60):  # the root, a mask node and a rank node
        idx = np.sort(rng.choice(n, size=m, replace=False))
        tot, _, node_sse = trees._node_sums(y[idx])
        narrow_split = trees._best_split(y, idx, pre, mask, feats, tot, node_sse)
        assert narrow_split is not None
        assert narrow_split == trees._best_split(y, idx, wide, mask, feats, tot, node_sse)


def test_wrongly_shaped_presort_is_rejected():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    for bad in (presort(X.T), presort(X[:9]), presort(X[:, :2]), presort(X).order):
        with pytest.raises(ValidationError):
            fit_tree(X, y, max_leaves=3, seed=0, order=bad)
    with pytest.raises(ValidationError):
        presort(X[:, 0])


def _descend(tree, x):
    """The leaf of one query row, one node at a time from the root."""
    nid = 0
    while tree.feature[nid] >= 0:
        go_left = x[tree.feature[nid]] <= tree.threshold[nid]
        nid = tree.left[nid] if go_left else tree.right[nid]
    return tree.leaf_slot[nid]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=20),
)
def test_leaf_ids_match_a_per_row_descent(seed, n, d, budget):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, d)) + rng.uniform(0.0, 0.5, size=(n, d))
    tree = fit_tree(X, rng.normal(size=n), budget, seed=seed)
    # queries exactly at every threshold, and off the grid
    thresholds = tree.threshold[tree.feature >= 0]
    Q = rng.uniform(-1.0, 7.0, size=(thresholds.size + 5, d))
    Q[: thresholds.size, tree.feature[tree.feature >= 0]] = thresholds
    for X0 in (X, Q, Q[:0]):
        assert tree.leaf_ids(X0).tolist() == [_descend(tree, x) for x in X0]


# ---------------------------------------------------------------------------
# Shared feature draws, lazy split search and node sums
# ---------------------------------------------------------------------------


def _assert_same_tree(a, b):
    for name in ("feature", "left", "right", "leaf_slot", "leaf_counts", "train_leaf"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.threshold.tobytes() == b.threshold.tobytes()
    assert a.leaf_values.tobytes() == b.leaf_values.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_trees_sharing_feature_draws_equal_solo_fits(data, n, d, seed):
    rng = np.random.default_rng(seed)
    # few distinct values: tied feature values and gains; column 0 constant
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, 0] = 1.0
    Y = rng.integers(0, 3, size=(n, 4)).astype(float)
    Y[:, 1] = 2.0  # a pure target: the root is never searched
    # budgets past the reachable leaves too
    budgets = data.draw(st.lists(st.integers(1, n + 5), min_size=4, max_size=4))
    subset_size = data.draw(st.one_of(st.none(), st.integers(1, d)))
    draws, order = FeatureDraws(), presort(X)
    for c, budget in enumerate(budgets):
        shared = fit_tree(X, Y[:, c], budget, seed=seed, subset_size=subset_size,
                          order=order, draws=draws)
        solo = fit_tree(X, Y[:, c], budget, seed=seed, subset_size=subset_size)
        _assert_same_tree(shared, solo)


def test_feature_draws_are_kept_apart_by_seed_and_subset_size():
    rng = np.random.default_rng(23)
    X, y = rng.normal(size=(50, 9)), rng.normal(size=50)
    draws = FeatureDraws()
    for seed in (3, [3, 1], [3, 2]):
        for k in (2, 5):
            shared = fit_tree(X, y, 12, seed=seed, subset_size=k, draws=draws)
            _assert_same_tree(shared, fit_tree(X, y, 12, seed=seed, subset_size=k))


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=300),
    offset=st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e12]),
    spread=st.sampled_from([1.0, 1e-3, 1e-5, 2e-6, 1e-6]),
    subset=st.booleans(),
)
def test_split_gain_never_exceeds_the_node_bound(seed, m, offset, spread, subset):
    # small spreads about large offsets give near-pure nodes, where the
    # computed gains carry the most rounding relative to the squared error
    rng = np.random.default_rng(seed)
    n = 2 * m if subset else m
    X = rng.integers(0, 8, size=(n, 3)).astype(float)
    y = offset + spread * max(1.0, abs(offset)) * rng.normal(size=n)
    idx = np.sort(rng.choice(n, size=m, replace=False)) if subset else np.arange(n)
    tot, sq, node_sse = trees._node_sums(y[idx])
    if not node_sse > trees._GAIN_EPS * (1.0 + sq):
        return  # pure within float noise: never pushed, never searched
    mask = np.zeros(n, dtype=bool)
    split = trees._best_split(y, idx, presort(X), mask, np.arange(3), tot, node_sse)
    assert not mask.any()
    if split is not None:
        assert split[0] <= trees._bound(m, sq, node_sse)


def test_leaf_values_are_leaf_means_bit_for_bit():
    # a leaf's value is its target sum over its count, which is exactly
    # numpy's mean of the leaf's targets
    rng = np.random.default_rng(24)
    for _ in range(20_000):
        m = int(rng.integers(1, 200))
        y = rng.normal(loc=rng.normal(scale=1e3), scale=10.0 ** rng.uniform(-6, 3), size=m)
        assert float(y.mean()) == float(y.sum() / m)
    X, y = rng.normal(size=(60, 4)), rng.normal(size=60) + 1e6
    tree = fit_tree(X, y, max_leaves=9, seed=1)
    means = [float(y[tree.train_leaf == j].mean()) for j in range(tree.n_leaves)]
    assert tree.leaf_values.tolist() == means


# ---------------------------------------------------------------------------
# Averaged ensembles
# ---------------------------------------------------------------------------


def test_ensemble_single_member_equals_tree():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    ens = fit_ensemble(X, y, max_leaves=5, p_ens=1, base_seed=40)
    solo = fit_tree(X, y, max_leaves=5, seed=41)
    X0 = rng.normal(size=(6, 3))
    assert np.array_equal(ens.predict(X0), solo.predict(X0))
    assert np.array_equal(ens.weight_matrix(X0), solo.weight_matrix(X0))


def test_ensemble_prediction_is_mean_of_members():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    ens = fit_ensemble(X, y, max_leaves=6, p_ens=5, base_seed=0)
    X0 = rng.normal(size=(8, 4))
    stacked = np.mean([m.predict(X0) for m in ens.members], axis=0)
    assert np.allclose(ens.predict(X0), stacked, atol=1e-12)
    stacked_w = np.mean([m.weight_matrix(X0) for m in ens.members], axis=0)
    assert np.allclose(ens.weight_matrix(X0), stacked_w, atol=1e-12)


def test_ensemble_duality_and_convexity():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(24, 3))
    y = rng.normal(size=24)
    ens = fit_ensemble(X, y, max_leaves=8, p_ens=4, base_seed=7)
    X0 = rng.normal(size=(9, 3))
    W = ens.weight_matrix(X0)
    assert np.allclose(W @ y, ens.predict(X0), atol=1e-12)
    assert np.all(W >= 0.0) and np.allclose(W.sum(axis=1), 1.0, atol=1e-10)


def test_averaging_shrinks_weight_norms():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    ens = fit_ensemble(X, y, max_leaves=40, p_ens=8, base_seed=3)
    X0 = rng.normal(size=(30, 5))
    norm_ens = np.mean(np.sum(ens.weight_matrix(X0) ** 2, axis=1))
    norm_max = max(
        np.mean(np.sum(m.weight_matrix(X0) ** 2, axis=1)) for m in ens.members
    )
    assert norm_ens <= norm_max + 1e-12


def test_ensemble_validation():
    X, y = _toy()
    with pytest.raises(ValidationError):
        fit_ensemble(X, y, max_leaves=2, p_ens=0, base_seed=0)
    ens = fit_ensemble(X, y, max_leaves=2, p_ens=2, base_seed=0)
    assert ens.n_train == 4
    assert isinstance(ens, AveragedSmoother)
    assert all(isinstance(m, RegressionTree) for m in ens.members)
