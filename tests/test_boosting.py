"""Gradient boosting with explicit smoother-weight recursion.

The central identity: round p updates the weight state by
lr * (tree-p weights - per-leaf averages of the previous state), so the final
prediction is still an inner product of a weight vector with the targets.
"""

from __future__ import annotations

import numpy as np
import pytest

from smootherlab.boosting import (
    DEFAULT_LEAF_BUDGET,
    DEFAULT_LEARNING_RATE,
    BoostedModel,
    fit_boost,
    fit_boost_ensemble,
    weight_steps,
)
from smootherlab.errors import ValidationError
from smootherlab.trees import AveragedSmoother, FeatureDraws, fit_tree, presort


def _toy():
    X = np.array([[0.0], [1.0], [4.0], [5.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    return X, y


def _random_instance(seed, n=30, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=n)


def test_defaults():
    assert DEFAULT_LEARNING_RATE == 0.85
    assert DEFAULT_LEAF_BUDGET == 10


def test_one_round_full_budget_unit_rate_interpolates():
    X, y = _random_instance(0, n=15, d=1)
    model = fit_boost(X, y, n_rounds=1, learning_rate=1.0, leaf_budget=15, seed=3,
                      stop_tol=None, subset_size=1)
    assert np.allclose(model.train_predictions(), y, atol=1e-12)
    assert np.allclose(model.train_weight_state, np.eye(15), atol=1e-12)


def test_round_one_weights_scale_tree_weights():
    X, y = _random_instance(1)
    model = fit_boost(X, y, n_rounds=1, learning_rate=0.85, leaf_budget=5, seed=9,
                      stop_tol=None)
    # round 1 regresses on the raw targets with the round-specific seed
    solo = fit_tree(X, y, max_leaves=5, seed=[9, 1])
    X0 = np.random.default_rng(2).normal(size=(8, 3))
    assert np.allclose(model.weight_matrix(X0), 0.85 * solo.weight_matrix(X0), atol=1e-15)
    assert np.allclose(model.predict(X0), 0.85 * solo.predict(X0), atol=1e-15)


def test_two_round_recursion_hand_unrolled():
    X, y = _toy()
    lr = 0.5
    model = fit_boost(X, y, n_rounds=2, learning_rate=lr, leaf_budget=2, seed=0,
                      stop_tol=None, subset_size=1)
    # both rounds split at 2.5 into {0,1} and {2,3}; unrolling the recursion:
    #   s1 rows: lr * [1/2,1/2,0,0] and lr * [0,0,1/2,1/2]
    #   correction rows equal the leaf-average of s1, so s2 = s1 + lr(W2 - R2)
    state = model.train_weight_state
    expected_left = np.array([0.375, 0.375, 0.0, 0.0])
    expected_right = np.array([0.0, 0.0, 0.375, 0.375])
    assert np.allclose(state[0], expected_left, atol=1e-15)
    assert np.allclose(state[1], expected_left, atol=1e-15)
    assert np.allclose(state[2], expected_right, atol=1e-15)
    assert np.allclose(state[3], expected_right, atol=1e-15)
    # f2(x in right leaf) = lr*1/2 + lr*(1 - lr)*1/2 = 0.75... via weights
    assert model.predict(np.array([[4.5]]))[0] == pytest.approx(0.75)
    W = model.weight_matrix(np.array([[4.5]]))
    assert np.allclose(W[0], expected_right, atol=1e-15)


def test_single_leaf_rounds_have_geometric_row_sums():
    X, y = _random_instance(3, n=12, d=2)
    lr = 0.3
    for n_rounds in (1, 2, 5, 11):
        model = fit_boost(X, y, n_rounds=n_rounds, learning_rate=lr, leaf_budget=1,
                          seed=0, stop_tol=None)
        W = model.weight_matrix(np.random.default_rng(4).normal(size=(6, 2)))
        expected = 1.0 - (1.0 - lr) ** n_rounds
        assert np.allclose(W.sum(axis=1), expected, rtol=1e-12)


def test_duality_across_round_counts():
    X, y = _random_instance(5)
    model = fit_boost(X, y, n_rounds=25, learning_rate=0.85, leaf_budget=4, seed=1,
                      stop_tol=None)
    X0 = np.random.default_rng(6).normal(size=(10, 3))
    lids = [t.leaf_ids(X0) for t in model.trees]
    for k in (1, 5, 25):
        via_weights = model.weights_from_leaf_ids(lids[:k], 10) @ y
        direct = model.predictions_from_leaf_ids(lids[:k], 10)
        assert np.max(np.abs(via_weights - direct) / (1.0 + np.abs(direct))) <= 1e-10


def test_round_prefix_is_stable():
    X, y = _random_instance(7)
    long = fit_boost(X, y, n_rounds=6, learning_rate=0.6, leaf_budget=3, seed=11,
                     stop_tol=None)
    short = fit_boost(X, y, n_rounds=3, learning_rate=0.6, leaf_budget=3, seed=11,
                      stop_tol=None)
    X0 = np.random.default_rng(8).normal(size=(5, 3))
    lids = [t.leaf_ids(X0) for t in long.trees[:3]]
    assert np.array_equal(long.weights_from_leaf_ids(lids, 5), short.weight_matrix(X0))
    assert np.array_equal(long.predictions_from_leaf_ids(lids, 5), short.predict(X0))
    assert np.array_equal(long.train_mse_history[:3], short.train_mse_history)
    prefix = long.weights_from_leaf_ids(long.train_leaf_ids[:3], long.n_train)
    assert np.array_equal(prefix, short.train_weight_state)


def test_training_error_non_increasing():
    X, y = _random_instance(9, n=40)
    model = fit_boost(X, y, n_rounds=30, learning_rate=0.85, leaf_budget=6, seed=2,
                      stop_tol=None)
    mse = model.train_mse_history
    assert np.all(np.diff(mse) <= 1e-12)


@pytest.mark.parametrize("reverse", [False, True], ids=["short_first", "long_first"])
def test_runs_sharing_feature_draws_equal_solo_runs(reverse):
    # one seed, several target columns that stop at different rounds: each
    # run reads the draws the others made, up to its own last round
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 9))
    Y = rng.normal(size=(40, 4)) * np.array([1e-3, 0.05, 1.0, 20.0])
    columns = list(range(4))[::-1] if reverse else range(4)
    draws, order = FeatureDraws(), presort(X)
    rounds = []
    for c in columns:
        kwargs = dict(n_rounds=200, learning_rate=0.5, leaf_budget=4, seed=7,
                      stop_tol=1e-4, subset_size=3)
        shared = fit_boost(X, Y[:, c], order=order, draws=draws, **kwargs)
        solo = fit_boost(X, Y[:, c], **kwargs)
        assert shared.n_rounds == solo.n_rounds
        rounds.append(solo.n_rounds)
        assert shared.train_mse_history.tobytes() == solo.train_mse_history.tobytes()
        for a, b in zip(shared.trees, solo.trees):
            assert np.array_equal(a.feature, b.feature)
            assert a.threshold.tobytes() == b.threshold.tobytes()
            assert a.leaf_values.tobytes() == b.leaf_values.tobytes()
    assert len(set(rounds)) == len(rounds)  # every column stops at its own round
    assert max(rounds) < 200


def test_early_stop_tolerance():
    X, y = _random_instance(10, n=20, d=1)
    hit = fit_boost(X, y, n_rounds=500, learning_rate=1.0, leaf_budget=20, seed=0,
                    stop_tol=1e-4, subset_size=1)
    assert hit.n_rounds == 1  # full-budget unit-rate round interpolates at once
    capped = fit_boost(X, y, n_rounds=7, learning_rate=0.2, leaf_budget=2, seed=0,
                       stop_tol=None)
    assert capped.n_rounds == 7


def test_weights_approach_identity_as_training_error_vanishes():
    X, y = _random_instance(11, n=10, d=1)
    model = fit_boost(X, y, n_rounds=40, learning_rate=0.7, leaf_budget=10, seed=5,
                      stop_tol=None, subset_size=1)
    assert model.train_mse_history[-1] <= 1e-12
    assert np.max(np.abs(model.train_weight_state - np.eye(10))) <= 1e-5


def test_leaf_values_are_mean_residuals():
    X, y = _random_instance(12, n=25)
    model = fit_boost(X, y, n_rounds=8, learning_rate=0.85, leaf_budget=4, seed=7,
                      stop_tol=None)
    for p, tree in enumerate(model.trees, start=1):
        prev = model.predictions_from_leaf_ids(model.train_leaf_ids[:p - 1], 25)
        residual = y - prev
        for j, members in enumerate(tree.leaf_members):
            assert tree.leaf_values[j] == pytest.approx(
                residual[np.asarray(members)].mean(), abs=1e-10
            )


def test_history_lengths_and_state_norms():
    X, y = _random_instance(13, n=18)
    model = fit_boost(X, y, n_rounds=9, learning_rate=0.5, leaf_budget=3, seed=0,
                      stop_tol=None)
    assert model.n_rounds == 9
    assert model.train_mse_history.shape == (9,)
    # the carried state has the norm of the replayed rows at its round count
    lids = model.train_leaf_ids
    final = float(np.sum(model.train_weight_state ** 2))
    replayed = model.weights_from_leaf_ids(lids, 18)
    assert float(np.sum(replayed ** 2)) == pytest.approx(final, rel=1e-12)
    short = fit_boost(X, y, n_rounds=4, learning_rate=0.5, leaf_budget=3, seed=0,
                      stop_tol=None)
    mid = float(np.sum(short.train_weight_state ** 2))
    replayed = model.weights_from_leaf_ids(lids[:4], 18)
    assert float(np.sum(replayed ** 2)) == pytest.approx(mid, rel=1e-12)


def test_weights_from_leaf_ids_matches_weight_matrix():
    X, y = _random_instance(14, n=22)
    model = fit_boost(X, y, n_rounds=6, learning_rate=0.85, leaf_budget=4, seed=3,
                      stop_tol=None)
    X0 = np.random.default_rng(15).normal(size=(7, 3))
    lids = [t.leaf_ids(X0) for t in model.trees]
    rebuilt = model.weights_from_leaf_ids(lids, 7)
    assert np.array_equal(rebuilt, model.weight_matrix(X0))
    prefix = model.weights_from_leaf_ids(lids[:2], 7)
    short = fit_boost(X, y, n_rounds=2, learning_rate=0.85, leaf_budget=4, seed=3,
                      stop_tol=None)
    assert np.array_equal(prefix, short.weight_matrix(X0))


def test_weight_steps_build_each_round_from_leaf_ids_as_the_tree_does():
    X, y = _random_instance(22, n=26)
    model = fit_boost(X, y, n_rounds=5, learning_rate=0.7, leaf_budget=5, seed=4,
                      stop_tol=None)
    state = np.zeros((26, 26))
    steps = weight_steps(model.train_leaf_ids, 0.7, 26)
    for tree, (W, R, next_state) in zip(model.trees, steps, strict=True):
        assert np.array_equal(W, tree.leaf_weight_rows())
        for j, members in enumerate(tree.leaf_members):
            assert np.array_equal(R[j], state[members].sum(axis=0) / members.size)
        state = next_state
    assert np.array_equal(state, model.train_weight_state)


def test_parameter_validation():
    X, y = _toy()
    for bad_lr in (0.0, -0.1, 1.2):
        with pytest.raises(ValidationError):
            fit_boost(X, y, n_rounds=2, learning_rate=bad_lr, leaf_budget=2, seed=0)
    with pytest.raises(ValidationError):
        fit_boost(X, y, n_rounds=0, learning_rate=0.5, leaf_budget=2, seed=0)
    with pytest.raises(ValidationError):
        fit_boost(X, y, n_rounds=2, learning_rate=0.5, leaf_budget=0, seed=0)


# ---------------------------------------------------------------------------
# Boosted ensembles
# ---------------------------------------------------------------------------


def test_boost_ensemble_single_member_matches_solo_run():
    X, y = _random_instance(16)
    ens = fit_boost_ensemble(X, y, n_rounds=5, p_ens=1, base_seed=20,
                             learning_rate=0.85, leaf_budget=4)
    solo = fit_boost(X, y, n_rounds=5, learning_rate=0.85, leaf_budget=4, seed=21,
                     stop_tol=None)
    X0 = np.random.default_rng(17).normal(size=(6, 3))
    assert np.array_equal(ens.predict(X0), solo.predict(X0))
    assert np.array_equal(ens.weight_matrix(X0), solo.weight_matrix(X0))


def test_boost_ensemble_averages_members():
    X, y = _random_instance(18)
    ens = fit_boost_ensemble(X, y, n_rounds=6, p_ens=4, base_seed=0,
                             learning_rate=0.5, leaf_budget=3)
    X0 = np.random.default_rng(19).normal(size=(9, 3))
    mean_pred = np.mean([m.predict(X0) for m in ens.members], axis=0)
    assert np.allclose(ens.predict(X0), mean_pred, atol=1e-12)
    mean_w = np.mean([m.weight_matrix(X0) for m in ens.members], axis=0)
    assert np.allclose(ens.weight_matrix(X0), mean_w, atol=1e-12)
    # a shorter ensemble averages the members' round prefixes
    short = fit_boost_ensemble(X, y, n_rounds=3, p_ens=4, base_seed=0,
                               learning_rate=0.5, leaf_budget=3)
    mean_pred3 = np.mean(
        [m.predictions_from_leaf_ids([t.leaf_ids(X0) for t in m.trees[:3]], 9)
         for m in ens.members],
        axis=0,
    )
    assert np.allclose(short.predict(X0), mean_pred3, atol=1e-12)


def test_boost_ensemble_duality():
    X, y = _random_instance(20)
    ens = fit_boost_ensemble(X, y, n_rounds=4, p_ens=3, base_seed=5,
                             learning_rate=0.85, leaf_budget=4)
    X0 = np.random.default_rng(21).normal(size=(5, 3))
    assert np.allclose(ens.weight_matrix(X0) @ y, ens.predict(X0), atol=1e-10)
    assert isinstance(ens, AveragedSmoother)
    assert all(isinstance(m, BoostedModel) for m in ens.members)
    assert ens.n_train == 30


def test_boost_ensemble_validation():
    X, y = _toy()
    with pytest.raises(ValidationError):
        fit_boost_ensemble(X, y, n_rounds=2, p_ens=0, base_seed=0)
