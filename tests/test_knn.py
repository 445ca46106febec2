"""k-nearest-neighbour smoother: weight structure and prediction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from smootherlab import knn
from smootherlab.errors import ValidationError
from smootherlab.knn import KnnSmoother, fit_knn


def test_weights_uniform_over_neighbours():
    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = fit_knn(X, y, 2)
    W = model.weight_matrix(np.array([[0.4]]))
    assert np.allclose(W[0], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    assert model.predict(np.array([[0.4]]))[0] == pytest.approx(1.5)


def test_k_one_at_train_point_is_indicator():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(9, 2))
    model = fit_knn(X, rng.normal(size=9), 1)
    assert np.allclose(model.weight_matrix(X), np.eye(9), atol=1e-15)


def test_k_equal_n_is_global_mean():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(7, 2))
    y = rng.normal(size=7)
    model = fit_knn(X, y, 7)
    preds = model.predict(rng.uniform(size=(4, 2)))
    assert np.allclose(preds, y.mean(), atol=1e-12)


def test_duality_and_convexity():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_knn(X, y, 4)
    X0 = rng.uniform(size=(10, 3))
    W = model.weight_matrix(X0)
    assert np.all(W >= 0) and np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(W @ y, model.predict(X0), atol=1e-12)
    assert np.array_equal(model.weight_matrix(X0[0][None])[0], W[0])


def test_distance_ties_resolve_deterministically():
    X = np.array([[-1.0], [1.0], [3.0]])
    model = fit_knn(X, np.array([0.0, 1.0, 2.0]), 1)
    # the query at 0 is equidistant from -1 and 1; stable order picks index 0
    W = model.weight_matrix(np.array([[0.0]]))
    assert np.array_equal(W[0], [1.0, 0.0, 0.0])


def test_validation():
    X = np.zeros((5, 2))
    y = np.zeros(5)
    with pytest.raises(ValidationError):
        fit_knn(X, y, 0)
    with pytest.raises(ValidationError):
        fit_knn(X, y, 6)
    with pytest.raises(ValidationError):
        fit_knn(X, y[:3], 2)
    model = fit_knn(X, y, 2)
    assert isinstance(model, KnnSmoother)
    assert model.n_train == 5


def test_blocked_distances_are_bitwise_equal(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 7))
    X0 = rng.uniform(size=(23, 7))
    model = fit_knn(X, rng.normal(size=30), 4)
    monkeypatch.setattr(knn, "BLOCK", 1000)  # one block: the whole tensor
    whole = model.weight_matrix(X0)
    monkeypatch.setattr(knn, "BLOCK", 3)  # 23 rows = 7 full blocks + 2
    assert model.weight_matrix(X0).tobytes() == whole.tobytes()


def test_weight_matrix_memory_stays_below_the_difference_tensor():
    rng = np.random.default_rng(6)
    m, n, d = 400, 60, 40
    model = fit_knn(rng.uniform(size=(n, d)), rng.normal(size=n), 5)
    X0 = rng.uniform(size=(m, d))
    tracemalloc.start()
    try:
        model.weight_matrix(X0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * d * 8 / 4
