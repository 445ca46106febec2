"""The smoother protocol, checked on random shapes and seeds for every model.

Every model exposes ``n_train``, ``weight_matrix(X0)``, ``predict(X0)`` and
``train_predictions()``. Two identities must hold for each: the weights
reproduce the predictions (C04's duality, relative 1e-8), and the fitted
values at the training points are the training-input weights times y.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smootherlab.boosting import fit_boost, fit_boost_ensemble
from smootherlab.knn import fit_knn
from smootherlab.linear import fit_minnorm, fit_ols, fit_pcr, fit_svd_basis
from smootherlab.rff import RffModel, sample_frequencies, transform
from smootherlab.trees import fit_ensemble, fit_tree

REL_TOL = 1e-8


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-12))


def _smoothers(rng, n, d, seed):
    """(name, model, training inputs, query inputs) for every smoother kind."""
    X = rng.uniform(size=(n, d))
    X0 = rng.uniform(size=(7, d))
    y = rng.normal(size=n)
    p = n + 3
    Phi, Phi0 = rng.normal(size=(n, p)), rng.normal(size=(7, p))
    # wide frequencies and few principal components keep the cosine design of
    # low-d inputs well conditioned, so its identities hold to the tolerance
    fmap = sample_frequencies(seed, 2 * n, d, scale=3.0)
    rff_fit = fit_pcr(transform(fmap, X, 2 * n), y, max(1, n // 4))
    models = [
        ("ols", fit_ols(Phi[:, : n // 2], y), Phi[:, : n // 2], Phi0[:, : n // 2]),
        ("minnorm", fit_minnorm(Phi, y), Phi, Phi0),
        ("svd_basis", fit_svd_basis(Phi, y), Phi, Phi0),
        ("pcr", fit_pcr(Phi, y, max(1, n // 3)), Phi, Phi0),
        ("rff", RffModel(fmap, 2 * n, rff_fit), X, X0),
        ("tree", fit_tree(X, y, max(2, n // 3), seed=seed), X, X0),
        ("forest", fit_ensemble(X, y, max(2, n // 3), 3, base_seed=seed), X, X0),
        ("boost", fit_boost(X, y, n_rounds=6, leaf_budget=4, seed=seed), X, X0),
        ("boost_ensemble",
         fit_boost_ensemble(X, y, 4, 3, base_seed=seed, leaf_budget=4), X, X0),
        ("knn", fit_knn(X, y, min(3, n)), X, X0),
    ]
    return y, models


@settings(deadline=None, max_examples=8)
@given(
    n=st.integers(min_value=8, max_value=24),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_smoother_keeps_the_protocol_identities(n, d, seed):
    y, models = _smoothers(np.random.default_rng(seed), n, d, seed)
    for name, model, X, X0 in models:
        assert model.n_train == n, name
        W0 = model.weight_matrix(X0)
        assert W0.shape == (X0.shape[0], n), name
        assert _gap(W0 @ y, model.predict(X0)) <= REL_TOL, name
        fitted = model.train_predictions()
        assert _gap(model.weight_matrix(X) @ y, fitted) <= REL_TOL, name
