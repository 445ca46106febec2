"""k-nearest-neighbour smoother, used as the calibration reference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import xy_arrays
from .errors import ValidationError

BLOCK = 16  # query rows per (rows, n, d) difference tensor in weight_matrix


@dataclass
class KnnSmoother:
    features: np.ndarray
    targets: np.ndarray
    k: int

    @property
    def n_train(self) -> int:
        return self.features.shape[0]

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        # squared distances BLOCK query rows at a time; each row's sum is the
        # same whatever the block, and memory stays at BLOCK * n * d floats
        d2 = np.empty((X0.shape[0], self.n_train))
        for start in range(0, X0.shape[0], BLOCK):
            diff = X0[start : start + BLOCK, None, :] - self.features[None, :, :]
            d2[start : start + BLOCK] = (diff**2).sum(axis=2)
        # stable sort: distance ties resolve toward the lower training index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        W = np.zeros((X0.shape[0], self.n_train))
        np.put_along_axis(W, nearest, 1.0 / self.k, axis=1)
        return W

    def predict(self, X0: np.ndarray) -> np.ndarray:
        return self.weight_matrix(X0) @ self.targets

    def train_predictions(self) -> np.ndarray:
        return self.predict(self.features)


def fit_knn(X: np.ndarray, y: np.ndarray, k: int) -> KnnSmoother:
    X, y = xy_arrays(X, y)
    if not (1 <= k <= X.shape[0]):
        raise ValidationError(f"k must be in [1, n={X.shape[0]}], got {k}")
    return KnnSmoother(features=X, targets=y, k=k)
