"""Random cosine feature maps with prefix-stable frequency rows.

Feature p of input x is cos(v_p . x) with v_p ~ N(0, scale^2 I_d) drawn
independently per row. Row p is generated from a counter-based stream keyed by
(seed, p), so the first p rows of a wider map equal a narrower map with the
same seed bit for bit — growing the map never reshuffles earlier features.
``transform`` computes the cosines in fixed blocks of BLOCK rows
(``feature_block``), so a feature's float value does not depend on how many
columns are requested either. ``RffModel`` wraps a linear fit on these
features as a smoother of raw inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_SCALE = 0.2  # frequency std dev 1/5 for inputs scaled into [0, 1]
BLOCK = 256  # frequency rows per matrix product in transform


def _frequency_row(seed: int, row: int, d: int, scale: float) -> np.ndarray:
    ss = np.random.SeedSequence(seed, spawn_key=(row,))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.normal(0.0, scale, size=d)


@dataclass(frozen=True)
class RffMap:
    """An immutable bank of sampled frequency rows (p_max, d)."""

    frequencies: np.ndarray
    seed: int
    scale: float

    @property
    def p_max(self) -> int:
        return self.frequencies.shape[0]

    @property
    def d(self) -> int:
        return self.frequencies.shape[1]


def sample_frequencies(seed: int, p_max: int, d: int, scale: float = DEFAULT_SCALE) -> RffMap:
    """Sample p_max frequency rows for d-dimensional inputs."""
    if p_max < 1:
        raise ValidationError(f"p_max must be >= 1, got {p_max}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if scale <= 0:
        raise ValidationError(f"scale must be > 0, got {scale}")
    rows = np.empty((p_max, d))
    for p in range(p_max):
        rows[p] = _frequency_row(seed, p, d, scale)
    rows.setflags(write=False)
    return RffMap(frequencies=rows, seed=seed, scale=scale)


def transform(fmap: RffMap, X: np.ndarray, p_phi: int) -> np.ndarray:
    """Feature matrix (m, p_phi): entry (i, p) = cos(v_p . x_i).

    Values lie in [-1, 1]; a narrower transform is exactly the column prefix
    of a wider one. Columns are computed BLOCK frequency rows at a time (the
    last block as wide as the map allows), so each column comes from the
    same matrix product whatever p_phi is.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[1] != fmap.d:
        raise ValidationError(f"X has d={X.shape[1]}, map expects d={fmap.d}")
    if not (1 <= p_phi <= fmap.p_max):
        raise ValidationError(f"p_phi must be in [1, {fmap.p_max}], got {p_phi}")
    blocks = [
        feature_block(fmap, X, start)[:, : p_phi - start]
        for start in range(0, p_phi, BLOCK)
    ]
    return np.concatenate(blocks, axis=1)


def feature_block(fmap: RffMap, X: np.ndarray, start: int) -> np.ndarray:
    """Columns start .. start + BLOCK of the feature matrix (fewer where the
    map ends), from one matrix product; ``transform`` is built from these."""
    return np.cos(X @ fmap.frequencies[start : start + BLOCK].T)


@dataclass
class RffModel:
    """A linear fit on ``transform(fmap, X, p_phi)``, queried with raw inputs."""

    fmap: RffMap
    p_phi: int
    fit: object  # a linear.LinearFit on the training features

    @property
    def n_train(self) -> int:
        return self.fit.n_train

    def features(self, X0: np.ndarray) -> np.ndarray:
        return transform(self.fmap, np.atleast_2d(X0), self.p_phi)

    def weight_matrix(self, X0: np.ndarray) -> np.ndarray:
        return self.fit.weight_matrix(self.features(X0))

    def predict(self, X0: np.ndarray) -> np.ndarray:
        return self.fit.predict(self.features(X0))

    def train_predictions(self) -> np.ndarray:
        return self.fit.train_predictions()
