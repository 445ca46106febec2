"""Random cosine feature maps with prefix-stable frequency rows.

Feature p of input x is cos(v_p . x) with v_p ~ N(0, scale^2 I_d) drawn
independently per row. Row p is generated from a counter-based stream keyed by
(seed, p), so the first p rows of a wider map equal a narrower map with the
same seed bit for bit — growing the map never reshuffles earlier features.
An ``RffMap`` holds only (seed, scale, p_max, d): it draws its rows BLOCK at a
time, the first time a block is read (``RffMap.block``), so building a map
costs nothing and a process draws only the blocks it reads.
``transform`` computes the cosines in the same blocks (``feature_block``), so
a feature's float value does not depend on how many columns are requested
either. ``RffModel`` wraps a linear fit on these features as a smoother of
raw inputs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_SCALE = 0.2  # frequency std dev 1/5 for inputs scaled into [0, 1]
BLOCK = 256  # frequency rows per matrix product in transform


def _frequency_row(seed: int, row: int, d: int, scale: float) -> np.ndarray:
    ss = np.random.SeedSequence(seed, spawn_key=(row,))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.normal(0.0, scale, size=d)


def _check_int(name: str, value, low: int) -> None:
    try:
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if number < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class RffMap:
    """Frequency rows (p_max, d), drawn BLOCK rows at a time on first read.

    Each drawn block is kept read-only in a memo that equality and hashing
    ignore: two maps with the same (seed, scale, p_max, d) are equal however
    many of their blocks have been drawn.
    """

    seed: int
    scale: float
    p_max: int
    d: int
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # rows are drawn later, possibly in a pool worker, so a seed the
        # row streams would reject fails here
        _check_int("seed", self.seed, 0)
        _check_int("p_max", self.p_max, 1)
        _check_int("d", self.d, 1)
        if not self.scale > 0:
            raise ValidationError(f"scale must be > 0, got {self.scale}")

    def block(self, start: int) -> np.ndarray:
        """Rows start .. start + BLOCK (fewer where the map ends), read-only."""
        if start % BLOCK or not 0 <= start < self.p_max:
            raise ValidationError(
                f"block start must be a multiple of {BLOCK} in [0, {self.p_max}), got {start}"
            )
        rows = self._blocks.get(start)
        if rows is None:
            rows = np.stack([
                _frequency_row(self.seed, p, self.d, self.scale)
                for p in range(start, min(start + BLOCK, self.p_max))
            ])
            rows.setflags(write=False)
            self._blocks[start] = rows
        return rows

    @property
    def frequencies(self) -> np.ndarray:
        """All p_max rows, read-only."""
        rows = np.concatenate([self.block(s) for s in range(0, self.p_max, BLOCK)])
        rows.setflags(write=False)
        return rows


def sample_frequencies(seed: int, p_max: int, d: int, scale: float = DEFAULT_SCALE) -> RffMap:
    """The map of p_max frequency rows for d-dimensional inputs. Its
    arguments are checked now; no row is drawn until a block is read."""
    return RffMap(seed=seed, scale=scale, p_max=p_max, d=d)


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
    map ends), from one matrix product with ``fmap.block(start)``;
    ``transform`` is built from these."""
    return np.cos(X @ fmap.block(start).T)


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
