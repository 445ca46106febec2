"""Dataset containers, ingestion (IDX / CSV), subsampling, one-vs-all
targets and synthetic generators.

All feature matrices are float64 with rows as examples. IDX pixels are
divided by 255 into [0, 1]; CSV values are read as they are, and
``normalize_minmax`` scales them when asked. Synthetic generators draw inputs
from [0, 1]^d directly.
"""
from __future__ import annotations

import csv as _csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

_IDX_MAGIC_LABELS = 0x00000801
_IDX_MAGIC_IMAGES = 0x00000803


# --------------------------------------------------------------------------- containers


@dataclass
class Dataset:
    """A supervised sample: features (n, d), regression targets (n,).

    ``class_labels`` is present for classification data (integer labels in
    0..n_classes-1); ``true_values`` holds the noiseless target for synthetic
    data, used by bias/variance diagnostics.
    """

    features: np.ndarray
    targets: np.ndarray
    class_labels: np.ndarray | None = None
    name: str = ""
    true_values: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {self.features.shape}")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got ({n}, {d})")
        if self.targets.shape != (n,):
            raise ValidationError(
                f"targets shape {self.targets.shape} does not match n={n}"
            )
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")
        if not np.isfinite(self.targets).all():
            raise ValidationError("targets contain non-finite values")
        if self.class_labels is not None:
            self.class_labels = np.asarray(self.class_labels)
            if self.class_labels.shape != (n,):
                raise ValidationError("class_labels length does not match n")
            if self.class_labels.min() < 0:
                raise ValidationError("class labels must be non-negative")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.class_labels is None:
            return 0
        return int(self.class_labels.max()) + 1

    @property
    def task_classes(self) -> int:
        """One-vs-all task count: n_classes with at least two classes, else 0
        (plain regression on ``targets``)."""
        return self.n_classes if self.n_classes >= 2 else 0

    def take(self, rows) -> Dataset:
        """The examples at ``rows`` (an index array or a slice)."""
        return Dataset(
            features=self.features[rows],
            targets=self.targets[rows],
            class_labels=None if self.class_labels is None else self.class_labels[rows],
            name=self.name,
            true_values=None if self.true_values is None else self.true_values[rows],
        )


def xy_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    """A model's training inputs as float arrays, X (n, d) and y (n,)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValidationError(f"bad shapes: X {X.shape}, y {y.shape}")
    return X, y


@dataclass
class SyntheticSpec:
    """Named regression generator: y = f*(x) + eps, x ~ U[0,1]^d."""

    generator: str
    n: int
    d: int
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValidationError(
                f"unknown generator {self.generator!r}; choose from {sorted(GENERATORS)}"
            )
        if self.n < 1 or self.d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got ({self.n}, {self.d})")
        if self.noise_std < 0:
            raise ValidationError("noise_std must be >= 0")


# --------------------------------------------------------------------------- IDX ingestion


def _read_idx(path, expect_magic):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}"
        )
    ndim = 1 if expect_magic == _IDX_MAGIC_LABELS else 3
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    count = int(np.prod(dims))
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if body.size != count:
        raise FormatError(
            f"{path}: payload has {body.size} bytes, dimensions imply {count}"
        )
    return dims, body


def load_idx(images_path, labels_path, name: str = "") -> Dataset:
    """Read an IDX image/label file pair into a Dataset.

    Pixels are flattened row-major and scaled into [0, 1] by dividing by 255.
    """
    idims, ibody = _read_idx(images_path, _IDX_MAGIC_IMAGES)
    ldims, lbody = _read_idx(labels_path, _IDX_MAGIC_LABELS)
    n, rows, cols = idims
    if ldims[0] != n:
        raise FormatError(
            f"image/label count mismatch: {n} images vs {ldims[0]} labels"
        )
    X = ibody.reshape(n, rows * cols).astype(float) / 255.0
    labels = lbody.astype(int)
    return Dataset(
        features=X,
        targets=labels.astype(float),
        class_labels=labels,
        name=name or str(images_path),
    )


# --------------------------------------------------------------------------- CSV ingestion


def load_csv(path, name: str = "") -> Dataset:
    """Read a numeric CSV with a header row, values unscaled; the last column
    is the class label."""
    try:
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if header is None:
        raise FormatError(f"{path}: empty file")
    if not rows:
        raise FormatError(f"{path}: header but no data rows")
    width = len(header)
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise FormatError(f"{path}: row {i + 1}: {exc}") from None
    X, labels = data[:, :-1], data[:, -1]
    if not np.all(labels == np.round(labels)):
        raise FormatError(f"{path}: last column must hold integer class labels")
    return Dataset(
        features=X,
        targets=labels,
        class_labels=labels.astype(int),
        name=name or str(path),
    )


def normalize_minmax(ds: Dataset, reference: Dataset | None = None) -> Dataset:
    """Min-max scale every feature column by the column ranges of ``reference``.

    The reference defaults to ``ds`` itself, which maps every column into
    [0, 1] (constant columns -> 0). Passing the training set scales a test
    set onto the training scale.
    """
    ref = ds if reference is None else reference
    if ref.d != ds.d:
        raise ValidationError(f"{ds.name or 'dataset'} has d={ds.d}, reference has d={ref.d}")
    lo = ref.features.min(axis=0)
    span = ref.features.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return Dataset(
        features=(ds.features - lo) / span,
        targets=ds.targets,
        class_labels=ds.class_labels,
        name=ds.name,
        true_values=ds.true_values,
    )


# --------------------------------------------------------------------------- subsampling


def subsample(ds: Dataset, n_sub: int, seed: int, balanced: bool = False) -> Dataset:
    """Draw n_sub examples without replacement (a permuted subset).

    With ``balanced`` the per-class counts differ by at most one; requires
    class labels and enough examples of every class.
    """
    if not (1 <= n_sub <= ds.n):
        raise ValidationError(f"n_sub must be in [1, {ds.n}], got {n_sub}")
    rng = np.random.default_rng(seed)
    if balanced:
        if ds.class_labels is None:
            raise ValidationError("balanced subsample needs class labels")
        classes = np.unique(ds.class_labels)
        base, extra = divmod(n_sub, classes.size)
        picks = []
        for rank, c in enumerate(classes):
            quota = base + (1 if rank < extra else 0)
            pool = np.nonzero(ds.class_labels == c)[0]
            if pool.size < quota:
                raise ValidationError(
                    f"class {c} has {pool.size} examples, balanced draw needs {quota}"
                )
            picks.append(rng.choice(pool, size=quota, replace=False))
        idx = rng.permutation(np.concatenate(picks))
    else:
        idx = rng.choice(ds.n, size=n_sub, replace=False)
    return ds.take(idx)


def one_vs_all_targets(
    ds: Dataset, n_classes: int, column: int | None = None
) -> np.ndarray:
    """Binary {0, 1} regression targets, one task per class.

    Returns the (n, n_classes) indicator matrix, whose rows sum to 1, or with
    ``column`` that one task's targets as a vector. ``n_classes`` comes from
    the training set (``train.task_classes``); 0 means plain regression, and
    then ``ds.targets`` come back as they are. A label outside
    [0, n_classes), or a column outside that range, raises ValidationError
    naming it.
    """
    if n_classes == 0:
        return ds.targets if column is not None else ds.targets[:, None]
    if column is not None and not (0 <= column < n_classes):
        raise ValidationError(f"class_index {column} out of range [0, {n_classes})")
    labels = ds.class_labels
    name = ds.name or "dataset"
    if labels is None:
        raise ValidationError(f"{name} has no class labels for {n_classes} classes")
    outside = labels[labels >= n_classes]
    if outside.size:
        raise ValidationError(
            f"{name} has class label {int(outside[0])}, outside the "
            f"{n_classes} training classes [0, {n_classes})"
        )
    if column is not None:
        return (labels == column).astype(float)
    Y = np.zeros((ds.n, n_classes))
    Y[np.arange(ds.n), labels] = 1.0
    return Y


# --------------------------------------------------------------------------- synthetic data

GENERATORS = {
    "constant": lambda X: np.ones(X.shape[0]),
    "linear": lambda X: X.sum(axis=1) / np.sqrt(X.shape[1]),
    "sine": lambda X: np.sin(2.0 * np.pi * X[:, 0]),
}


def synth_generate(spec: SyntheticSpec) -> Dataset:
    """Sample a synthetic regression dataset; keeps the noiseless f*(x)."""
    rng = np.random.default_rng(spec.seed)
    X = rng.random((spec.n, spec.d))
    truth = GENERATORS[spec.generator](X)
    y = truth + rng.normal(0.0, spec.noise_std, size=spec.n)
    return Dataset(
        features=X,
        targets=y,
        name=f"synthetic-{spec.generator}",
        true_values=truth,
    )


def synth_images(
    n: int,
    side: int = 28,
    n_classes: int = 10,
    noise_std: float = 0.25,
    seed: int = 0,
    label_noise: float = 0.0,
    name: str = "synthetic-images",
) -> Dataset:
    """Noisy class-prototype images in [0, 1]^(side*side).

    Each class has a fixed random prototype; samples add Gaussian pixel noise
    (clipped back into [0, 1]). ``label_noise`` relabels that fraction of
    examples uniformly at random, which makes interpolation genuinely costly.
    """
    if n_classes < 2:
        raise ValidationError("need at least 2 classes")
    if side < 1:
        raise ValidationError(f"side must be >= 1, got {side}")
    if not noise_std >= 0:  # NaN included
        raise ValidationError(f"noise_std must be >= 0, got {noise_std}")
    if not 0 <= label_noise <= 1:
        raise ValidationError(f"label_noise must be in [0, 1], got {label_noise}")
    rng = np.random.default_rng(seed)
    d = side * side
    protos = rng.uniform(0.15, 0.85, size=(n_classes, d))
    labels = rng.integers(0, n_classes, size=n)
    X = protos[labels] + rng.normal(0.0, noise_std, size=(n, d))
    np.clip(X, 0.0, 1.0, out=X)
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, n_classes, size=int(flip.sum()))
    return Dataset(
        features=X, targets=labels.astype(float), class_labels=labels, name=name
    )
