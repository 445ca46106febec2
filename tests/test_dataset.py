"""Dataset containers, IDX/CSV ingestion, subsampling, synthetic generators."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smootherlab.dataset import (
    GENERATORS,
    Dataset,
    SyntheticSpec,
    load_csv,
    load_idx,
    normalize_minmax,
    one_vs_all_targets,
    subsample,
    synth_generate,
    synth_images,
)
from smootherlab.errors import FormatError, ValidationError


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------


def _idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n, rows, cols = images.shape
    img = struct.pack(">iiii", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">ii", 0x00000801, n) + labels.astype(np.uint8).tobytes()
    return img, lab


def test_idx_roundtrip_known_bytes(tmp_path):
    images = np.array(
        [
            [[0, 128, 255], [1, 2, 3]],
            [[255, 0, 0], [10, 20, 30]],
        ],
        dtype=np.uint8,
    )
    labels = np.array([1, 0], dtype=np.uint8)
    img, lab = _idx_bytes(images, labels)
    (tmp_path / "im").write_bytes(img)
    (tmp_path / "lb").write_bytes(lab)

    ds = load_idx(tmp_path / "im", tmp_path / "lb", name="toy")
    assert ds.n == 2 and ds.d == 6
    assert np.array_equal(ds.features, images.reshape(2, 6) / 255.0)
    assert np.array_equal(ds.class_labels, np.array([1, 0]))
    assert np.array_equal(ds.targets, np.array([1.0, 0.0]))
    assert ds.name == "toy"


def test_idx_pixel_scaling_endpoints(tmp_path):
    img, lab = _idx_bytes(np.array([[[255]]], dtype=np.uint8), np.array([4], dtype=np.uint8))
    (tmp_path / "im").write_bytes(img)
    (tmp_path / "lb").write_bytes(lab)
    ds = load_idx(tmp_path / "im", tmp_path / "lb")
    assert ds.features[0, 0] == 1.0


def test_idx_bad_magic(tmp_path):
    img, lab = _idx_bytes(np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
    (tmp_path / "im").write_bytes(b"\x00\x00\x09\x03" + img[4:])
    (tmp_path / "lb").write_bytes(lab)
    with pytest.raises(FormatError):
        load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_truncated_payload(tmp_path):
    img, lab = _idx_bytes(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    (tmp_path / "im").write_bytes(img[:-5])
    (tmp_path / "lb").write_bytes(lab)
    with pytest.raises(FormatError):
        load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_truncated_header(tmp_path):
    (tmp_path / "im").write_bytes(b"\x00\x00\x08\x03\x00")
    (tmp_path / "lb").write_bytes(b"")
    with pytest.raises(FormatError):
        load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_count_mismatch(tmp_path):
    img, _ = _idx_bytes(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    _, lab = _idx_bytes(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    (tmp_path / "im").write_bytes(img)
    (tmp_path / "lb").write_bytes(lab)
    with pytest.raises(FormatError):
        load_idx(tmp_path / "im", tmp_path / "lb")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_csv_load(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,label\n0.0,10.0,0\n2.0,30.0,1\n4.0,20.0,1\n")
    ds = load_csv(path, name="csv-toy")
    assert ds.n == 3 and ds.d == 2
    # min-max normalization maps each column onto [0, 1]
    assert np.allclose(ds.features[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(ds.features[:, 1], [0.0, 1.0, 0.5])
    assert np.array_equal(ds.class_labels, [0, 1, 1])
    assert ds.name == "csv-toy"


def test_csv_without_normalization(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,label\n3.0,0\n7.0,1\n")
    ds = load_csv(path, normalize=False)
    assert np.array_equal(ds.features[:, 0], [3.0, 7.0])


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,label\n1.0,2.0,0\n3.0,1\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,label\n1.0,0.5\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_non_numeric_field(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,label\noops,0\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,label\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        load_csv(path)


def test_normalize_minmax_idempotent():
    rng = np.random.default_rng(0)
    ds = Dataset(features=rng.normal(size=(20, 4)) * 7.0 + 3.0, targets=np.zeros(20))
    once = normalize_minmax(ds)
    twice = normalize_minmax(once)
    assert np.allclose(once.features, twice.features, atol=1e-15)
    assert once.features.min() >= 0.0 and once.features.max() <= 1.0


def test_normalize_minmax_with_a_reference_scale():
    train = Dataset(features=np.array([[0.0, 10.0], [4.0, 30.0]]), targets=np.zeros(2))
    test = Dataset(features=np.array([[1.0, 30.0]]), targets=np.zeros(1))
    # a one-row set keeps its values on the reference's scale
    assert np.array_equal(normalize_minmax(test, train).features, [[0.25, 1.0]])
    with pytest.raises(ValidationError, match="d=1"):
        normalize_minmax(test, Dataset(features=np.zeros((2, 1)), targets=np.zeros(2)))


def test_normalize_minmax_constant_column():
    ds = Dataset(features=np.array([[1.0, 5.0], [1.0, 6.0]]), targets=np.zeros(2))
    out = normalize_minmax(ds)
    assert np.array_equal(out.features[:, 0], [0.0, 0.0])
    assert np.array_equal(out.features[:, 1], [0.0, 1.0])


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Dataset(features=np.array([[np.nan]]), targets=np.array([1.0]))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(2))


def test_dataset_rejects_negative_labels():
    with pytest.raises(ValidationError):
        Dataset(
            features=np.zeros((2, 1)),
            targets=np.zeros(2),
            class_labels=np.array([0, -1]),
        )


# ---------------------------------------------------------------------------
# Subsampling
# ---------------------------------------------------------------------------


def _labeled_dataset(n: int, n_classes: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    return Dataset(
        features=rng.uniform(size=(n, 3)),
        targets=np.arange(n, dtype=float),
        class_labels=labels,
    )


def test_subsample_deterministic_and_without_replacement():
    ds = _labeled_dataset(50, 4)
    a = subsample(ds, 20, seed=3)
    b = subsample(ds, 20, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    # targets were arange(n), so uniqueness of drawn targets = no replacement
    assert np.unique(a.targets).size == 20


def test_subsample_full_size_is_permutation():
    ds = _labeled_dataset(30, 3)
    out = subsample(ds, 30, seed=1)
    assert np.array_equal(np.sort(out.targets), np.arange(30, dtype=float))


def test_subsample_balanced_exact_quotas():
    ds = _labeled_dataset(60, 3, seed=5)
    out = subsample(ds, 12, seed=2, balanced=True)
    counts = np.bincount(out.class_labels, minlength=3)
    assert np.array_equal(counts, [4, 4, 4])


def test_subsample_balanced_near_quotas():
    ds = _labeled_dataset(60, 4, seed=5)
    out = subsample(ds, 10, seed=2, balanced=True)
    counts = np.bincount(out.class_labels, minlength=4)
    assert counts.sum() == 10
    assert counts.max() - counts.min() <= 1


def test_subsample_balanced_infeasible():
    ds = Dataset(
        features=np.zeros((4, 1)),
        targets=np.zeros(4),
        class_labels=np.array([0, 0, 0, 1]),
    )
    with pytest.raises(ValidationError):
        subsample(ds, 4, seed=0, balanced=True)


def test_subsample_out_of_range():
    ds = _labeled_dataset(10, 2)
    with pytest.raises(ValidationError):
        subsample(ds, 11, seed=0)
    with pytest.raises(ValidationError):
        subsample(ds, 0, seed=0)


# ---------------------------------------------------------------------------
# One-vs-all tasks
# ---------------------------------------------------------------------------


def test_one_vs_all_partitions_mass():
    ds = _labeled_dataset(40, 5, seed=9)
    Y = one_vs_all_targets(ds, ds.task_classes)
    assert Y.shape == (40, ds.n_classes)
    assert np.array_equal(Y.sum(axis=1), np.ones(40))
    for c in range(ds.n_classes):
        y = one_vs_all_targets(ds, ds.task_classes, column=c)
        assert np.array_equal(y, Y[:, c])
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert np.array_equal(y == 1.0, ds.class_labels == c)


def test_one_vs_all_requires_labels():
    ds = Dataset(features=np.zeros((3, 1)), targets=np.arange(3.0))
    with pytest.raises(ValidationError, match="no class labels"):
        one_vs_all_targets(ds, 2)
    # unlabeled data is plain regression: the targets are the single task
    assert ds.task_classes == 0
    assert np.array_equal(one_vs_all_targets(ds, 0), ds.targets[:, None])
    assert np.array_equal(one_vs_all_targets(ds, 0, column=0), ds.targets)


def test_one_vs_all_requires_two_classes():
    ds = Dataset(
        features=np.zeros((3, 1)),
        targets=np.zeros(3),
        class_labels=np.array([0, 0, 0]),
    )
    # a single class gives no one-vs-all split: the data is plain regression
    assert ds.task_classes == 0
    assert np.array_equal(one_vs_all_targets(ds, ds.task_classes), ds.targets[:, None])


def test_one_vs_all_rejects_labels_outside_the_train_classes():
    train = _labeled_dataset(12, 3, seed=4)
    test = Dataset(
        features=np.zeros((3, 1)),
        targets=np.zeros(3),
        class_labels=np.array([0, 3, 1]),
        name="probe",
    )
    with pytest.raises(ValidationError, match="probe has class label 3"):
        one_vs_all_targets(test, train.task_classes)
    with pytest.raises(ValidationError, match="class_index 3 out of range"):
        one_vs_all_targets(train, train.task_classes, column=3)


@settings(deadline=None, max_examples=25)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30).filter(
        lambda ls: max(ls) >= 1
    )
)
def test_one_vs_all_partition_property(labels):
    n = len(labels)
    ds = Dataset(
        features=np.linspace(0.0, 1.0, n).reshape(n, 1),
        targets=np.zeros(n),
        class_labels=np.array(labels),
    )
    Y = one_vs_all_targets(ds, ds.task_classes)
    assert np.array_equal(Y.sum(axis=1), np.ones(n))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def test_generator_registry():
    assert set(GENERATORS) == {"constant", "linear", "sine"}


def test_synth_noise_free_matches_truth():
    spec = SyntheticSpec("sine", n=40, d=2, noise_std=0.0, seed=1)
    ds = synth_generate(spec)
    assert np.array_equal(ds.targets, ds.true_values)
    assert np.array_equal(ds.true_values, np.sin(2.0 * np.pi * ds.features[:, 0]))


def test_synth_linear_form():
    spec = SyntheticSpec("linear", n=25, d=4, noise_std=0.0, seed=2)
    ds = synth_generate(spec)
    expected = ds.features.sum(axis=1) / np.sqrt(4.0)
    assert np.allclose(ds.true_values, expected, atol=1e-12)


def test_synth_constant_form():
    spec = SyntheticSpec("constant", n=10, d=3, noise_std=0.0, seed=3)
    ds = synth_generate(spec)
    assert np.array_equal(ds.true_values, np.ones(10))


def test_synth_deterministic():
    spec = SyntheticSpec("sine", n=30, d=3, noise_std=0.5, seed=11)
    a = synth_generate(spec)
    b = synth_generate(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_synth_unknown_generator():
    with pytest.raises(ValidationError):
        SyntheticSpec("cubic", n=10, d=1, noise_std=0.0, seed=0)


def test_synth_noise_mean_within_sampling_error():
    spec = SyntheticSpec("constant", n=100_000, d=1, noise_std=1.0, seed=4)
    ds = synth_generate(spec)
    residual = ds.targets - ds.true_values
    assert abs(residual.mean()) < 4.0 / np.sqrt(100_000)
    assert abs(residual.std() - 1.0) < 0.02


def test_synth_features_in_unit_cube():
    ds = synth_generate(SyntheticSpec("linear", n=200, d=5, noise_std=0.1, seed=6))
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


# ---------------------------------------------------------------------------
# Synthetic image surrogate
# ---------------------------------------------------------------------------


def test_synth_images_shapes_and_ranges():
    ds = synth_images(90, side=6, n_classes=3, noise_std=0.25, seed=0, label_noise=0.1)
    assert ds.n == 90 and ds.d == 36
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert set(np.unique(ds.class_labels)) <= {0, 1, 2}
    assert ds.n_classes == 3


def test_synth_images_deterministic():
    a = synth_images(40, side=4, n_classes=2, noise_std=0.2, seed=5)
    b = synth_images(40, side=4, n_classes=2, noise_std=0.2, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.class_labels, b.class_labels)


def test_synth_images_label_noise_flips_some():
    clean = synth_images(200, side=4, n_classes=4, noise_std=0.1, seed=8, label_noise=0.0)
    noisy = synth_images(200, side=4, n_classes=4, noise_std=0.1, seed=8, label_noise=0.3)
    flipped = np.mean(clean.class_labels != noisy.class_labels)
    assert 0.05 < flipped < 0.5


def test_synth_images_validation():
    with pytest.raises(ValidationError):
        synth_images(10, side=4, n_classes=1)
    with pytest.raises(ValidationError):
        synth_images(0, side=4, n_classes=2)


def test_idx_writer_roundtrip(tmp_path, idx_writer):
    ds = synth_images(30, side=5, n_classes=3, noise_std=0.25, seed=2)
    im, lb = idx_writer(tmp_path, ds, 5)
    back = load_idx(im, lb)
    assert back.n == 30 and back.d == 25
    assert np.array_equal(back.class_labels, ds.class_labels)
    # uint8 quantization keeps pixels within half a grey level
    assert np.max(np.abs(back.features - ds.features)) <= 0.5 / 255.0 + 1e-12
