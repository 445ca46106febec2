"""Shared fixtures: IDX serialization helpers and small image datasets."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from smootherlab.dataset import Dataset, synth_images


def _write_idx_pair(dirpath, ds: Dataset, side: int):
    """Serialize a square-image dataset to a big-endian IDX pair.

    Pixel values are quantized to uint8, so the round-tripped features are
    the quantized values divided by 255 (not bitwise equal to ``ds.features``).
    """
    pixels = np.clip(np.rint(ds.features * 255.0), 0, 255).astype(np.uint8)
    images_path = dirpath / f"{ds.name or 'data'}-images-idx3-ubyte"
    labels_path = dirpath / f"{ds.name or 'data'}-labels-idx1-ubyte"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, ds.n, side, side))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, ds.n))
        fh.write(ds.class_labels.astype(np.uint8).tobytes())
    return images_path, labels_path


def _split(ds: Dataset, n_first: int) -> tuple[Dataset, Dataset]:
    return ds.take(slice(None, n_first)), ds.take(slice(n_first, None))


@pytest.fixture
def idx_writer():
    return _write_idx_pair


@pytest.fixture(scope="session")
def toy_images():
    """60 train / 120 test noisy prototype images, 3 classes, 36 pixels."""
    full = synth_images(180, side=6, n_classes=3, noise_std=0.25, seed=7, label_noise=0.15)
    return _split(full, 60)
