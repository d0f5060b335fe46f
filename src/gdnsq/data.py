"""Datasets: synthetic 2-d generators and an IDX-format reader.

``make_synthetic`` produces one split per call; the val split draws from an
independent substream of the same seed, so train and val are disjoint with
probability one and both are bit-reproducible. A ``Dataset`` holds inputs,
labels and the class count; which split it is stays with the caller.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError

SYNTHETIC_KINDS = ("two_gaussians", "concentric_rings")


@dataclass
class Dataset:
    inputs: np.ndarray  # [N, ...] float64
    labels: np.ndarray  # [N] int64
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DomainError("inputs and labels disagree on sample count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise DomainError("labels outside [0, num_classes)")

    def __len__(self):
        return self.inputs.shape[0]


def make_synthetic(kind: str, n: int, seed: int, split: str = "train") -> Dataset:
    if kind not in SYNTHETIC_KINDS:
        raise DomainError(f"unknown synthetic kind {kind!r}")
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")
    if seed < 0:
        raise DomainError(f"data seed must be >= 0, got {seed}")
    if split not in ("train", "val"):
        raise DomainError(f"unknown split {split!r}")
    rng = np.random.default_rng([int(seed), 0 if split == "train" else 1])
    n0 = n // 2
    n1 = n - n0
    if kind == "two_gaussians":
        x0 = rng.normal(loc=(2.0, 2.0), scale=1.0, size=(n0, 2))
        x1 = rng.normal(loc=(-2.0, -2.0), scale=1.0, size=(n1, 2))
    else:
        r0 = rng.normal(1.0, 0.1, size=n0)
        r1 = rng.normal(2.0, 0.1, size=n1)
        a0 = rng.uniform(0.0, 2.0 * np.pi, size=n0)
        a1 = rng.uniform(0.0, 2.0 * np.pi, size=n1)
        x0 = np.stack([r0 * np.cos(a0), r0 * np.sin(a0)], axis=1)
        x1 = np.stack([r1 * np.cos(a1), r1 * np.sin(a1)], axis=1)
    inputs = np.concatenate([x0, x1])
    labels = np.concatenate([np.zeros(n0, np.int64), np.ones(n1, np.int64)])
    order = rng.permutation(n)
    return Dataset(inputs[order], labels[order], num_classes=2)


IDX_UBYTE = 0x08


def read_idx(path, scale: bool = True) -> np.ndarray:
    """Parse one IDX array: big-endian magic, dims, then raw unsigned bytes.

    With ``scale`` the payload is mapped to [0, 1] floats (pixel data);
    label files should pass scale=False to keep raw integer values.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated header, {len(blob)} bytes")
    if blob[0] != 0 or blob[1] != 0:
        off = 0 if blob[0] != 0 else 1
        raise FormatError(f"{path}: bad magic at byte offset {off}")
    dtype_code, ndim = blob[2], blob[3]
    if dtype_code != IDX_UBYTE:
        raise FormatError(
            f"{path}: unsupported dtype code 0x{dtype_code:02x} at byte "
            f"offset 2 (only unsigned byte 0x08)"
        )
    if ndim == 0:
        raise FormatError(f"{path}: no dimensions (byte offset 3 is 0)")
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise FormatError(f"{path}: truncated dimension table at byte offset 4")
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    expected = int(np.prod(dims)) if dims else 0
    payload = blob[header_len:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload length mismatch, expected {expected} bytes, "
            f"got {len(payload)} (payload starts at byte offset {header_len})"
        )
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    if scale:
        return arr.astype(np.float64) / 255.0
    return arr.astype(np.int64)


def load_idx_dataset(images_path, labels_path, num_classes=None) -> Dataset:
    """Combine an image IDX file and a label IDX file into a Dataset;
    FormatError for images of fewer than 2 dimensions, counts that differ
    and a split with no samples."""
    images = read_idx(images_path, scale=True)
    labels = read_idx(labels_path, scale=False)
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: label file must be 1-d")
    if images.ndim < 2:
        raise FormatError(f"{images_path}: image file must have at least 2 "
                          f"dimensions, got {images.ndim}")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    if not labels.size:
        raise FormatError(f"{images_path}: no samples")
    if images.ndim == 3:  # [N, H, W] -> single channel
        images = images[:, None, :, :]
    nc = int(num_classes if num_classes is not None else labels.max() + 1)
    return Dataset(images, labels.astype(np.int64), num_classes=nc)
