"""Benchmark workloads and the inputs generated for them from a seed.

Each workload is one full pipeline run (train-fp, ptq, qat, audit, fuse)
with fixed sizes. The seed picks the data and the CLI seed flags; it never
changes the amount of work, so timings from different seeds are comparable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

BARS_SIZE = 16
BARS_CLASSES = 4  # bar orientations 0, 45, 90 and 135 degrees


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    dataset: str  # a synthetic id understood by the CLI, or "bars"
    n_train: int
    n_val: int
    batch_size: int
    fp_epochs: int
    fp_lr: float
    qat_epochs: int
    lr0: float
    wbits: float
    abits: float
    fuse_supported: bool
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mlp4_gaussians", model="mlp4", dataset="two_gaussians",
            n_train=1024, n_val=512, batch_size=32, fp_epochs=30, fp_lr=0.01,
            qat_epochs=30, lr0=0.01, wbits=4.0, abits=4.0,
            fuse_supported=True,
            why="the default run: small steps, so tape, loss-graph and "
                "optimizer overhead dominate; reaches the target mid-run"),
        Workload(
            name="conv3_bars", model="conv3", dataset="bars",
            n_train=256, n_val=192, batch_size=32, fp_epochs=10, fp_lr=0.03,
            qat_epochs=18, lr0=0.07, wbits=8.0, abits=8.0,
            fuse_supported=False,
            why="conv3 on generated 16x16 bar images read from IDX files: "
                "conv kernels dominate; fusion is unsupported for conv"),
    )
}


def write_idx(path, arr: np.ndarray):
    """Write an unsigned-byte IDX file: magic 0,0,0x08,ndim, then dims."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    header = bytes([0, 0, 0x08, arr.ndim]) + struct.pack(
        f">{arr.ndim}I", *arr.shape)
    with open(path, "wb") as f:
        f.write(header + arr.tobytes())


def make_bars(n: int, seed: int, split: str):
    """Oriented-bar images [n, 16, 16] (uint8) and labels [n] (uint8).

    Each image holds one soft bar at a random position and length over
    Gaussian background noise; the label is the bar's orientation. The
    classes are balanced and the splits draw from independent substreams.
    """
    rng = np.random.default_rng([int(seed), 0 if split == "train" else 1,
                                 0x6261])
    labels = rng.permutation(np.arange(n) % BARS_CLASSES)
    theta = labels * (np.pi / BARS_CLASSES)
    dy, dx = np.sin(theta), np.cos(theta)
    cy, cx = rng.uniform(5.0, 10.0, size=(2, n))
    half_len = rng.uniform(4.0, 7.0, size=n)
    amp = rng.uniform(0.6, 1.0, size=n)
    grid_y, grid_x = np.mgrid[0:BARS_SIZE, 0:BARS_SIZE].astype(np.float64)
    py = grid_y[None] - cy[:, None, None]
    px = grid_x[None] - cx[:, None, None]
    across = px * dy[:, None, None] - py * dx[:, None, None]
    along = px * dx[:, None, None] + py * dy[:, None, None]
    bar = np.exp(-0.5 * (across / 0.8) ** 2) * (np.abs(along)
                                                <= half_len[:, None, None])
    img = amp[:, None, None] * bar + rng.normal(0.0, 0.08, size=bar.shape)
    pixels = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def prepare_inputs(workload: Workload, seed: int, out_dir) -> str:
    """Write the workload's input files into out_dir; return the --data id."""
    if workload.dataset != "bars":
        return workload.dataset
    paths = []
    for split, n in (("train", workload.n_train), ("val", workload.n_val)):
        images, labels = make_bars(n, seed, split)
        for kind, arr in (("images", images), ("labels", labels)):
            path = os.path.join(out_dir, f"bars-{split}-{kind}.idx")
            write_idx(path, arr)
            paths.append(path)
    if any(":" in p for p in paths):
        raise ValueError(f"IDX paths may not contain ':' ({out_dir})")
    return "idx:" + ":".join(paths)
