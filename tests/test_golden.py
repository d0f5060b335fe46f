"""Golden digests of two short fixed-seed pipeline runs.

Each run goes through the CLI in a fresh interpreter with BLAS on one
thread, and the sha256 of its ``metrics.csv`` and ``last.ckpt`` must match
the pinned value. A change that moves training bytes on purpose edits the
constants below and says why; any other change must leave them alone.

The digests are tied to the numpy and BLAS build they were taken with
(numpy 2.4.6, OpenBLAS, x86-64): another build may round a GEMM or a
reduction differently and change every digest without any change here.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# the IDX dataset id, paths included, is stored in every checkpoint, so the
# conv3 inputs live under paths relative to the run's working directory
IDX_ID = "idx:in/tr-img.idx:in/tr-lbl.idx:in/va-img.idx:in/va-lbl.idx"

RUNS = {
    "mlp4": [
        ["train-fp", "--model", "mlp4", "--seed", "1", "--epochs", "5",
         "--n-train", "256", "--n-val", "128", "--out", "teacher.ckpt"],
        ["ptq", "--ckpt", "teacher.ckpt", "--out", "ptq.ckpt"],
        ["qat", "--ckpt", "ptq.ckpt", "--teacher", "teacher.ckpt",
         "--seed", "1", "--epochs", "3", "--out", "run"],
    ],
    "conv3": [
        ["train-fp", "--model", "conv3", "--data", IDX_ID, "--seed", "2",
         "--epochs", "3", "--lr", "0.03", "--out", "teacher.ckpt"],
        ["ptq", "--ckpt", "teacher.ckpt", "--out", "ptq.ckpt"],
        ["qat", "--ckpt", "ptq.ckpt", "--teacher", "teacher.ckpt",
         "--wbits", "6", "--abits", "6", "--lr0", "0.05", "--seed", "2",
         "--epochs", "2", "--out", "run"],
    ],
}

GOLDEN = {
    "mlp4": {
        "metrics.csv":
            "f7254d399349ec5491fc7de93c3c3f8713e857ea4c578c090a22f2b4ee806032",
        "last.ckpt":
            "c44f0e866c30ec2f715811175dce6da7f0134d452451231a42393f1da5bece15",
    },
    "conv3": {
        "metrics.csv":
            "587459844eb48bb8813a26a268a037bb50c4724fa426b47b368e62bfc3c7dc99",
        "last.ckpt":
            "4764fdb4d59a9c995c920ea933fe95258ab801521fd8f59e9a3457f2d1ac5cae",
    },
}

# Writes 8x8 IDX images of one horizontal or vertical bar over noise
# (label 0 or 1), then runs the stages in order.
SCRIPT = """
import json, os, struct, sys
import numpy as np
from gdnsq.cli import main

def write_idx(path, arr):
    header = bytes([0, 0, 0x08, arr.ndim]) + struct.pack(
        f">{arr.ndim}I", *arr.shape)
    with open(path, "wb") as f:
        f.write(header + arr.astype(np.uint8).tobytes())

os.makedirs("in")
rng = np.random.default_rng(0)
for split, n in (("tr", 64), ("va", 32)):
    labels = np.arange(n) % 2
    img = rng.uniform(0, 60, size=(n, 8, 8))
    for i, (lab, k) in enumerate(zip(labels, rng.integers(1, 7, size=n))):
        if lab:
            img[i, :, k] += 180
        else:
            img[i, k, :] += 180
    write_idx(f"in/{split}-img.idx", img)
    write_idx(f"in/{split}-lbl.idx", labels)
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def _run(tmp_path, stages):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(stages)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
            .hexdigest() for name in ("metrics.csv", "last.ckpt")}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_digest(tmp_path, run):
    assert _run(tmp_path, RUNS[run]) == GOLDEN[run]
