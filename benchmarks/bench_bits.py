"""Bit-width sweep: QAT at W = A in {8, 4, 3, 2, 1} over seeds 1-5 on three
workloads, written to BENCH_bits.json.

    python benchmarks/bench_bits.py [--out BENCH_bits.json] [--work DIR]

Every stage runs in-process through ``gdnsq.cli.main``, with BLAS on one
thread. Per workload one teacher (train-fp --seed 1) and one PTQ student
are made, then one qat per bit-width and seed (qat --seed s):

* mlp4 on two_gaussians and on concentric_rings: train-fp with its
  defaults, ptq, then qat with its defaults (100 epochs, lr0 0.01);
* conv3 on the benchmark's bar images of seed 1 (``prepare_inputs`` of
  pipebench/workloads.py): train-fp for 10 epochs at lr 0.03, ptq, then
  qat for 60 epochs at lr0 0.07.

Each cell records best.ckpt's val_acc (null when no audit met the
targets), the val_acc of the last audit, epochs_to_target (the first epoch
whose audit met the targets, counted from 1, as the pipeline benchmark
counts it; null when none did), the sites the last audit (``gdnsq audit``
of last.ckpt) reports as degenerate, and whether the run reached its
targets. The file also records the commit (``git rev-parse HEAD``, or
outside a repository, as in a ``git archive`` checkout, a sha256 over
``src/**/*.py``), the numpy version and a host note.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "pipebench")]

import numpy as np  # noqa: E402

from gdnsq.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, prepare_inputs  # noqa: E402

BITS = (8, 4, 3, 2, 1)
SEEDS = (1, 2, 3, 4, 5)
TEACHER_SEED = 1

# name: (model, data, train-fp flags, qat flags)
SWEEP = {
    "mlp4_two_gaussians": ("mlp4", "two_gaussians", [], []),
    "mlp4_concentric_rings": ("mlp4", "concentric_rings", [], []),
    "conv3_bars": ("conv3", "bars", ["--epochs", "10", "--lr", "0.03"],
                   ["--epochs", "60", "--lr0", "0.07"]),
}


def cli(argv):
    """Run one gdnsq command in-process; return its stdout. A command that
    fails stops the sweep."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"gdnsq {' '.join(argv)} exited {rc}: "
                         f"{err.getvalue().strip()}")
    return out.getvalue()


def last_audit_val_acc(metrics_path) -> float:
    with open(metrics_path, newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["val_acc"] != ""]
    return float(rows[-1]["val_acc"])


def degenerate_sites(audit_stdout: str):
    return [line.split()[0] for line in audit_stdout.splitlines()
            if line.endswith("(degenerate)")]


def sweep_workload(name, work):
    model, data, fp_flags, qat_flags = SWEEP[name]
    root = os.path.join(work, name)
    os.makedirs(root)
    if data == "bars":
        data = prepare_inputs(WORKLOADS["conv3_bars"], TEACHER_SEED, root)
    teacher = os.path.join(root, "teacher.ckpt")
    student = os.path.join(root, "ptq.ckpt")
    cli(["train-fp", "--model", model, "--data", data, "--seed",
         str(TEACHER_SEED), *fp_flags, "--out", teacher])
    cli(["ptq", "--ckpt", teacher, "--out", student])
    cells = []
    for bits in BITS:
        for seed in SEEDS:
            out = os.path.join(root, f"w{bits}_s{seed}")
            summary = json.loads(cli([
                "qat", "--ckpt", student, "--teacher", teacher,
                "--wbits", str(bits), "--abits", str(bits), "--seed",
                str(seed), *qat_flags, "--out", out]))
            audit = cli(["audit", "--ckpt", summary["last_ckpt"]])
            reached = summary["reached_epoch"]
            cells.append({
                "bits": bits, "seed": seed,
                "best_val_acc": summary["best_val_acc"],
                "last_val_acc": last_audit_val_acc(summary["metrics"]),
                "epochs_to_target": None if reached is None else reached + 1,
                "degenerate_sites": degenerate_sites(audit),
                "reached": reached is not None,
            })
            print(f"{name} W{bits} seed {seed}: {cells[-1]}", flush=True)
    return {"model": model, "data": SWEEP[name][1],
            "teacher": {"seed": TEACHER_SEED, "flags": fp_flags},
            "qat_flags": qat_flags, "cells": cells}


def commit(root=ROOT) -> str:
    """The HEAD commit of the repository at root, with "+modified src" if
    its src has uncommitted changes; outside a repository, src_digest."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                "--", "src"], capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return src_digest(root)
    return head.stdout.strip() + ("+modified src" if dirty.stdout else "")


def src_digest(root) -> str:
    """sha256:<hex> over the sorted relative paths and the bytes of the
    files src/**/*.py under root."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in Path(root, "src").rglob("*.py")):
        data = Path(root, rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return "sha256:" + h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_bits.json"))
    parser.add_argument("--work", help="directory for the runs (a new "
                                       "temporary one when omitted)")
    parser.add_argument("--note", action="append", default=[],
                        help="a line for the file's notes (repeatable)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        work = args.work or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="bench_bits-"))
        workloads = {name: sweep_workload(name, work) for name in SWEEP}
    result = {
        "commit": commit(),
        "numpy": np.__version__,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"{platform.python_implementation()} "
                f"{platform.python_version()}, BLAS on one thread",
        "wall_s": round(time.perf_counter() - start, 1),
        "notes": args.note,
        "bits": list(BITS), "seeds": list(SEEDS),
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
