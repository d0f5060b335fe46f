"""One pipeline run through ``gdnsq.cli.main`` and the checks on its outputs.

``run_pipeline`` calls the CLI stages in-process, in order, each waiting for
the one before (a closed loop with one client). ``Checks`` counts every stage
call and output check as attempted, and the ones that went wrong as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import traceback

import numpy as np

from gdnsq.checkpoint import load_arrays
from gdnsq.cli import main as cli_main
from gdnsq.pipeline import fused_model_forward, load_dataset, load_student
from gdnsq.quantizer import FusedLinear

STAGES = ("train-fp", "ptq", "qat", "audit", "fuse")

# the documented metrics.csv layout; a change to it is an output change
METRICS_HEADER = (
    "step,phase,lambda,t_q,c_r,loss,distill_d,potential_P,val_acc,"
    "mean_w_est,mean_w_act,max_w_act,mean_a_est,mean_a_act,max_a_act")

FUSED_ATOL = 1e-10

_MAX_ACTUAL = re.compile(r"^(weights|activations): .*max actual (\d+)\s*$",
                         re.MULTILINE)
_VAL_ACC = re.compile(r"^val accuracy: ([0-9.]+)\s*$", re.MULTILINE)


class Checks:
    """Attempted and failed stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []  # what failed
        self.unsupported = set()  # stages the program declines, not failures

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def _call(argv, clock):
    """Run one CLI command as a stage of clock; return (rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli_main(argv)
            except SystemExit as e:  # argparse usage errors
                return e.code
            except Exception:  # a crash is a failed stage, not a dead run
                traceback.print_exc()
                return "exception"

    rc = clock.run_stage(argv[0], invoke)
    return rc, out.getvalue(), err.getvalue()


def run_pipeline(w, seed: int, data_id: str, out_dir, checks: Checks, clock):
    """Run train-fp, ptq, qat, audit and fuse once and check their outputs.

    Each stage runs through ``clock.run_stage`` (a StepClock, or a Recorder
    when traced), which times it. Returns the stages run, the QAT summary
    and the metrics.csv bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    teacher = os.path.join(out_dir, "teacher.ckpt")
    student = os.path.join(out_dir, "ptq.ckpt")
    qat_dir = os.path.join(out_dir, "qat")
    fused = os.path.join(out_dir, "fused.ckpt")
    data = ["--data", data_id, "--data-seed", str(seed),
            "--n-train", str(w.n_train), "--n-val", str(w.n_val)]
    commands = {
        "train-fp": ["train-fp", "--model", w.model, *data, "--seed", str(seed),
                     "--epochs", str(w.fp_epochs), "--lr", repr(w.fp_lr),
                     "--batch-size", str(w.batch_size), "--out", teacher],
        "ptq": ["ptq", "--ckpt", teacher, *data, "--out", student],
        "qat": ["qat", "--ckpt", student, "--teacher", teacher,
                "--wbits", repr(w.wbits), "--abits", repr(w.abits),
                "--lr0", repr(w.lr0), "--epochs", str(w.qat_epochs),
                "--seed", str(seed), "--batch-size", str(w.batch_size),
                "--out", qat_dir],
    }
    result = {"stages": [], "summary": None, "metrics_csv": None}

    def stage(name, argv):
        result["stages"].append(name)
        return _call(argv, clock)

    for name in ("train-fp", "ptq", "qat"):
        rc, out, err = stage(name, commands[name])
        if not checks.check(rc == 0, f"{name} exited {rc}: {err.strip()}"):
            return result
    summary = result["summary"] = json.loads(out)
    with open(summary["metrics"], "rb") as f:
        result["metrics_csv"] = f.read()
    _check_metrics_csv(result["metrics_csv"], summary["steps"] + w.qat_epochs,
                       checks)
    best = summary["best_ckpt"]
    if not checks.check(best is not None,
                        f"targets {w.wbits}/{w.abits} not reached in "
                        f"{w.qat_epochs} epochs"):
        return result

    rc, out, err = stage("audit", ["audit", "--ckpt", best])
    if checks.check(rc == 0, f"audit exited {rc}: {err.strip()}"):
        _check_audit(out, w, summary["best_val_acc"], checks)

    rc, out, err = stage("fuse", ["fuse", "--ckpt", best, "--out", fused])
    unsupported = not w.fuse_supported and rc == 1 and "fusion" in err
    if unsupported:
        checks.unsupported.add(f"fuse: {err.strip()}")
    if checks.check(rc == 0 or unsupported, f"fuse exited {rc}: {err.strip()}"):
        if rc == 0 and w.fuse_supported:
            _, val = load_dataset(data_id, seed, w.n_train, w.n_val)
            diff = fused_forward_error(best, fused, val.inputs)
            checks.check(diff <= FUSED_ATOL,
                         f"fused forward differs by {diff:.3e}")
    return result


def _check_metrics_csv(blob: bytes, expected_rows: int, checks: Checks):
    lines = blob.decode("utf-8").splitlines()
    checks.check(bool(lines) and lines[0] == METRICS_HEADER,
                 "metrics.csv header differs")
    checks.check(len(lines) - 1 == expected_rows,
                 f"metrics.csv has {len(lines) - 1} rows, expected "
                 f"{expected_rows}")


def _check_audit(out: str, w, best_val_acc: float, checks: Checks):
    found = dict(_MAX_ACTUAL.findall(out))
    ok = (set(found) == {"weights", "activations"}
          and int(found["weights"]) <= w.wbits
          and int(found["activations"]) <= w.abits)
    checks.check(ok, f"audit of best.ckpt: max actual bits {found} above "
                     f"targets {w.wbits}/{w.abits}")
    acc = _VAL_ACC.search(out)
    checks.check(acc is not None and abs(float(acc.group(1)) - best_val_acc)
                 <= 5e-5, "audit val accuracy disagrees with the QAT summary")


def fused_forward_error(student_ckpt, fused_ckpt, inputs) -> float:
    """Max |integer-path logits - fake-quant logits| for an MLP student.

    Rebuilds each layer's ``FusedLinear`` from the fused container and runs
    the program's own integer forward, ``fused_model_forward``.
    """
    _, _, model, _ = load_student(student_ckpt)
    arrays = load_arrays(fused_ckpt)
    fused = {}
    for i, layer in enumerate(model.layers):
        prefix = f"fuse/layer{i}/"
        if prefix + "int_weights" in arrays:
            s_w, s_a = arrays[prefix + "scales"]
            a_lo, a_hi = arrays[prefix + "act_bounds"]
            fused[i] = FusedLinear(arrays[prefix + "int_weights"], float(s_w),
                                   float(s_a), float(a_lo), float(a_hi),
                                   layer.spec.activation)
    integer = fused_model_forward(model, fused, inputs)
    return float(np.max(np.abs(integer - model.predict_logits(inputs))))


def check_repeatable(results, checks: Checks):
    """Every run with the same seed must write byte-identical metrics.csv."""
    first = results[0]["metrics_csv"]
    for r in results[1:]:
        checks.check(first is not None and r["metrics_csv"] == first,
                     "metrics.csv differs between runs with the same seed")
