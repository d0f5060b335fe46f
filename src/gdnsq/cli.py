"""Command-line entry point.

Subcommands cover the full pipeline: train-fp (FP teacher), ptq (min-max
10-bit calibration), qat (gradual bit-width convergence + LR annealing),
audit (unique-value bit-width report), verify (oracle suite),
export-metrics and fuse (integer weights + scales).

Every setting comes from its flag, and a flag left out takes the default;
the resolved settings are written to run.json, next to the outputs, once
the command has succeeded. train-fp's defaults are TRAIN_FP_DEFAULTS. ptq
and qat --no-ptq build their student on one path, from the teacher's
recorded split and model id; qat --ckpt and audit start from their
student's settings; a command run without --seed uses seed 0. The probe
mode is qat's setting: a ptq student records RunConfig's default. Exit
codes: 0 success, 1 runtime failure, 2 usage error, 3 oracle failure.

main first sets the C heap (set_heap): glibc serves an allocation of
128 KiB or more with a fresh mmap and trims the top of its heap, and
moves both thresholds as arrays are freed. A conv3 activation at batch 32
is 128 KiB and the audit's arrays reach about 2 MB, so without the
setting the same arrays are unmapped and page-faulted back in every step
and every epoch (about 22,000 minor faults per conv3 qat in a warm
process, 0-5 with it). It is set in main, not at import, because the
tests and the pipeline benchmark call main in their own process. The
arithmetic is untouched, so every output byte is the same.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import sys

import numpy as np

from .checkpoint import save_arrays
from .errors import DomainError, GdnsqError
from .losses import DISTILL_KINDS
from .models import Model, make_model_spec, train_teacher
from .pipeline import (METRICS_HEADER, NO_PTQ_INIT_BITS, PTQ_BITS,
                       RunConfig, audit_bitwidth, build_student_arrays,
                       check_config_types, fuse_student, load_dataset,
                       load_student, load_teacher, ptq_minmax, qat_run,
                       save_teacher)
from .quantizer import NOISE_MODES


# glibc's mallopt parameters, and the value set_heap gives both: glibc's own
# cap for its dynamic mmap threshold on 64-bit hosts. Both must be set, since
# setting either stops glibc adjusting the two; with the trim threshold
# alone, or a value of 1-4 MiB, conv3 faulted more or about as often.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_THRESHOLD = 32 * 1024 * 1024


def set_heap() -> None:
    """Keep freed blocks of up to HEAP_THRESHOLD bytes in the C heap, for
    the allocator to reuse, instead of returning them to the system; a no-op
    where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_THRESHOLD)


# the settings that pick a dataset and its splits; train-fp records them in
# the teacher's meta, and a student built from the teacher reads them there
DATA_KEYS = ("dataset", "data_seed", "n_train", "n_val")

# train-fp's settings
TRAIN_FP_DEFAULTS = {"model": "mlp3", "dataset": "two_gaussians",
                     "data_seed": 0, "n_train": 1024, "n_val": 512,
                     "seed": 0, "epochs": 60, "lr": 0.01, "batch_size": 32}


def _merge_config(args, defaults: dict) -> dict:
    """defaults < explicitly passed flags, for the keys of defaults."""
    merged = dict(defaults)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _write_run_json(out_dir, merged: dict):
    # the directory exists: the command's outputs were written into it
    with open(os.path.join(out_dir, "run.json"), "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)


def _add_data_flags(p):
    p.add_argument("--data", dest="dataset", help="dataset id: two_gaussians, "
                   "concentric_rings or idx:<train_img>:<train_lbl>:"
                   "<val_img>:<val_lbl>")
    p.add_argument("--data-seed", type=int, dest="data_seed",
                   help="generator seed for synthetic datasets")
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--n-val", type=int, dest="n_val")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdnsq",
        description="Quantization-aware training with learnable noise scale, "
                    "clamp bounds and exterior-point bit-width constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-fp", help="train the FP teacher")
    p.add_argument("--model", help="model spec id (mlp2, mlp3, mlp4, conv3)")
    _add_data_flags(p)
    p.add_argument("--seed", type=int, help="init + shuffle seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="constant learning rate lambda")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--out", required=True, help="teacher checkpoint path")

    p = sub.add_parser("ptq", help="build the quantized student and run "
                                   "min-max calibration to 10-bit")
    p.add_argument("--ckpt", required=True, help="FP teacher checkpoint")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="student checkpoint path")

    p = sub.add_parser("qat", help="gradual bit-width convergence then LR "
                                   "annealing")
    student = p.add_mutually_exclusive_group(required=True)
    student.add_argument("--ckpt", help="PTQ student checkpoint")
    student.add_argument("--no-ptq", action="store_true", dest="no_ptq",
                         help="no PTQ student: build one from the teacher "
                              "through ptq's path with a near-FP quantizer "
                              "init (ablation)")
    p.add_argument("--teacher", required=True, help="FP teacher checkpoint")
    p.add_argument("--wbits", type=float, help="weight bit-width target omega_w*")
    p.add_argument("--abits", type=float,
                   help="activation bit-width target omega_a*")
    p.add_argument("--lr0", type=float,
                   help="constant-phase learning rate lambda_0")
    p.add_argument("--epochs", type=int)
    p.add_argument("--noise-mode", dest="noise_mode", choices=NOISE_MODES,
                   help="backward probe for the scale gradient d(sr)/ds")
    p.add_argument("--distill", choices=DISTILL_KINDS,
                   help="distillation distance d (jeffreys = symmetrized KL)")
    p.add_argument("--tq-init", type=float, dest="tq_init",
                   help="additive offset on the temperature t_q; large "
                        "values disable gradual bit-width scaling (ablation)")
    p.add_argument("--seed", type=int, help="run seed (shuffle + probes)")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    _add_data_flags(p)
    p.add_argument("--resume", help="continue the run in --out from its "
                                    "own last.ckpt (<out>/last.ckpt)")
    p.add_argument("--out", required=True, help="run output directory")

    p = sub.add_parser("audit", help="unique-value bit-width report")
    p.add_argument("--ckpt", required=True, help="student checkpoint")
    _add_data_flags(p)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--filter", help="only oracles whose name contains this")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-metrics", help="check a run's metrics CSV "
                                              "row by row and re-emit it")
    p.add_argument("--run-dir", required=True, dest="run_dir")
    p.add_argument("--out", help="target file (stdout when omitted)")

    p = sub.add_parser("fuse", help="emit a student's integer weights + "
                                    "scales (linear layers only)")
    p.add_argument("--ckpt", required=True, help="student checkpoint")
    p.add_argument("--out", required=True, help="fused container path")
    return parser


def _resolve_dataset(merged):
    return load_dataset(merged["dataset"], merged["data_seed"],
                        merged["n_train"], merged["n_val"])


def cmd_train_fp(args) -> int:
    merged = _merge_config(args, TRAIN_FP_DEFAULTS)
    train, val = _resolve_dataset(merged)
    spec = make_model_spec(merged["model"], train.inputs.shape[1],
                           train.num_classes)
    model, meta = train_teacher(spec, train, val, epochs=merged["epochs"],
                                lam=merged["lr"], seed=merged["seed"],
                                batch_size=merged["batch_size"])
    meta.update({k: merged[k]
                 for k in ("model", *DATA_KEYS, "seed", "epochs", "lr")})
    save_teacher(args.out, model, meta)
    _write_run_json(os.path.dirname(os.path.abspath(args.out)), merged)
    acc = "n/a" if meta["val_acc"] is None else f"{meta['val_acc']:.4f}"
    print(f"teacher saved to {args.out} (val acc {acc})")
    return 0


def _ptq_student(args, teacher_path, defaults: dict, bits: float):
    """ptq's path from a teacher checkpoint to a student min-max calibrated
    to `bits`. Settings are defaults < flags; a DATA_KEYS entry left unset
    takes the teacher's recorded value, which must be there with its
    RunConfig type (``check_config_types``), and the model id is the
    teacher spec's. Returns (config, teacher, meta, student, train,
    val)."""
    merged = _merge_config(args, {**defaults, **dict.fromkeys(DATA_KEYS)})
    teacher, meta = load_teacher(teacher_path)
    check_config_types(teacher_path, meta, DATA_KEYS)
    for key in DATA_KEYS:
        if merged[key] is None:
            merged[key] = meta[key]
    config = RunConfig(**{**merged, "model": teacher.spec.model_id})
    train, val = _resolve_dataset(merged)
    student = Model(teacher.spec, quantized=True)
    student.copy_weights_from(teacher)
    ptq_minmax(student, train, bits)
    return config, teacher, meta, student, train, val


def cmd_ptq(args) -> int:
    config, _, meta, student, _, val = _ptq_student(args, args.ckpt, {},
                                                    PTQ_BITS)
    acc = student.accuracy(val.inputs, val.labels)
    save_arrays(args.out, build_student_arrays(config, student))
    _write_run_json(os.path.dirname(os.path.abspath(args.out)),
                    config.to_dict())
    print(f"ptq student saved to {args.out} (val acc {acc:.4f}, "
          f"teacher {meta.get('val_acc')})")
    return 0


def cmd_qat(args) -> int:
    # a run draws its own seed, and records where its student came from
    run = {"seed": 0, "ptq_enabled": not args.no_ptq}
    if args.no_ptq:
        config, teacher, _, student, train, val = _ptq_student(
            args, args.teacher, {**RunConfig().to_dict(), **run},
            NO_PTQ_INIT_BITS)
    else:
        cfg0, _, student, _ = load_student(args.ckpt)
        merged = _merge_config(args, {**cfg0.to_dict(), **run})
        teacher, _ = load_teacher(args.teacher)
        config = RunConfig(**merged)
        train, val = _resolve_dataset(merged)
    summary = qat_run(config, teacher, student, args.out, train, val,
                      resume_path=args.resume)
    # written after the run, like train-fp and ptq do, so that a refused
    # resume leaves the record of the run that wrote the checkpoints
    _write_run_json(args.out, config.to_dict())
    print(json.dumps(summary, indent=2))
    return 0


def cmd_audit(args) -> int:
    config, _, student, _ = load_student(args.ckpt)
    _, val = _resolve_dataset(_merge_config(args, config.to_dict()))
    report = audit_bitwidth(student, val.inputs, val.labels)
    print(report.format())
    print(f"val accuracy: {report.val_acc:.4f}")
    return 0


def cmd_verify(args) -> int:
    # the oracle suite is imported here: no other command uses it
    from .oracles import run_all

    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    reports = run_all(name_filter=args.filter, seed=args.seed)
    if not reports:
        raise DomainError(f"no oracle check matches {args.filter!r}")
    for r in reports:
        print(r.format())
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failures)}/{len(reports)} oracle checks passed")
    return 3 if failures else 0


def _check_metrics(path, content: str):
    """Raise GdnsqError at the first line of a metrics.csv that is not the
    header, or has the wrong field count, a cell that is not a number
    (phase aside; empty cells are columns a row does not fill), or a step
    id below the one before it."""
    rows = csv.reader(content.splitlines())
    if next(rows, None) != METRICS_HEADER:
        raise GdnsqError(f"{path}: unexpected metrics header")
    prev_step = None
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(METRICS_HEADER):
            raise GdnsqError(f"{path}: line {lineno} has {len(row)} fields, "
                             f"expected {len(METRICS_HEADER)}")
        for name, cell in zip(METRICS_HEADER, row):
            if name == "phase" or (cell == "" and name != "step"):
                continue
            try:
                int(cell) if name == "step" else float(cell)
            except ValueError:
                raise GdnsqError(f"{path}: line {lineno}: {name} {cell!r} is "
                                 "not a number") from None
        step = int(row[0])
        if prev_step is not None and step < prev_step:
            raise GdnsqError(f"{path}: line {lineno}: step {step} follows "
                             f"step {prev_step}")
        prev_step = step


def cmd_export_metrics(args) -> int:
    path = os.path.join(args.run_dir, "metrics.csv")
    if not os.path.exists(path):
        raise GdnsqError(f"no metrics.csv under {args.run_dir}")
    with open(path) as f:
        content = f.read()
    _check_metrics(path, content)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            f.write(content)
    else:
        sys.stdout.write(content)
    return 0


def cmd_fuse(args) -> int:
    _, _, student, _ = load_student(args.ckpt)
    fused = fuse_student(student)
    arrays = {}
    for i, f in fused.items():
        arrays[f"fuse/layer{i}/int_weights"] = f.int_weights
        arrays[f"fuse/layer{i}/scales"] = np.asarray([f.s_w, f.s_a])
        arrays[f"fuse/layer{i}/act_bounds"] = np.asarray([f.a_lo, f.a_hi])
        arrays[f"fuse/layer{i}/bias"] = student.layers[i].b.data
    save_arrays(args.out, arrays)
    print(f"fused {len(fused)} layer(s) to {args.out}")
    return 0


_COMMANDS = {
    "train-fp": cmd_train_fp,
    "ptq": cmd_ptq,
    "qat": cmd_qat,
    "audit": cmd_audit,
    "verify": cmd_verify,
    "export-metrics": cmd_export_metrics,
    "fuse": cmd_fuse,
}


def main(argv=None) -> int:
    set_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GdnsqError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
