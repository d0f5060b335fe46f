"""Run one fixed CLI scenario on two source trees and compare what it leaves.

    python tools/same_outputs.py <src A> <src B>

Each argument is a directory that holds the ``gdnsq`` package (the ``src``
of a checkout). The scenario runs once per tree, each in its own temporary
directory, through ``python -m gdnsq.cli`` with that tree first on
PYTHONPATH, BLAS on one thread and the same relative paths. It covers:

* mlp4 on two_gaussians: train-fp; ptq; a 30-epoch qat; qat with
  bernoulli_variance_matched probes and cross-entropy distillation; qat
  with rounding_residual probes, hard-label distillation and --tq-init;
  qat without PTQ, on the split the teacher records; a 21-epoch qat
  resumed in place to 30, then resumed again with no epoch left, so that
  only its summary is new; audit; fuse of the 30-epoch qat student, of
  the 10-bit PTQ student (far from converged, its weights spread over all
  1024 levels) and of the rounding_residual qat student; export-metrics;
* conv3 on the benchmark's bar images (IDX files of seed 1): train-fp;
  ptq; qat at 8/8; a 3-epoch qat at 10/10, the scenario's one run that
  meets its targets and so writes best.ckpt; 3-epoch qats with
  rounding_residual and with bernoulli_variance_matched probes, whose
  scale gradients are read over the batch-last activations; a 2-epoch
  qat resumed in place to 3, which reads back the run and optimizer
  sections of a student with batchnorm; audit; and fuse, which the
  program refuses for conv layers;
* ``gdnsq verify``.

Every command's exit code and stdout and every file left in the run
directory are compared byte for byte. For a checkpoint (``*.ckpt``) whose
bytes differ it also lists the sections only in A, those only in B and
those in both that differ in dtype, shape or bytes, as this checkout's
``gdnsq.checkpoint.load_arrays`` reads them. For a JSON object whose bytes
differ, a ``*.json`` file (``run.json``) or a checkpoint's JSON section
(``config/json``, ``spec/json``), it lists the keys only in A, those only
in B and those in both with another value. Prints each difference and
exits 1 if there is any, else prints a one-line summary and exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "pipebench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gdnsq.checkpoint import array_to_json, load_arrays  # noqa: E402
from gdnsq.errors import FormatError  # noqa: E402
from workloads import WORKLOADS, prepare_inputs  # noqa: E402

ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def scenario(bars: str):
    """The commands, in order; bars is the --data id of the bar images."""
    mlp = ["--n-train", "512", "--n-val", "256"]
    fp, ptq = "mlp/teacher.ckpt", "mlp/ptq.ckpt"
    qat = ["qat", "--ckpt", ptq, "--teacher", fp, "--seed", "1"]
    conv = ["--data", bars]
    cfp, cptq = "conv/teacher.ckpt", "conv/ptq.ckpt"
    cqat = ["qat", "--ckpt", cptq, "--teacher", cfp, "--seed", "1",
            "--lr0", "0.07", *conv]
    resume = [*qat, "--epochs", "30", "--resume", "mlp/qat_resume/last.ckpt",
              "--out", "mlp/qat_resume"]
    return [
        ["train-fp", "--model", "mlp4", "--seed", "1", "--epochs", "20",
         *mlp, "--out", fp],
        ["ptq", "--ckpt", fp, "--out", ptq],
        [*qat, "--epochs", "30", "--out", "mlp/qat"],
        [*qat, "--epochs", "10", "--noise-mode", "bernoulli_variance_matched",
         "--distill", "cross_entropy", "--out", "mlp/qat_vm"],
        [*qat, "--epochs", "10", "--noise-mode", "rounding_residual",
         "--distill", "hard_label_ce", "--tq-init", "0.5",
         "--out", "mlp/qat_rr"],
        ["qat", "--no-ptq", "--teacher", fp, "--seed", "1", "--epochs", "10",
         "--out", "mlp/qat_noptq"],
        [*qat, "--epochs", "21", "--out", "mlp/qat_resume"],
        resume,
        resume,
        ["audit", "--ckpt", "mlp/qat/last.ckpt"],
        ["fuse", "--ckpt", "mlp/qat/last.ckpt", "--out", "mlp/fused.ckpt"],
        ["fuse", "--ckpt", ptq, "--out", "mlp/fused_ptq.ckpt"],
        ["fuse", "--ckpt", "mlp/qat_rr/last.ckpt", "--out",
         "mlp/fused_rr.ckpt"],
        ["export-metrics", "--run-dir", "mlp/qat", "--out",
         "mlp/export/metrics.csv"],
        ["train-fp", "--model", "conv3", *conv, "--seed", "1", "--epochs",
         "6", "--lr", "0.03", "--out", cfp],
        ["ptq", "--ckpt", cfp, *conv, "--out", cptq],
        [*cqat, "--wbits", "8", "--abits", "8", "--epochs", "6",
         "--out", "conv/qat"],
        [*cqat, "--wbits", "10", "--abits", "10", "--epochs", "3",
         "--out", "conv/qat_10"],
        [*cqat, "--epochs", "3", "--noise-mode", "rounding_residual",
         "--out", "conv/qat_rr"],
        [*cqat, "--epochs", "3", "--noise-mode",
         "bernoulli_variance_matched", "--out", "conv/qat_vm"],
        [*cqat, "--epochs", "2", "--out", "conv/qat_resume"],
        [*cqat, "--epochs", "3", "--resume", "conv/qat_resume/last.ckpt",
         "--out", "conv/qat_resume"],
        ["audit", "--ckpt", "conv/qat/last.ckpt", *conv],
        ["fuse", "--ckpt", "conv/qat/last.ckpt", "--out", "conv/fused.ckpt"],
        ["verify"],
    ]


def run_tree(src: str, work: str):
    """Run the scenario with src's package in work; return the
    (argv, exit code, stdout) of each command and {path: bytes} of every
    file left under work."""
    os.makedirs(os.path.join(work, "bars"))
    data = prepare_inputs(WORKLOADS["conv3_bars"], 1,
                          os.path.join(work, "bars"))
    bars = "idx:" + ":".join(os.path.relpath(p, work)
                             for p in data.split(":")[1:])
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=os.path.abspath(src))
    runs = []
    for argv in scenario(bars):
        proc = subprocess.run([sys.executable, "-m", "gdnsq.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        runs.append((argv, proc.returncode, proc.stdout))
    files = {}
    for dirpath, _, names in os.walk(work):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, work)] = f.read()
    return runs, files


def differences(a, b):
    """Each way in which run_tree's result a differs from b."""
    (runs_a, files_a), (runs_b, files_b) = a, b
    out = []
    for (argv, rc_a, out_a), (_, rc_b, out_b) in zip(runs_a, runs_b):
        cmd = " ".join(argv)
        if rc_a != rc_b:
            out.append(f"exit code of `{cmd}`: {rc_a} vs {rc_b}")
        if out_a != out_b:
            out.append(f"stdout of `{cmd}` differs")
    for path in sorted(set(files_a) | set(files_b)):
        if path not in files_b:
            out.append(f"{path}: only in A")
        elif path not in files_a:
            out.append(f"{path}: only in B")
        elif files_a[path] != files_b[path]:
            out.append(f"{path}: contents differ")
            if path.endswith(".ckpt"):
                out.extend(section_differences(files_a[path], files_b[path]))
            elif path.endswith(".json"):
                out.extend(key_differences(json.loads, files_a[path],
                                           files_b[path]))
    return out


def section_differences(blob_a, blob_b):
    """Three lines naming the sections only in checkpoint bytes blob_a,
    only in blob_b, and in both but of another dtype, shape or bytes; then
    the key_differences of each such JSON section."""
    arrays = []
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for i, blob in enumerate((blob_a, blob_b)):
            path = os.path.join(tmp, f"{i}.ckpt")
            with open(path, "wb") as f:
                f.write(blob)
            try:
                arrays.append(load_arrays(path))
            except FormatError as e:
                return [f"  not a readable checkpoint in {'AB'[i]}: {e}"]
    a, b = arrays
    differ = [k for k in a.keys() & b.keys()
              if (a[k].dtype, a[k].shape, a[k].tobytes())
              != (b[k].dtype, b[k].shape, b[k].tobytes())]
    out = name_lines("sections", a, b, differ)
    for name in sorted(k for k in differ if k.endswith("/json")):
        out.extend(f"  {name} {line.strip()}" for line in
                   key_differences(array_to_json, a[name], b[name]))
    return out


def key_differences(parse, raw_a, raw_b):
    """Three lines naming the keys only in the JSON object parse(raw_a),
    only in parse(raw_b), and in both with another value; one line if
    either is not a JSON object."""
    try:
        a, b = parse(raw_a), parse(raw_b)
    except (ValueError, FormatError) as e:
        return [f"  not JSON: {e}"]
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ["  not both JSON objects"]
    return name_lines("keys", a, b, [k for k in a.keys() & b.keys()
                                     if a[k] != b[k]])


def name_lines(kind, a, b, differ):
    """Three lines naming the kind (sections, keys) only in mapping a, only
    in b, and those in differ."""
    return [f"  {kind} {what}: {', '.join(sorted(names)) or '(none)'}"
            for what, names in (("only in A", a.keys() - b.keys()),
                                ("only in B", b.keys() - a.keys()),
                                ("that differ", differ))]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for src in args:
        if not os.path.isfile(os.path.join(src, "gdnsq", "cli.py")):
            print(f"{src}: no gdnsq package here", file=sys.stderr)
            return 2
    results = []
    for src in args:
        with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
            results.append(run_tree(src, work))
    found = differences(*results)
    for line in found:
        print(line)
    if found:
        return 1
    runs, files = results[0]
    codes = " ".join(str(rc) for _, rc, _ in runs)
    print(f"identical: {len(runs)} commands (exit codes {codes}) and "
          f"{len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
