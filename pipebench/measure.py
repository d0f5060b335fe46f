"""Measurement of one workload: set-up, pipeline repeats, metrics.

Imported by ``run.py`` after it has put ``src`` on the path and capped the
BLAS threads, so the import of numpy here sees the cap.
"""

from __future__ import annotations

import gc
import os
import re
import resource
import shutil
import subprocess
import sys
import time

import kernel_micro
from spans import (LAYER_UNITS, Recorder, StepClock, Tracer, fast_stage_time,
                   layer_metrics)
from stages import STAGES, Checks, check_repeatable, run_pipeline
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".bench_work")

SETUP_PROBES = 2  # before the first repeat and after each repeat
MIN_REPEATS = 3  # the repeatability check needs two
MAX_RUN_S = 150.0  # stay well inside the 180 s a run may take

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_fp_s": "s",
    "qat_steps_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "val_acc": "frac",
    "epochs_to_target": "count",
}


_IMPORT_TIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$",
                          re.MULTILINE)


def setup_probe(w, seed: int, inputs_dir: str):
    """One fresh set-up process under ``-X importtime``.

    Returns its wall time, the self time of each module it imported, and
    the --data id it printed.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime",
         os.path.join(HERE, "setup_probe.py"), w.name, str(seed), inputs_dir],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    imports = {name: int(us) * 1e-6
               for us, name in _IMPORT_TIME.findall(proc.stderr)}
    return elapsed, imports, proc.stdout.strip().splitlines()[-1]


def fast_setup_time(probes) -> float:
    """Set-up time at the host's fast speed, from (wall, imports) probes.

    A set-up is cut into pieces: the import of each module (its self time)
    and the rest (process start and exit, input generation). Per piece this
    takes the fastest reading over the probes and sums the pieces. A piece
    takes milliseconds, so some probe ran it at the host's fast speed even
    in a run where no whole probe did (see ``spans.fast_stage_time``).
    """
    rest = min(wall - sum(imports.values()) for wall, imports in probes)
    names = set().union(*(imports for _, imports in probes))
    return rest + sum(min(imports[n] for _, imports in probes if n in imports)
                      for n in names)


def _repeat(start: float, done: int, seconds: float, min_done: int) -> bool:
    """Whether another pipeline run fits in the measured time."""
    elapsed = time.perf_counter() - start
    if done < min_done:
        return elapsed < MAX_RUN_S
    return elapsed + elapsed / done <= min(seconds, MAX_RUN_S)


def _complete(res) -> bool:
    return res["stages"] == list(STAGES)


def _run(w, seed, data_id, out_dir, checks, clock, patches):
    """One pipeline repeat timed by clock with patches installed.

    It starts from a full garbage collection, so that collections fall on
    the same steps in every repeat after the first.
    """
    gc.collect()
    with patches:
        return run_pipeline(w, seed, data_id, out_dir, checks, clock)


def run_untraced(w, seed, work, seconds, checks):
    """End-to-end metrics; set-up probes run before and after each repeat.

    Set-up and stage times are both read at the host's fast speed
    (``fast_setup_time``, ``spans.fast_stage_time``).
    """
    start = time.perf_counter()
    inputs = os.path.join(work, "inputs")
    probes = []
    for _ in range(SETUP_PROBES):
        elapsed, imports, data_id = setup_probe(w, seed, inputs)
        probes.append((elapsed, imports))
    results, clocks = [], []
    while _repeat(start, len(results), seconds, MIN_REPEATS):
        clock = StepClock()
        res = _run(w, seed, data_id, os.path.join(work, f"run{len(results)}"),
                   checks, clock, clock)
        results.append(res)
        clocks.append(clock)
        if not _complete(res):
            return {}
        for _ in range(SETUP_PROBES):
            probes.append(setup_probe(w, seed, inputs)[:2])
    check_repeatable(results, checks)
    stage_s = {stage: fast_stage_time(clocks, stage) for stage in STAGES}
    summary = results[0]["summary"]
    return {
        "setup_s": fast_setup_time(probes),
        "train_fp_s": stage_s["train-fp"],
        "qat_steps_per_s": summary["steps"] / stage_s["qat"],
        "pipeline_s": sum(stage_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "val_acc": summary["best_val_acc"],
        "epochs_to_target": summary["reached_epoch"] + 1,
    }


def run_traced(w, seed, work, seconds, checks):
    start = time.perf_counter()
    data_id = setup_probe(w, seed, os.path.join(work, "inputs"))[2]
    micro = kernel_micro.measure(seed)
    plain, traced = [], []  # (result, StepClock or Recorder) pairs
    while _repeat(start, len(traced), seconds, 1):
        n = len(traced)
        clock = StepClock()
        res = _run(w, seed, data_id, os.path.join(work, f"plain{n}"), checks,
                   clock, clock)
        plain.append((res, clock))
        rec = Recorder()
        tracer = Tracer(rec)
        res = _run(w, seed, data_id, os.path.join(work, f"traced{n}"), checks,
                   rec, tracer)
        traced.append((res, rec))
        if tracer.skipped:
            print(f"not traced (name not found): {tracer.skipped}",
                  file=sys.stderr)
        if not (_complete(res) and _complete(plain[-1][0])):
            return {}
    check_repeatable([r for r, _ in plain + traced], checks)
    steps = traced[0][0]["summary"]["steps"]
    runs = sorted((layer_metrics(rec, steps) for _, rec in traced),
                  key=lambda m: m["cli.qat_s"])
    metrics = runs[(len(runs) - 1) // 2]  # the run with the median qat time
    for name in ("tensor.nodes_per_step", "tensor.loss_nodes_per_step",
                 "kernels.conv_calls", "kernels.fake_quant_elems",
                 "checkpoint.save_calls", "checkpoint.bytes_written"):
        checks.check(all(m[name] == metrics[name] for m in runs),
                     f"{name} differs between traced runs")
    metrics["trace.overhead_frac"] = (
        fast_stage_time([rec for _, rec in traced], "qat")
        / fast_stage_time([clock for _, clock in plain], "qat") - 1.0)
    for kernel, stats in micro.items():
        for key, value in stats.items():
            metrics[f"kernels.micro.{kernel}.{key}"] = value
    return metrics


def layer_units(names):
    return {k: LAYER_UNITS.get(k) or kernel_micro.UNITS[k.rsplit(".", 1)[1]]
            for k in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    checks = Checks()
    try:
        if trace:
            values = run_traced(w, seed, work, seconds, checks)
            units = layer_units(values)
        else:
            values = run_untraced(w, seed, work, seconds, checks)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's directory is still there
            pass
    for note in sorted(checks.unsupported):
        print(f"unsupported, not failed: {note}", file=sys.stderr)
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in sorted(values)}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}
