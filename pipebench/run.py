#!/usr/bin/env python3
"""Pipeline benchmark for gdnsq: CLI stage times, QAT throughput, accuracy.

One workload:
    python3 pipebench/run.py --workload mlp4_gaussians --seed 1 \\
        --seconds 55 --trace 0
Every workload, one after another, with a table of all metrics:
    python3 pipebench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. Each run repeats the full pipeline
(train-fp, ptq, qat, audit, fuse through ``gdnsq.cli.main``) for about
``--seconds`` seconds, checks every stage's outputs, and prints one JSON
object as its last line: ``correct``, ``attempted`` and ``failed`` (stage
calls plus output checks) and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with tracing off; stage times are read at the
host's fast speed (see ``spans.fast_stage_time``). With ``--trace 1``
untraced and traced repeats alternate, and the metrics are the per-layer
split of one traced repeat, the tracing overhead and the kernel
micro-benchmark. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_all(args, workloads) -> int:
    """Run every workload in its own process, one at a time; print a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<18}{'metric':<48}{'value':>16}  unit")
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        frac = res["failed"] / res["attempted"]
        rows = dict(res["metrics"], failed_frac={"value": frac,
                                                 "unit": "frac"})
        for metric, v in rows.items():
            print(f"{name:<18}{metric:<48}{v['value']:>16.6g}  {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gdnsq", "cli.py")):
        print(f"error: no gdnsq sources under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GDNSQ_SEED", None)  # the CLI would take it as a seed
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    from measure import run_workload

    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
