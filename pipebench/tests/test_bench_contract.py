"""BENCHMARK.json matches what run.py emits; run.py refuses a bare copy."""

import json
import os
import shutil
import subprocess
import sys

import measure
from kernel_micro import UNITS as MICRO_UNITS
from spans import LAYER_UNITS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(measure.__file__))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_lists_what_run_emits():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        measure.END_TO_END_UNITS
    micro = {f"kernels.micro.{k}.{key}": unit
             for k in ("conv_forward", "conv_backward_input",
                       "conv_backward_weight", "fake_quant")
             for key, unit in MICRO_UNITS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        LAYER_UNITS, **micro)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
