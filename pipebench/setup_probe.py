"""One set-up: import the program and write a workload's inputs.

``measure.py`` starts this script several times under ``-X importtime`` and
times each process from start to exit, so the set-up time covers
interpreter start, the import of numpy and gdnsq, and the input generation
including the IDX writes.

Usage:  python3 pipebench/setup_probe.py WORKLOAD SEED OUT_DIR
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gdnsq.cli  # noqa: E402,F401  (the import every stage needs)
from workloads import WORKLOADS, prepare_inputs  # noqa: E402

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(out_dir, exist_ok=True)
    print(prepare_inputs(WORKLOADS[name], seed, out_dir))
