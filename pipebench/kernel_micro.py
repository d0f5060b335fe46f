"""Micro-benchmark of the public kernel dispatchers in ``gdnsq.kernels``.

Times conv2d forward, backward-input and backward-weight on a 16x8x32x32
input with a 3x3 kernel, and the fake-quant pass over 2e6 elements. Reports
the median, quartiles and sample count of each, plus the flops and bytes
each call moves, computed from the shapes (float64, one read of every
operand and one write of the result).

Run on its own:  python3 pipebench/kernel_micro.py  (prints JSON)
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

SAMPLES = 9
UNITS = {"ms_p50": "ms", "ms_q1": "ms", "ms_q3": "ms", "samples": "count",
         "flops": "flop", "bytes": "byte"}


def _stats(fn, samples):
    fn()  # first call outside the timed set: page faults, lazy allocation
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return {"ms_p50": q2 * 1e3, "ms_q1": q1 * 1e3, "ms_q3": q3 * 1e3,
            "samples": samples}


def measure(seed: int = 0, samples: int = SAMPLES) -> dict:
    import numpy as np

    from gdnsq import kernels

    rng = np.random.default_rng([seed, 0x6B6D])
    x = rng.normal(size=(16, 8, 32, 32))
    w = rng.normal(size=(16, 8, 3, 3))
    g = rng.normal(size=(16, 16, 32, 32))
    big = rng.normal(size=2_000_000)
    conv_flops = 2 * g.size * 8 * 3 * 3
    cases = {
        "conv_forward": (lambda: kernels.conv2d_forward(x, w, 1, 1),
                         conv_flops, 8 * (x.size + w.size + g.size)),
        "conv_backward_input": (
            lambda: kernels.conv2d_backward_input(g, w, x.shape, 1, 1),
            conv_flops, 8 * (g.size + w.size + x.size)),
        "conv_backward_weight": (
            lambda: kernels.conv2d_backward_weight(g, x, w.shape, 1, 1),
            conv_flops, 8 * (g.size + x.size + w.size)),
        # max, min, divide, add, floor, multiply per element
        "fake_quant": (lambda: kernels.fake_quant(big, -1.0, 1.0, 0.1),
                       6 * big.size, 16 * big.size),
    }
    out = {}
    for name, (fn, flops, nbytes) in cases.items():
        out[name] = dict(_stats(fn, samples), flops=flops, bytes=nbytes)
    return out


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    print(json.dumps(measure(), indent=2))
