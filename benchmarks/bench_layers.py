"""Per-layer times of the training chains, written to BENCH_layers.json.

    python benchmarks/bench_layers.py --tree NAME=SRC [--tree NAME=SRC ...]
        [--out BENCH_layers.json]

Each SRC is a directory holding the ``gdnsq`` package (the ``src`` of a
checkout); to time another commit, unpack it first with
``git archive <commit> | tar -x -C <dir>`` and pass ``<dir>/src``. A round
times every chain once per tree, each in a fresh interpreter, one chain
after another and the trees of a chain back to back, in an order that
alternates from round to round, so a change in the host's load falls on
all trees alike.

It times single training steps, at batch 32 with BLAS on one thread, on
four chains:

* ``mlp4_train_fp`` and ``conv3_train_fp``: the FP model and hard-label
  loss of ``train-fp``;
* ``mlp4_qat`` and ``conv3_qat``: a PTQ student (10-bit min-max) with
  Jeffreys distillation from its own teacher and the bit-width potential
  at 4/4 bits, the step of ``qat``.

mlp4 runs on two_gaussians, conv3 on the benchmark's bar images of seed 1
(``prepare_inputs`` of pipebench/workloads.py). For every chain entry
(layer, loss) it records its forward time, from the record of
the entry before it (or the start of the step) to its own record, and
its rule time in the reverse sweep; for the step, the whole forward, the
sweep, the optimizer step and their total. The qat chains also run
``pipeline.audit_bitwidth`` over the val split once every
``len(train) // BATCH`` steps, as ``qat`` does once per epoch, and record
its time (``audit/total``). Each time is the 10th percentile over 200
timed steps (and the audits among them), after 30 steps of warm-up.
``step/faults`` and ``audit/faults`` are the mean minor page faults
(``resource.getrusage``) per step and per audit, which show the C heap
handing large arrays back to the system and faulting them in again; a
worker sets the heap as ``gdnsq.cli.main`` does when its tree has
``gdnsq.cli.set_heap``.

Per tree, ``chains`` holds each value's smallest over 11 rounds, times in
microseconds, and ``quartiles`` its first quartile, median and third
quartile over the rounds, so one run tells a change between two trees
from the rounds' spread. The host's speed changes from second to second
(shared CPUs), and like pipebench's stage times
(``spans.fast_stage_time``) the minimum reads every tree at the host's
fast speed. One run's minimum still moves by more than the differences a
change is judged on, so name the parent tree twice (``--tree parent=P
--tree again=P --tree change=C``): the two parent columns differ only by
the host's noise, which measures the A/A band in the same run, and "an
entry is not slower" holds when the change's value lies within that band
of the parent's. The file is written afresh.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 32
WARMUP = 30
STEPS = 200
ROUNDS = 11
PERCENTILE = 10
TARGETS = (4.0, 4.0)
W_P = 0.1  # the potential's weight, t_q * c_r


def percentile_us(samples):
    return round(float(np.percentile(samples, PERCENTILE)) * 1e6, 1)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def load_chain(model_id, qat, work):
    """(model, optimizer, step inputs, val split, steps per epoch) of one
    chain; step inputs is a function of the step number giving (x, labels,
    teacher rows)."""
    from gdnsq.losses import teacher_probs
    from gdnsq.models import Model, make_model_spec, train_teacher
    from gdnsq.optim import RAdam
    from gdnsq.pipeline import load_dataset, ptq_minmax
    from workloads import WORKLOADS, prepare_inputs

    if model_id == "conv3":
        data = prepare_inputs(WORKLOADS["conv3_bars"], 1, work)
        train, val = load_dataset(data, 0, 256, 192)
        spec = make_model_spec("conv3", train.inputs.shape[1],
                               train.num_classes)
    else:
        train, val = load_dataset("two_gaussians", 0, 512, 256)
        spec = make_model_spec("mlp4", train.inputs.shape[1],
                               train.num_classes)
    if qat:
        teacher, _ = train_teacher(spec, train, val, epochs=2, lam=0.01,
                                   seed=1, batch_size=BATCH)
        model = Model(spec, quantized=True, quant_rng=np.random.default_rng(1))
        model.copy_weights_from(teacher)
        ptq_minmax(model, train)
        probs = teacher_probs(teacher.predict_logits(train.inputs))
    else:
        model = Model(spec, init_seed=1)
        probs = None
    opt = RAdam(model.named_parameters(), lr=0.01 if qat else 0.03)
    order = np.random.default_rng(2).permutation(len(train))
    n_batches = len(train) // BATCH

    def inputs(step):
        idx = order[(step % n_batches) * BATCH:][:BATCH]
        return (train.inputs[idx], train.labels[idx],
                probs.rows(idx) if qat else None)

    return model, opt, inputs, val, n_batches


def time_chain(model_id, qat, work):
    from gdnsq import tensor as T
    from gdnsq.losses import hard_label_loss, total_loss
    from gdnsq.pipeline import audit_bitwidth

    model, opt, inputs, val, n_batches = load_chain(model_id, qat, work)
    clock = time.perf_counter
    marks, rule_s = [], {}
    record = T.record

    def timed_record(x, params, out, rule, name):
        marks.append((name, clock()))

        def timed_rule(g):
            t0 = clock()
            grads = rule(g)
            rule_s[name] = clock() - t0
            return grads

        return record(x, params, out, timed_rule, name)

    samples, faults = {}, {}

    def add(key, value):
        samples.setdefault(key, []).append(value)

    T.record = timed_record
    try:
        for step in range(WARMUP + STEPS):
            x, labels, teacher = inputs(step)
            marks.clear()
            rule_s.clear()
            T.reset_tape()
            f0 = minor_faults()
            t0 = clock()
            logits = model.forward(x, train=True)
            if qat:
                total_loss(logits, teacher, model.weight_quantizers(),
                           model.act_quantizers(), TARGETS, W_P, labels=labels)
            else:
                hard_label_loss(logits, labels)
            t1 = clock()
            T.backward(opt.slots)
            t2 = clock()
            opt.step()
            t3 = clock()
            f1 = minor_faults()
            audit = qat and step % n_batches == n_batches - 1
            if audit:
                audit_bitwidth(model, val.inputs, val.labels)
            t4 = clock()
            f2 = minor_faults()
            if step < WARMUP:
                continue
            prev = t0
            for name, t in marks:
                add(f"{name}/forward", t - prev)
                add(f"{name}/rule", rule_s[name])
                prev = t
            add("step/forward", t1 - t0)
            add("step/sweep", t2 - t1)
            add("step/optimizer", t3 - t2)
            add("step/total", t3 - t0)
            faults.setdefault("step/faults", []).append(f1 - f0)
            if audit:
                add("audit/total", t4 - t3)
                faults.setdefault("audit/faults", []).append(f2 - f1)
    finally:
        T.record = record
        T.reset_tape()
    return {**{key: percentile_us(v) for key, v in samples.items()},
            **{key: round(float(np.mean(v)), 1) for key, v in faults.items()}}


CHAINS = {"mlp4_train_fp": ("mlp4", False), "mlp4_qat": ("mlp4", True),
          "conv3_train_fp": ("conv3", False), "conv3_qat": ("conv3", True)}


def worker(src, chain) -> int:
    """Time one chain with the package in src; print its times as JSON."""
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "pipebench")]
    import gdnsq.cli

    set_heap = getattr(gdnsq.cli, "set_heap", None)
    if set_heap is not None:
        set_heap()
    with tempfile.TemporaryDirectory(prefix="bench_layers-") as work:
        print(json.dumps(time_chain(*CHAINS[chain], work)))
    return 0


def over_rounds(rounds, stat):
    """Per chain and entry, stat of the rounds' values."""
    return {chain: {key: stat([r[chain][key] for r in rounds])
                    for key in entries}
            for chain, entries in rounds[0].items()}


def quartiles(values):
    return [round(float(q), 1) for q in np.percentile(values, (25, 50, 75))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        metavar="NAME=SRC", help="a column name and the "
                        "directory holding its gdnsq package (repeatable)")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree)
    samples = {name: [] for name in trees}
    for r in range(ROUNDS):
        times = {name: {} for name in trees}
        for chain in CHAINS:
            for name in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--worker",
                     trees[name], chain],
                    capture_output=True, text=True, check=True)
                times[name][chain] = json.loads(proc.stdout)
        for name in trees:
            samples[name].append(times[name])
            totals = {c: v["step/total"] for c, v in times[name].items()}
            print(f"round {r + 1} {name}: step/total {totals}", flush=True)
    result = {
        "columns": {},
        "unit": "us",
        "statistic": f"times: smallest over rounds (quartiles: first "
                     f"quartile, median and third quartile over rounds) of "
                     f"the {PERCENTILE}th percentile over one round's timed "
                     "steps or audits; faults: the same over rounds of the "
                     "mean per step or audit",
        "batch": BATCH,
    }
    for name in trees:
        result["columns"][name] = {
            "numpy": np.__version__,
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"{platform.python_implementation()} "
                    f"{platform.python_version()}, BLAS on one thread",
            "rounds": ROUNDS, "steps": STEPS,
            "chains": over_rounds(samples[name], min),
            "quartiles": over_rounds(samples[name], quartiles),
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(*sys.argv[2:]))
    sys.exit(main())
