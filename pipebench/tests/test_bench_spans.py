"""Span recorder arithmetic, fast readings and the traced exact counts."""

import dataclasses
import itertools

import pytest

from measure import fast_setup_time
from spans import (Recorder, StepClock, Tracer, fast_stage_time,
                   layer_metrics)
from stages import Checks, run_pipeline
from workloads import WORKLOADS, prepare_inputs


def test_self_time_excludes_direct_children():
    # cli.s [0, 10] holds A [1, 7] and D [8, 9]; A holds B [2, 4], C [5, 6]
    rec = Recorder(clock=iter([0, 1, 2, 4, 5, 6, 7, 8, 9, 10]).__next__)
    rec.stage = "s"
    for name in ("cli.s", "A", "B", None, "C", None, None, "D", None, None):
        rec.enter(name) if name else rec.exit()
    assert {n: (rec.total("s", n), rec.self_time("s", n))
            for n in ("cli.s", "A", "B", "C", "D")} == {
        "cli.s": (10, 3), "A": (6, 3), "B": (2, 2), "C": (1, 1), "D": (1, 1)}
    assert rec.stage_self_sum("s") == 10
    assert rec.edges[("s", "A", "B")] == [1, 2]


def test_fast_stage_time_keeps_work_on_some_segments():
    # 20 segments: first and last stretch 2, inner steps 1 and a checkpoint
    # write at position 10 (6); repeats at 1x, 2x and 3x the fast step time,
    # and a slow stretch over positions 3-5 of the fast repeat
    clocks = []
    for speed in (1.0, 2.0, 3.0):
        segs = [2.0] + [1.0] * 18 + [2.0]
        segs[10] = 6.0
        if speed == 1.0:
            segs[3:6] = [2.0] * 3
        marks = [0.0]
        for seg in segs:
            marks.append(marks[-1] + seg * speed)
        clock = StepClock()
        clock.marks["qat"] = marks
        clocks.append(clock)
    assert fast_stage_time(clocks, "qat") == pytest.approx(27.0)


def test_fast_setup_time_sums_the_fastest_pieces():
    probes = [(0.30, {"numpy": 0.10, "gdnsq": 0.05}),
              (0.40, {"numpy": 0.20, "gdnsq": 0.03})]
    # rest: min(0.15, 0.17); numpy: 0.10; gdnsq: 0.03
    assert fast_setup_time(probes) == pytest.approx(0.28)


def _traced_run(name, tmp_path, **changes):
    w = dataclasses.replace(WORKLOADS[name], fp_epochs=1, qat_epochs=1,
                            **changes)
    data_id = prepare_inputs(w, 0, str(tmp_path))
    ticks = itertools.count()
    rec = Recorder(clock=lambda: next(ticks))  # every clock read is one tick
    with Tracer(rec) as tracer:
        res = run_pipeline(w, 0, data_id, str(tmp_path / "run"), Checks(),
                           rec)
    assert tracer.skipped == []
    assert res["summary"] is not None
    return rec, res


def test_nested_spans_on_real_conv_code(tmp_path):
    rec, _ = _traced_run("conv3_bars", tmp_path, n_train=64, n_val=32)
    for (stage, name), (_, total, self_s) in rec.spans.items():
        children = sum(t for (st, parent, _), (_, t) in rec.edges.items()
                       if st == stage and parent == name)
        assert total == self_s + children, (stage, name)
    for stage in ("train-fp", "ptq", "qat"):
        assert rec.stage_self_sum(stage) == rec.total(stage, f"cli.{stage}")
    for parent, child in (
            ("models.student_forward", "kernels.conv_forward"),
            ("models.teacher_forward", "kernels.conv_forward"),
            ("tensor.backward", "quantizer.ste_backward"),
            ("tensor.backward", "kernels.conv_backward_input"),
            ("tensor.backward", "kernels.conv_backward_weight")):
        assert rec.edges[("qat", parent, child)][0] > 0, (parent, child)
    # the teacher forward runs half of the forward conv calls in qat
    assert (rec.edges[("qat", "models.teacher_forward", "kernels.conv_forward")][0]
            == rec.edges[("qat", "models.student_forward",
                          "kernels.conv_forward")][0])


def test_exact_tape_counts(tmp_path):
    counts = {}
    for model in ("mlp4", "mlp3"):
        rec, res = _traced_run("mlp4_gaussians", tmp_path / model, model=model,
                               n_train=128, n_val=128)
        m = layer_metrics(rec, res["summary"]["steps"])
        counts[model] = (m["tensor.nodes_per_step"],
                         m["tensor.loss_nodes_per_step"],
                         m["quantizer.bitwidth_graph_calls_per_step"],
                         m["kernels.conv_calls"])
    assert counts == {"mlp4": (123, 76, 4, 0), "mlp3": (76, 48, 2, 0)}
