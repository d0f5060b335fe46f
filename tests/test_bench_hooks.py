"""The program names the pipeline benchmark hooks into stay where it looks.

pipebench/spans.py times QAT by wrapping ``gdnsq.optim.RAdam.step`` (one
StepClock mark per optimizer step, which ``qat_steps_per_s`` is computed
from) and, when traced, a list of module attributes. A renamed hook would
not fail the benchmark: it would read a wrong step count or a span of 0.
These tests load spans.py as it is, without changing it, and run a short
mlp4 qat under its clock and its tracer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gdnsq.cli import main

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"

# the tracer still lists these; the functions were deleted with the
# primitive-op graph, and nothing calls them any more
STALE_HOOKS = ["gdnsq.quantizer.FakeQuantizer.apply",
               "gdnsq.quantizer.FakeQuantizer.bitwidth_tensor"]


def load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("hooks")
    teacher, student = root / "teacher.ckpt", root / "ptq.ckpt"
    data = ["--n-train", "256", "--n-val", "128"]
    assert main(["train-fp", "--model", "mlp4", "--epochs", "2", *data,
                 "--out", str(teacher)]) == 0
    assert main(["ptq", "--ckpt", str(teacher), *data,
                 "--out", str(student)]) == 0
    return teacher, student, data


def qat_stage(clock, checkpoints, out, capsys):
    """Run a 1-epoch qat as clock's stage "qat"; return its step count."""
    teacher, student, data = checkpoints
    capsys.readouterr()
    rc = clock.run_stage("qat", lambda: main([
        "qat", "--ckpt", str(student), "--teacher", str(teacher),
        "--epochs", "1", *data, "--out", str(out)]))
    assert rc == 0
    return json.loads(capsys.readouterr().out)["steps"]


def test_step_clock_marks_every_optimizer_step(checkpoints, tmp_path,
                                               capsys):
    spans = load_spans()
    with spans.StepClock() as clock:
        steps = qat_stage(clock, checkpoints, tmp_path / "qat", capsys)
    assert steps == 8
    # a mark at the start, one per optimizer step and one at the end
    assert len(clock.segments("qat")) == steps + 1


def test_tracer_finds_every_hook_but_the_stale_two(checkpoints, tmp_path,
                                                   capsys):
    spans = load_spans()
    rec = spans.Recorder()
    with spans.Tracer(rec) as tracer:
        steps = qat_stage(rec, checkpoints, tmp_path / "qat", capsys)
    assert sorted(tracer.skipped) == STALE_HOOKS
    assert rec.calls("qat", "optim.step") == steps
    assert rec.calls("qat", "tensor.backward") == steps
    assert rec.calls("qat", "losses.total_loss") == steps
    metrics = spans.layer_metrics(rec, steps)
    # four layers and the loss entry
    assert metrics["tensor.nodes_per_step"] == 5
    assert metrics["tensor.loss_nodes_per_step"] == 1
