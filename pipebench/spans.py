"""Stage clocks, the span recorder and the patches that time gdnsq's modules.

Untraced runs time stages with a ``StepClock``, which only adds one clock
read after every optimizer step. Traced runs record spans from the
benchmark's side: ``Tracer.install`` replaces module attributes where
callers look them up (``gdnsq.pipeline.total_loss``,
``gdnsq.models.conv2d_forward``, ``gdnsq.optim.RAdam.step`` ...) with timing
wrappers, and ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of the spans opened
directly inside it, so within one stage the self times of all spans add up
to the stage span's duration.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time


class StepClock:
    """Clock reads at each stage's start and end and after every optimizer step.

    Consecutive reads cut a stage into segments: the stretch up to the first
    optimizer step, one segment per later step, and the stretch after the
    last step. ``install`` wraps ``gdnsq.optim.RAdam.step`` with one clock
    read; that is all the untraced runs add to the program.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage = None
        self.marks = {}  # stage -> clock reads
        self._saved = None

    def mark(self):
        self.marks[self.stage].append(self.clock())

    def run_stage(self, stage, fn):
        """Call fn() as one stage; return its result."""
        self.stage = stage
        self.marks[stage] = [self.clock()]
        try:
            return fn()
        finally:
            self.mark()

    def segments(self, stage):
        m = self.marks.get(stage, [])
        return [b - a for a, b in zip(m, m[1:])]

    def install(self):
        optim = importlib.import_module("gdnsq.optim")
        step = self._saved = vars(optim.RAdam)["step"]
        clock = self

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            clock.mark()
            return out

        optim.RAdam.step = timed_step

    def uninstall(self):
        importlib.import_module("gdnsq.optim").RAdam.step = self._saved

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


LOCAL_SEGMENTS = 8  # neighbours on each side that give a segment's speed
FAST_QUANTILE = 0.005


def fast_stage_time(clocks, stage) -> float:
    """A stage's time at the host's fast speed, from its segments.

    Every repeat with the same seed does the same work and cuts a stage into
    the same segments, and each repeat starts from a full garbage collection,
    so work tied to particular steps or epochs (a checkpoint written only
    when val accuracy improves, a cyclic-GC pause) falls on the same
    positions in every repeat after the first.

    The host runs the same code at two or more speeds up to 3x apart. It
    switches between them every 0.5 s to a minute and at times stays slow
    for a whole run, so a median or a minimum over whole repeats, or per
    position over the repeats, lands on either speed from run to run. Two
    readings do not:

    - a segment's length in steps: its duration over the median of the
      LOCAL_SEGMENTS inner segments on each side of it in the same repeat,
      which ran at the same speed. The median over the repeats, summed over
      the positions, is the stage's length in steps; it keeps the work of
      every segment, the first and last stretch included;
    - the fast step time: the FAST_QUANTILE of the durations of all inner
      segments of all repeats, the fast speed whenever the host spent more
      than that fraction of the steps at it.

    The stage time is their product. A stage with fewer than two inner
    segments (ptq, audit and fuse take no optimizer step) is the sum of
    per-position minima.
    """
    per_repeat = [c.segments(stage) for c in clocks]
    n = len(per_repeat[0])
    if any(len(segs) != n for segs in per_repeat):
        raise ValueError(f"repeats cut {stage} into different segments")
    if n < 4:
        return sum(min(readings) for readings in zip(*per_repeat))
    inner = list(range(1, n - 1))
    lengths = [[] for _ in range(n)]  # per position, one length per repeat
    for segs in per_repeat:
        for k in range(n):
            i = min(max(k - 1, 0), len(inner) - 1)  # k's place among inner
            near = [j for j in inner[max(0, i - LOCAL_SEGMENTS):
                                     i + LOCAL_SEGMENTS + 1] if j != k]
            local = statistics.median(segs[j] for j in near)
            lengths[k].append(segs[k] / local)
    steps = sorted(seg for segs in per_repeat for seg in segs[1:-1])
    fast_step = steps[int(FAST_QUANTILE * len(steps))]
    return fast_step * sum(statistics.median(r) for r in lengths)


class Recorder(StepClock):
    """Aggregates nested spans per stage: calls, total and self time."""

    def __init__(self, clock=time.perf_counter):
        super().__init__(clock)
        self._stack = []  # open spans: [name, start, time spent in children]
        self.spans = {}  # (stage, name) -> [calls, total_s, self_s]
        self.edges = {}  # (stage, parent, child) -> [calls, total_s]
        self.counts = {}  # (stage, name) -> accumulated count

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        key = (self.stage, name)
        s = self.spans.get(key)
        if s is None:
            s = self.spans[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            e = self.edges.setdefault((self.stage, parent[0], name), [0, 0.0])
            e[0] += 1
            e[1] += dur

    def add(self, name, value):
        key = (self.stage, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def run_stage(self, stage, fn):
        """Call fn() as the stage span ``cli.<stage>``; return its result."""
        if self._stack:
            raise RuntimeError("a stage must be the outermost span")

        def spanned():
            self.enter(f"cli.{stage}")
            try:
                return fn()
            finally:
                self.exit()

        return super().run_stage(stage, spanned)

    # -- views ---------------------------------------------------------------

    def total(self, stage, name) -> float:
        return self.spans.get((stage, name), [0, 0.0, 0.0])[1]

    def self_time(self, stage, name) -> float:
        return self.spans.get((stage, name), [0, 0.0, 0.0])[2]

    def calls(self, stage, name) -> int:
        return self.spans.get((stage, name), [0, 0.0, 0.0])[0]

    def count(self, stage, name):
        return self.counts.get((stage, name), 0)

    def stage_self_sum(self, stage) -> float:
        return sum(s[2] for (st, _), s in self.spans.items() if st == stage)


def _forward_span(args, kwargs):
    model = args[0]
    if not model.quantized:
        return "models.teacher_forward"
    train = kwargs.get("train", args[2] if len(args) > 2 else True)
    return "models.student_forward" if train else "models.eval_forward"


def _conv_flops(out_or_grad, w_shape):
    # one multiply-add per output element, input channel and kernel tap
    _, c, kh, kw = w_shape
    return 2 * int(out_or_grad.size) * c * kh * kw


class Tracer:
    """Installs span-recording wrappers on gdnsq's module attributes."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved = []
        self.skipped = []

    def _targets(self):
        rec = self.rec
        tape = importlib.import_module("gdnsq.tensor").get_tape

        def after_backward(args, kwargs, out, before):
            rec.add("tensor.nodes", len(tape()))
            rec.add("tensor.backward_calls", 1)

        def before_loss(args, kwargs):
            return len(tape())

        def after_loss(args, kwargs, out, before):
            rec.add("losses.loss_nodes", len(tape()) - before)

        def after_step(args, kwargs, out, before):
            rec.mark()

        def after_fq(args, kwargs, out, before):
            rec.add("kernels.fake_quant_elems", int(out.size))

        def after_conv_fwd(args, kwargs, out, before):
            rec.add("kernels.conv_flops", _conv_flops(out, args[1].shape))

        def after_conv_bwd_in(args, kwargs, out, before):
            rec.add("kernels.conv_flops", _conv_flops(args[0], args[1].shape))

        def after_conv_bwd_w(args, kwargs, out, before):
            rec.add("kernels.conv_flops", _conv_flops(args[0], args[2]))

        def after_save(args, kwargs, out, before):
            rec.add("checkpoint.bytes_written", os.path.getsize(args[0]))

        return [
            ("gdnsq.cli", "load_dataset", "data.load", None, None),
            ("gdnsq.cli", "ptq_minmax", "pipeline.ptq_minmax", None, None),
            ("gdnsq.cli", "qat_run", "pipeline.qat", None, None),
            ("gdnsq.cli", "audit_bitwidth", "pipeline.audit", None, None),
            ("gdnsq.pipeline", "audit_bitwidth", "pipeline.audit", None, None),
            ("gdnsq.cli", "save_arrays", "checkpoint.save", None, after_save),
            ("gdnsq.pipeline", "save_arrays", "checkpoint.save", None,
             after_save),
            ("gdnsq.pipeline", "load_arrays", "checkpoint.load", None, None),
            ("gdnsq.pipeline", "total_loss", "losses.total_loss", before_loss,
             after_loss),
            ("gdnsq.tensor", "backward", "tensor.backward", None,
             after_backward),
            ("gdnsq.optim", "RAdam.step", "optim.step", None, after_step),
            ("gdnsq.models", "Model.forward", _forward_span, None, None),
            ("gdnsq.quantizer", "FakeQuantizer.apply", "quantizer.apply",
             None, None),
            ("gdnsq.quantizer", "FakeQuantizer.bitwidth_tensor",
             "quantizer.bitwidth_graph", None, None),
            ("gdnsq.quantizer", "FakeQuantizer.ste_backward",
             "quantizer.ste_backward", None, None),
            ("gdnsq.quantizer", "fq_kernel", "kernels.fake_quant", None,
             after_fq),
            ("gdnsq.models", "conv2d_forward", "kernels.conv_forward", None,
             after_conv_fwd),
            ("gdnsq.models", "conv2d_backward_input",
             "kernels.conv_backward_input", None, after_conv_bwd_in),
            ("gdnsq.models", "conv2d_backward_weight",
             "kernels.conv_backward_weight", None, after_conv_bwd_w),
        ]

    def _wrap(self, fn, name, before, after):
        rec = self.rec

        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            rec.enter(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit()
            if after is not None:
                after(args, kwargs, out, pre)
            return out

        return wrapper

    def install(self):
        for module_name, path, name, before, after in self._targets():
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            if attr not in vars(owner):
                self.skipped.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-layer metrics of one traced pipeline run ------------------------------

# self times in the qat stage; with the unspanned remainder and the qat
# stage's other spans they add up to the traced qat stage time
QAT_SELF_TIMES = {
    "tensor.backward_s": "tensor.backward",
    "losses.total_loss_s": "losses.total_loss",
    "optim.step_s": "optim.step",
    "quantizer.apply_s": "quantizer.apply",
    "quantizer.bitwidth_graph_s": "quantizer.bitwidth_graph",
    "quantizer.ste_backward_s": "quantizer.ste_backward",
    "kernels.fake_quant_s": "kernels.fake_quant",
    "kernels.conv_forward_s": "kernels.conv_forward",
    "kernels.conv_backward_input_s": "kernels.conv_backward_input",
    "kernels.conv_backward_weight_s": "kernels.conv_backward_weight",
    "models.teacher_forward_s": "models.teacher_forward",
    "models.student_forward_s": "models.student_forward",
    "models.eval_forward_s": "models.eval_forward",
    "pipeline.audit_s": "pipeline.audit",
    "pipeline.qat_self_s": "pipeline.qat",
}

LAYER_UNITS = dict(
    {k: "s" for k in QAT_SELF_TIMES},
    **{"cli.qat_s": "s", "trace.qat_other_s": "s",
       "tensor.nodes_per_step": "count", "tensor.loss_nodes_per_step": "count",
       "quantizer.bitwidth_graph_calls_per_step": "count",
       "kernels.conv_calls": "count", "kernels.conv_flops": "flop",
       "kernels.conv_train_fp_s": "s", "kernels.fake_quant_elems": "count",
       "pipeline.steps": "count", "pipeline.qat_step_ms_p50": "ms",
       "pipeline.qat_step_ms_p99": "ms", "pipeline.qat_step_samples": "count",
       "checkpoint.save_s": "s", "checkpoint.save_calls": "count",
       "checkpoint.bytes_written": "byte", "checkpoint.load_s": "s",
       "data.load_s": "s", "pipeline.ptq_minmax_s": "s", "cli.ptq_s": "s",
       "cli.audit_s": "s", "cli.fuse_s": "s", "trace.overhead_frac": "frac"})

CONV_SPANS = ("kernels.conv_forward", "kernels.conv_backward_input",
              "kernels.conv_backward_weight")


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(rec: Recorder, steps: int) -> dict:
    """Per-layer metrics of one traced pipeline run (values, no units)."""
    q = "qat"
    m = {k: rec.self_time(q, span) for k, span in QAT_SELF_TIMES.items()}
    m["cli.qat_s"] = rec.total(q, "cli.qat")
    # cli.qat's own time plus the checkpoint and data spans inside qat
    m["trace.qat_other_s"] = rec.stage_self_sum(q) - sum(
        m[k] for k in QAT_SELF_TIMES)
    m["tensor.nodes_per_step"] = (rec.count(q, "tensor.nodes")
                                  / max(1, rec.count(q, "tensor.backward_calls")))
    m["tensor.loss_nodes_per_step"] = (
        rec.count(q, "losses.loss_nodes")
        / max(1, rec.calls(q, "losses.total_loss")))
    m["quantizer.bitwidth_graph_calls_per_step"] = (
        rec.calls(q, "quantizer.bitwidth_graph") / max(1, steps))
    m["kernels.conv_calls"] = sum(rec.calls(q, s) for s in CONV_SPANS)
    m["kernels.conv_flops"] = rec.count(q, "kernels.conv_flops")
    m["kernels.conv_train_fp_s"] = sum(rec.self_time("train-fp", s)
                                       for s in CONV_SPANS)
    m["kernels.fake_quant_elems"] = rec.count(q, "kernels.fake_quant_elems")
    m["pipeline.steps"] = steps
    intervals = [seg * 1e3 for seg in rec.segments(q)[1:-1]]
    m["pipeline.qat_step_ms_p50"] = _percentile(intervals, 0.5) if intervals else 0.0
    m["pipeline.qat_step_ms_p99"] = _percentile(intervals, 0.99) if intervals else 0.0
    m["pipeline.qat_step_samples"] = len(intervals)
    stages = {st for st, _ in rec.spans}
    m["checkpoint.save_s"] = sum(rec.total(s, "checkpoint.save") for s in stages)
    m["checkpoint.save_calls"] = sum(rec.calls(s, "checkpoint.save")
                                     for s in stages)
    m["checkpoint.bytes_written"] = sum(rec.count(s, "checkpoint.bytes_written")
                                        for s in stages)
    m["checkpoint.load_s"] = sum(rec.total(s, "checkpoint.load") for s in stages)
    m["data.load_s"] = sum(rec.total(s, "data.load") for s in stages)
    m["pipeline.ptq_minmax_s"] = rec.total("ptq", "pipeline.ptq_minmax")
    for stage in ("ptq", "audit", "fuse"):
        m[f"cli.{stage}_s"] = rec.total(stage, f"cli.{stage}")
    return m
