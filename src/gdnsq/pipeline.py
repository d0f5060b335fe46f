"""Training pipeline: PTQ calibration, the QAT loop, auditing and persistence.

Stage order is layer replacement (build the quantized student), min-max PTQ
to 10 bits, gradual bit-width convergence under the exterior-point loss,
then exponential LR annealing once the audited max bit-width meets the
target at every site. The unique-value auditor runs once per epoch on the
validation split; its forward also gives the epoch's val accuracy. It
drives both the LR phase switch and best-checkpoint selection (best val
accuracy among audits where max actual <= target).

Each eval pass is one ``train=False`` forward over its whole split, and
records nothing: PTQ and the teacher's logits over the train split, the
audit over the val split. ``site_pass`` runs PTQ's and the audit's and
keeps, per site, weight and activation alike, the pair its ``sites``
callback saw. The frozen teacher's logits, their floored softmax and its
log are computed once per run, before the first step. A QAT step records
the student's chain (one entry per layer, then one loss entry for the
distance and the potential, ``gdnsq.tensor``), sweeps it once into the
flat gradient buffer of its ``RAdam`` and steps.

A QAT run's state between steps and epochs is one ``QatRun``: its
``RAdam``, the probe rng, the step n, the sum of the distillation
distances of the batches before n (c_r, their mean, is 1 at n = 0), the
learning rate lambda and its phase, the epoch, the best record and the
reached epoch, the first whose audit met the targets. Batch n trains
with lambda and t_q = tq_init + lambda * n; lambda stays lr0 until the
first batch after an audit where the max actual bit-width meets every
target, then decays by 0.9985 per batch, a one-way switch. The run sets
its rng and ``noise_mode`` on every site of the student it trains; a
batchnorm layer trains on batch statistics and updates its running ones.

Teacher and student checkpoints share one writer (``_model_arrays``: the
config object, the spec and the model's ``state_arrays``) and one reader
(``read_model``). A PTQ student is just that; QAT adds the run's
sections, each read back on resume: the optimizer's (its step count is
n, one step per batch), ``rng/state``, the generator's state as JSON like
``config/json`` and ``spec/json``, and one list of scalars,
``QatRun._SCALARS``, which ``QatRun.state_arrays`` writes and
``load_state_arrays`` reads, an epoch of None stored as -1.

Integer fusion works on the model's own layers: ``fuse_student`` takes
each quantized ``models._Layer``'s integer weights from its weight site's
levels (``kernels.grid_levels``), and ``fused_model_forward`` is the one
integer forward, which runs the fused layers on integer weights and the
rest of the model as usual.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import (array_to_json, json_to_array, load_arrays,
                         save_arrays, section)
from .data import Dataset, load_idx_dataset, make_synthetic
from .errors import (DomainError, FormatError, FusionError, NumericError,
                     PipelineError)
from .kernels import grid_levels
from .losses import DISTILL_KINDS, teacher_probs, total_loss
from .models import Model, logits_accuracy, spec_from_dict, spec_to_dict
from .optim import RAdam
from .quantizer import NOISE_MODES, FusedLinear

logger = logging.getLogger("gdnsq")

METRICS_HEADER = [
    "step", "phase", "lambda", "t_q", "c_r", "loss", "distill_d",
    "potential_P", "val_acc", "mean_w_est", "mean_w_act", "max_w_act",
    "mean_a_est", "mean_a_act", "max_a_act",
]

PTQ_BITS = 10.0
NO_PTQ_INIT_BITS = 24.0  # near-FP warm start for the no-PTQ ablation
LR_DECAY = 0.9985  # per-batch learning-rate factor of the annealing phase


@dataclass
class RunConfig:
    model: str = "mlp3"
    dataset: str = "two_gaussians"
    data_seed: int = 0
    n_train: int = 1024
    n_val: int = 512
    wbits: float = 4.0
    abits: float = 4.0
    lr0: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    noise_mode: str = "bernoulli"
    distill: str = "jeffreys"
    ptq_enabled: bool = True
    tq_init: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.wbits >= 1 and self.abits >= 1):
            raise DomainError("target bit-widths must be >= 1, got "
                              f"{self.wbits} and {self.abits}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.lr0 < math.inf:
            raise DomainError(f"lr0 must be in (0, inf), got {self.lr0}")
        if not 0 <= self.tq_init < math.inf:
            raise DomainError(f"tq_init must be in [0, inf), got {self.tq_init}")
        if self.seed < 0 or self.data_seed < 0:
            raise DomainError(f"seeds must be >= 0, got seed {self.seed} "
                              f"and data_seed {self.data_seed}")
        if self.distill not in DISTILL_KINDS:
            raise DomainError(f"unknown distill loss {self.distill!r}")
        if self.noise_mode not in NOISE_MODES:
            raise DomainError(f"unknown noise_mode {self.noise_mode!r}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_dataset(dataset: str, data_seed: int, n_train: int, n_val: int):
    """Train/val pair for a dataset id.

    Synthetic ids draw disjoint substreams; "idx:tr_img:tr_lbl:va_img:va_lbl"
    reads two IDX file pairs.
    """
    if dataset.startswith("idx:"):
        parts = dataset.split(":")
        if len(parts) != 5:
            raise FormatError(
                "idx dataset id must be idx:<train_images>:<train_labels>"
                ":<val_images>:<val_labels>"
            )
        train = load_idx_dataset(parts[1], parts[2])
        val = load_idx_dataset(parts[3], parts[4],
                               num_classes=train.num_classes)
        return train, val
    train = make_synthetic(dataset, n_train, data_seed, split="train")
    val = make_synthetic(dataset, n_val, data_seed, split="val")
    return train, val


# -- PTQ ----------------------------------------------------------------------


def site_pass(model: Model, inputs):
    """One eval forward of model over a whole split: (logits, {fq: (x,
    xq)}), the array each site saw and its fake-quantized values, in the
    order of ``Model.all_quantizers``."""
    seen = {}

    def keep(fq, x, xq):
        seen[fq] = (x, xq)

    return model.forward(inputs, train=False, sites=keep), seen


def ptq_minmax(student: Model, train_ds: Dataset,
               bits: float = PTQ_BITS) -> Model:
    """Min-max calibration over the training set, then bit-width = `bits`.

    A site's range is the min/max of its weights or of its inputs over one
    eval forward of the whole split (``site_pass``); the sites are not yet
    initialized, so that forward runs in floating point. Weights are
    untouched, only quantizer parameters are set.
    """
    if not student.inner_layers():
        raise PipelineError("model has no quantized layers to calibrate")
    _, seen = site_pass(student, train_ds.inputs)
    for fq, (x, _) in seen.items():
        fq.init_from_minmax(float(x.min()), float(x.max()), bits)
    return student


# -- bit-width audit -----------------------------------------------------------


@dataclass
class SiteAudit:
    name: str
    kind: str  # weight | activation
    estimated: float
    levels: int

    @property
    def actual(self) -> int:  # bits that hold `levels` values
        return 0 if self.levels <= 1 else math.ceil(math.log2(self.levels))

    @property
    def degenerate(self) -> bool:
        return self.levels <= 1


@dataclass
class BitWidthReport:
    sites: list
    val_acc: float  # of the audit forward

    def aggregates(self, kind):
        g = [s for s in self.sites if s.kind == kind]
        return {
            "mean_est": float(np.mean([s.estimated for s in g])),
            "mean_act": float(np.mean([s.actual for s in g])),
            "max_act": int(max(s.actual for s in g)),
        }

    def reached(self, targets) -> bool:
        wb, ab = targets
        return (self.aggregates("weight")["max_act"] <= wb
                and self.aggregates("activation")["max_act"] <= ab)

    def format(self) -> str:
        lines = [f"{'site':<24}{'est':>10}{'levels':>10}{'actual':>8}"]
        for s in self.sites:
            flag = "  (degenerate)" if s.degenerate else ""
            lines.append(f"{s.name:<24}{s.estimated:>10.4f}{s.levels:>10}"
                         f"{s.actual:>8}{flag}")
        for kind in ("weight", "activation"):
            a = self.aggregates(kind)
            lines.append(
                f"{kind}s: mean est {a['mean_est']:.4f}  mean actual "
                f"{a['mean_act']:.4f}  max actual {a['max_act']}"
            )
        return "\n".join(lines)


def audit_bitwidth(model: Model, val_inputs, val_labels) -> BitWidthReport:
    """Count unique dequantized values per site in one eval forward of the
    whole split (``site_pass``).

    The report also carries the accuracy of that forward's logits, the
    same value ``Model.accuracy`` gives, without a second pass.
    """
    logits, seen = site_pass(model, val_inputs)
    sites = []
    for fq, (_, xq) in seen.items():
        site = SiteAudit(fq.name, fq.site_kind, fq.bitwidth_value(),
                         int(np.unique(xq).size))
        if site.degenerate:
            logger.debug("degenerate site %s: %d unique value(s)",
                         site.name, site.levels)
        sites.append(site)
    return BitWidthReport(sites, logits_accuracy(logits, val_labels))


# -- checkpoints ---------------------------------------------------------------


def _model_arrays(config: dict, model: Model) -> dict:
    """The sections of a model checkpoint, teacher or student: the config
    object, the spec and the model's state."""
    return {"config/json": json_to_array(config),
            "spec/json": json_to_array(spec_to_dict(model.spec)),
            **model.state_arrays()}


def read_model(arrays, path, quantized: bool):
    """(config object, model) of the arrays _model_arrays wrote, read from
    path; PipelineError for arrays without a config object, and for a
    student's (one with quant/ sections) unless quantized or a teacher's
    if quantized. A missing or malformed spec raises FormatError."""
    config = (array_to_json(section(arrays, "config/json"))
              if "config/json" in arrays else None)
    if not isinstance(config, dict) or \
            quantized != any(key.startswith("quant/") for key in arrays):
        kind = "student" if quantized else "teacher"
        raise PipelineError(f"{path} is not a {kind} checkpoint")
    spec = spec_from_dict(array_to_json(section(arrays, "spec/json")))
    model = Model(spec, quantized=quantized)
    model.load_state_arrays(arrays)
    return config, model


def build_student_arrays(config: RunConfig, model: Model, run=None) -> dict:
    """The student checkpoint of config and model, with the sections of
    the QAT run when one is given."""
    arrays = _model_arrays(config.to_dict(), model)
    if run is not None:
        arrays.update(run.state_arrays())
    return arrays


def load_student(path):
    """Rebuild (config, spec, model, arrays) from a student checkpoint
    (``read_model``); PipelineError naming the keys if its config has
    other keys than RunConfig's, FormatError for a config value of another
    type than its default's (``check_config_types``)."""
    arrays = load_arrays(path)
    saved, model = read_model(arrays, path, quantized=True)
    defaults = RunConfig().to_dict()
    if set(saved) != set(defaults):
        extra = ", ".join(sorted(saved.keys() - defaults)) or "none"
        missing = ", ".join(sorted(defaults.keys() - saved)) or "none"
        raise PipelineError(f"{path}: config keys differ from RunConfig's "
                            f"(only in the checkpoint: {extra}; only in "
                            f"RunConfig: {missing})")
    check_config_types(path, saved, defaults)
    return RunConfig(**saved), model.spec, model, arrays


def check_config_types(path, saved: dict, keys):
    """FormatError naming path and the key for the first of keys that
    saved lacks or holds with another type than RunConfig's default (an
    integer for a float too)."""
    defaults = RunConfig().to_dict()
    for key in keys:
        default = defaults[key]
        if key not in saved:
            raise FormatError(f"{path}: config has no {key}")
        want = (int, float) if isinstance(default, float) else type(default)
        if not isinstance(saved[key], want) \
                or isinstance(saved[key], bool) != isinstance(default, bool):
            raise FormatError(f"{path}: config {key} must be of type "
                              f"{type(default).__name__}, got {saved[key]!r}")


def save_teacher(path, model: Model, meta: dict):
    """The teacher's state, with meta (its val accuracy, how it was trained)
    and its spec as JSON."""
    save_arrays(path, _model_arrays(meta, model))


def load_teacher(path):
    """(model, meta) of a teacher checkpoint (``read_model``)."""
    meta, model = read_model(load_arrays(path), path, quantized=False)
    return model, meta


# -- the QAT loop ----------------------------------------------------------------


def _check_resume_config(path, arrays, config: RunConfig):
    """Refuse to resume a checkpoint written under another config, or
    with no config object. Only `epochs` may differ, so that a finished
    run can be extended."""
    saved = array_to_json(section(arrays, "config/json"))
    if not isinstance(saved, dict):
        raise PipelineError(f"{path} holds no run config")
    current = config.to_dict()
    differ = sorted(k for k in set(saved) | set(current)
                    if k != "epochs" and saved.get(k) != current.get(k))
    if differ:
        raise PipelineError(
            f"{path} was written under a different run config ("
            + ", ".join(f"{k}: {saved.get(k)!r} -> {current.get(k)!r}"
                        for k in differ)
            + "); only epochs may change on resume")


def _truncate_metrics(path, step: int) -> dict:
    """Cut metrics.csv after the audit row of the checkpointed step, so the
    rows a crashed run wrote past its last checkpoint are not kept, and
    return that row's max actual bit-width of each kind. PipelineError,
    before the file is cut, when there is no such row or either cell is
    not an integer."""
    if not os.path.isfile(path):
        raise PipelineError(f"{path} is missing; a run resumes only where "
                            "it wrote its metrics")
    with open(path, "rb") as f:
        lines = f.readlines()
    end, audit = 0, METRICS_HEADER.index("val_acc")
    for line in lines:
        end += len(line)
        row = next(csv.reader([line.decode("utf-8")]), [])
        if len(row) > audit and row[0] == str(step) and row[audit] != "":
            try:
                prev_max = {kind: int(row[METRICS_HEADER.index(col)])
                            for kind, col in (("weight", "max_w_act"),
                                              ("activation", "max_a_act"))}
            except (IndexError, ValueError):
                raise PipelineError(
                    f"{path}: the audit row of step {step} has no integer "
                    "max_w_act and max_a_act") from None
            os.truncate(path, end)
            return prev_max
    raise PipelineError(
        f"{path} has no audit row for the checkpointed step {step}; it "
        "does not belong to the run being resumed")


# How a run's scalar is stored: (dtype, stored value of a value, value of
# a stored one).
_INT = (np.int64, int, int)
_FLOAT = (np.float64, float, float)
_EPOCH = (np.int64, lambda e: -1 if e is None else e,
          lambda v: None if v < 0 else int(v))
_PHASE = (np.int64, lambda p: int(p == "annealing"),
          lambda v: "annealing" if v else "constant")


class QatRun:
    """The state a QAT run of config carries between steps and epochs
    (module docstring), over the student it trains."""

    # The run's scalar sections besides the optimizer's and rng/state:
    # (section, attribute, storage). step_n is the optimizer's opt/t and
    # c_r follows from c_r_sum, so neither is stored.
    _SCALARS = (
        ("meta/epoch", "epoch", _INT),
        ("sched/c_r_sum", "c_r_sum", _FLOAT),
        ("lr/phase", "phase", _PHASE),
        ("lr/lam", "lam", _FLOAT),
        ("best/val_acc", "best_val_acc", _FLOAT),
        ("best/epoch", "best_epoch", _EPOCH),
        ("meta/reached_epoch", "reached_epoch", _EPOCH),
    )

    def __init__(self, config: RunConfig, student: Model):
        self.config = config
        self.student = student
        self.opt = RAdam(student.named_parameters(), lr=config.lr0)
        self.rng = np.random.default_rng([config.seed, 0x514154])
        self.step_n = 0
        self.c_r_sum = 0.0
        self.lam = config.lr0
        self.phase = "constant"
        self.epoch = 0
        self.best_val_acc = -1.0
        self.best_epoch = None
        self.reached_epoch = None
        for fq in student.all_quantizers():
            fq.rng = self.rng
            fq.noise_mode = config.noise_mode

    @property
    def c_r(self) -> float:
        """The mean distillation distance of the batches before step_n,
        which the next batch's loss uses; 1, neutral, before the first."""
        return self.c_r_sum / self.step_n if self.step_n else 1.0

    def next_batch(self):
        """(lambda, t_q) of the next batch; lambda is also the optimizer's
        learning rate for its step."""
        if self.phase == "constant" and self.reached_epoch is not None:
            self.phase = "annealing"
        if self.phase == "annealing":
            self.lam = self.lam * LR_DECAY
        self.opt.lr = self.lam
        return self.lam, self.config.tq_init + self.lam * self.step_n

    def fold_distance(self, d: float):
        """Count one more batch and add its distance d to c_r_sum."""
        self.c_r_sum += float(d)
        self.step_n += 1

    def state_arrays(self) -> dict:
        """The run's sections: the optimizer's, rng/state and _SCALARS."""
        arrays = self.opt.state_arrays()
        arrays["rng/state"] = json_to_array(self.rng.bit_generator.state)
        for key, attr, (dtype, store, _) in self._SCALARS:
            arrays[key] = np.asarray(store(getattr(self, attr)), dtype=dtype)
        return arrays

    def load_state_arrays(self, arrays, path):
        """Resume from the checkpoint arrays read from path: the student's
        state and the run's sections. PipelineError for a checkpoint
        without the optimizer's step count (a PTQ student) or written
        under another config (``_check_resume_config``); FormatError names
        any other section that is missing or of another shape than what it
        loads into, and an rng/state that does not store back to the same
        bytes (numpy takes 1.5 for the integer 1)."""
        if "opt/t" not in arrays:
            raise PipelineError(
                f"{path} has no optimizer or schedule state; resume from a "
                "qat last.ckpt")
        _check_resume_config(path, arrays, self.config)
        self.student.load_state_arrays(arrays)
        self.opt.load_state_arrays(arrays)
        self.step_n = self.opt.t
        stored = section(arrays, "rng/state")
        try:
            self.rng.bit_generator.state = array_to_json(stored)
            same = np.array_equal(json_to_array(self.rng.bit_generator.state),
                                  stored)
        except (FormatError, TypeError, ValueError, KeyError, OverflowError):
            same = False
        if not same:
            raise FormatError(f"{path}: checkpoint section 'rng/state' is "
                              "not a PCG64 generator state in JSON")
        for key, attr, (_, _, load) in self._SCALARS:
            setattr(self, attr, load(section(arrays, key, ())))


def qat_run(config: RunConfig, teacher: Model, student: Model, out_dir,
            train_ds: Dataset, val_ds: Dataset, resume_path=None):
    """Gradual bit-width convergence plus final LR annealing.

    Writes metrics.csv, last.ckpt (every epoch) and best.ckpt (best val
    accuracy among audits where the max actual bit-width meets the target)
    into out_dir. Returns a summary dict whose last_ckpt is named once the
    run has done an epoch, and best_ckpt once it has a best record.
    The frozen teacher's logits over the train split (one eval forward),
    their floored softmax and its log are computed once, before the first
    epoch; non-finite teacher logits raise NumericError there.

    A run resumes only in place, from out_dir's own last.ckpt: metrics.csv
    is cut back to the checkpointed step's audit row and the run's state,
    its best-checkpoint record included, is read back, so a run that
    crashes and resumes writes the same files as one that does not. Any
    other checkpoint, a missing metrics.csv and a config that differs in
    anything but `epochs` are refused with PipelineError before a file is
    written.
    """
    for fq in student.all_quantizers():
        if not fq.initialized:
            raise PipelineError(
                f"quantizer {fq.name} was never initialized; run PTQ or "
                "explicit init before QAT"
            )
    targets = (config.wbits, config.abits)
    run = QatRun(config, student)
    last_path = os.path.join(out_dir, "last.ckpt")
    if resume_path is not None:
        if os.path.realpath(resume_path) != os.path.realpath(last_path):
            raise PipelineError(f"cannot resume {resume_path} into {out_dir}:"
                                f" a run resumes only from {last_path}")
        run.load_state_arrays(load_arrays(resume_path), resume_path)
    os.makedirs(out_dir, exist_ok=True)

    train_teacher = teacher_probs(teacher.predict_logits(train_ds.inputs))
    metrics_path = os.path.join(out_dir, "metrics.csv")
    # each kind's max actual bit-width at the last audit
    if resume_path is None:
        prev_max = {"weight": None, "activation": None}
        mfile = open(metrics_path, "w", newline="")
        csv.writer(mfile).writerow(METRICS_HEADER)
    else:
        prev_max = _truncate_metrics(metrics_path, run.step_n)
        mfile = open(metrics_path, "a", newline="")
    writer = csv.writer(mfile)

    def fmt(x):
        return f"{x:.17g}"

    weight_fqs = student.weight_quantizers()
    act_fqs = student.act_quantizers()
    n = len(train_ds)
    try:
        for epoch in range(run.epoch, config.epochs):
            order = run.rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                xb, yb = train_ds.inputs[idx], train_ds.labels[idx]
                lam, t_q = run.next_batch()
                T.reset_tape()
                s_logits = student.forward(xb, train=True)
                loss, info = total_loss(s_logits, train_teacher.rows(idx),
                                        weight_fqs, act_fqs, targets,
                                        t_q * run.c_r, labels=yb,
                                        kind=config.distill)
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, step "
                        f"{run.step_n}; last checkpoint retained"
                    )
                T.backward(run.opt.slots)
                run.opt.step()
                writer.writerow([run.step_n, run.phase, fmt(lam), fmt(t_q),
                                 fmt(run.c_r), fmt(float(loss)),
                                 fmt(info["d"]), fmt(info["P"]),
                                 "", "", "", "", "", "", ""])
                run.fold_distance(info["d"])
            T.reset_tape()

            report = audit_bitwidth(student, val_ds.inputs, val_ds.labels)
            val_acc = report.val_acc
            wagg = report.aggregates("weight")
            aagg = report.aggregates("activation")
            writer.writerow([run.step_n, run.phase, fmt(run.lam),
                             "", "", "", "", "", fmt(val_acc),
                             fmt(wagg["mean_est"]), fmt(wagg["mean_act"]),
                             wagg["max_act"], fmt(aagg["mean_est"]),
                             fmt(aagg["mean_act"]), aagg["max_act"]])
            mfile.flush()
            for kind, agg in (("weight", wagg), ("activation", aagg)):
                if run.reached_epoch is not None \
                        and prev_max[kind] is not None \
                        and agg["max_act"] > prev_max[kind]:
                    logger.warning(
                        "max actual bit-width for %ss rose %d -> %d after "
                        "the constraint activated", kind, prev_max[kind],
                        agg["max_act"])
                prev_max[kind] = agg["max_act"]
            reached_now = report.reached(targets)
            if reached_now and run.reached_epoch is None:
                run.reached_epoch = epoch
            improved = reached_now and val_acc > run.best_val_acc
            if improved:
                run.best_val_acc, run.best_epoch = val_acc, epoch
            run.epoch = epoch + 1
            ckpt = build_student_arrays(config, student, run)
            # best.ckpt first: a crash between the two saves resumes from
            # the previous last.ckpt and writes the same best.ckpt again
            if improved:
                save_arrays(os.path.join(out_dir, "best.ckpt"), ckpt)
            save_arrays(last_path, ckpt)
    finally:
        mfile.close()
    found = run.best_epoch is not None
    return {
        "best_val_acc": run.best_val_acc if found else None,
        "best_epoch": run.best_epoch,
        "reached_epoch": run.reached_epoch,
        "final_lambda": run.lam,
        "phase": run.phase,
        "steps": run.step_n,
        "last_ckpt": last_path if run.epoch > 0 else None,
        "best_ckpt": os.path.join(out_dir, "best.ckpt") if found else None,
        "metrics": metrics_path,
    }


# -- integer fusion at model level ------------------------------------------------


def fuse_student(model: Model) -> dict:
    """Integer-fuse every quantized layer: index -> FusedLinear, whose
    integer weights are the weight site's levels of W. Raises FusionError
    for a conv layer."""
    fused = {}
    for i, layer in enumerate(model.layers):
        wq, aq = layer.weight_fq, layer.act_fq
        if wq is None:
            continue
        if layer.spec.kind != "linear":
            raise FusionError("integer fusion covers linear layers only")
        s_w = wq.scale_value()
        levels = grid_levels(layer.W.data, *wq.bound_values(), s_w)
        fused[i] = FusedLinear(levels.astype(np.int64), s_w,
                               aq.scale_value(), *aq.bound_values(),
                               layer.spec.activation)
    return fused


def fused_model_forward(model: Model, fused: dict, x: np.ndarray) -> np.ndarray:
    """Eval forward where quantized layers run on the integer path.

    This is the one integer forward: a fused layer rounds its clamped input
    to activation levels, multiplies by the integer weights, rescales by
    s_w * s_a and adds the model layer's bias before its activation.
    """
    h = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(model.layers):
        if i in fused:
            f: FusedLinear = fused[i]
            ka = grid_levels(h, f.a_lo, f.a_hi, f.s_a)
            h = (ka @ f.int_weights) * (f.s_w * f.s_a) + layer.b.data
            if f.activation_fn == "relu":
                h = np.maximum(h, 0.0)
        else:
            h = layer.forward(h, train=False)
    return h
