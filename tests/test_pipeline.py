import csv
import logging

import numpy as np
import pytest

from gdnsq import pipeline
from gdnsq.checkpoint import (array_to_json, json_to_array, load_arrays,
                              save_arrays)
from gdnsq.data import Dataset, make_synthetic
from gdnsq.errors import (DegenerateRangeError, FormatError, NumericError,
                          PipelineError)
from gdnsq.models import Model, make_model_spec, train_teacher
from gdnsq.pipeline import (METRICS_HEADER, QatRun, RunConfig,
                            audit_bitwidth, build_student_arrays,
                            fuse_student, fused_model_forward, load_student,
                            ptq_minmax, qat_run)


@pytest.fixture(scope="module")
def small_world():
    train = make_synthetic("two_gaussians", 256, seed=0)
    val = make_synthetic("two_gaussians", 128, seed=0, split="val")
    spec = make_model_spec("mlp3", 2, 2)
    teacher, meta = train_teacher(spec, train, val, epochs=25, lam=0.01, seed=0,
                                  batch_size=32)
    return train, val, spec, teacher, meta


def fresh_student(spec, teacher, seed=0):
    student = Model(spec, quantized=True, init_seed=0,
                    quant_rng=np.random.default_rng(seed))
    student.copy_weights_from(teacher)
    return student


class TestPtq:
    def test_every_site_exactly_ten_bits(self, small_world):
        train, _, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        for fq in student.all_quantizers():
            assert fq.bitwidth_value() == pytest.approx(10.0, abs=1e-9)

    def test_weights_untouched(self, small_world):
        train, _, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        before = [l.W.data.copy() for l in student.layers]
        ptq_minmax(student, train)
        for b, l in zip(before, student.layers):
            np.testing.assert_array_equal(b, l.W.data)

    def test_small_accuracy_drop(self, small_world):
        train, val, spec, teacher, meta = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        acc = student.accuracy(val.inputs, val.labels)
        assert acc >= meta["val_acc"] - 0.005

    def test_one_forward_over_a_split_of_many_rows(self, monkeypatch):
        train = make_synthetic("two_gaussians", 300, seed=1)
        student = Model(make_model_spec("mlp3", 2, 2), quantized=True,
                        quant_rng=np.random.default_rng(0))
        real = Model.forward
        calls = []

        def counting(self, x, *args, **kwargs):
            calls.append(len(x))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", counting)
        ptq_minmax(student, train)
        assert calls == [300]

    def test_degenerate_weight_range(self, small_world):
        train, _, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        student.layers[1].W.data = np.zeros_like(student.layers[1].W.data)
        with pytest.raises(DegenerateRangeError, match="layer1/weight"):
            ptq_minmax(student, train)


class TestAudit:
    def test_ptq_audit_at_most_ten(self, small_world):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        report = audit_bitwidth(student, val.inputs, val.labels)
        for s in report.sites:
            assert s.actual <= 10
        assert report.aggregates("weight")["max_act"] <= 10

    def test_collapsed_site_reports_zero_bits(self, small_world):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        # blow the scale up so every weight lands on one level
        student.layers[1].weight_fq.log_s.data = np.asarray(8.0)
        report = audit_bitwidth(student, val.inputs, val.labels)
        site = next(s for s in report.sites if s.name == "layer1/weight")
        assert site.levels == 1 and site.actual == 0 and site.degenerate

    def test_one_bit_site_at_most_one(self, small_world):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        wq = student.layers[1].weight_fq
        l, u = wq.bound_values()
        wq.init_from_minmax(l, u, 1.0)
        report = audit_bitwidth(student, val.inputs, val.labels)
        site = next(s for s in report.sites if s.name == "layer1/weight")
        assert site.levels <= 2 and site.actual <= 1

    def test_estimated_tracks_levels(self, small_world):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        report = audit_bitwidth(student, val.inputs, val.labels)
        for s in report.sites:
            assert s.actual <= np.ceil(s.estimated) + 1


def site_walk_world(spec_id):
    """A quantized mlp4 or conv3 student, calibrated by PTQ, and its data."""
    rng = np.random.default_rng(5)
    if spec_id == "mlp4":
        data = make_synthetic("two_gaussians", 128, seed=5)
    else:
        data = Dataset(rng.uniform(0.0, 1.0, size=(24, 1, 8, 8)),
                       np.arange(24) % 2, num_classes=2)
    spec = make_model_spec(spec_id, data.inputs.shape[1], 2)
    student = Model(spec, quantized=True, init_seed=3, quant_rng=rng)
    return ptq_minmax(student, data), data


@pytest.mark.parametrize("spec_id", ["mlp4", "conv3"])
class TestSiteWalk:
    def test_ptq_weight_range_is_the_weights_min_and_max(self, spec_id):
        student, _ = site_walk_world(spec_id)
        for layer in student.inner_layers():
            w = layer.W.data
            l, u = layer.weight_fq.bound_values()
            assert l == w.min()
            assert u == pytest.approx(w.max(), rel=1e-12)

    def test_audit_weight_levels_count_the_quantized_weights(self, spec_id):
        student, data = site_walk_world(spec_id)
        wq = student.layers[1].weight_fq
        wq.init_from_minmax(*wq.bound_values(), 3.0)  # fewer levels than W
        report = audit_bitwidth(student, data.inputs, data.labels)
        sites = {s.name: s for s in report.sites}
        for layer in student.inner_layers():
            wq = layer.weight_fq
            expected = np.unique(wq.fake_quant(layer.W.data)[0]).size
            assert sites[wq.name].kind == "weight"
            assert sites[wq.name].levels == expected
        assert sites["layer1/weight"].levels <= 8


class TestQatLoop:
    def _config(self, **kw):
        base = dict(model="mlp3", dataset="two_gaussians", data_seed=0,
                    n_train=256, n_val=128, wbits=4.0, abits=4.0, lr0=0.01,
                    batch_size=32, epochs=3, seed=1)
        base.update(kw)
        return RunConfig(**base)

    def test_uninitialized_quantizers_rejected(self, small_world, tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        with pytest.raises(PipelineError, match="initialized"):
            qat_run(self._config(), teacher, student, tmp_path / "run",
                    train, val)

    def test_non_finite_teacher_rejected_before_any_output(self, small_world,
                                                           tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        broken = Model(spec, init_seed=0)
        broken.copy_weights_from(teacher)
        broken.layers[-1].b.data = np.array([np.nan, 0.0])
        with pytest.raises(NumericError, match="non-finite teacher logits"):
            qat_run(self._config(), broken, student, tmp_path / "run", train,
                    val)
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_metrics_row_count(self, small_world, tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        cfg = self._config()
        qat_run(cfg, teacher, student, tmp_path / "run", train, val)
        with open(tmp_path / "run" / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == METRICS_HEADER
        batches_per_epoch = int(np.ceil(256 / 32))
        expected = cfg.epochs * batches_per_epoch + cfg.epochs  # + audit rows
        assert len(rows) - 1 == expected
        audit_rows = [r for r in rows[1:] if r[8] != ""]
        assert len(audit_rows) == cfg.epochs

    def test_unconstrained_targets_agree_with_teacher(self, small_world,
                                                      tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        cfg = self._config(wbits=32.0, abits=32.0, epochs=2)
        qat_run(cfg, teacher, student, tmp_path / "run32", train, val)
        s_pred = np.argmax(student.predict_logits(val.inputs), axis=1)
        t_pred = np.argmax(teacher.predict_logits(val.inputs), axis=1)
        assert np.mean(s_pred == t_pred) >= 0.99

    def test_resume_reproduces_bitwise(self, small_world, tmp_path):
        train, val, spec, teacher, _ = small_world

        def run(out, epochs, resume=None):
            student = fresh_student(spec, teacher, seed=3)
            ptq_minmax(student, train)
            cfg = self._config(epochs=epochs, seed=7)
            return qat_run(cfg, teacher, student, out, train, val,
                           resume_path=resume)

        run(tmp_path / "full", 4)
        run(tmp_path / "head", 2)
        run(tmp_path / "head", 4, resume=str(tmp_path / "head" / "last.ckpt"))
        for name in ("metrics.csv", "last.ckpt"):
            assert ((tmp_path / "head" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes()), name

    def test_resumed_parameters_are_views_of_the_optimizer_buffer(
            self, small_world, tmp_path, monkeypatch):
        # resume loads the checkpoint into the parameters the optimizer
        # already holds; a rebound p.data would drop out of its steps
        train, val, spec, teacher, _ = small_world
        opts = []

        class Recorded(pipeline.RAdam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(pipeline, "RAdam", Recorded)
        student = fresh_student(spec, teacher, seed=6)
        ptq_minmax(student, train)
        qat_run(self._config(epochs=1, seed=6), teacher, student,
                tmp_path / "a", train, val)
        resumed = fresh_student(spec, teacher, seed=6)
        ptq_minmax(resumed, train)
        qat_run(self._config(epochs=2, seed=6), teacher, resumed,
                tmp_path / "a", train, val,
                resume_path=str(tmp_path / "a" / "last.ckpt"))
        opt = opts[-1]
        assert opt.t == 16
        for name, p in resumed.named_parameters():
            assert np.shares_memory(p.data, opt.data), name

    def test_checkpoint_files_byte_stable(self, small_world, tmp_path):
        train, val, spec, teacher, _ = small_world

        def run(out):
            student = fresh_student(spec, teacher, seed=5)
            ptq_minmax(student, train)
            qat_run(self._config(epochs=2, seed=5), teacher, student, out,
                    train, val)
            return (out / "last.ckpt").read_bytes()

        assert run(tmp_path / "r1") == run(tmp_path / "r2")

    def _crash_then_resume(self, world, cfg, tmp_path, monkeypatch, name,
                           crash_when):
        """An uninterrupted run and one whose `pipeline.<name>` raises when
        `crash_when(full_summary, *args)` holds, resumed in place from its
        last.ckpt."""
        train, val, spec, teacher = world[:4]

        def run(out, resume=None):
            student = fresh_student(spec, teacher, seed=4)
            ptq_minmax(student, train)
            return qat_run(cfg, teacher, student, out, train, val,
                           resume_path=resume)

        full = run(tmp_path / "full")
        real = getattr(pipeline, name)

        def crashing(*args, **kwargs):
            if crash_when(full, *args):
                raise RuntimeError("injected crash")
            return real(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(pipeline, name, crashing)
            with pytest.raises(RuntimeError, match="injected"):
                run(tmp_path / "crash")
        resumed = run(tmp_path / "crash",
                      resume=str(tmp_path / "crash" / "last.ckpt"))
        return full, resumed

    def _crash_mid_epoch(self, small_world, tmp_path, monkeypatch):
        # 10-bit targets are met right after PTQ, so best.ckpt is chosen
        # from epoch 0 on; with 8 batches per epoch, loss call 19 is the
        # third batch of epoch 2
        cfg = self._config(epochs=4, seed=9, wbits=10.0, abits=10.0)
        calls = []

        def crash_when(full, *args):
            calls.append(1)
            return len(calls) == 19

        return self._crash_then_resume(small_world, cfg, tmp_path,
                                       monkeypatch, "total_loss", crash_when)

    def _assert_same_outcome(self, tmp_path, full, resumed):
        for key in ("last_ckpt", "best_ckpt", "metrics"):
            full.pop(key), resumed.pop(key)
        assert resumed == full
        for name in ("best.ckpt", "metrics.csv"):
            assert ((tmp_path / "crash" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    def test_resume_after_crash_drops_rows_past_checkpoint(
            self, small_world, tmp_path, monkeypatch):
        self._crash_mid_epoch(small_world, tmp_path, monkeypatch)
        full = (tmp_path / "full" / "metrics.csv").read_bytes()
        assert (tmp_path / "crash" / "metrics.csv").read_bytes() == full

    def test_resume_after_crash_keeps_best_state(self, small_world, tmp_path,
                                                 monkeypatch):
        full, resumed = self._crash_mid_epoch(small_world, tmp_path,
                                              monkeypatch)
        assert full["reached_epoch"] == 0
        self._assert_same_outcome(tmp_path, full, resumed)

    def test_crash_between_checkpoint_saves_keeps_best(self, tmp_path,
                                                       monkeypatch):
        # a 3-epoch teacher leaves rings val accuracy near chance, so the
        # student's accuracy rises again after epoch 0
        train = make_synthetic("concentric_rings", 256, seed=0)
        val = make_synthetic("concentric_rings", 128, seed=0, split="val")
        spec = make_model_spec("mlp3", 2, 2)
        teacher, _ = train_teacher(spec, train, val, epochs=3, lam=0.01,
                                   seed=0, batch_size=32)
        cfg = self._config(dataset="concentric_rings", epochs=4, seed=2,
                           wbits=10.0, abits=10.0)
        saved_epochs = []

        def crash_when(full, path, arrays):
            # the second save of an epoch that improved on the best
            assert full["best_epoch"] >= 1
            saved_epochs.append(int(arrays["meta/epoch"]))
            return saved_epochs.count(full["best_epoch"] + 1) == 2

        full, resumed = self._crash_then_resume(
            (train, val, spec, teacher), cfg, tmp_path, monkeypatch,
            "save_arrays", crash_when)
        self._assert_same_outcome(tmp_path, full, resumed)

    def test_rise_warning_after_a_resume(self, small_world, tmp_path,
                                         monkeypatch, caplog):
        # every audit reads max actual weight bits 4, 3, 4 at target 4,
        # so the targets are met at epoch 0 and the bits rise at epoch 2;
        # the crash comes at epoch 2's audit, after epoch 1's checkpoint
        real = pipeline.audit_bitwidth
        audits, crashes = [], []

        def audit(model, inputs, labels):
            report = real(model, inputs, labels)
            bits = (4, 3, 4)[len(audits) % 3]
            audits.append(bits)
            for site in report.sites:
                site.levels = 2 ** bits if site.kind == "weight" else 2
            return report

        def crash_when(full, *args):
            crashes.append(1)
            return len(crashes) == 3

        monkeypatch.setattr(pipeline, "audit_bitwidth", audit)
        with caplog.at_level(logging.WARNING, logger="gdnsq"):
            full, resumed = self._crash_then_resume(
                small_world, self._config(epochs=3, seed=3), tmp_path,
                monkeypatch, "audit_bitwidth", crash_when)
        self._assert_same_outcome(tmp_path, full, resumed)
        rose = ("max actual bit-width for weights rose 3 -> 4 after the "
                "constraint activated")
        # once in the uninterrupted run, once in the resumed one
        assert [r.getMessage() for r in caplog.records] == [rose, rose]

    def test_resume_refuses_a_malformed_audit_row(self, small_world,
                                                  tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher, seed=2)
        ptq_minmax(student, train)
        qat_run(self._config(epochs=1, seed=2), teacher, student,
                tmp_path / "a", train, val)
        path = tmp_path / "a" / "metrics.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        rows[-1][METRICS_HEADER.index("max_w_act")] = "4.5"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        metrics = path.read_bytes()
        with pytest.raises(PipelineError, match="max_w_act"):
            qat_run(self._config(epochs=2, seed=2), teacher, student,
                    tmp_path / "a", train, val,
                    resume_path=str(tmp_path / "a" / "last.ckpt"))
        assert path.read_bytes() == metrics

    def test_resume_from_checkpoint_without_best_state(self, small_world,
                                                       tmp_path):
        # a run's state without its best-checkpoint record, which every
        # qat last.ckpt holds
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher, seed=2)
        ptq_minmax(student, train)
        qat_run(self._config(epochs=1, seed=2), teacher, student,
                tmp_path / "a", train, val)
        last = tmp_path / "a" / "last.ckpt"
        arrays = load_arrays(last)
        for key in ("best/val_acc", "best/epoch", "meta/reached_epoch"):
            del arrays[key]
        save_arrays(last, arrays)
        metrics = (tmp_path / "a" / "metrics.csv").read_bytes()
        with pytest.raises(FormatError, match="'best/val_acc'"):
            qat_run(self._config(epochs=2, seed=2), teacher, student,
                    tmp_path / "a", train, val, resume_path=str(last))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == metrics

    def test_resume_into_foreign_metrics_rejected(self, small_world,
                                                  tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher, seed=2)
        ptq_minmax(student, train)
        cfg = self._config(epochs=1, seed=2)
        qat_run(cfg, teacher, student, tmp_path / "a", train, val)
        (tmp_path / "a" / "metrics.csv").write_text(
            ",".join(METRICS_HEADER) + "\r\n")
        with pytest.raises(PipelineError, match="no audit row"):
            qat_run(self._config(epochs=2, seed=2), teacher, student,
                    tmp_path / "a", train, val,
                    resume_path=str(tmp_path / "a" / "last.ckpt"))

    def test_one_eval_forward_per_epoch(self, small_world, tmp_path,
                                        monkeypatch):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        real = Model.forward
        val_calls, train_calls = [], []

        def counting(self, x, *args, **kwargs):
            if x is val.inputs:
                val_calls.append(kwargs.get("train"))
            if x is train.inputs:  # the teacher's, over the whole split
                train_calls.append((self, kwargs.get("train")))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", counting)
        summary = qat_run(self._config(epochs=1), teacher, student,
                          tmp_path / "run", train, val)
        assert val_calls == [False]
        assert train_calls == [(teacher, False)]
        with open(summary["metrics"]) as f:
            audit_row = list(csv.reader(f))[-1]
        monkeypatch.undo()
        assert float(audit_row[8]) == student.accuracy(val.inputs, val.labels)

    def test_run_state_writer_and_reader_agree(self, small_world, tmp_path):
        # 10-bit targets are met from epoch 0 on, so after two epochs each
        # section of the run but the per-parameter moments differs from a
        # fresh run's, and one that is written but not read shows up
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher, seed=8)
        ptq_minmax(student, train)
        cfg = self._config(epochs=2, seed=8, wbits=10.0, abits=10.0)
        qat_run(cfg, teacher, student, tmp_path / "a", train, val)
        path = tmp_path / "a" / "last.ckpt"
        saved = load_arrays(path)
        run = QatRun(cfg, fresh_student(spec, teacher))
        # copies: the moments are views of buffers the load writes into
        fresh = {k: np.array(v) for k, v in run.state_arrays().items()}
        run.load_state_arrays(saved, path)
        for key, arr in run.state_arrays().items():
            assert arr.tobytes() == saved[key].tobytes(), key
            if key == "opt/t" or not key.startswith("opt/"):
                assert arr.tobytes() != fresh[key].tobytes(), key
        save_arrays(tmp_path / "again.ckpt",
                    build_student_arrays(cfg, run.student, run))
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_run_sets_the_noise_mode(self, small_world, tmp_path):
        # the student is built with the quantizers' default mode; the run
        # sets the configured one on every site
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        assert {fq.noise_mode for fq in student.all_quantizers()} \
            == {"bernoulli"}
        qat_run(self._config(epochs=1, noise_mode="rounding_residual"),
                teacher, student, tmp_path / "run", train, val)
        assert {fq.noise_mode for fq in student.all_quantizers()} \
            == {"rounding_residual"}

    @pytest.mark.parametrize("change", [{"wbits": 3.0}, {"lr0": 0.02},
                                        {"distill": "cross_entropy"},
                                        {"seed": 2, "abits": 5.0}])
    def test_resume_refuses_changed_config(self, small_world, tmp_path,
                                           change):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher, seed=2)
        ptq_minmax(student, train)
        qat_run(self._config(epochs=1, seed=1), teacher, student,
                tmp_path / "a", train, val)
        changed = self._config(**{"epochs": 2, "seed": 1, **change})
        with pytest.raises(PipelineError, match="different run config") as e:
            qat_run(changed, teacher, student, tmp_path / "a", train, val,
                    resume_path=str(tmp_path / "a" / "last.ckpt"))
        for key in change:
            assert f"{key}: " in str(e.value)
        assert "epochs: " not in str(e.value)


def run_arrays(run):
    """The arrays of the last.ckpt run would write."""
    return build_student_arrays(run.config, run.student, run)


def fresh_run():
    return QatRun(RunConfig(), Model(make_model_spec("mlp3", 2, 2),
                                     quantized=True))


class TestRunState:
    def test_rng_state_keeps_a_held_32_bit_half(self):
        # a float32 draw leaves half of a 64-bit output held, has_uint32 1
        run = fresh_run()
        run.rng.random(dtype=np.float32)
        assert run.rng.bit_generator.state["has_uint32"] == 1
        resumed = fresh_run()
        resumed.load_state_arrays(run_arrays(run), "last.ckpt")
        assert resumed.rng.bit_generator.state == run.rng.bit_generator.state
        np.testing.assert_array_equal(
            resumed.rng.random(size=3, dtype=np.float32),
            run.rng.random(size=3, dtype=np.float32))

    def test_rng_state_that_does_not_store_back_refused(self):
        # numpy's setter takes 1.5 for the 128-bit state and keeps 1
        arrays = run_arrays(fresh_run())
        state = array_to_json(arrays["rng/state"])
        state["state"]["state"] = 1.5
        arrays["rng/state"] = json_to_array(state)
        with pytest.raises(FormatError, match="'rng/state'"):
            fresh_run().load_state_arrays(arrays, "last.ckpt")

    def test_step_n_is_the_optimizer_step_count(self):
        run = fresh_run()
        arrays = run_arrays(run)
        arrays["opt/t"] = np.asarray(5, dtype=np.int64)
        arrays["sched/c_r_sum"] = np.asarray(2.0)
        run.load_state_arrays(arrays, "last.ckpt")
        assert run.step_n == 5 and run.c_r == 2.0 / 5


class TestStudentPersistence:
    def test_student_round_trip(self, small_world, tmp_path):
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train)
        cfg = RunConfig(model="mlp3", n_train=256, n_val=128)
        arrays = build_student_arrays(cfg, student)
        path = tmp_path / "student.ckpt"
        save_arrays(path, arrays)
        cfg2, spec2, student2, _ = load_student(path)
        assert cfg2.to_dict() == cfg.to_dict()
        np.testing.assert_array_equal(student2.layers[1].W.data,
                                      student.layers[1].W.data)
        x = val.inputs[:32]
        np.testing.assert_array_equal(student2.predict_logits(x),
                                      student.predict_logits(x))

    def test_fused_path_matches_ptq_student(self, small_world):
        # the PTQ student's weights are off their 4-bit grid
        train, val, spec, teacher, _ = small_world
        student = fresh_student(spec, teacher)
        ptq_minmax(student, train, bits=4.0)
        fused = fuse_student(student)
        got = fused_model_forward(student, fused, val.inputs[:64])
        np.testing.assert_allclose(got, student.predict_logits(val.inputs[:64]),
                                   rtol=0, atol=1e-10)
