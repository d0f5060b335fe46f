import json
import struct

import numpy as np
import pytest

from gdnsq import tensor as T
from gdnsq.data import Dataset, load_idx_dataset, make_synthetic, read_idx
from gdnsq.errors import FormatError, NumericError, ShapeError, SpecError
from gdnsq.kernels import conv2d_forward
from gdnsq.models import (BatchNorm, Conv2d, Linear, Model, ModelSpec,
                          make_model_spec, spec_from_dict, spec_to_dict,
                          train_teacher)
from gdnsq.oracles import finite_difference_grads
from gdnsq.pipeline import ptq_minmax


def linear_probe_accuracy(X, y, iters=800, lr=0.5):
    """Plain logistic regression by gradient descent (oracle, numpy only)."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(Xb.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-Xb @ w))
        w -= lr * Xb.T @ (p - y) / len(y)
    return float(np.mean((Xb @ w > 0).astype(int) == y))


class TestSynthetic:
    def test_balanced_split(self):
        ds = make_synthetic("two_gaussians", 1000, seed=7)
        assert np.sum(ds.labels == 0) == 500
        assert np.sum(ds.labels == 1) == 500

    def test_deterministic(self):
        a = make_synthetic("concentric_rings", 256, seed=3)
        b = make_synthetic("concentric_rings", 256, seed=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_val_disjoint(self):
        tr = make_synthetic("two_gaussians", 200, seed=5, split="train")
        va = make_synthetic("two_gaussians", 200, seed=5, split="val")
        tr_rows = {tuple(r) for r in tr.inputs}
        assert not any(tuple(r) in tr_rows for r in va.inputs)

    def test_rings_not_linearly_separable(self):
        ds = make_synthetic("concentric_rings", 1000, seed=11)
        assert linear_probe_accuracy(ds.inputs, ds.labels) < 0.70

    def test_gaussians_probe_does_well(self):
        ds = make_synthetic("two_gaussians", 1000, seed=11)
        assert linear_probe_accuracy(ds.inputs, ds.labels) > 0.95

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            make_synthetic("spiral", 200, seed=0)


class TestIdx:
    def _image_blob(self, n=10, h=28, w=28):
        header = bytes([0, 0, 0x08, 3]) + struct.pack(">3I", n, h, w)
        payload = bytes(range(256)) * ((n * h * w) // 256 + 1)
        return header + payload[: n * h * w]

    def test_header_arithmetic(self, tmp_path):
        p = tmp_path / "imgs.idx"
        p.write_bytes(self._image_blob())
        arr = read_idx(p)
        assert arr.shape == (10, 28, 28)

    def test_pixel_scaling(self, tmp_path):
        p = tmp_path / "one.idx"
        p.write_bytes(bytes([0, 0, 0x08, 1]) + struct.pack(">I", 2)
                      + bytes([255, 0]))
        arr = read_idx(p)
        assert arr[0] == 1.0 and arr[1] == 0.0

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(self._image_blob()[:-5])
        with pytest.raises(FormatError, match="expected 7840"):
            read_idx(p)

    def test_bad_magic_names_offset(self, tmp_path):
        blob = bytearray(self._image_blob())
        blob[0] = 9
        p = tmp_path / "bad.idx"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte offset 0"):
            read_idx(p)

    def test_wrong_dtype_code(self, tmp_path):
        blob = bytearray(self._image_blob())
        blob[2] = 0x0D  # float dtype, unsupported
        p = tmp_path / "f.idx"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="offset 2"):
            read_idx(p)

    def test_dataset_pairing(self, tmp_path):
        imgs = tmp_path / "i.idx"
        imgs.write_bytes(self._image_blob(n=4, h=5, w=5))
        lbls = tmp_path / "l.idx"
        lbls.write_bytes(bytes([0, 0, 0x08, 1]) + struct.pack(">I", 4)
                         + bytes([0, 1, 1, 0]))
        ds = load_idx_dataset(imgs, lbls)
        assert ds.inputs.shape == (4, 1, 5, 5)
        np.testing.assert_array_equal(ds.labels, [0, 1, 1, 0])
        assert ds.labels.dtype == np.int64


class TestBuildModel:
    def test_four_layer_mlp_quantizes_two_inner(self):
        spec = make_model_spec("mlp4", 2, 2)
        model = Model(spec, quantized=True,
                      quant_rng=np.random.default_rng(0))
        assert len(model.weight_quantizers()) == 2
        assert len(model.act_quantizers()) == 2
        assert model.layers[0].weight_fq is None
        assert model.layers[-1].weight_fq is None

    def test_quantized_false_matches_fp(self):
        # sites that are not yet initialized leave the forward in FP
        spec = make_model_spec("mlp3", 2, 2)
        a = Model(spec, quantized=False, init_seed=4)
        b = Model(spec, quantized=True, init_seed=4,
                  quant_rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 2))
        np.testing.assert_array_equal(a.predict_logits(x),
                                      b.predict_logits(x))

    @pytest.mark.parametrize("spec_id,shape", [("mlp4", (8, 2)),
                                               ("conv3", (8, 2, 8, 8))])
    def test_eval_forward_returns_an_array_and_records_nothing(self, spec_id,
                                                               shape):
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape)
        model = Model(make_model_spec(spec_id, 2, 3), quantized=True,
                      quant_rng=np.random.default_rng(0))
        ptq_minmax(model, Dataset(x, np.arange(8) % 3, num_classes=3))
        T.reset_tape()
        logits = model.forward(x, train=False)
        assert type(logits) is np.ndarray and logits.shape == (8, 3)
        assert len(T.get_tape()) == 0

    @pytest.mark.parametrize("spec_id,shape", [("mlp4", (2, 5)),
                                               ("conv3", (2, 5, 8, 8))])
    def test_input_width_mismatch_is_shape_error(self, spec_id, shape):
        # the models take 6 features or 6 channels; the batch has 5
        model = Model(make_model_spec(spec_id, 6, 3), quantized=True)
        with pytest.raises(ShapeError, match="layer0"):
            model.predict_logits(np.zeros(shape))

    def test_too_shallow_for_quantization(self):
        spec = make_model_spec("mlp2", 2, 2)
        with pytest.raises(SpecError):
            Model(spec, quantized=True)

    def test_near_fp_bitwidth_matches_fp(self):
        train = make_synthetic("two_gaussians", 256, seed=0)
        spec = make_model_spec("mlp3", 2, 2)
        teacher = Model(spec, quantized=False, init_seed=2)
        student = Model(spec, quantized=True, init_seed=2,
                        quant_rng=np.random.default_rng(0))
        student.copy_weights_from(teacher)
        ptq_minmax(student, train, bits=32.0)
        x = train.inputs[:64]
        np.testing.assert_allclose(student.predict_logits(x),
                                   teacher.predict_logits(x), atol=1e-6)


class TestConv:
    def test_forward_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 6, 6))
        w = np.random.default_rng(1).normal(size=(3, 1, 3, 3))
        out = conv2d_forward(x, w, stride=2, pad=1)
        assert out.shape == (2, 3, 3, 3)

    def test_conv_gradients_match_fd(self):
        from gdnsq.models import _conv2d
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3))]
        coeff = rng.normal(size=(2, 3, 3, 3))
        _, vjp = _conv2d(*arrays, 2, 1, True)
        numeric = finite_difference_grads(
            lambda arrs: float(np.sum(_conv2d(*arrs, 2, 1, False)[0] * coeff)),
            arrays)
        for a, n in zip(vjp(coeff), numeric):
            np.testing.assert_allclose(a, n, rtol=1e-6, atol=1e-8)

    def test_input_batch_gets_no_conv_gradient(self, monkeypatch):
        from gdnsq import models
        from gdnsq.losses import hard_label_loss
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(8, 1, 8, 8))
        labels = rng.integers(0, 2, size=8)
        calls = []
        real = models.conv2d_backward_input

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(models, "conv2d_backward_input", counting)

        def step_grads(input_grad):
            model = Model(make_model_spec("conv3", 1, 2),
                          quantized=False, init_seed=0)
            calls.clear()
            slots = {p: np.zeros(p.shape) for _, p in model.named_parameters()}
            T.reset_tape()
            hard_label_loss(model.forward(x, train=True,
                                          input_grad=input_grad), labels)
            T.backward(slots)
            T.reset_tape()
            return len(calls), [slots[l.W] for l in model.layers]

        n_plain, plain = step_grads(False)
        n_full, full = step_grads(True)
        assert (n_plain, n_full) == (2, 3)
        for a, b in zip(plain, full):
            np.testing.assert_array_equal(a, b)

    def test_conv_model_trains_a_little(self):
        rng = np.random.default_rng(4)
        inputs = rng.uniform(0, 1, size=(64, 1, 8, 8))
        labels = (inputs.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)
        ds = Dataset(inputs, labels, num_classes=2)
        spec = make_model_spec("conv3", 1, 2)
        model, meta = train_teacher(spec, ds, ds, epochs=2, lam=0.01, seed=0,
                                    batch_size=16)
        assert np.isfinite(meta["val_acc"])
        assert model.predict_logits(inputs[:4]).shape == (4, 2)


class TestBatchNorm:
    def _bn_model(self):
        spec = ModelSpec([Conv2d(1, 4, stride=2), Conv2d(4, 4, stride=2),
                          Linear(4, 2, "identity")], 2)
        return Model(spec, quantized=False, init_seed=0)

    def test_unfrozen_stats_move(self):
        model = self._bn_model()
        before = [l.bn.running_mean.copy() for l in model.layers if l.bn]
        x = np.random.default_rng(0).normal(size=(8, 1, 8, 8))
        T.reset_tape()
        model.forward(x, train=True)
        T.reset_tape()
        after = [l.bn.running_mean for l in model.layers if l.bn]
        assert any(np.any(b != a) for b, a in zip(before, after))

    def test_batchnorm_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        shape = (4, 3, 3, 2)
        coeff = rng.normal(size=shape)
        arrays = [rng.normal(size=shape),
                  np.ones(3) + 0.3 * rng.normal(size=3),
                  rng.normal(size=3)]
        bn = BatchNorm(3)
        # the parameter tensors hold these arrays, so FD edits reach them
        bn.gamma.data, bn.beta.data = arrays[1], arrays[2]

        def f(arrs):
            return float(np.sum(bn.normalize(arrs[0], True)[0] * coeff))

        _, vjp = bn.normalize(arrays[0], True)
        numeric = finite_difference_grads(f, arrays)
        for a, n in zip(vjp(coeff), numeric):
            np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-7)

    def test_2d_input_is_shape_error(self):
        with pytest.raises(ShapeError, match="batchnorm expects 4-d input"):
            BatchNorm(3).normalize(np.zeros((6, 3)), False)


class TestTeacher:
    def test_two_gaussians_reaches_99(self):
        train = make_synthetic("two_gaussians", 1024, seed=0)
        val = make_synthetic("two_gaussians", 512, seed=0, split="val")
        spec = make_model_spec("mlp3", 2, 2)
        _, meta = train_teacher(spec, train, val, epochs=50, lam=0.01, seed=0,
                                batch_size=32)
        assert meta["val_acc"] >= 0.99

    def test_seed_determinism(self):
        train = make_synthetic("two_gaussians", 256, seed=1)
        val = make_synthetic("two_gaussians", 128, seed=1, split="val")
        spec = make_model_spec("mlp3", 2, 2)
        m1, _ = train_teacher(spec, train, val, epochs=3, lam=0.01, seed=9,
                              batch_size=32)
        m2, _ = train_teacher(spec, train, val, epochs=3, lam=0.01, seed=9,
                              batch_size=32)
        for l1, l2 in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(l1.W.data, l2.W.data)
            np.testing.assert_array_equal(l1.b.data, l2.b.data)

    def test_one_eval_forward(self, monkeypatch):
        train = make_synthetic("two_gaussians", 128, seed=1)
        val = make_synthetic("two_gaussians", 100, seed=1, split="val")
        spec = make_model_spec("mlp3", 2, 2)
        evals = []
        forward = Model.forward

        def counting(self, x, train=True, **kwargs):
            if not train:
                evals.append(len(x))
            return forward(self, x, train=train, **kwargs)

        monkeypatch.setattr(Model, "forward", counting)
        model, meta = train_teacher(spec, train, val, epochs=4, lam=0.01,
                                    seed=0, batch_size=32)
        assert evals == [100]  # after the last epoch, not once per epoch
        assert meta == {"val_acc": model.accuracy(val.inputs, val.labels)}
        evals.clear()
        _, meta = train_teacher(spec, train, val, epochs=0, lam=0.01, seed=0,
                                batch_size=32)
        assert evals == [] and meta == {"val_acc": None}

    def test_divergence_names_the_epoch(self):
        train = make_synthetic("two_gaussians", 128, seed=1)
        inputs = train.inputs.copy()
        inputs[5] = np.nan
        bad = Dataset(inputs, train.labels, train.num_classes)
        spec = make_model_spec("mlp3", 2, 2)
        with pytest.raises(NumericError, match="diverged at epoch 0"):
            train_teacher(spec, bad, train, epochs=2, lam=0.01, seed=0,
                          batch_size=32)

    def test_rings_single_hidden_layer(self):
        train = make_synthetic("concentric_rings", 1024, seed=2)
        val = make_synthetic("concentric_rings", 512, seed=2, split="val")
        spec = ModelSpec([Linear(2, 32), Linear(32, 2, "identity")], 2)
        _, meta = train_teacher(spec, train, val, epochs=60, lam=0.01, seed=0,
                                batch_size=32)
        assert meta["val_acc"] >= 0.95


def test_spec_round_trip():
    for spec_id in ("mlp2", "mlp3", "mlp4", "conv3"):
        spec = make_model_spec(spec_id, 3, 10)
        d = spec_to_dict(spec)
        assert d == {"model": spec_id, "in": 3, "classes": 10}
        assert spec_from_dict(d) == spec
        assert spec_from_dict(json.loads(json.dumps(d))) == spec


def test_hand_built_spec_has_no_id_and_is_not_saved():
    spec = ModelSpec([Linear(2, 3), Linear(3, 2, "identity")], 2)
    assert spec.model_id is None
    # the same layers as mlp2's, yet not the spec make_model_spec built
    assert spec != make_model_spec("mlp2", 2, 2)
    with pytest.raises(SpecError, match="hand-built model spec has no id"):
        spec_to_dict(spec)
