import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primitives as P
import reference_tape as R
from gdnsq import tensor as T
from gdnsq.errors import FusionError
from gdnsq.losses import potential
from gdnsq.models import Linear, Model, ModelSpec, _Layer, make_model_spec
from gdnsq.pipeline import fuse_student, fused_model_forward
from gdnsq.quantizer import NOISE_MODES, FakeQuantizer
from gdnsq.tensor import Tensor


def scalar_reference(x, s, z, l, u):
    """Independent evaluator of the dequantized value, straight from the
    definitions: clamp, q = (xbar - z)/s, round half up, dequantize."""
    xbar = max(l, min(u, x))
    q = (xbar - z) / s
    k = math.floor(q + 0.5)
    return s * k + z


def make_fq(kind="weight", lo=-1.0, hi=1.0, bits=4.0, seed=0, **kw):
    fq = FakeQuantizer(kind, rng=np.random.default_rng(seed), **kw)
    fq.init_from_minmax(lo, hi, bits)
    return fq


class TestFakeQuantForward:
    def test_hand_traced_example(self):
        # s=0.5, z=0, l=0, u=1, x=0.3: q=0.6, round->1, out = 0.3+0.5*0.4 = 0.5
        fq = make_fq("activation", 0.0, 1.0, 2.0)  # s = (1-0)/(2^2-1)
        fq.log_s.data = np.asarray(np.log(0.5))
        out = fq.fake_quant(np.array([0.3]))[0]
        assert out[0] == pytest.approx(0.5, abs=1e-15)
        assert out[0] == pytest.approx(
            scalar_reference(0.3, fq.scale_value(), 0.0, 0.0, 1.0), abs=1e-15)

    def test_on_grid_passthrough(self):
        fq = make_fq("activation", 0.0, 1.0, 1.0)  # s = 1
        assert fq.fake_quant(np.array([0.0]))[0][0] == 0.0
        fq.log_s.data = np.asarray(np.log(0.5))
        # 0.5 is on the grid {0, 0.5, 1.0}
        assert fq.fake_quant(np.array([0.5]))[0][0] == 0.5

    def test_clamped_to_zero(self):
        fq = make_fq("activation", 0.0, 1.0, 2.0)
        assert fq.fake_quant(np.array([-3.0]))[0][0] == 0.0

    def test_matches_scalar_reference_randomly(self):
        rng = np.random.default_rng(5)
        fq = make_fq("weight", -0.8, 1.3, 3.0, seed=5)
        l, u = fq.bound_values()
        s = fq.scale_value()
        xs = rng.uniform(-2, 2, size=200)
        ours = fq.fake_quant(xs)[0]
        ref = [scalar_reference(x, s, 0.0, l, u) for x in xs]
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

    def test_output_within_half_step_of_clamp(self):
        rng = np.random.default_rng(6)
        fq = make_fq("weight", -1.0, 1.0, 3.0)
        l, u = fq.bound_values()
        s = fq.scale_value()
        xs = rng.uniform(-2, 2, size=500)
        out = fq.fake_quant(xs)[0]
        assert np.max(np.abs(out - np.clip(xs, l, u))) <= s / 2 + 1e-12


def probe_by_one_hot(mode, n, seed):
    """The first n probe values of a site whose rng is seeded with seed,
    each read from ste_backward's scale gradient under a one-hot upstream
    gradient."""
    x = np.zeros(n)
    probe = []
    for i in range(n):
        fq = FakeQuantizer("weight", mode, rng=np.random.default_rng(seed))
        g = np.zeros(n)
        g[i] = 1.0
        probe.append(float(fq.ste_backward(g, x, -1.0, 1.0, 1.0)[3]))
    return np.array(probe)


class TestSteBackward:
    # the probe is read from the scale gradient ste_backward returns
    def test_bernoulli_samples_are_half_magnitude(self):
        probe = probe_by_one_hot("bernoulli", 200, seed=1)
        assert set(probe) == {-0.5, 0.5}

    def test_bernoulli_zero_mean_monte_carlo(self):
        m = 1_000_000
        fq = FakeQuantizer("weight", "bernoulli", rng=np.random.default_rng(3))
        _, _, _, gs = fq.ste_backward(np.full(m, 1.0 / m), np.zeros(m), -1.0,
                                      1.0, 1.0)
        assert abs(float(gs)) <= 3 * (0.5 / 1e3)  # the probe's mean

    def test_variance_matched_probe_variance(self):
        probe = probe_by_one_hot("bernoulli_variance_matched", 200, seed=4)
        assert set(np.sign(probe)) == {-1.0, 1.0}
        np.testing.assert_allclose(np.abs(probe), 0.5 / np.sqrt(3.0),
                                   rtol=1e-15, atol=0)
        assert np.mean(probe * probe) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_noise_path_x_gradient_exactly_zero(self):
        fq = make_fq(seed=7)
        l, u = fq.bound_values()
        rng = np.random.default_rng(8)
        xd = np.concatenate([rng.uniform(l - 0.3, u + 0.3, size=64), [l, u]])
        gx = fq.fake_quant(xd)[2](np.ones_like(xd))[0]
        x2 = Tensor(xd, requires_grad=True)
        grads = P.sum_(P.maximum(P.minimum(x2, u), l)).backward()
        np.testing.assert_array_equal(gx, grads[x2])
        R.reset_tape()

    def test_bound_gradients_flow_through_clamp_branches(self):
        fq = make_fq(seed=9)
        l, u = fq.bound_values()
        x = np.array([l - 1.0, (l + u) / 2.0, u + 1.0])
        gx, gl, gu, _ = fq.ste_backward(np.ones_like(x), x, l, u,
                                        fq.scale_value())
        np.testing.assert_array_equal(gx, [0.0, 1.0, 0.0])
        assert gl == 1.0 and gu == 1.0

    def test_rounding_residual_mode_uses_true_residuals(self):
        fq = make_fq(noise_mode="rounding_residual")
        l, u = fq.bound_values()
        s = fq.scale_value()
        x = np.array([l + 0.3 * s, l + 1.4 * s])
        _, _, _, gs = fq.ste_backward(np.array([1.0, 0.0]), x, l, u, s)
        v = (x[0] - l + l) / s  # == x/s since z = 0
        expected = math.floor(x[0] / s + 0.5) - x[0] / s
        assert gs == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind,lo,hi", [("weight", -1.0, 1.0),
                                            ("activation", 0.0, 1.2)],
                             ids=["weight", "activation"])
    def test_fake_quant_vjp_chains_ste_backwards_gradients(self, kind, lo,
                                                            hi):
        # rounding_residual draws nothing, so the vjp and ste_backward see
        # the same probe; x holds elements below l, inside [l, u], above u
        fq = make_fq(kind, lo, hi, 3.0, noise_mode="rounding_residual")
        l, u, s, _, chain = fq._node_view()
        x = np.array([l - 0.7, l - 0.1, l + 0.37 * (u - l),
                      l + 0.81 * (u - l), u + 0.2, u + 0.9])
        g = np.array([0.3, -1.1, 0.7, 1.9, -0.4, 2.3])
        gx, gl, gu, gs = fq.ste_backward(g, x, l, u, s)
        got = fq.fake_quant(x)[2](g)
        np.testing.assert_array_equal(got[0], gx)
        assert got[1:] == chain(gs, gl, gu)

    def test_expected_s_gradient_zero_mean(self):
        m = 100_000
        fq = make_fq(seed=11)
        l, u = fq.bound_values()
        x = np.random.default_rng(12).uniform(l, u, size=m)
        _, _, _, gs = fq.ste_backward(np.ones_like(x), x, l, u,
                                      fq.scale_value())
        mean = float(gs) / m
        assert abs(mean) <= 4 * 0.5 / math.sqrt(m)


def reference_signs(words, n):
    """The first n probe signs of raw words: each word's bytes
    least significant first, each byte's bits most significant first,
    +1/2 for a set bit and -1/2 for a clear one."""
    bits = [(int(w) >> (8 * byte + 7 - bit)) & 1
            for w in words for byte in range(8) for bit in range(8)]
    return np.array(bits[:n]) - 0.5


class TestProbeStream:
    """The Bernoulli probe is pinned to the raw stream of the site's rng."""

    @pytest.mark.parametrize("shape", [(1,), (64,), (65,), (7, 9),
                                       (3, 2, 4, 5)])
    @pytest.mark.parametrize("mode,scale", [
        ("bernoulli", 1.0),
        ("bernoulli_variance_matched", 1.0 / np.sqrt(3.0))])
    def test_probe_is_the_raw_stream(self, shape, mode, scale):
        n = int(np.prod(shape))
        fq = make_fq(seed=21, noise_mode=mode)
        l, u = fq.bound_values()
        gen = np.random.default_rng(22)
        x = gen.uniform(l, u, size=shape)
        g = gen.normal(size=shape)
        twin = np.random.default_rng(21)
        words = twin.bit_generator.random_raw(-(-n // 64))
        _, _, _, gs = fq.ste_backward(g, x, l, u, fq.scale_value())
        assert float(gs) == pytest.approx(
            float(reference_signs(words, n) * scale @ g.reshape(-1)),
            rel=1e-12, abs=1e-12)
        # exactly ceil(n/64) words were taken
        assert fq.rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("mode", NOISE_MODES)
    @pytest.mark.parametrize("g_layout", ["batch_last", "c_order"])
    def test_probe_follows_the_memory_order_of_x(self, mode, g_layout):
        # a batch-last x (a [b, c, h, w] view of [c, h, w, b] memory) gets
        # the gradients of its [c, h, w, b] copy, whatever g's layout
        fq = make_fq("activation", 0.0, 1.2, 3.0, seed=25, noise_mode=mode)
        l, u = fq.bound_values()
        gen = np.random.default_rng(26)
        x_mem = gen.uniform(-0.4, 1.6, size=(3, 4, 2, 5))  # [c, h, w, b]
        g_mem = gen.normal(size=x_mem.shape)
        x, g = x_mem.transpose(3, 0, 1, 2), g_mem.transpose(3, 0, 1, 2)
        if g_layout == "c_order":
            g = np.ascontiguousarray(g)
        got = fq.ste_backward(g, x, l, u, fq.scale_value())
        fq.rng = np.random.default_rng(25)
        want = fq.ste_backward(g_mem, x_mem, l, u, fq.scale_value())
        np.testing.assert_array_equal(got[0], want[0].transpose(3, 0, 1, 2))
        # (gl, gu, gs) are Python floats with the same bits
        assert {type(v) for v in got[1:] + want[1:]} == {float}
        assert [v.hex() for v in got[1:]] == [v.hex() for v in want[1:]]
        assert got[1] != 0.0 and got[2] != 0.0

    @pytest.mark.parametrize("layout", ["batch_last", "c_order"])
    def test_empty_clamp_masks_give_positive_zero(self, layout):
        # every g is negative, so each term of a clamp sum is -0.0, yet a
        # sum over no element is +0.0
        fq = make_fq("weight", -1.0, 1.2, 3.0, seed=27)
        l, u = fq.bound_values()
        x = np.random.default_rng(28).uniform(l, u, size=(3, 4, 2, 5))
        g = -np.ones_like(x)
        if layout == "batch_last":
            x, g = x.transpose(3, 0, 1, 2), g.transpose(3, 0, 1, 2)
        _, gl, gu, gs = fq.ste_backward(g, x, l, u, fq.scale_value())
        assert (type(gl), type(gu), type(gs)) == (float, float, float)
        assert (gl, gu) == (0.0, 0.0)
        assert math.copysign(1.0, gl) == math.copysign(1.0, gu) == 1.0

    def test_every_sign_is_half(self):
        # a one-hot upstream gradient reads one probe sign at a time
        signs = probe_by_one_hot("bernoulli", 130, seed=23)
        words = np.random.default_rng(23).bit_generator.random_raw(3)
        np.testing.assert_array_equal(signs, reference_signs(words, 130))
        assert set(signs) == {-0.5, 0.5}

    def test_consecutive_calls_continue_the_stream(self):
        fq = FakeQuantizer("weight", "bernoulli",
                           rng=np.random.default_rng(24))
        x, g = np.zeros(100), np.ones(100)
        got = [float(fq.ste_backward(g, x, -1.0, 1.0, 1.0)[3])
               for _ in range(3)]
        words = np.random.default_rng(24).bit_generator.random_raw(6)
        want = [float(reference_signs(words[2 * k:2 * k + 2], 100).sum())
                for k in range(3)]
        assert got == want


class TestBitwidth:
    def test_two_levels(self):
        fq = make_fq("activation", 0.0, 1.0, 1.0)
        assert fq.bitwidth_value() == pytest.approx(1.0, abs=1e-12)

    def test_four_levels(self):
        fq = make_fq("activation", 0.0, 3.0, 2.0)
        assert fq.bitwidth_value() == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_fractional(self):
        fq = make_fq("weight", 0.0, 5.0, 3.7)
        assert fq.bitwidth_value() == pytest.approx(3.7, abs=1e-12)

    def test_monotone_decreasing_in_s(self):
        fq = make_fq("weight", -1.0, 1.0, 4.0)
        widths = []
        for logs in np.linspace(-5, 1, 30):
            fq.log_s.data = np.asarray(logs)
            widths.append(fq.bitwidth_value())
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_gradient_reaches_scale_parameter(self):
        fq = make_fq("weight", -1.0, 1.0, 4.0)
        aq = make_fq("activation", 0.0, 1.0, 2.0)
        # one active weight hinge and an inactive activation hinge, so
        # dP/dlog_s is d omega/dlog_s of the weight site
        T.reset_tape()
        slots = {t: np.zeros(()) for t in fq.raw_params() + aq.raw_params()}
        p, params, vjp = potential([fq], [aq], (1.0, 8.0))
        T.record(None, params, p, lambda g: (None, *vjp(g)), "potential")
        T.backward(slots)
        T.reset_tape()
        # d omega / d log_s = -(1/ln2) * ratio/(ratio+1), ratio = (u-l)/s
        ratio = 2.0 / fq.scale_value()
        expected = -(1.0 / np.log(2.0)) * ratio / (ratio + 1.0)
        assert float(slots[fq.log_s]) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 10])
    def test_distinct_level_count_is_two_to_omega(self, bits):
        fq = make_fq("weight", -0.73, 0.91, float(bits))
        xs = np.linspace(-1.2, 1.4, 300_000)
        assert np.unique(fq.fake_quant(xs)[0]).size == 2 ** bits


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-5.0, 1.0),
    width=st.floats(0.05, 8.0),
    bits=st.floats(1.0, 10.0),
    seed=st.integers(0, 2 ** 16),
)
def test_grid_and_idempotence_properties(lo, width, bits, seed):
    fq = FakeQuantizer("weight", rng=np.random.default_rng(seed))
    fq.init_from_minmax(lo, lo + width, bits)
    s = fq.scale_value()
    xs = np.random.default_rng(seed).uniform(lo - width, lo + 2 * width, 256)
    out = fq.fake_quant(xs)[0]
    # outputs sit on the grid {s*k}
    v = out / s
    assert np.max(np.abs(v - np.round(v))) < 1e-9
    # applying the quantizer again changes nothing
    np.testing.assert_allclose(fq.fake_quant(out)[0], out, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(1, 10), seed=st.integers(0, 2 ** 16))
def test_integer_grid_levels_within_range(bits, seed):
    fq = FakeQuantizer("activation", rng=np.random.default_rng(seed))
    fq.init_from_minmax(0.0, 1.0, float(bits))
    xs = np.random.default_rng(seed).uniform(-0.5, 1.5, 512)
    k = fq.fake_quant(xs)[0] / fq.scale_value()
    assert np.max(np.abs(k - np.round(k))) < 1e-9
    k = np.round(k)
    # zero-aligned site: levels land in [q(l), q(u)] = [0, 2^bits - 1]
    assert k.min() >= 0 and k.max() <= 2 ** bits - 1


def make_layer(w, w_range, a_range, wbits, abits, activation="relu", seed=0):
    """A quantized linear model layer holding weights w, its weight site
    initialized on w_range at wbits and its activation site on a_range at
    abits."""
    w = np.asarray(w, dtype=np.float64)
    layer = _Layer(Linear(*w.shape, activation), np.random.default_rng(seed),
                   "layer1")
    layer.W.data = w
    layer.attach_quantizers(np.random.default_rng(seed + 1))
    layer.weight_fq.init_from_minmax(*w_range, wbits)
    layer.act_fq.init_from_minmax(*a_range, abits)
    return layer


class TestQuantizedLayer:
    def _layer(self, in_f=6, out_f=4, bits=10.0, seed=0):
        w = np.random.default_rng(seed).normal(size=(in_f, out_f))
        return make_layer(w, (float(w.min()), float(w.max())), (0.0, 1.0),
                          bits, bits, seed=seed)

    def test_close_to_fp_at_ten_bits(self):
        layer = self._layer()
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(8, 6))
        out = layer.forward(x, train=False)
        fp = np.maximum(x @ layer.W.data, 0.0)
        assert np.max(np.abs(out - fp)) < 1e-2
        T.reset_tape()

    def test_exact_when_everything_on_grid(self):
        layer = make_layer(np.zeros((2, 2)), (-2.0, 2.0), (0.0, 1.0), 3.0,
                           2.0, activation="identity")
        s = layer.weight_fq.scale_value()
        w = s * np.array([[1.0, -2.0], [3.0, 0.0]])
        layer.W.data = w
        x = layer.act_fq.scale_value() * np.array([[1.0, 2.0]])
        out = layer.forward(x, train=False)
        np.testing.assert_allclose(out, x @ w, rtol=0, atol=1e-12)
        T.reset_tape()

    def test_one_bit_weights_take_two_values(self):
        layer = self._layer(bits=1.0)
        deq = layer.weight_fq.fake_quant(layer.W.data)[0]
        assert np.unique(deq).size <= 2


def model_around(layer, seed=0):
    """A quantized 3-layer model whose one quantized layer is layer."""
    n_in, n_out = layer.W.data.shape
    spec = ModelSpec([Linear(3, n_in), layer.spec,
                      Linear(n_out, 2, "identity")], 2)
    model = Model(spec, quantized=True, init_seed=seed,
                  quant_rng=np.random.default_rng(seed))
    model.layers[1] = layer
    return model


class TestIntegerFuse:
    def test_grid_weights_small_matrix(self):
        layer = make_layer(np.zeros((2, 2)), (-1.0, 1.0), (0.0, 1.0), 4.0,
                           4.0, activation="identity")
        wq = layer.weight_fq
        wq.log_s.data = np.asarray(np.log(0.25))
        s = wq.scale_value()
        layer.W.data = s * np.array([[2.0, -3.0], [4.0, 0.0]])
        fused = fuse_student(model_around(layer))[1]
        np.testing.assert_array_equal(fused.int_weights, [[2, -3], [4, 0]])
        l, u = wq.bound_values()
        k_lo, k_hi = round(l / s), round(u / s)
        assert fused.int_weights.min() >= k_lo
        assert fused.int_weights.max() <= k_hi

    def test_identity_weights_unit_scale(self):
        layer = make_layer(np.eye(2), (-2.0, 2.0), (0.0, 1.0), 3.0, 4.0)
        layer.weight_fq.log_s.data = np.asarray(0.0)  # s = exp(0) = 1 exactly
        fused = fuse_student(model_around(layer))[1]
        np.testing.assert_array_equal(fused.int_weights, np.eye(2))
        assert fused.s_w == 1.0

    def test_off_grid_weights_fuse_to_the_fake_quant_product(self):
        # off the grid, and two weights outside the clamp range [-1, 1]
        w = np.array([[0.1234, 0.777, 1.6], [0.5, -0.9, -2.3]])
        layer = make_layer(w, (-1.0, 1.0), (0.0, 1.0), 2.0, 2.0)
        model = model_around(layer, seed=3)
        fused = fuse_student(model)
        x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(64, 3))
        np.testing.assert_allclose(fused_model_forward(model, fused, x),
                                   model.predict_logits(x), rtol=0,
                                   atol=1e-10)

    def test_conv_layer_rejected(self):
        model = Model(make_model_spec("conv3", 2, 3), quantized=True,
                      quant_rng=np.random.default_rng(1))
        with pytest.raises(FusionError, match="integer fusion covers linear"):
            fuse_student(model)

    def test_fused_path_matches_fake_quant_path(self):
        # mlp4: two quantized relu layers between FP first and last layers
        rng = np.random.default_rng(42)
        model = Model(make_model_spec("mlp4", 6, 3), quantized=True,
                      init_seed=1, quant_rng=np.random.default_rng(2))
        for layer in model.layers:
            layer.b.data = rng.normal(0.0, 0.5, size=layer.b.data.shape)
        for layer in model.inner_layers():
            w = layer.W.data
            layer.weight_fq.init_from_minmax(float(w.min()), float(w.max()),
                                             4.0)
            layer.act_fq.init_from_minmax(0.0, 2.0, 4.0)
        fused = fuse_student(model)
        assert sorted(fused) == [1, 2]
        assert all(f.activation_fn == "relu" for f in fused.values())
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-0.5, 2.5, size=(5, 6))
            ref = model.predict_logits(x)
            got = fused_model_forward(model, fused, x)
            worst = max(worst, float(np.max(np.abs(ref - got))))
        assert worst < 1e-10
