"""The hot-path functions write in place only into arrays they allocated.

A layer's forward and rule, ``BatchNorm.normalize`` and its vector-Jacobian
product, the bias add, the fake-quant kernels and a site's ``fake_quant``
and ``ste_backward`` must leave every argument byte-unchanged, and so
every array a layer hands to its ``sites`` callback and every output a
later product still reads. Each case runs on C-ordered and on batch-last
arrays, the layout of conv activations and their gradients in training.
"""

import numpy as np
import pytest

from gdnsq import kernels
from gdnsq import tensor as T
from gdnsq.models import BatchNorm, Conv2d, Linear, _bias, _Layer
from gdnsq.quantizer import NOISE_MODES, FakeQuantizer


def batch_last(a):
    """a's values as a [b, c, h, w] view of [c, h, w, b] memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


class Watch:
    """Byte copies of arrays, to check later that nothing wrote them."""

    def __init__(self):
        self.held = []

    def add(self, what, *arrays):
        for a in arrays:
            self.held.append((what, a, a.tobytes()))

    def assert_unchanged(self, when):
        for what, a, held in self.held:
            assert a.tobytes() == held, f"{what} changed by {when}"


def call_leaving(fn, *args):
    """fn(*args), asserting that it leaves each array argument unchanged."""
    watch = Watch()
    watch.add(fn.__name__, *(a for a in args if isinstance(a, np.ndarray)))
    out = fn(*args)
    watch.assert_unchanged(fn.__name__)
    return out


def mutating_bias(y, b):
    """_bias with the in-place add it must not make."""
    y += b.reshape((1, -1) + (1,) * (y.ndim - 2))
    return y, None


def test_the_check_catches_an_argument_written_in_place():
    y = np.random.default_rng(0).normal(size=(4, 3))
    with pytest.raises(AssertionError, match="mutating_bias"):
        call_leaving(mutating_bias, y, np.ones(3))


@pytest.mark.parametrize("layout", [np.asarray, batch_last])
def test_bias_leaves_its_arguments(layout):
    rng = np.random.default_rng(1)
    y = layout(rng.normal(size=(4, 3, 5, 2)))
    out, vjp = call_leaving(_bias, y, rng.normal(size=3))
    watch = Watch()
    watch.add("bias output", out)
    call_leaving(vjp, layout(rng.normal(size=y.shape)))
    watch.assert_unchanged("the bias vjp")


BN_MODES = ("train", "eval")


@pytest.mark.parametrize("mode", BN_MODES)
@pytest.mark.parametrize("layout", [np.asarray, batch_last])
def test_batchnorm_leaves_its_arguments(mode, layout):
    shape = (4, 3, 5, 2)
    rng = np.random.default_rng([BN_MODES.index(mode), len(shape)])
    bn = BatchNorm(3)
    bn.gamma.data = 1.0 + 0.3 * rng.normal(size=3)
    bn.beta.data = rng.normal(size=3)
    x = layout(rng.normal(0.5, 2.0, size=shape))
    watch = Watch()
    watch.add("gamma and beta", bn.gamma.data, bn.beta.data)
    out, vjp = call_leaving(bn.normalize, x, mode == "train")
    watch.add("batchnorm output", out)
    # an eval forward builds no product
    assert (vjp is None) == (mode == "eval")
    for g in (layout(rng.normal(size=shape)), rng.normal(size=shape)):
        if vjp is None:
            continue
        first = call_leaving(vjp, g)
        # the product reads only what it closed over, so it repeats itself
        for a, b in zip(first, vjp(g)):
            assert a.tobytes() == b.tobytes()
    watch.assert_unchanged("batchnorm")


@pytest.mark.parametrize("layout", [np.asarray, batch_last])
@pytest.mark.parametrize("fn", [kernels.fake_quant, kernels.grid_levels])
def test_fake_quant_kernels_leave_their_input(fn, layout):
    x = layout(np.random.default_rng(2).normal(size=(4, 3, 5, 2)))
    call_leaving(fn, x, -1.0, 1.0, 0.1)


def initialized_site(kind, mode, rng):
    fq = FakeQuantizer(kind, mode, rng=rng)
    fq.init_from_minmax(-1.0, 1.5, 3.0)
    return fq


@pytest.mark.parametrize("layout", [np.asarray, batch_last])
@pytest.mark.parametrize("kind", ["weight", "activation"])
@pytest.mark.parametrize("mode", NOISE_MODES)
def test_site_leaves_its_arguments(mode, kind, layout):
    rng = np.random.default_rng(3)
    fq = initialized_site(kind, mode, rng)
    x = layout(rng.normal(size=(4, 3, 5, 2)))
    xq, _, vjp = call_leaving(fq.fake_quant, x)
    watch = Watch()
    watch.add("fake-quantized output", xq)
    for g in (layout(rng.normal(size=x.shape)), rng.normal(size=x.shape)):
        call_leaving(vjp, g)
        call_leaving(fq.ste_backward, g, x, -0.5, 1.0, 0.25)
    watch.assert_unchanged("the site's vjp")


def layer_case(kind, quantized, rng):
    """A layer of kind linear, linear after an image (the pool) or conv,
    its input (batch-last for images) and the arrays it must not write."""
    if kind == "conv":
        spec = Conv2d(2, 3, stride=2, padding=1)
        x = batch_last(rng.normal(0.3, 1.0, size=(3, 2, 5, 6)))
    else:
        spec = Linear(2, 3)
        x = (rng.normal(0.3, 1.0, size=(6, 2)) if kind == "linear"
             else batch_last(rng.normal(0.3, 1.0, size=(3, 2, 4, 5))))
    layer = _Layer(spec, rng, "layer1")
    layer.b.data = rng.normal(size=3)
    if quantized:
        layer.attach_quantizers(np.random.default_rng(7))
        w = layer.W.data
        layer.weight_fq.init_from_minmax(0.8 * w.min(), 0.8 * w.max(), 3.0)
        layer.act_fq.init_from_minmax(0.0, 1.2, 3.0)
    return layer, x


@pytest.mark.parametrize("mode", BN_MODES)
@pytest.mark.parametrize("quantized", [False, True])
# a conv layer has batchnorm, a linear one has none
@pytest.mark.parametrize("kind,bn", [("linear", False), ("pool", False),
                                     ("conv", True)])
def test_layer_leaves_its_arrays(kind, bn, quantized, mode):
    rng = np.random.default_rng([len(kind), bn, quantized])
    layer, x = layer_case(kind, quantized, rng)
    assert (layer.bn is not None) == bn
    watch = Watch()
    watch.add("layer parameters", *(p.data for p in layer.params()))
    handed = Watch()

    def sites(fq, v, vq):
        handed.add(f"{fq.name} site arrays", v, vq)

    train = mode == "train"
    T.reset_tape()
    y = call_leaving(lambda x: layer.forward(x, train, sites=sites,
                                             input_grad=True), x)
    handed.assert_unchanged("the forward")
    assert len(handed.held) == (4 if quantized else 0)
    if train:
        rule = T.get_tape().entries[-1].rule
        watch.add("layer output", y)
        g = np.random.default_rng(9).normal(size=y.shape)
        for gl in (g, batch_last(g)) if y.ndim == 4 else (g, g.T.copy().T):
            call_leaving(rule, gl)
        handed.assert_unchanged("the rule")
    T.reset_tape()
    watch.assert_unchanged("the layer")
