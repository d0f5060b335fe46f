"""The closed-form tape nodes against the primitive-op graphs they replace.

Each case evaluates the loss once through the nodes (the layer nodes of
_Layer.forward, the pool node, losses.distill_loss,
losses.potential_tensor and the loss-sum node of total_loss) and once
through the reference graphs in ``reference_graphs``, with the same probe
draws, and compares the loss value and every parameter and logit gradient
within 1e-12 relative. BatchNorm.normalize and a single layer node are
compared the same way on their outputs and gradients; a layer node must
also draw the same probes in the same order.
"""

import numpy as np
import pytest

import primitives as P
import reference_graphs as ref
from gdnsq import models
from gdnsq import tensor as T
from gdnsq.data import Dataset
from gdnsq.losses import (PROB_FLOOR, LossState, distill_loss, hard_label_loss,
                          potential_tensor, softmax, total_loss)
from gdnsq.models import (BatchNorm, Conv2d, Linear, Model, _Layer,
                          make_model_spec)
from gdnsq.pipeline import RunConfig, qat_run
from gdnsq.quantizer import FakeQuantizer
from gdnsq.tensor import Tensor

KINDS = ("jeffreys", "cross_entropy", "hard_label_ce")
RTOL = 1e-12


def assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    assert err <= RTOL * float(np.max(np.abs(want))), (what, err)


def quantized_model(model_id, seed):
    """Random quantized model whose sites sit on both sides of 4.5 bits."""
    rng = np.random.default_rng(seed)
    spec = make_model_spec(model_id, 2, 3)
    model = Model(spec, quantized=True, init_seed=seed)
    for layer in model.inner_layers():
        w = layer.W.data
        layer.weight_fq.init_from_minmax(float(w.min()), float(w.max()),
                                         rng.uniform(3.0, 6.5))
        layer.act_fq.init_from_minmax(0.0, rng.uniform(0.5, 3.0),
                                      rng.uniform(3.0, 6.5))
    # one site of each kind below its target, one above
    model.weight_quantizers()[0].log_s.data += 1.0
    model.act_quantizers()[-1].log_s.data -= 1.0
    return model


def loss_and_grads(model, x, t_logits, labels, kind, state, seed,
                   reference):
    """(loss, logit gradient, parameter gradients) of one step."""
    rng = np.random.default_rng(seed)
    for fq in model.all_quantizers():
        fq.rng = rng
    params = model.named_parameters()
    for _, p in params:
        p.grad = None
    T.reset_tape()
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(_Layer, "forward", ref.layer_forward)
            mp.setattr(models, "global_avg_pool", ref.global_avg_pool)
        s_logits = model.forward(x, train=True)
        if reference:
            loss = ref.total_loss(s_logits, t_logits, model.weight_quantizers(),
                                  model.act_quantizers(), state, labels, kind)
        else:
            loss, _ = total_loss(s_logits, t_logits, model.weight_quantizers(),
                                 model.act_quantizers(), state, labels=labels,
                                 kind=kind)
        loss.backward()
    T.reset_tape()
    grads = {name: p.grad.copy() for name, p in params}
    return float(loss.data), s_logits.grad.copy(), grads


@pytest.mark.parametrize("model_id", ["mlp3", "mlp4", "conv3"])
@pytest.mark.parametrize("kind", KINDS)
def test_model_step_matches_reference(model_id, kind):
    seed = {"mlp3": 11, "mlp4": 12, "conv3": 13}[model_id]
    model = quantized_model(model_id, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(16, 2, 6, 6) if model_id == "conv3" else (16, 2))
    t_logits = rng.normal(scale=3.0, size=(16, 3))
    t_logits[0] = [40.0, 0.0, -40.0]  # teacher probabilities under the floor
    labels = rng.integers(0, 3, size=16)
    state = LossState(targets=(4.5, 4.5))
    state.t_q, state.c_r = 0.3, 1.7
    got = loss_and_grads(model, x, t_logits, labels, kind, state, seed, False)
    want = loss_and_grads(model, x, t_logits, labels, kind, state, seed, True)
    assert_close(got[0], want[0], "loss")
    assert_close(got[1], want[1], "logits")
    for name in want[2]:
        assert_close(got[2][name], want[2][name], name)
    # both hinge states and both site kinds were exercised
    omegas = [fq.bitwidth_value() for fq in model.all_quantizers()]
    assert min(omegas) < 4.5 < max(omegas)


def _floor_logits():
    z = np.array([[0.3, -0.2, 0.1],
                  [30.0, 0.0, -5.0],   # p of the last class ~ 1e-15
                  [-2.0, 1.5, 0.5],
                  [0.0, 0.0, 0.0]])
    assert softmax(z)[1, 2] < PROB_FLOOR
    return z


@pytest.mark.parametrize("kind", KINDS)
def test_distill_node_matches_reference_under_floor(kind):
    z = _floor_logits()
    t = np.array([[1.0, 0.0, -1.0], [0.0, 35.0, 0.0], [2.0, 2.0, -30.0],
                  [0.5, -0.5, 0.0]])
    labels = np.array([0, 2, 1, 1])
    a = Tensor(z.copy(), requires_grad=True)
    d = distill_loss(a, t, labels=labels, kind=kind)
    d.backward()
    b = Tensor(z.copy(), requires_grad=True)
    d_ref = P.mean(ref.distill_rows(b, t, labels, kind))
    d_ref.backward()
    T.reset_tape()
    assert_close(d.data, d_ref.data, "d")
    assert_close(a.grad, b.grad, "logits")


def test_hard_label_loss_matches_reference():
    z = _floor_logits()
    labels = np.array([2, 2, 0, 1])
    a = Tensor(z.copy(), requires_grad=True)
    loss = hard_label_loss(a, labels)
    loss.backward()
    b = Tensor(z.copy(), requires_grad=True)
    loss_ref = ref.hard_label_loss(b, labels)
    loss_ref.backward()
    T.reset_tape()
    assert_close(loss.data, loss_ref.data, "loss")
    assert_close(a.grad, b.grad, "logits")


def _sites(seed):
    rng = np.random.default_rng(seed)
    sites = []
    for kind in ("weight", "weight", "activation", "activation"):
        fq = FakeQuantizer(kind, rng=np.random.default_rng(seed))
        lo = 0.0 if kind == "activation" else -rng.uniform(0.5, 2.0)
        fq.init_from_minmax(lo, rng.uniform(0.5, 2.0), rng.uniform(2.0, 7.0))
        sites.append(fq)
    return sites[:2], sites[2:]


def _potential_grads(build, wfqs, afqs, targets):
    for fq in wfqs + afqs:
        for t in fq.raw_params():
            t.grad = None
    p = build(wfqs, afqs, targets)
    p.backward()
    T.reset_tape()
    return float(p.data), [t.grad.copy() for fq in wfqs + afqs
                           for t in fq.raw_params()]


@pytest.mark.parametrize("seed", range(5))
def test_potential_node_matches_reference(seed):
    wfqs, afqs = _sites(seed)
    # a tie (omega exactly at target counts as active) or a spread target
    targets = (wfqs[1].bitwidth_value() if seed == 0 else 4.5, 4.5)
    got = _potential_grads(potential_tensor, wfqs, afqs, targets)
    want = _potential_grads(ref.potential_tensor, wfqs, afqs, targets)
    assert_close(got[0], want[0], "P")
    for g, w in zip(got[1], want[1]):
        assert_close(g, w, "site parameter")
    if seed == 0:
        assert float(np.abs(got[1][3]).max()) > 0.0  # the tied site's log_s


@pytest.mark.parametrize("kind", ["weight", "activation"])
def test_fake_quant_node_matches_reference(kind):
    fq = FakeQuantizer(kind, rng=np.random.default_rng(3))
    fq.init_from_minmax(-0.7 if kind == "weight" else 0.0, 1.3, 3.0)
    x = np.random.default_rng(4).uniform(-1.5, 2.0, size=(6, 5))

    def node(fq, xt):
        out, inputs, vjp = fq.fake_quant(xt.data)
        return T._record([xt, *inputs], out, vjp, "fake_quant")

    results = []
    for build in (node, ref.fake_quant_apply):
        fq.rng = np.random.default_rng(5)
        for t in fq.raw_params():
            t.grad = None
        xt = Tensor(x, requires_grad=True)
        out = build(fq, xt)
        P.sum_(P.mul(out, out)).backward()
        T.reset_tape()
        results.append((out.data, xt.grad,
                        [t.grad.copy() for t in fq.raw_params()]))
    (out, gx, gp), (out_ref, gx_ref, gp_ref) = results
    np.testing.assert_array_equal(out, out_ref)
    assert_close(gx, gx_ref, "x")
    for g, w in zip(gp, gp_ref):
        assert_close(g, w, "site parameter")

BN_MODES = ("train", "frozen", "eval")


def batchnorm_case(ndim, mode, reference):
    """(output, running mean, running var, x/gamma/beta gradients) of one
    batchnorm forward and backward through BatchNorm.normalize or the
    reference graph."""
    rng = np.random.default_rng([ndim, BN_MODES.index(mode)])
    shape = (6, 3) if ndim == 2 else (4, 3, 5, 2)
    x = Tensor(rng.normal(0.5, 2.0, size=shape), requires_grad=True)
    coeff = rng.normal(size=shape)
    bn = BatchNorm(3, frozen=mode == "frozen")
    bn.gamma.data = 1.0 + 0.3 * rng.normal(size=3)
    bn.beta.data = rng.normal(size=3)
    bn.running_mean = rng.normal(size=3)
    bn.running_var = rng.uniform(0.5, 2.0, size=3)
    train = mode != "eval"
    if not reference:
        out, vjp = bn.normalize(x.data, train)
        return (out, bn.running_mean, bn.running_var, *vjp(coeff))
    T.reset_tape()
    out = ref.batchnorm_forward(bn, x, train)
    P.sum_(P.mul(out, T.constant(coeff))).backward()
    T.reset_tape()
    return (out.data, bn.running_mean, bn.running_var, x.grad,
            bn.gamma.grad, bn.beta.grad)


@pytest.mark.parametrize("ndim", [2, 4])
@pytest.mark.parametrize("mode", BN_MODES)
def test_batchnorm_node_matches_graph(ndim, mode):
    node = batchnorm_case(ndim, mode, reference=False)
    graph = batchnorm_case(ndim, mode, reference=True)
    # the forward values and the running-statistic update are the same ops
    for what, got, want in zip(("out", "running_mean", "running_var"),
                               node[:3], graph[:3]):
        np.testing.assert_array_equal(got, want, err_msg=what)
    for what, got, want in zip(("x", "gamma", "beta"), node[3:], graph[3:]):
        assert_close(got, want, what)


LAYER_KINDS = ("linear", "conv2d")


def layer_case(kind, quantized, train, x_grad, reference):
    """(output, probe draws, gradients, running statistics) of one layer
    forward and backward through the layer node or the reference graph."""
    rng = np.random.default_rng([LAYER_KINDS.index(kind), quantized])
    if kind == "linear":
        spec, x_shape = Linear(5, 4), (6, 5)
    else:
        spec, x_shape = Conv2d(2, 3, stride=2, padding=1), (3, 2, 5, 6)
    layer = _Layer(spec, rng, "layer1")
    layer.b.data = rng.normal(size=layer.b.data.shape)
    params = [layer.W, layer.b]
    if layer.bn is not None:
        layer.bn.gamma.data = 1.0 + 0.3 * rng.normal(size=3)
        layer.bn.beta.data = rng.normal(size=3)
        layer.bn.running_var = rng.uniform(0.5, 2.0, size=3)
        params += [layer.bn.gamma, layer.bn.beta]
    if quantized:
        layer.attach_quantizers("bernoulli", np.random.default_rng(7))
        w = layer.W.data
        layer.weight_fq.init_from_minmax(0.8 * w.min(), 0.8 * w.max(), 3.0)
        layer.act_fq.init_from_minmax(0.0, 1.2, 3.0)
        params += layer.weight_fq.raw_params() + layer.act_fq.raw_params()
    x = Tensor(rng.normal(0.3, 1.0, size=x_shape), requires_grad=x_grad)
    draws = []
    ste = FakeQuantizer.ste_backward

    def recording(fq, g_up, xv, l, u, s):
        draws.append((fq.name, xv.shape, fq.rng.bit_generator.state))
        return ste(fq, g_up, xv, l, u, s)

    T.reset_tape()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FakeQuantizer, "ste_backward", recording)
        forward = ref.layer_forward if reference else _Layer.forward
        out = forward(layer, x, train)
        coeff = np.random.default_rng(9).normal(size=out.shape)
        P.sum_(P.mul(out, T.constant(coeff))).backward()
    T.reset_tape()
    stats = ([] if layer.bn is None
             else [layer.bn.running_mean, layer.bn.running_var])
    return out.data, draws, [x.grad] + [p.grad for p in params], stats


@pytest.mark.parametrize("kind", LAYER_KINDS)
@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_layer_node_matches_graph(kind, quantized, train, x_grad):
    node = layer_case(kind, quantized, train, x_grad, reference=False)
    graph = layer_case(kind, quantized, train, x_grad, reference=True)
    np.testing.assert_array_equal(node[0], graph[0])
    assert node[1] == graph[1]
    assert [d[0] for d in node[1]] == (
        ["layer1/weight", "layer1/act"] if quantized else [])
    for got, want in zip(node[3], graph[3]):
        np.testing.assert_array_equal(got, want)
    for i, (got, want) in enumerate(zip(node[2], graph[2])):
        if want is None:
            assert got is None, i
        else:
            assert_close(got, want, f"gradient {i}")
    assert (node[2][0] is None) == (not x_grad)


@pytest.mark.parametrize("model_id,names", [
    ("mlp4", ["layer0", "layer1", "layer2", "layer3"]),
    ("conv3", ["layer0", "layer1", "layer2", "pool", "layer3"]),
])
def test_layer_is_one_node(model_id, names):
    model = quantized_model(model_id, 5)
    x = np.random.default_rng(0).normal(size=(4, 2, 6, 6) if model_id == "conv3"
                                        else (4, 2))
    T.reset_tape()
    model.forward(x, train=True)
    assert [n.name for n in T.get_tape().nodes] == names
    T.reset_tape()


STEP_TAIL = ["distill[jeffreys]", "potential", "loss"]


@pytest.mark.parametrize("model_id,names", [
    ("mlp4", ["layer0", "layer1", "layer2", "layer3"] + STEP_TAIL),
    ("conv3", ["layer0", "layer1", "layer2", "pool", "layer3"] + STEP_TAIL),
])
def test_qat_step_nodes(model_id, names, tmp_path, monkeypatch):
    # the tape that every backward of qat_run's training steps sweeps
    student = quantized_model(model_id, 6)
    teacher = Model(student.spec, init_seed=6)
    rng = np.random.default_rng(6)
    shape = (16, 2, 6, 6) if model_id == "conv3" else (16, 2)
    ds = Dataset(rng.normal(size=shape), rng.integers(0, 3, size=16), "train",
                 num_classes=3)
    tapes = []
    real = T.backward

    def recording(root):
        tapes.append([n.name for n in T.get_tape().nodes])
        return real(root)

    monkeypatch.setattr(T, "backward", recording)
    qat_run(RunConfig(model=model_id, epochs=1, batch_size=8), teacher,
            student, tmp_path / "run", ds, ds)
    assert tapes == [names, names]
