"""The closed-form chain entries against the primitive-op graphs they
replace, and the chain's reverse sweep against the general tape.

Each model case evaluates the loss through the chain (the layer entries of
_Layer.forward and the loss entry that total_loss records from
losses.distill_loss and losses.potential), sweeps it into the
flat gradient buffer of an RAdam, and compares the buffer bit for bit with
the gradients the general tape (reference_tape) accumulates when the same
entries are recorded on it as nodes, with the same probe draws. It also
compares the loss value and every parameter and logit gradient with the
primitive-op reference graphs in ``reference_graphs`` within 1e-12
relative. BatchNorm.normalize, the bias add and a single layer entry are
compared the same way on their outputs and gradients; a layer entry must
also draw the same probes in the same order.
"""

import numpy as np
import pytest

import primitives as P
import reference_graphs as ref
import reference_tape as R
from gdnsq import tensor as T
from gdnsq.data import Dataset
from gdnsq.losses import (PROB_FLOOR, distill_loss, hard_label_loss,
                          potential, softmax, teacher_probs, total_loss)
from gdnsq.models import (BatchNorm, Conv2d, Linear, Model, _bias, _Layer,
                          make_model_spec, train_teacher)
from gdnsq.optim import RAdam
from gdnsq.oracles import _weighted_sum
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


def zero_slots(params):
    return {p: np.zeros(p.data.shape) for p in params}


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


def use_rng(model, seed):
    rng = np.random.default_rng(seed)
    for fq in model.all_quantizers():
        fq.rng = rng
    return rng


def reference_step(model, x, t_logits, labels, kind, weights, seed):
    """(loss, logit gradient, parameter gradients by name) of one step
    through the primitive-op graphs."""
    use_rng(model, seed)
    R.reset_tape()
    s_logits = ref.model_forward(model, x, train=True)
    loss = ref.total_loss(s_logits, t_logits, model.weight_quantizers(),
                          model.act_quantizers(), *weights, labels, kind)
    grads = loss.backward()
    R.reset_tape()
    return (float(loss.data), grads[s_logits],
            {name: grads[p] for name, p in model.named_parameters()})


def chain_step(model, opt, x, t_logits, labels, kind, weights, seed,
               monkeypatch):
    """One training step's chain swept into opt's gradient buffer, then the
    same entries recorded on the general tape and swept with the same
    probe draws. Returns (loss, logit gradient, the tape's parameter
    gradients by name)."""
    rng = use_rng(model, seed)
    outputs = []
    record = T.record

    def keeping_outputs(x, params, out, rule, name):
        outputs.append(out)
        return record(x, params, out, rule, name)

    T.reset_tape()
    with monkeypatch.context() as mp:
        mp.setattr(T, "record", keeping_outputs)
        s_logits = model.forward(x, train=True)
        loss, _ = total_loss(s_logits, teacher_probs(t_logits),
                             model.weight_quantizers(), model.act_quantizers(),
                             *weights, labels=labels, kind=kind)
    entries = list(T.get_tape().entries)
    draws = rng.bit_generator.state
    T.backward(opt.slots)
    T.reset_tape()
    rng.bit_generator.state = draws
    R.reset_tape()
    tape_loss, tape_logits = ref.chain_on_tape(entries, outputs, R.constant(x))
    grads = tape_loss.backward()
    R.reset_tape()
    return (float(loss), grads[tape_logits],
            {name: grads[p] for name, p in model.named_parameters()})


@pytest.mark.parametrize("model_id", ["mlp3", "mlp4", "conv3"])
@pytest.mark.parametrize("kind", KINDS)
def test_model_step_matches_reference(model_id, kind, monkeypatch):
    seed = {"mlp3": 11, "mlp4": 12, "conv3": 13}[model_id]
    model = quantized_model(model_id, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(16, 2, 6, 6) if model_id == "conv3" else (16, 2))
    t_logits = rng.normal(scale=3.0, size=(16, 3))
    t_logits[0] = [40.0, 0.0, -40.0]  # teacher probabilities under the floor
    labels = rng.integers(0, 3, size=16)
    weights = ((4.5, 4.5), 0.3 * 1.7)  # the targets and w_p = t_q * c_r
    opt = RAdam(model.named_parameters(), lr=1e-3)
    for step in range(3):
        want = reference_step(model, x, t_logits, labels, kind, weights,
                              seed + step)
        got = chain_step(model, opt, x, t_logits, labels, kind, weights,
                         seed + step, monkeypatch)
        # the buffer holds the tape's accumulation of the same rules: the
        # potential's share first, raw_u's softplus terms one by one
        for name, _ in model.named_parameters():
            np.testing.assert_array_equal(opt.g[name], got[2][name],
                                          err_msg=name)
        assert_close(got[0], want[0], "loss")
        assert_close(got[1], want[1], "logits")
        for name in want[2]:
            assert_close(opt.g[name], want[2][name], name)
        opt.step()
    # both hinge states and both site kinds were exercised; the last
    # activation site's hinge is active, so its raw_u gets a share from the
    # potential as well as from its layer
    omegas = [fq.bitwidth_value() for fq in model.all_quantizers()]
    assert min(omegas) < 4.5 < max(omegas)
    active = model.act_quantizers()[-1]
    assert active.bitwidth_value() > 4.5
    assert float(opt.g[active.raw_u.name]) != 0.0


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
    d, vjp = distill_loss(z.copy(), teacher_probs(t), labels=labels,
                          kind=kind)
    ga = vjp(np.ones(()))
    b = Tensor(z.copy(), requires_grad=True)
    d_ref = P.mean(ref.distill_rows(b, t, labels, kind))
    gb = d_ref.backward()[b]
    R.reset_tape()
    assert_close(d, d_ref.data, "d")
    assert_close(ga, gb, "logits")


def test_hard_label_loss_matches_reference():
    z = _floor_logits()
    labels = np.array([2, 2, 0, 1])
    T.reset_tape()
    loss = hard_label_loss(z.copy(), labels)
    ga = T.backward({})
    T.reset_tape()
    b = Tensor(z.copy(), requires_grad=True)
    loss_ref = ref.hard_label_loss(b, labels)
    gb = loss_ref.backward()[b]
    R.reset_tape()
    assert_close(loss, loss_ref.data, "loss")
    assert_close(ga, gb, "logits")


def _sites(seed):
    rng = np.random.default_rng(seed)
    sites = []
    for kind in ("weight", "weight", "activation", "activation"):
        fq = FakeQuantizer(kind, rng=np.random.default_rng(seed))
        lo = 0.0 if kind == "activation" else -rng.uniform(0.5, 2.0)
        fq.init_from_minmax(lo, rng.uniform(0.5, 2.0), rng.uniform(2.0, 7.0))
        sites.append(fq)
    return sites[:2], sites[2:]


def _potential_grads(wfqs, afqs, targets, reference):
    params = [t for fq in wfqs + afqs for t in fq.raw_params()]
    if reference:
        p = ref.potential(wfqs, afqs, targets)
        grads = p.backward()
        R.reset_tape()
        return float(p.data), [grads[t] for t in params]
    T.reset_tape()
    p, site_params, vjp = potential(wfqs, afqs, targets)
    T.record(None, site_params, p, lambda g: (None, *vjp(g)), "potential")
    slots = zero_slots(params)
    T.backward(slots)
    T.reset_tape()
    return float(p), [slots[t] for t in params]


@pytest.mark.parametrize("seed", range(5))
def test_potential_node_matches_reference(seed):
    wfqs, afqs = _sites(seed)
    # a tie (omega exactly at target counts as active) or a spread target
    targets = (wfqs[1].bitwidth_value() if seed == 0 else 4.5, 4.5)
    got = _potential_grads(wfqs, afqs, targets, reference=False)
    want = _potential_grads(wfqs, afqs, targets, reference=True)
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
    coeff = np.random.default_rng(6).normal(size=x.shape)
    params = fq.raw_params()

    fq.rng = np.random.default_rng(5)
    T.reset_tape()
    out, site_params, vjp = fq.fake_quant(x)
    T.record(x, site_params, out, vjp, "fake_quant")
    slots = zero_slots(params)
    _weighted_sum(out, coeff)
    gx = T.backward(slots)
    T.reset_tape()
    gp = [slots[t] for t in params]

    fq.rng = np.random.default_rng(5)
    xt = Tensor(x, requires_grad=True)
    out_ref = ref.fake_quant_apply(fq, xt)
    grads = P.sum_(P.mul(out_ref, R.constant(coeff))).backward()
    R.reset_tape()
    out_ref, gx_ref, gp_ref = out_ref.data, grads[xt], [grads[t] for t in params]
    np.testing.assert_array_equal(out, out_ref)
    assert_close(gx, gx_ref, "x")
    for g, w in zip(gp, gp_ref):
        assert_close(g, w, "site parameter")

BN_MODES = ("train", "eval")


def batch_last(a):
    """a's values as a [b, c, h, w] view of [c, h, w, b] memory, the layout
    of a conv layer's activations and their gradients in training."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def batchnorm_case(mode, reference, layout=np.asarray):
    """(output, running mean, running var) of one batchnorm forward through
    BatchNorm.normalize or the reference graph and, in training, the
    x/gamma/beta gradients of its backward; layout lays out the input and
    the output's coefficients."""
    rng = np.random.default_rng([4, BN_MODES.index(mode)])
    shape = (4, 3, 5, 2)
    x = Tensor(layout(rng.normal(0.5, 2.0, size=shape)), requires_grad=True)
    coeff = layout(rng.normal(size=shape))
    bn = BatchNorm(3)
    bn.gamma.data = 1.0 + 0.3 * rng.normal(size=3)
    bn.beta.data = rng.normal(size=3)
    bn.running_mean = rng.normal(size=3)
    bn.running_var = rng.uniform(0.5, 2.0, size=3)
    train = mode == "train"
    if not reference:
        out, vjp = bn.normalize(x.data, train)
        # an eval forward builds no product
        assert (vjp is None) == (not train)
        return (out, bn.running_mean, bn.running_var,
                *(vjp(coeff) if train else ()))
    R.reset_tape()
    out = ref.batchnorm_forward(bn, x, train)
    grads = P.sum_(P.mul(out, R.constant(coeff))).backward()
    R.reset_tape()
    return (out.data, bn.running_mean, bn.running_var,
            *((grads[x], grads[bn.gamma], grads[bn.beta]) if train else ()))


@pytest.mark.parametrize("mode", BN_MODES)
def test_batchnorm_node_matches_graph(mode):
    assert_batchnorm_node_matches_graph(mode, np.asarray)


@pytest.mark.parametrize("mode", BN_MODES)
def test_batchnorm_node_matches_graph_on_batch_last_input(mode):
    assert_batchnorm_node_matches_graph(mode, batch_last)


def assert_batchnorm_node_matches_graph(mode, layout):
    node = batchnorm_case(mode, False, layout)
    graph = batchnorm_case(mode, True, layout)
    assert len(node) == len(graph)
    # the forward values and the running-statistic update are the same ops
    for what, got, want in zip(("out", "running_mean", "running_var"),
                               node[:3], graph[:3]):
        np.testing.assert_array_equal(got, want, err_msg=what)
    for what, got, want in zip(("x", "gamma", "beta"), node[3:], graph[3:]):
        assert_close(got, want, what)


@pytest.mark.parametrize("ndim", [2, 4])
def test_bias_matches_graph(ndim):
    """models._bias, which the reference layer graph reuses, against the
    primitive reshape, broadcast and add; a 4-d input is batch-last."""
    rng = np.random.default_rng([ndim])
    shape = (6, 3) if ndim == 2 else (4, 3, 5, 2)
    layout = np.asarray if ndim == 2 else batch_last
    y = Tensor(layout(rng.normal(size=shape)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    coeff = layout(rng.normal(size=shape))
    out, vjp = _bias(y.data, b.data)
    gy, gb = vjp(coeff)
    R.reset_tape()
    bb = P.broadcast_to(P.reshape(b, (1, -1) + (1,) * (ndim - 2)), shape)
    graph = P.add(y, bb)
    grads = P.sum_(P.mul(graph, R.constant(coeff))).backward()
    R.reset_tape()
    np.testing.assert_array_equal(out, graph.data)
    assert_close(gy, grads[y], "y")
    assert_close(gb, grads[b], "b")


LAYER_KINDS = ("linear", "conv2d")


def layer_case(kind, quantized, x_grad, reference, layout=np.asarray):
    """(output, probe draws, gradients, running statistics) of one training
    layer forward and backward through the layer entry or the reference
    graph; a batchnorm normalizes with the batch statistics. layout lays
    out the input. The first gradient is the input's, None where none was
    computed."""
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
        layer.attach_quantizers(np.random.default_rng(7))
        w = layer.W.data
        layer.weight_fq.init_from_minmax(0.8 * w.min(), 0.8 * w.max(), 3.0)
        layer.act_fq.init_from_minmax(0.0, 1.2, 3.0)
        params += layer.weight_fq.raw_params() + layer.act_fq.raw_params()
    x = Tensor(layout(rng.normal(0.3, 1.0, size=x_shape)),
               requires_grad=x_grad)
    draws = []
    ste = FakeQuantizer.ste_backward

    def recording(fq, g_up, xv, l, u, s):
        draws.append((fq.name, xv.shape, fq.rng.bit_generator.state))
        return ste(fq, g_up, xv, l, u, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FakeQuantizer, "ste_backward", recording)
        if reference:
            R.reset_tape()
            out = ref.layer_forward(layer, x, True)
            coeff = np.random.default_rng(9).normal(size=out.shape)
            grads = P.sum_(P.mul(out, R.constant(coeff))).backward()
            R.reset_tape()
            out, grads = out.data, [grads.get(x)] + [grads[p] for p in params]
        else:
            T.reset_tape()
            out = layer.forward(x.data, True, input_grad=x_grad)
            coeff = np.random.default_rng(9).normal(size=out.shape)
            slots = zero_slots(params)
            _weighted_sum(out, coeff)
            gx = T.backward(slots)
            T.reset_tape()
            grads = [gx] + [slots[p] for p in params]
    stats = ([] if layer.bn is None
             else [layer.bn.running_mean, layer.bn.running_var])
    return out, draws, grads, stats


@pytest.mark.parametrize("kind", LAYER_KINDS)
@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_layer_node_matches_graph(kind, quantized, x_grad):
    assert_layer_node_matches_graph(kind, quantized, x_grad, np.asarray)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_conv_layer_node_matches_graph_on_batch_last_input(quantized, x_grad):
    assert_layer_node_matches_graph("conv2d", quantized, x_grad, batch_last)


def assert_layer_node_matches_graph(kind, quantized, x_grad, layout):
    node = layer_case(kind, quantized, x_grad, False, layout)
    graph = layer_case(kind, quantized, x_grad, True, layout)
    np.testing.assert_array_equal(node[0], graph[0])
    assert node[1] == graph[1]
    assert [d[0] for d in node[1]] == (
        ["layer1/weight", "layer1/act"] if quantized else [])
    for got, want in zip(node[3], graph[3]):
        np.testing.assert_array_equal(got, want)
    # the entry computes the input's gradient when it is wanted or feeds
    # the activation site
    assert (node[2][0] is None) == (not (x_grad or quantized))
    assert (graph[2][0] is None) == (not x_grad)
    if x_grad:
        assert_close(node[2][0], graph[2][0], "input")
    for i, (got, want) in enumerate(zip(node[2][1:], graph[2][1:])):
        assert_close(got, want, f"parameter gradient {i}")


LAYERS = ["layer0", "layer1", "layer2", "layer3"]  # no pool entry on conv3


@pytest.mark.parametrize("model_id,names", [
    (model_id, LAYERS) for model_id in ("mlp4", "conv3")])
def test_layer_is_one_node(model_id, names):
    model = quantized_model(model_id, 5)
    x = np.random.default_rng(0).normal(size=(4, 2, 6, 6) if model_id == "conv3"
                                        else (4, 2))
    T.reset_tape()
    model.forward(x, train=True)
    assert [e.name for e in T.get_tape().entries] == names
    T.reset_tape()


def swept_chains(monkeypatch):
    """The entry names of every chain T.backward sweeps, appended to the
    returned list."""
    tapes = []
    real = T.backward

    def recording(slots):
        tapes.append([e.name for e in T.get_tape().entries])
        return real(slots)

    monkeypatch.setattr(T, "backward", recording)
    return tapes


def step_data(model_id):
    rng = np.random.default_rng(6)
    shape = (16, 2, 6, 6) if model_id == "conv3" else (16, 2)
    return Dataset(rng.normal(size=shape), rng.integers(0, 3, size=16),
                   num_classes=3)


@pytest.mark.parametrize("model_id,names", [
    (model_id, LAYERS + ["loss[jeffreys]"]) for model_id in ("mlp4", "conv3")])
def test_qat_step_nodes(model_id, names, tmp_path, monkeypatch):
    # the chain that every backward of qat_run's training steps sweeps
    student = quantized_model(model_id, 6)
    teacher = Model(student.spec, init_seed=6)
    ds = step_data(model_id)
    tapes = swept_chains(monkeypatch)
    qat_run(RunConfig(model=model_id, epochs=1, batch_size=8), teacher,
            student, tmp_path / "run", ds, ds)
    assert tapes == [names, names]


@pytest.mark.parametrize("model_id,names", [
    (model_id, LAYERS + ["loss[hard_label_ce]"])
    for model_id in ("mlp4", "conv3")])
def test_train_fp_step_nodes(model_id, names, monkeypatch):
    # the chain that every backward of train_teacher's steps sweeps
    ds = step_data(model_id)
    tapes = swept_chains(monkeypatch)
    train_teacher(make_model_spec(model_id, 2, 3), ds, ds, epochs=1,
                  lam=0.01, seed=6, batch_size=8)
    assert tapes == [names, names]
