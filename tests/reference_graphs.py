"""Primitive-op graphs of the quantizer parameters, the loss terms,
batchnorm, a model layer and the model forward,
the per-parameter RAdam loop, and a recorded training chain replayed as
tape nodes.

These are the compositions of the primitive ops in ``primitives`` that the
closed-form chain entries in ``gdnsq.quantizer``, ``gdnsq.losses`` and
``gdnsq.models`` replace, and the loop that the flat update in
``gdnsq.optim`` replaces. They stay here as references: the tests check
that the entries give the same values and gradients, and the flat update
the same bits. Besides the primitives, the layer graph uses four
single-op nodes built on the package's numpy pieces: fake-quant
(``fake_quant_apply``, over the site's l, u and s), the convolution
(``conv2d_node``), the bias add (``bias_node``) and batchnorm
(``batchnorm_node``, itself checked against the primitive graph
``batchnorm_forward``). The bias node shares the layer's own sum: behind
a batchnorm with batch statistics the bias gradient is zero up to
rounding, and only the same sum over the same array gives the same
rounding. ``chain_on_tape`` records a chain's own entries as nodes of the
general tape, so the tape's gradient accumulation can be compared with the
chain's sweep bit for bit.
"""

import math

import numpy as np

import primitives as P
import reference_tape as T
from gdnsq.losses import PROB_FLOOR, floor_normalize, softmax
from gdnsq.models import _bias, _conv2d
from gdnsq.quantizer import fq_kernel


def softplus_t(x):
    # max(x,0) + log(1 + exp(-|x|)): overflow-free composition
    m = P.maximum(x, 0.0)
    ax = P.maximum(x, P.neg(x))
    return P.add(m, P.log(P.add(P.exp(P.neg(ax)), 1.0)))


def scale_tensor(fq):
    return P.exp(fq.log_s)


def bound_tensors(fq):
    if fq.lower_fixed_zero:
        return T.constant(0.0), softplus_t(fq.raw_u)
    return fq.l_param, P.add(fq.l_param, P.exp(fq.log_range))


def bitwidth_tensor(fq):
    """omega = log2((u - l)/s + 1) on the graph."""
    l, u = bound_tensors(fq)
    ratio = P.div(P.sub(u, l), scale_tensor(fq))
    return P.mul(P.log(P.add(ratio, 1.0)), 1.0 / np.log(2.0))


def fake_quant_apply(fq, x):
    """Fake-quantize x as a node over (x, l, u, s) on graph bounds."""
    l_t, u_t = bound_tensors(fq)
    s_t = scale_tensor(fq)
    xv = x.data
    lv, uv, sv = float(l_t.data), float(u_t.data), float(s_t.data)

    def rule(g):
        # (gx, gl, gu, gs), in the order of the node's inputs
        return fq.ste_backward(g, xv, lv, uv, sv)

    return T._record([x, l_t, u_t, s_t], fq_kernel(xv, lv, uv, sv), rule,
                     f"fake_quant[{fq.name}]")


def conv2d_node(x, w, stride, pad):
    """The convolution as one node over (x, w); the x gradient is None
    unless x requires one (the input batch does not)."""
    out, vjp = _conv2d(x.data, w.data, stride, pad, x.requires_grad)
    return T._record([x, w], out, vjp, "conv2d")


def bias_node(y, b):
    """The bias add of a layer as one node over (y, b)."""
    out, vjp = _bias(y.data, b.data)
    return T._record([y, b], out, vjp, "bias")


def batchnorm_node(bn, x, train):
    """BatchNorm.normalize as one node over (x, gamma, beta)."""
    out, vjp = bn.normalize(x.data, train)
    return T._record([x, bn.gamma, bn.beta], out, vjp, "batchnorm")


def model_forward(model, x, train):
    """Model.forward on the graph: layer_forward per layer."""
    h = T.as_tensor(x)
    for layer in model.layers:
        h = layer_forward(layer, h, train)
    return h


def chain_on_tape(entries, outputs, x):
    """The entries of a recorded chain as nodes on the general tape.

    outputs holds each entry's output array (the loss entry's scalar) and
    x is the chain's input tensor. Every entry becomes a node over
    (previous output, *params). Returns the last node, the loss, and the
    node before it, the logits.
    """
    nodes = [x]
    for e, out in zip(entries, outputs):
        nodes.append(T._record([nodes[-1], *e.params], out, e.rule, e.name))
    return nodes[-1], nodes[-2]


def floored_probs_t(p):
    pf = P.maximum(p, PROB_FLOOR)
    z = P.sum_(pf, axis=1, keepdims=True)
    return P.div(pf, P.broadcast_to(z, p.shape))


def distill_rows(student_logits, teacher_logits, labels=None, kind="jeffreys"):
    """Per-sample distillation distance as a graph tensor of shape [B]."""
    pf = floored_probs_t(P.softmax_rows(student_logits))
    if kind == "hard_label_ce":
        return P.neg(P.log(P.select_columns(pf, labels)))
    q = floor_normalize(softmax(teacher_logits))
    if kind == "jeffreys":
        diff = P.sub(pf, T.constant(q))
        logdiff = P.sub(P.log(pf), T.constant(np.log(q)))
        return P.sum_(P.mul(diff, logdiff), axis=1)
    # asymmetric teacher-student CE: -sum q log p
    return P.neg(P.sum_(P.mul(T.constant(q), P.log(pf)), axis=1))


def hard_label_loss(logits, labels):
    return P.mean(distill_rows(logits, None, labels, "hard_label_ce"))


def potential(weight_fqs, act_fqs, targets):
    def group(fqs, target):
        hinges = [P.maximum(P.sub(bitwidth_tensor(fq), float(target)), 0.0)
                  for fq in fqs]
        acc = hinges[0]
        for h in hinges[1:]:
            acc = P.add(acc, h)
        return P.mul(acc, 1.0 / len(hinges))

    return P.add(group(weight_fqs, targets[0]), group(act_fqs, targets[1]))


def total_loss(student_logits, teacher_logits, weight_fqs, act_fqs, targets,
               w_p, labels=None, kind="jeffreys"):
    d = P.mean(distill_rows(student_logits, teacher_logits, labels, kind))
    p_t = potential(weight_fqs, act_fqs, targets)
    return P.add(P.mul(p_t, w_p), d)


def batchnorm_forward(bn, x, train):
    """BatchNorm.normalize on the graph for a 4-d x: in training on the
    batch statistics, updating bn's running statistics, else on the
    running statistics."""
    axes, pshape = (0, 2, 3), (1, bn.num_features, 1, 1)
    if train:
        mu = P.mean(x, axis=axes, keepdims=True)
        centered = P.sub(x, P.broadcast_to(mu, x.shape))
        var = P.mean(P.mul(centered, centered), axis=axes, keepdims=True)
        bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                           + bn.momentum * mu.data.reshape(-1))
        bn.running_var = ((1 - bn.momentum) * bn.running_var
                          + bn.momentum * var.data.reshape(-1))
        denom = P.sqrt(P.add(var, bn.eps))
        xhat = P.div(centered, P.broadcast_to(denom, x.shape))
    else:
        mu = bn.running_mean.reshape(pshape)
        sd = np.sqrt(bn.running_var.reshape(pshape) + bn.eps)
        xhat = P.div(P.sub(x, T.constant(np.broadcast_to(mu, x.data.shape).copy())),
                     T.constant(np.broadcast_to(sd, x.data.shape).copy()))
    g = P.broadcast_to(P.reshape(bn.gamma, pshape), x.shape)
    b = P.broadcast_to(P.reshape(bn.beta, pshape), x.shape)
    return P.add(P.mul(xhat, g), b)


def layer_forward(layer, x, train):
    """_Layer.forward as a graph of one node per op: the mean over H and W
    of an image that reaches a linear layer, the fake-quant nodes, matmul
    or conv, bias add, batchnorm and relu."""
    if layer.spec.kind == "linear" and x.data.ndim == 4:
        x = P.mean(x, axis=(2, 3))
    if layer.weight_fq is not None:
        x = fake_quant_apply(layer.act_fq, x)
        w = fake_quant_apply(layer.weight_fq, layer.W)
    else:
        w = layer.W
    if layer.spec.kind == "linear":
        y = P.matmul(x, w)
    else:
        y = conv2d_node(x, w, layer.spec.stride, layer.spec.padding)
    y = bias_node(y, layer.b)
    if layer.bn is not None:
        y = batchnorm_node(layer.bn, y, train)
    if layer.spec.activation == "relu":
        y = P.relu(y)
    return y


class RAdamLoop:
    """RAdam.step as a loop over the parameters, one update per parameter.

    Same hyperparameters and expressions as ``gdnsq.optim.RAdam``, with
    per-parameter moment arrays; ``step`` takes the gradients by name.
    """

    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, grads):
        self.t += 1
        t = self.t
        b1, b2 = self.beta1, self.beta2
        b1t, b2t = b1 ** t, b2 ** t
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
        for name, p in self.params:
            g = np.asarray(grads[name], dtype=np.float64)
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1t)
            if rho_t > 4.0:
                r_t = math.sqrt(
                    (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
                    / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
                )
                v_hat = np.sqrt(v / (1.0 - b2t))
                p.data = p.data - self.lr * r_t * m_hat / (v_hat + self.eps)
            else:
                p.data = p.data - self.lr * m_hat
