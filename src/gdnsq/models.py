"""Desk-scale models: MLPs and a small conv net, FP or with quantized inner layers.

A model is an ordered list of linear / conv2d layers. When built quantized,
every inner layer (all but the first and last) gets a weight quantizer on
its kernel and an activation quantizer on its input; first and last layers
stay floating point. Conv blocks are conv-bn-relu, and a linear layer has
no batchnorm; a linear layer that gets an image first averages it over H
and W (the global average pool), which bridges the last conv layer to the
linear head. Batchnorm uses momentum 0.1 and eps 1e-5, constants of
``BatchNorm``.

The architectures are named: ``make_model_spec`` builds each from its id
and two sizes, and a checkpoint names its model by exactly those three
(``spec_to_dict``), rebuilding it through ``make_model_spec`` on read. A
hand-built ``ModelSpec`` runs in memory but has no id, so it is never
saved.

A forward records exactly when it trains: with ``train=True`` it appends
one chain entry per layer (``gdnsq.tensor``), with ``train=False`` it
appends nothing. Either way it takes and returns plain ndarrays and
passes them from layer to layer; a conv layer's arrays stay batch-last in
memory (``gdnsq.kernels``). A layer's forward composes numpy pieces that
return their output with a vector-Jacobian product
(``FakeQuantizer.fake_quant``, ``_linear`` or ``_conv2d``, ``_bias``,
``BatchNorm.normalize``); its rule runs those products in reverse and
draws the weight site's probes before the activation site's, the order of
the per-op reference graph (tests/reference_graphs.py), so training is
bit-identical to it. ``train_teacher`` ends the chain in the hard-label
loss entry and sweeps it into the flat gradient buffer of its ``RAdam``.
A forward hands every site, weight and activation alike, to its ``sites``
callback.

Pieces write in place only into arrays they allocated themselves, never
into an argument, an array handed to ``sites`` or an array that a
vector-Jacobian product still reads (tests/test_no_mutation.py): relu
masks the layer's own fresh output, ``BatchNorm.normalize`` and the
fake-quant kernel (``gdnsq.kernels``) each work in their own new buffers.

``Model.named_parameters`` is the one list of a model's tensors; its
checkpoint state (``state_arrays``, ``load_state_arrays``) and the copy of
a teacher's weights are derived from it.

The noise mode of the scale-gradient probe is not a model property: a
quantized model's sites start with the quantizer's default, and the QAT
run that trains them (``pipeline.QatRun``) sets its configured mode and
probe rng on every site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import section
from .errors import (DomainError, FormatError, NumericError, ShapeError,
                     SpecError)
from .kernels import (conv2d_backward_input, conv2d_backward_weight,
                      conv2d_forward, im2col)
from .losses import hard_label_loss
from .optim import RAdam
from .quantizer import FakeQuantizer
from .tensor import Tensor


# A layer's n_in and n_out are its feature counts (linear) or its channel
# counts (conv2d).
@dataclass
class Linear:
    n_in: int
    n_out: int
    activation: str = "relu"
    kind: str = field(default="linear", init=False)


@dataclass
class Conv2d:
    n_in: int
    n_out: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    activation: str = "relu"
    kind: str = field(default="conv2d", init=False)


@dataclass
class ModelSpec:
    layers: list
    num_classes: int
    # the make_model_spec id it was built from; None for a hand-built spec
    model_id: str | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.layers:
            raise SpecError("empty layer list")
        for i in range(1, len(self.layers)):
            n_in, prev_out = self.layers[i].n_in, self.layers[i - 1].n_out
            if n_in != prev_out:
                raise SpecError(
                    f"layer {i} expects {n_in} inputs but layer {i-1} "
                    f"produces {prev_out}"
                )
        last = self.layers[-1]
        if last.kind != "linear" or last.n_out != self.num_classes:
            raise SpecError("final layer must be linear emitting num_classes")


def make_model_spec(spec_id: str, in_features: int, num_classes: int) -> ModelSpec:
    """Named desk-scale architectures. `in_features` is the flat input size
    for MLPs and the channel count for the conv net."""
    h = 48
    if spec_id == "mlp2":
        layers = [Linear(in_features, h), Linear(h, num_classes, "identity")]
    elif spec_id == "mlp3":
        layers = [Linear(in_features, h), Linear(h, h),
                  Linear(h, num_classes, "identity")]
    elif spec_id == "mlp4":
        layers = [Linear(in_features, h), Linear(h, h), Linear(h, h),
                  Linear(h, num_classes, "identity")]
    elif spec_id == "conv3":
        layers = [
            Conv2d(in_features, 8, stride=2),
            Conv2d(8, 16, stride=2),
            Conv2d(16, 16, stride=2),
            Linear(16, num_classes, "identity"),
        ]
    else:
        raise SpecError(f"unknown model spec id {spec_id!r}")
    spec = ModelSpec(layers, num_classes)
    spec.model_id = spec_id
    return spec


def spec_to_dict(spec: ModelSpec) -> dict:
    """The JSON object of spec: its make_model_spec id and sizes. SpecError
    for a hand-built spec, which has no id to be rebuilt from."""
    if spec.model_id is None:
        raise SpecError("a hand-built model spec has no id and is not saved")
    return {"model": spec.model_id, "in": spec.layers[0].n_in,
            "classes": spec.num_classes}


def spec_from_dict(d: dict) -> ModelSpec:
    """The spec spec_to_dict wrote, rebuilt by make_model_spec; FormatError
    for a missing key and a size that is not an integer >= 1, SpecError
    for an unknown id."""
    try:
        model_id, sizes = d["model"], (d["in"], d["classes"])
    except KeyError as e:
        raise FormatError(f"spec has no key {e.args[0]!r}") from None
    except TypeError:  # a list or number where an object belongs
        raise FormatError("spec is not a JSON object") from None
    for key, v in zip(("in", "classes"), sizes):
        if type(v) is not int or v < 1:
            raise FormatError(f"spec {key!r} is {v!r}, not an integer >= 1")
    return make_model_spec(model_id, *sizes)


class BatchNorm:
    """Batch normalization: batch statistics in training, running
    statistics in eval, over a [B, C, H, W] input (a conv layer's output,
    the only one with batchnorm).

    ``normalize`` computes the output and, in training, its
    vector-Jacobian product in numpy; the layer entry composes them into
    its own rule. The gradient is the closed form of Ioffe & Szegedy
    (arXiv:1502.03167), written on the two sums the parameter gradients
    need anyway: with N elements per channel and the sums over the batch
    and spatial axes, dgamma = sum(g * xhat), dbeta = sum(g),
    xhat = (x - mu) / sd and
    dx = (g - dbeta / N - xhat * dgamma / N) * gamma / sd.
    An eval forward normalizes with the running statistics and returns no
    product. The forward runs the numpy ops of the primitive-op graph in
    tests/reference_graphs.py in the same order, so its values and the
    running-statistic update match that graph bit for bit.

    In place: the new buffer x - mu becomes xhat, and in training the
    buffer of its squares then receives the output (in eval, xhat does).
    The product allocates g * xhat, which after the dgamma sum receives
    xhat * dgamma / N, and one buffer for dx; it reads xhat and g and
    writes neither, so it can run more than once.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, num_features):
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def normalize(self, xd: np.ndarray, train: bool):
        """The batchnorm output for xd and, in training, its
        vector-Jacobian product onto (x, gamma, beta), else None. Training
        also updates the running statistics."""
        if xd.ndim != 4:
            raise ShapeError(f"batchnorm expects 4-d input, got {xd.shape}")
        axes, pshape = (0, 2, 3), (1, self.num_features, 1, 1)
        gamma = self.gamma.data.reshape(pshape)
        beta = self.beta.data.reshape(pshape)
        if not train:
            xhat = xd - self.running_mean.reshape(pshape)
            xhat /= np.sqrt(self.running_var.reshape(pshape) + self.eps)
            xhat *= gamma
            xhat += beta
            return xhat, None
        inv_n = 1.0 / math.prod(xd.shape[ax] for ax in axes)
        mu = xd.sum(axis=axes, keepdims=True) * inv_n
        xhat = xd - mu
        sq = xhat * xhat
        var = sq.sum(axis=axes, keepdims=True) * inv_n
        self.running_mean = ((1 - self.momentum) * self.running_mean
                             + self.momentum * mu.reshape(-1))
        self.running_var = ((1 - self.momentum) * self.running_var
                            + self.momentum * var.reshape(-1))
        sd = np.sqrt(var + self.eps)
        xhat /= sd
        out = np.multiply(xhat, gamma, out=sq)
        out += beta

        def vjp(g):
            gxhat = g * xhat
            g_gamma = gxhat.sum(axis=axes, keepdims=True)
            g_beta = g.sum(axis=axes, keepdims=True)
            np.multiply(xhat, g_gamma * inv_n, out=gxhat)
            gx = g - g_beta * inv_n
            gx -= gxhat
            gx *= gamma / sd
            return gx, g_gamma.reshape(-1), g_beta.reshape(-1)

        return out, vjp


def _bias(y, b):
    """y plus the bias b on its feature or channel axis (axis 1), and the
    vector-Jacobian product onto (y, b)."""
    axes = (0,) if y.ndim == 2 else (0, 2, 3)

    def vjp(g):
        return g, g.sum(axis=axes)

    return y + b.reshape((1, -1) + (1,) * (y.ndim - 2)), vjp


def _linear(xd, wd, input_grad):
    """xd @ wd and its vector-Jacobian product onto (x, w); the x gradient
    is None unless input_grad."""

    def vjp(g):
        return (g @ wd.T if input_grad else None), xd.T @ g

    return xd @ wd, vjp


def _conv2d(xd, wd, stride, pad, input_grad):
    """The convolution of xd by wd and its vector-Jacobian product onto
    (x, w); the x gradient is None unless input_grad. The forward and the
    weight gradient share one im2col matrix of xd."""
    cols = im2col(xd, wd.shape[2], wd.shape[3], stride, pad)

    def vjp(g):
        gx = (conv2d_backward_input(g, wd, xd.shape, stride, pad)
              if input_grad else None)
        return gx, conv2d_backward_weight(g, xd, wd.shape, stride, pad,
                                          cols=cols)

    return conv2d_forward(xd, wd, stride, pad, cols=cols), vjp


class _Layer:
    """One linear or conv layer, with batchnorm if it is conv, and
    optional quantizers.

    A training ``forward`` records the whole layer as one chain entry over
    its input array, its ``params()`` and the raw parameters of the weight
    site and then of the activation site; an eval forward records nothing.
    Its forward runs, in numpy: for a linear layer that gets an image
    [B, C, H, W], the mean over H and W (a batch-last image gives a
    channel-major [B, C] result), then activation fake-quant, weight
    fake-quant, matmul or conv, bias add, batchnorm, then y * (y > 0) for
    relu, written into the layer's own output. Its rule composes the
    pieces' vector-Jacobian products in reverse: relu mask, batchnorm, bias
    sum, GEMM or conv gradients, the weight site's STE gradient, the
    activation site's, and last the mean's, which spreads each gradient
    evenly over the H*W positions it averaged. That is the order in which
    the reverse sweep of the primitive layer graph (kept in
    tests/reference_graphs.py) draws the Bernoulli probes from the shared
    rng, so training is bit-identical to that graph. The rule computes the input's gradient
    only when the input is quantized or input_grad is set. An input whose
    rank or whose feature or channel count does not fit the layer raises
    ShapeError.
    """

    def __init__(self, spec, rng, name):
        self.spec = spec
        self.name = name
        self.weight_fq = None
        self.act_fq = None
        if spec.kind == "linear":
            shape, fan_in = (spec.n_in, spec.n_out), spec.n_in
            gain = 2.0 if spec.activation == "relu" else 1.0
        else:
            shape = (spec.n_out, spec.n_in, spec.kernel, spec.kernel)
            fan_in, gain = spec.n_in * spec.kernel * spec.kernel, 2.0
        self.W = Tensor(rng.normal(0.0, np.sqrt(gain / fan_in), size=shape),
                        requires_grad=True)
        self.b = Tensor(np.zeros(spec.n_out), requires_grad=True)
        self.bn = BatchNorm(spec.n_out) if spec.kind == "conv2d" else None

    def params(self):
        """W, b, then the batchnorm gamma and beta when present."""
        ps = [self.W, self.b]
        if self.bn is not None:
            ps += [self.bn.gamma, self.bn.beta]
        return ps

    def attach_quantizers(self, rng):
        self.weight_fq = FakeQuantizer("weight", name=f"{self.name}/weight",
                                       rng=rng)
        self.act_fq = FakeQuantizer("activation", name=f"{self.name}/act",
                                    rng=rng)

    def forward(self, x: np.ndarray, train: bool, sites=None,
                input_grad=False) -> np.ndarray:
        spec, bn = self.spec, self.bn
        linear, n_in = spec.kind == "linear", spec.n_in
        if x.ndim not in ((2, 4) if linear else (4,)) or x.shape[1] != n_in:
            want = (f"a 2-d input with {n_in} features or a 4-d one"
                    if linear else "a 4-d input")
            raise ShapeError(f"{self.name}: expected {want} with {n_in} "
                             f"channels, got shape {x.shape}")
        pool = linear and x.ndim == 4
        h = x
        if pool:
            inv_hw = 1.0 / float(x.shape[2] * x.shape[3])
            h = x.sum(axis=(2, 3)) * inv_hw
        quant = self.weight_fq is not None and self.weight_fq.initialized
        params = self.params()
        xd, wd = h, self.W.data
        if quant:
            xd, a_params, a_vjp = self.act_fq.fake_quant(xd)
            wd, w_params, w_vjp = self.weight_fq.fake_quant(wd)
            params += w_params + a_params
        if sites is not None and self.weight_fq is not None:
            sites(self.weight_fq, self.W.data, wd)
            sites(self.act_fq, h, xd)
        # the quantized input's gradient also feeds the activation site
        input_grad = quant or input_grad
        if linear:
            y, op_vjp = _linear(xd, wd, input_grad)
        else:
            y, op_vjp = _conv2d(xd, wd, spec.stride, spec.padding, input_grad)
        y, bias_vjp = _bias(y, self.b.data)
        if bn is not None:
            y, bn_vjp = bn.normalize(y, train)
        relu = spec.activation == "relu"
        if relu:
            mask = y > 0
            y *= mask
        if not train:
            return y

        def rule(g):
            if relu:
                g = g * mask
            bn_grads = ()
            if bn is not None:
                g, *bn_grads = bn_vjp(g)
            g, gb = bias_vjp(g)
            gx, gw = op_vjp(g)
            w_grads = a_grads = ()
            if quant:
                gw, *w_grads = w_vjp(gw)
                gx, *a_grads = a_vjp(gx)
            if pool and gx is not None:
                gx = np.broadcast_to((gx * inv_hw)[:, :, None, None], x.shape)
            return (gx, gw, gb, *bn_grads, *w_grads, *a_grads)

        return T.record(x, params, y, rule, self.name)


class Model:
    def __init__(self, spec: ModelSpec, quantized=False, init_seed=0,
                 quant_rng=None):
        self.spec = spec
        # read by the pipeline benchmark's tracer (pipebench/spans.py) to
        # tell a teacher's forward from a student's
        self.quantized = quantized
        rng = np.random.default_rng([init_seed, 0x6D6F64])
        self.layers = [_Layer(ls, rng, f"layer{i}")
                       for i, ls in enumerate(spec.layers)]
        if quantized:
            if len(spec.layers) < 3:
                raise SpecError(
                    "quantized model needs at least 3 layers so an inner "
                    "layer exists (first and last stay FP)"
                )
            qrng = quant_rng if quant_rng is not None else np.random.default_rng()
            for i in range(1, len(self.layers) - 1):
                self.layers[i].attach_quantizers(qrng)

    # -- structure ---------------------------------------------------------

    def inner_layers(self):
        return [l for l in self.layers if l.weight_fq is not None]

    def weight_quantizers(self):
        return [l.weight_fq for l in self.inner_layers()]

    def act_quantizers(self):
        return [l.act_fq for l in self.inner_layers()]

    def all_quantizers(self):
        return [fq for l in self.inner_layers() for fq in (l.weight_fq, l.act_fq)]

    def named_parameters(self):
        """(name, tensor) in optimizer order: each layer's params() as
        model/{i}/W ..., then each quantizer's raw_params() by tensor name."""
        ps = [(f"model/{i}/{name}", p) for i, l in enumerate(self.layers)
              for name, p in zip(("W", "b", "bn_gamma", "bn_beta"), l.params())]
        return ps + [(t.name, t) for fq in self.all_quantizers()
                     for t in fq.raw_params()]

    # -- forward -------------------------------------------------------------

    def forward(self, x, train=True, sites=None, input_grad=False) -> np.ndarray:
        """The logits of the array x. In training each layer appends its
        chain entry, and the sweep also returns the gradient of x when
        input_grad is set. Each quantized layer calls
        ``sites(fq, x, xq)``, if given, for its weight site with the
        weights and then for its activation site with its input, each with
        their fake-quantized values (x itself until they are initialized):
        once per site per forward."""
        h = np.asarray(x, np.float64)
        for layer in self.layers:
            h = layer.forward(h, train, sites=sites, input_grad=input_grad)
            input_grad = train
        return h

    def predict_logits(self, x) -> np.ndarray:
        return self.forward(x, train=False)

    def accuracy(self, inputs, labels) -> float:
        return logits_accuracy(self.predict_logits(inputs), labels)

    # -- persistence -----------------------------------------------------------

    def _state(self):
        """(section, owner, attribute) of each state array: the named
        parameters (a quantizer's under quant/), then the running stats."""
        for name, p in self.named_parameters():
            yield (name if name.startswith("model/") else f"quant/{name}",
                   p, "data")
        for i, l in enumerate(self.layers):
            if l.bn is not None:
                yield f"model/{i}/bn_rmean", l.bn, "running_mean"
                yield f"model/{i}/bn_rvar", l.bn, "running_var"

    def state_arrays(self):
        """The sections of _state, by reference, and the quantizers'
        initialized flags."""
        out = {key: getattr(owner, attr) for key, owner, attr in self._state()}
        for fq in self.all_quantizers():
            out[f"quant/{fq.name}/initialized"] = np.asarray(
                int(fq.initialized), dtype=np.int64)
        return out

    def load_state_arrays(self, arrays):
        """Hold the arrays state_arrays names, written into the arrays the
        model holds, so a parameter stays a view of its optimizer's flat
        buffer (``optim.RAdam``); without quant/ sections (a teacher's
        state) the quantizers stay as they are. A section that is missing,
        or shaped unlike what it loads into, raises FormatError naming it."""
        student = any(key.startswith("quant/") for key in arrays)
        for key, owner, attr in self._state():
            if student or not key.startswith("quant/"):
                held = getattr(owner, attr)
                held[...] = section(arrays, key, held.shape)
        for fq in self.all_quantizers() if student else ():
            fq.initialized = bool(section(
                arrays, f"quant/{fq.name}/initialized", ()))

    def copy_weights_from(self, other: "Model"):
        """Load other's state (a teacher's); the values are copied into
        this model's own arrays."""
        self.load_state_arrays(other.state_arrays())


def logits_accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose largest logit is at the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train_teacher(spec: ModelSpec, train_ds, val_ds, *, epochs, lam, seed,
                  batch_size):
    """Train the FP reference model with hard-label cross-entropy.

    Each step records the chain, sweeps it into the optimizer's gradient
    buffer and steps. Returns (model, meta); meta["val_acc"] is the val
    accuracy after the last epoch (None for 0 epochs) and ends up in
    checkpoint metadata. Negative epochs or seed, a learning rate outside
    (0, inf) and a batch size below 1 raise DomainError.
    """
    if epochs < 0:
        raise DomainError(f"epochs must be >= 0, got {epochs}")
    if not 0 < lam < np.inf:
        raise DomainError(f"learning rate must be in (0, inf), got {lam}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    model = Model(spec, quantized=False, init_seed=seed)
    opt = RAdam(model.named_parameters(), lr=lam)
    shuffle_rng = np.random.default_rng([seed, 0x7368])
    n = train_ds.inputs.shape[0]
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            T.reset_tape()
            logits = model.forward(train_ds.inputs[idx], train=True)
            loss = hard_label_loss(logits, train_ds.labels[idx])
            if not np.isfinite(loss):
                raise NumericError(
                    f"teacher training diverged at epoch {epoch} "
                    f"(loss {float(loss)!r})"
                )
            T.backward(opt.slots)
            opt.step()
    T.reset_tape()
    val_acc = model.accuracy(val_ds.inputs, val_ds.labels) if epochs else None
    return model, {"val_acc": val_acc}
