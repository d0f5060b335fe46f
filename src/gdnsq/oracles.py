"""Independent numerical verification of the mathematical claims.

Each oracle produces OracleReports whose pass rule is uniformly
|statistic - expected| <= tolerance. Monte-Carlo zero-mean checks use a
4-sigma/sqrt(m) tolerance (false-failure probability < 1e-4 per check).
The rounding-lemma and Jeffreys-Hamming oracles use their own scalar
arithmetic so they stay independent of the quantizer code paths they
cross-check. Two distinct deltas appear: fd_delta is the finite-difference
half-step of the rounding lemma, jeffreys_delta the per-flipped-bit
divergence constant of the binary channel. The gradient checks sweep
the chain that a forward records when it trains (``gdnsq.tensor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import DomainError
from .losses import DISTILL_KINDS, hard_label_loss, teacher_probs, total_loss
from .models import Conv2d, Linear, Model, ModelSpec, _Layer
from .optim import RAdam
from .quantizer import FakeQuantizer
from .tensor import Tensor


@dataclass
class OracleReport:
    name: str
    trials: int
    statistic: float
    expected: float
    tolerance: float
    passed: bool
    details: str = ""

    @classmethod
    def make(cls, name, trials, statistic, expected, tolerance, details=""):
        passed = abs(statistic - expected) <= tolerance
        return cls(name, trials, float(statistic), float(expected),
                   float(tolerance), passed, details)

    def format(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag}  {self.name:<42} statistic={self.statistic:+.6e} "
                f"expected={self.expected:+.6e} tol={self.tolerance:.3e}")


def _round_half_up(x):
    return np.floor(x + 0.5)


# -- rounding lemma: E floor(x + d + 1/2) - E floor(x - d + 1/2) - 2d = 0 ----


def lemma_fd_round(l: int, u: int, fd_delta: float, m: int, seed=0):
    """Monte-Carlo check of the centered-difference rounding identity on
    x ~ Uniform[l, u) with integer bounds, plus the component means."""
    if not (0.0 < fd_delta < 0.5):
        raise DomainError(f"fd_delta must lie in (0, 1/2), got {fd_delta}")
    if not (isinstance(l, (int, np.integer)) and isinstance(u, (int, np.integer))
            and l < u):
        raise DomainError(f"need integer l < u, got l={l}, u={u}")
    rng = np.random.default_rng([seed, 0x4C454D])
    x = rng.uniform(l, u, size=m)
    plus = _round_half_up(x + fd_delta)
    minus = _round_half_up(x - fd_delta)
    diff = plus - minus - 2.0 * fd_delta
    v_hat = float(diff.mean())
    sd = float(diff.std(ddof=1))
    tag = f"[l={l},u={u},d={fd_delta}]"
    reports = [OracleReport.make(
        f"lemma_fd_round{tag}", m, v_hat, 0.0, 4.0 * sd / math.sqrt(m))]
    mid = (l + u) / 2.0
    sd_plus = float(plus.std(ddof=1))
    reports.append(OracleReport.make(
        f"lemma_component_mean{tag}", m, float(plus.mean()), mid + fd_delta,
        4.0 * sd_plus / math.sqrt(m),
        details="E floor(x+d+1/2) against (l+u)/2 + d"))
    return reports


# -- rounding-noise statistics ------------------------------------------------


def noise_uniformity(fq: FakeQuantizer, input_dist="gaussian", m=200_000,
                     seed=0):
    """Moments of the clipped rounding residual r(q(x)) for a busy input:
    mean 0 and variance 1/12 (uniform on [-1/2, 1/2))."""
    rng = np.random.default_rng([seed, 0x4E4F49])
    l, u = fq.bound_values()
    s = fq.scale_value()
    if input_dist == "gaussian":
        x = rng.normal((l + u) / 2.0, (u - l) / 6.0, size=m)
    elif input_dist == "uniform":
        x = rng.uniform(l, u, size=m)
    else:
        raise DomainError(f"unknown input_dist {input_dist!r}")
    v = np.clip(x, l, u) / s
    r = _round_half_up(v) - v
    sd = float(r.std(ddof=1))
    return [
        OracleReport.make(f"noise_mean[{input_dist}]", m, float(r.mean()),
                          0.0, 4.0 * sd / math.sqrt(m)),
        OracleReport.make(f"noise_variance[{input_dist}]", m, float(r.var()),
                          1.0 / 12.0, 0.02 / 12.0,
                          details="variance within 2% of 1/12"),
    ]


def default_noise_quantizer() -> FakeQuantizer:
    # 4-bit site whose clamp range spans mean +- 3 sigma of the gaussian
    # input; l = 0 aligns the grid so clipped tails land on exact levels
    fq = FakeQuantizer("activation", name="oracle/noise")
    fq.init_from_minmax(0.0, 6.0, 4.0)
    return fq


# -- Jeffreys divergence vs Hamming distance ----------------------------------


def _soft_label(b, p0, p1):
    return (1.0 - p0, p0) if b == 0 else (p1, 1.0 - p1)


def _j2(a, b):
    # Jeffreys between two 2-point distributions given as tuples
    def kl(x, y):
        return sum(xi * math.log(xi / yi) for xi, yi in zip(x, y))
    return kl(a, b) + kl(b, a)


def jeffreys_hamming(p0: float, p1: float, n: int = 64, trials: int = 1000,
                     seed=0):
    """Total per-bit Jeffreys divergence equals jeffreys_delta * d_H.

    jeffreys_delta is computed once from a single flipped bit; the check
    sums J over all positions of random (true, observed) vectors and
    compares with the Hamming count, and also verifies the b=1 flip gives
    the same constant.
    """
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0):
        raise DomainError("p0, p1 must lie strictly inside (0, 1)")
    rng = np.random.default_rng([seed, 0x4A4546])
    delta0 = _j2(_soft_label(0, p0, p1), _soft_label(1, p0, p1))
    delta1 = _j2(_soft_label(1, p0, p1), _soft_label(0, p0, p1))
    worst = abs(delta0 - delta1)
    for _ in range(trials):
        b = rng.integers(0, 2, size=n)
        flips = rng.random(n) < rng.uniform(0.05, 0.5)
        bt = np.where(flips, 1 - b, b)
        total = sum(
            _j2(_soft_label(int(bi), p0, p1), _soft_label(int(bo), p0, p1))
            for bi, bo in zip(b, bt)
        )
        d_h = int(np.sum(b != bt))
        worst = max(worst, abs(total - delta0 * d_h))
    return [OracleReport.make(
        f"jeffreys_hamming[p0={p0},p1={p1},n={n}]", trials, worst, 0.0, 1e-9,
        details=f"jeffreys_delta={delta0:.12f}")]


def bsc_reduction(p: float):
    """With p0 = p1 the channel is symmetric: J = 2*KL and J = 2*H(Q(b),
    Q(b~)) - 2*H(Q(b))."""
    if not (0.0 < p < 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    a = _soft_label(0, p, p)
    b = _soft_label(1, p, p)
    j = _j2(a, b)
    kl_ab = sum(x * math.log(x / y) for x, y in zip(a, b))
    cross = -sum(x * math.log(y) for x, y in zip(a, b))
    ent = -sum(x * math.log(x) for x in a)
    worst = max(abs(j - 2.0 * kl_ab), abs(j - (2.0 * cross - 2.0 * ent)))
    details = "trivial: p = 1/2 gives J = 0" if p == 0.5 else ""
    return [OracleReport.make(f"bsc_reduction[p={p}]", 1, worst, 0.0, 1e-12,
                              details=details)]


# -- STE structure ---------------------------------------------------------------


def _fd_scalar(f, x0, h=1e-5):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def ste_gradient_check(seed=0, n=512, kink_radius=1e-3):
    """Clamp-path gradients against finite differences of the clamp
    function (inputs near l, u or grid midpoints excluded), and exact
    equality of the fake-quant vjp's input gradient with the clamp's
    (1 on [l, u], ties included, else 0) on those inputs plus l and u."""
    rng = np.random.default_rng([seed, 0x535445])
    fq = FakeQuantizer("weight", noise_mode="bernoulli", name="oracle/ste",
                       rng=rng)
    fq.init_from_minmax(-1.2, 0.9, 4.0)
    l, u = fq.bound_values()
    s = fq.scale_value()
    x = rng.uniform(l - 0.5, u + 0.5, size=n)
    # keep clear of the clamp kinks and the rounding midpoints
    v = (np.clip(x, l, u) - 0.0) / s
    near_mid = np.abs((v - np.floor(v)) - 0.5) < kink_radius / s
    keep = (np.abs(x - l) > kink_radius) & (np.abs(x - u) > kink_radius) \
        & ~near_mid
    x = x[keep]

    gx, gl, gu, _ = fq.ste_backward(np.ones_like(x), x, l, u, s)

    def clamp_val(xv, lv=l, uv=u):
        return np.minimum(np.maximum(xv, lv), uv)

    worst = 0.0
    h = 1e-6
    fd_x = (clamp_val(x + h) - clamp_val(x - h)) / (2.0 * h)
    worst = max(worst, float(np.max(np.abs(gx - fd_x))))
    fd_l = _fd_scalar(lambda lv: float(np.sum(clamp_val(x, lv=lv))), l, h)
    fd_u = _fd_scalar(lambda uv: float(np.sum(clamp_val(x, uv=uv))), u, h)
    worst = max(worst, abs(float(gl) - fd_l), abs(float(gu) - fd_u))
    rep_fd = OracleReport.make("ste_clamp_fd", int(x.size), worst, 0.0, 1e-6,
                               details="clamp-path grads vs central FD")

    # noise path contributes exactly zero to the input gradient: the
    # fake-quant vjp's x gradient is the clamp's, ties at l and u to x
    xz = np.concatenate([x, [l, u]])
    _, _, vjp = fq.fake_quant(xz)
    gxz = vjp(np.ones_like(xz))[0]
    ref = ((xz >= l) & (xz <= u)).astype(np.float64)
    exact = float(np.max(np.abs(gxz - ref)))
    rep_zero = OracleReport.make(
        "ste_noise_zero", int(xz.size), exact, 0.0, 0.0,
        details="fake-quant x-grad == clamp-only x-grad, exactly")
    return [rep_fd, rep_zero]


def bernoulli_clt_check(m: int = 100, trials: int = 10_000, seed=0):
    """Batch means of the variance-matched Bernoulli probe behave like
    N(0, (1/12)/m), and match true uniform rounding noise at the same
    variance.

    The probes are the ones training draws: each trial calls
    ``FakeQuantizer.ste_backward`` on m inputs inside [l, u] with upstream
    gradient 1/m, so its scale gradient is the batch mean of the probe.
    """
    if m < 1:
        raise DomainError("batch size must be >= 1")
    rng = np.random.default_rng([seed, 0x434C54])
    fq = FakeQuantizer("weight", "bernoulli_variance_matched",
                       name="oracle/clt", rng=rng)
    x, g = np.zeros(m), np.full(m, 1.0 / m)
    means = np.array([float(fq.ste_backward(g, x, -1.0, 1.0, 1.0)[3])
                      for _ in range(trials)])
    var_target = (1.0 / 12.0) / m
    sd = float(means.std(ddof=1))
    reports = [
        OracleReport.make(f"bernoulli_clt_mean[m={m}]", trials,
                          float(means.mean()), 0.0,
                          4.0 * sd / math.sqrt(trials)),
        OracleReport.make(f"bernoulli_clt_variance[m={m}]", trials,
                          float(means.var(ddof=1)), var_target,
                          0.05 * var_target,
                          details="variance of batch means vs (1/12)/m"),
    ]
    uni = rng.uniform(-0.5, 0.5, size=(trials, m))
    ratio = float(means.var(ddof=1) / uni.mean(axis=1).var(ddof=1))
    reports.append(OracleReport.make(
        f"bernoulli_vs_uniform_ratio[m={m}]", trials, ratio, 1.0, 0.1,
        details="variance ratio of proxy vs true-uniform batch means"))
    return reports


# -- gradient integrity over random models ----------------------------------------


def finite_difference_grads(f, arrays, h=1e-5):
    """Central finite differences of scalar f(list of arrays) wrt each entry."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = f(arrays)
            flat[i] = keep - h
            fm = f(arrays)
            flat[i] = keep
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def _relu_margin(layers, x):
    """The smallest |input| of any relu when x runs through layers in train
    mode, as in Model.forward (inf without a relu), and the output. The
    relu runs off the chain, so each layer records on a fresh one."""
    margin, h = np.inf, x
    for layer in layers:
        spec = layer.spec
        layer.spec = replace(spec, activation="identity")
        T.reset_tape()
        pre = layer.forward(h, train=True)
        layer.spec = spec
        if spec.activation == "relu":
            margin = min(margin, float(np.min(np.abs(pre))))
            pre = pre * (pre > 0)
        h = pre
    return margin, h


def _weighted_sum(y, coeff):
    """sum(y * coeff) as the chain's loss entry on its output y: a scalar
    loss on a non-scalar y."""
    return T.record(y, (), np.sum(y * coeff), lambda g: (g * coeff,),
                    "weighted_sum")


def _chain_grads(loss, x, params):
    """Gradients of loss(x, True) with respect to x and each parameter,
    from one reverse sweep of the chain the loss records, as training
    takes them."""
    slots = {p: np.zeros(p.data.shape) for p in params}
    loss(x, True)
    gx = T.backward(slots)
    T.reset_tape()
    return [gx] + [slots[p] for p in params]


def _max_rel_error(analytic, numeric):
    worst = 0.0
    for a, nmr in zip(analytic, numeric):
        denom = np.maximum(np.abs(nmr), 1.0)
        worst = max(worst, float(np.max(np.abs(a - nmr) / denom)))
    return worst


def _gradcheck(name, n_cases, case, rtol, details):
    """The report of the largest relative error, over the cases case(i) =
    (loss, x, params) for i < n_cases, of the gradients of loss(x,
    input_grad) from one reverse sweep (_chain_grads) against central
    differences, with respect to x and each parameter."""
    worst = 0.0
    for i in range(n_cases):
        loss, x, params = case(i)
        analytic = _chain_grads(loss, x, params)
        # the parameter tensors hold these arrays, so FD edits reach them
        numeric = finite_difference_grads(
            lambda arrs: float(loss(arrs[0], False)),
            [x] + [p.data for p in params])
        T.reset_tape()
        worst = max(worst, _max_rel_error(analytic, numeric))
    return [OracleReport.make(name, n_cases, worst, 0.0, rtol,
                              details=details)]


def _randomize_bias_and_bn(layer, rng):
    """A nonzero bias and, with batchnorm, random gamma and beta."""
    n_out = layer.b.data.size
    layer.b.data[...] = rng.normal(size=n_out)
    if layer.bn is not None:
        layer.bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=n_out)
        layer.bn.beta.data[...] = rng.normal(size=n_out)


def _random_fp_model(rng, conv):
    """A random FP Model with nonzero biases and batchnorm parameters: an
    MLP of depth 2 or 3, or (conv) a stride-2 conv-bn-relu block and a
    linear head, which averages the image over H and W. Returns it with an
    input batch shape and the class count."""
    b, c = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    if conv:
        c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        layers, head = [Conv2d(c_in, c_out, stride=2)], c_out
        x_shape = (b, c_in, int(rng.integers(3, 6)), int(rng.integers(3, 6)))
    else:
        dims = [int(rng.integers(2, 5))] + [
            int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
        layers = [Linear(i, o) for i, o in zip(dims, dims[1:])]
        head, x_shape = dims[-1], (b, dims[0])
    model = Model(ModelSpec(layers + [Linear(head, c, "identity")], c),
                  init_seed=int(rng.integers(1 << 30)))
    for layer in model.layers:
        _randomize_bias_and_bn(layer, rng)
    return model, x_shape, c


def gradcheck_random_models(n_models: int = 100, seed=0, rtol=1e-4):
    """Gradients of random FP Models under hard_label_loss, the chain and
    the reverse sweep the training step runs, vs central differences:
    with respect to the input batch and every parameter (W, b, batchnorm
    gamma and beta), every third model a conv net (_random_fp_model),
    every relu input at least 1e-3 from the kink."""
    rng = np.random.default_rng([seed, 0x475243])

    def case(i):
        model, x_shape, c = _random_fp_model(rng, conv=i % 3 == 2)
        x = rng.normal(size=x_shape)
        while _relu_margin(model.layers, x)[0] < 1e-3:
            x = rng.normal(size=x_shape)
        labels = rng.integers(0, c, size=x_shape[0])

        def loss(x, input_grad):
            T.reset_tape()
            return hard_label_loss(
                model.forward(x, train=True, input_grad=input_grad), labels)

        return loss, x, [p for _, p in model.named_parameters()]

    return _gradcheck("gradcheck_random_models", n_models, case, rtol,
                      "max relative error vs central FD")


def _random_loss_case(rng):
    """Logits, teacher logits, labels, quantizer sites of both kinds, their
    targets and the potential's weight, with every hinge at least 1e-3
    bits from its target."""
    b, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    logits = rng.normal(scale=2.0, size=(b, c))
    teacher = rng.normal(scale=2.0, size=(b, c))
    # rows whose other probabilities fall under the floor
    logits[0, 0] += 40.0
    teacher[-1, 0] += 40.0
    labels = rng.integers(0, c, size=b)
    groups = []
    for site_kind in ("weight", "activation"):
        fqs = []
        for i in range(int(rng.integers(1, 4))):
            fq = FakeQuantizer(site_kind, name=f"oracle/{site_kind}{i}",
                               rng=rng)
            lo = 0.0 if site_kind == "activation" else -rng.uniform(0.2, 2.0)
            fq.init_from_minmax(lo, rng.uniform(0.2, 2.0), rng.uniform(2.0, 8.0))
            fqs.append(fq)
        omegas = np.array([fq.bitwidth_value() for fq in fqs])
        target = rng.uniform(2.0, 8.0)
        while np.min(np.abs(omegas - target)) < 1e-3:
            target = rng.uniform(2.0, 8.0)
        groups.append((fqs, target))
    t_q, c_r = rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0)
    return logits, teacher, labels, groups, t_q * c_r


def gradcheck_total_loss(n_cases: int = 30, seed=0, rtol=1e-4):
    """Gradients of total_loss with respect to the student logits and every
    quantizer parameter, from the reverse sweep of its loss entry, vs
    central differences, cycling over the three distillation kinds."""
    rng = np.random.default_rng([seed, 0x544C47])

    def case(i):
        kind = DISTILL_KINDS[i % len(DISTILL_KINDS)]
        logits, teacher, labels, groups, w_p = _random_loss_case(rng)
        (wfqs, wbits), (afqs, abits) = groups
        probs = teacher_probs(teacher)

        def loss(z, input_grad):
            T.reset_tape()
            return total_loss(z, probs, wfqs, afqs, (wbits, abits), w_p,
                              labels=labels, kind=kind)[0]

        return loss, logits, [t for fq in wfqs + afqs for t in fq.raw_params()]

    return _gradcheck("gradcheck_total_loss", n_cases, case, rtol,
                      "logit and quantizer-parameter grads of the loss vs "
                      "central FD")


LAYER_NODE_KINDS = ("linear_relu", "linear_identity", "conv_bn_train")


def _layer_node_case(rng, kind):
    """A random FP layer of `kind` with nonzero bias (and, if conv,
    batchnorm parameters), an input whose relu inputs all sit at least 1e-3 from the
    kink, the layer's parameters and output weights for a scalar loss."""
    b = int(rng.integers(2, 5))
    if kind == "conv_bn_train":
        c, o = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        spec = Conv2d(c, o, kernel=3, stride=2, padding=1)
        x_shape = (b, c, int(rng.integers(4, 7)), int(rng.integers(4, 7)))
    else:
        din, n_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        spec = Linear(din, n_out, "relu" if kind == "linear_relu"
                      else "identity")
        x_shape = (b, din)
    layer = _Layer(spec, rng, "oracle")
    _randomize_bias_and_bn(layer, rng)
    while True:
        x = rng.normal(size=x_shape)
        margin, out = _relu_margin([layer], x)
        if margin >= 1e-3:
            return layer, x, layer.params(), rng.normal(size=out.shape)


def gradcheck_layer_nodes(n_cases: int = 12, seed=0, rtol=1e-4):
    """Gradients of FP layer entries (_Layer.forward) with respect to x, W,
    b and the batchnorm gamma and beta, from the reverse sweep, vs central
    differences, cycling over linear + relu, linear + identity and a
    stride-2, pad-1 conv with batchnorm in train mode."""
    rng = np.random.default_rng([seed, 0x4C4159])

    def case(i):
        layer, x, params, coeff = _layer_node_case(
            rng, LAYER_NODE_KINDS[i % len(LAYER_NODE_KINDS)])

        def loss(x, input_grad):
            T.reset_tape()
            y = layer.forward(x, train=True, input_grad=input_grad)
            return _weighted_sum(y, coeff)

        return loss, x, params

    return _gradcheck("gradcheck_layer_nodes", n_cases, case, rtol,
                      "FP layer-node grads (linear relu/identity, conv + "
                      "batchnorm) vs central FD")


# -- optimizer cross-check ----------------------------------------------------------


def _radam_scalar_reference(x0, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    # minimizes f(x) = x^2; written independently of optim.RAdam
    x, m, v = float(x0), 0.0, 0.0
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    path = []
    for t in range(1, steps + 1):
        g = 2.0 * x
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        rho = rho_inf - 2.0 * t * b2 ** t / (1.0 - b2 ** t)
        if rho > 4.0:
            r = math.sqrt((rho - 4.0) * (rho - 2.0) * rho_inf
                          / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho))
            x = x - lr * r * m_hat / (math.sqrt(v / (1.0 - b2 ** t)) + eps)
        else:
            x = x - lr * m_hat
        path.append(x)
    return path


def radam_reference_check(steps: int = 10, lr: float = 0.1):
    p = Tensor(1.0, requires_grad=True)
    opt = RAdam([("x", p)], lr=lr)
    worst = 0.0
    ref = _radam_scalar_reference(1.0, lr, steps)
    for t in range(steps):
        opt.g["x"][...] = 2.0 * float(p.data)
        opt.step()
        worst = max(worst, abs(float(p.data) - ref[t]))
    return [OracleReport.make("radam_reference", steps, worst, 0.0, 1e-10,
                              details="trajectory vs independent scalar RAdam")]


# -- registry -------------------------------------------------------------------


def oracle_registry(seed=0):
    """(group name, thunk) pairs for every check in the suite."""
    entries = []
    for l, u, d in ((0, 4, 0.25), (-3, 2, 0.1), (0, 1, 0.49)):
        entries.append((f"lemma_fd_round[l={l},u={u},d={d}]",
                        lambda l=l, u=u, d=d: lemma_fd_round(
                            l, u, d, m=1_000_000, seed=seed)))
    entries.append(("noise_uniformity[gaussian]",
                    lambda: noise_uniformity(default_noise_quantizer(),
                                             "gaussian", seed=seed)))
    entries.append(("noise_uniformity[uniform]",
                    lambda: noise_uniformity(default_noise_quantizer(),
                                             "uniform", seed=seed)))
    for p0, p1 in ((0.1, 0.1), (0.2, 0.05), (0.4, 0.3)):
        entries.append((f"jeffreys_hamming[p0={p0},p1={p1},n=64]",
                        lambda p0=p0, p1=p1: jeffreys_hamming(
                            p0, p1, n=64, trials=1000, seed=seed)))
    for p in (0.1, 0.3, 0.5):
        entries.append((f"bsc_reduction[p={p}]", lambda p=p: bsc_reduction(p)))
    entries.append(("ste_gradient_check",
                    lambda: ste_gradient_check(seed=seed)))
    entries.append(("bernoulli_clt_check[m=100]",
                    lambda: bernoulli_clt_check(m=100, trials=10_000,
                                                seed=seed)))
    entries.append(("bernoulli_clt_check[m=1]",
                    lambda: bernoulli_clt_check(m=1, trials=10_000,
                                                seed=seed)))
    entries.append(("gradcheck_random_models",
                    lambda: gradcheck_random_models(n_models=100, seed=seed)))
    entries.append(("gradcheck_total_loss",
                    lambda: gradcheck_total_loss(n_cases=30, seed=seed)))
    entries.append(("gradcheck_layer_nodes",
                    lambda: gradcheck_layer_nodes(n_cases=12, seed=seed)))
    entries.append(("radam_reference", radam_reference_check))
    return entries


def run_all(name_filter=None, seed=0):
    """Run the oracle suite; returns the list of OracleReports."""
    reports = []
    for name, thunk in oracle_registry(seed=seed):
        if name_filter and name_filter not in name:
            continue
        reports.extend(thunk())
    return reports
