"""Fake quantizer with learnable scale and clamp bounds.

Forward computes the dequantized value D(Q(x)) = clamp(x,l,u) + s*r(q(x))
with q(x) = (clamp(x,l,u) - z)/s, r(v) = floor(v + 1/2) - v and z fixed at
0. The implementation evaluates the algebraically equal grid form
s*round(clamp(x)/s) so that every element of a bucket yields the exact
same float (the unique-value audit depends on this).

Backward follows the straight-through overrides: the noise term s*r
contributes exactly zero to the input gradient, and its scale gradient is
a per-element probe whose distribution is picked by ``noise_mode``:

* ``bernoulli``: samples from {-1/2, +1/2} (default),
* ``bernoulli_variance_matched``: the same probe scaled by 1/sqrt(3) so
  its variance matches uniform rounding noise on [-1/2, 1/2),
* ``rounding_residual``: the true clipped residual r(q(x)).

The Bernoulli probe of n elements is read from the raw stream of the
site's bit generator (PCG64 by default): ceil(n/64) 64-bit words from
``bit_generator.random_raw``, taken as little-endian bytes, each byte
giving eight signs most significant bit first, +1/2 for a set bit and
-1/2 for a clear one; the first n signs are the probe, in the memory order
of x, and the unused bits of the last word are dropped. Memory order runs
over x's axes from the largest stride to the smallest: the C order of a
C-contiguous x (every weight and every MLP activation), and channel, row,
column, image of a conv activation, which is batch-last in memory
(``gdnsq.kernels``).

Clamp-path gradients are ordinary almost-everywhere derivatives: gradient
flows to x on [l, u] (ties included), to l below, to u above.

Positivity and ordering constraints are carried by the parameterization:
s = exp(log_s); weight sites learn l and log_range with u = l +
exp(log_range); activation sites following relu keep l = 0 and learn u
through a softplus. ``raw_params`` lists these tensors; the model names,
optimizes and checkpoints them (``models.Model.named_parameters``).

Gradients with respect to these raw parameters are closed-form, and
reach the chain (``gdnsq.tensor``) as Python floats.
``fake_quant`` returns the numpy output with its vector-Jacobian product,
which takes the STE gradients for (s, l, u) from ``ste_backward`` through
exp and the softplus; a model layer composes it into its own chain entry.
``bitwidth`` returns omega = log2((u - l)/s + 1) with its vector-Jacobian
product, whose log_s part -ratio/((ratio + 1) ln 2) is the LSQ step-size
gradient (Esser et al., arXiv:1902.08153); the potential entry in
``losses`` is built on it.

``FusedLinear`` is the integer-only inference form of a quantized linear
layer (Jacob et al., arXiv:1712.05877): the weight site's integer levels
``kernels.grid_levels`` of the stored weights, the weight and activation
scales and the activation clamp bounds. ``pipeline.fuse_student`` builds
it and ``pipeline.fused_model_forward`` is the one forward that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRangeError, DomainError
from .kernels import fake_quant as fq_kernel
from .kernels import round_half_up
from .tensor import Tensor

NOISE_MODES = ("bernoulli", "bernoulli_variance_matched", "rounding_residual")

_INV_SQRT3 = 1.0 / np.sqrt(3.0)
_INV_LN2 = float(1.0 / np.log(2.0))

# row b: the eight probe signs of byte b, most significant bit first
_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 0.5
_PROBE_TABLES = {"bernoulli": _SIGNS,
                 "bernoulli_variance_matched": _SIGNS * _INV_SQRT3}


def softplus_inv(y: float) -> float:
    """Inverse of log(1 + exp(x)), stable for large y."""
    if y > 30.0:
        return y + np.log1p(-np.exp(-y))
    if y <= 0.0:
        raise DomainError(f"softplus_inv needs y > 0, got {y}")
    return float(np.log(np.expm1(y)))


class FakeQuantizer:
    """Learnable (s, l, u) for one weight or activation site."""

    def __init__(self, site_kind, noise_mode="bernoulli", name=None, rng=None):
        if site_kind not in ("weight", "activation"):
            raise DomainError(f"unknown site_kind {site_kind!r}")
        if noise_mode not in NOISE_MODES:
            raise DomainError(f"unknown noise_mode {noise_mode!r}")
        self.site_kind = site_kind
        self.noise_mode = noise_mode
        self.name = name or site_kind
        self.lower_fixed_zero = site_kind == "activation"
        self.rng = rng if rng is not None else np.random.default_rng()
        self.initialized = False
        self.log_s = Tensor(0.0, requires_grad=True, name=f"{self.name}/log_s")
        if self.lower_fixed_zero:
            self.raw_u = Tensor(softplus_inv(1.0), requires_grad=True,
                                name=f"{self.name}/raw_u")
            self.l_param = None
            self.log_range = None
        else:
            self.l_param = Tensor(-1.0, requires_grad=True,
                                  name=f"{self.name}/l")
            self.log_range = Tensor(np.log(2.0), requires_grad=True,
                                    name=f"{self.name}/log_range")
            self.raw_u = None

    # -- parameter plumbing ---------------------------------------------

    def raw_params(self):
        """The learnable tensors: log_s, then raw_u or (l, log_range)."""
        if self.lower_fixed_zero:
            return [self.log_s, self.raw_u]
        return [self.log_s, self.l_param, self.log_range]

    def init_from_minmax(self, lo: float, hi: float, bits: float):
        """Set (l, u) to the observed range and s so the bit-width is `bits`;
        raise DegenerateRangeError unless hi > l (l = 0 at activations)."""
        if self.lower_fixed_zero:
            lo = 0.0
        if not hi > lo:
            raise DegenerateRangeError(
                f"{self.name}: cannot initialize from degenerate range "
                f"[{lo}, {hi}]"
            )
        if self.lower_fixed_zero:
            self.raw_u.data = np.asarray(softplus_inv(hi))
        else:
            self.l_param.data = np.asarray(float(lo))
            self.log_range.data = np.asarray(np.log(hi - lo))
        s = (hi - lo) / (2.0 ** bits - 1.0)
        self.log_s.data = np.asarray(np.log(s))
        self.initialized = True

    # -- chain entries ------------------------------------------------------

    def _node_view(self):
        """(l, u, s) as floats, the parameter tensors a chain entry over
        this site writes gradients to, and the map from gradients with
        respect to (s, l, u) to gradients of those tensors.

        s = exp(log_s). Weight sites: u = l + exp(log_range). Activation
        sites: l = 0 and u = softplus(raw_u) = max(r, 0) + log(exp(-|r|) +
        1), whose derivative is sigmoid(r); raw_u is listed once per term,
        so each term's gradient is accumulated on its own, as in the
        primitive graph of the same expression.
        """
        s = float(np.exp(self.log_s.data))
        if self.lower_fixed_zero:
            r = float(self.raw_u.data)
            e = float(np.exp(-abs(r)))
            u = max(r, 0.0) + float(np.log(e + 1.0))

            def chain(gs, gl, gu):
                t = gu / (e + 1.0) * e  # |d log term| = g e/(e + 1)
                return gs * s, (-t if r >= 0.0 else t), gu * (r >= 0.0)

            return 0.0, u, s, [self.log_s, self.raw_u, self.raw_u], chain
        l = float(self.l_param.data)
        e = float(np.exp(self.log_range.data))
        return l, l + e, s, self.raw_params(), \
            lambda gs, gl, gu: (gs * s, gl + gu, gu * e)

    def bitwidth(self):
        """omega = log2((u - l)/s + 1), the parameter tensors it depends
        on and its vector-Jacobian product onto them.

        With k = g/((ratio + 1) ln 2), ratio = (u - l)/s: d/du = k/s,
        d/dl = -k/s and d/ds = -k (u - l)/s^2, so d/d log_s = -k ratio (the
        LSQ step-size form). For weight sites u - l = exp(log_range) and
        the l gradient is exactly zero.
        """
        l, u, s, inputs, chain = self._node_view()
        width = u - l
        ratio1 = width / s + 1.0

        def vjp(g):
            k = g * _INV_LN2 / ratio1
            return chain(-k * width / (s * s), -(k / s), k / s)

        return float(np.log(ratio1) * _INV_LN2), inputs, vjp

    def fake_quant(self, xv: np.ndarray):
        """Fake-quantized xv, the parameter tensors it depends on and its
        vector-Jacobian product onto (x, *those tensors).

        The product draws this site's probes when it is called, so callers
        fix the draw order by the order in which they call it.
        """
        l, u, s, inputs, chain = self._node_view()

        def vjp(g):
            gx, gl, gu, gs = self.ste_backward(g, xv, l, u, s)
            return (gx, *chain(gs, gl, gu))

        return fq_kernel(xv, l, u, s), inputs, vjp

    def ste_backward(self, g_up, x, l, u, s):
        """Gradients of the fake-quant output: (gx, gl, gu, gs).

        gx is an array shaped like x; gl, gu and gs are Python floats.
        The clamp path is differentiated as usual; the noise path gives
        exactly zero for x and the noise-mode probe for s, gs = probe . g.
        The sums run over x's elements in x's memory order, the order the
        probe follows; a g laid out otherwise is first copied into x's
        layout. A clamp sum over no element, gl with nothing below l or gu
        with nothing above u, is +0.0, the value the dot product of a
        finite g with an all-false mask gives. A Bernoulli probe takes
        ceil(x.size/64) words of this site's raw stream (module
        docstring).
        """
        below = x < l
        above = x > u
        outside = np.logical_or(below, above)
        gx = g_up * np.logical_not(outside, out=outside)
        g = g_up
        if g.strides != x.strides:  # lay g out like x
            g = np.empty_like(x)
            g[...] = g_up
        g = g.ravel(order="K")
        below = below.ravel(order="K")
        above = above.ravel(order="K")
        # np.count_nonzero tests a mask for emptiness faster than .any()
        gl = float(g @ below) if np.count_nonzero(below) else 0.0
        gu = float(g @ above) if np.count_nonzero(above) else 0.0
        if self.noise_mode == "rounding_residual":
            v = np.clip(x, l, u) / s
            probe = (round_half_up(v) - v).ravel(order="K")
        else:
            n = x.size
            words = self.rng.bit_generator.random_raw(-(-n // 64))
            probe = _PROBE_TABLES[self.noise_mode].take(
                words.astype("<u8", copy=False).view(np.uint8),
                axis=0).reshape(-1)[:n]
        return gx, gl, gu, float(probe @ g)

    # -- numpy-side views --------------------------------------------------

    def scale_value(self) -> float:
        return self._node_view()[2]

    def bound_values(self):
        return self._node_view()[:2]

    def bitwidth_value(self) -> float:
        return self.bitwidth()[0]


@dataclass
class FusedLinear:
    """Integer weights plus the scales that reproduce the fake-quant product.

    The bias stays on the model layer: ``pipeline.fused_model_forward``
    adds it after the integer product.
    """

    int_weights: np.ndarray  # int64 [in, out]
    s_w: float
    s_a: float
    a_lo: float
    a_hi: float
    activation_fn: str = "relu"

