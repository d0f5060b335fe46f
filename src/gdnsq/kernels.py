"""Hot numeric kernels in numpy: 2-d convolution and the fake-quant pass.

Convolution runs on one im2col matrix per call (Chellapilla et al., 2006).
Arrays are float64; images are [b, c, h, w] and kernels [o, c, kh, kw].
``im2col`` copies the zero-padded input into the matrix [c*kh*kw,
ho*wo*b] whose row (ci, i, j) and column (y, x, n) holds
``xpad[n, ci, y*stride + i, x*stride + j]``. It pads into a batch-last
buffer [c, h + 2*pad, w + 2*pad, b] and reads it through one strided view
[c, kh, kw, ho, wo, b] of that buffer (strides: channel, row, column,
stride rows, stride columns, image), so the matrix is a single copy of
the view, with no window view, slice or transpose in between. The batch
index runs fastest in the columns: the maps here are small (16x16 down
to 2x2), and a batch-last layout gives every copy and scatter contiguous
runs of b elements instead of a few pixels. Then

- the forward pass is one GEMM, the kernel as an [o, c*kh*kw] matrix times
  the im2col matrix, giving [o, ho, wo, b];
- the weight gradient is one GEMM, the output gradient as an
  [o, ho*wo*b] matrix times the transposed im2col matrix;
- the input gradient is one GEMM, the transposed kernel times the output
  gradient, giving patch gradients [kh, kw, c, ho, wo, b], then col2im:
  each tap (i, j), in row-major tap order, adds its [c, ho, wo, b] slab
  into the strided slice of the padded input gradient (batch-last too)
  that the forward read it from, and the padding is cut off (one
  contiguous copy, still batch-last). Each element thus gets its terms in
  tap order, which fixes its bytes. The taps that share a shift (di, dj),
  (s*di + pi, s*dj + pj), write disjoint elements, so one add per shift
  through a [c, H, s, W, s, b] view, shifts in (di, dj) order, gives the
  same bytes; at conv3's sizes it was slower, its 6-d adds of a strided
  source costing twice as much per element as the slab adds.

The forward and the input gradient return [b, c, h, w]-shaped views of
their batch-last results: nothing is copied back to [b, c, h, w] memory.
Elementwise numpy ops keep that layout, so the next layer's activations
stay batch-last, ``im2col`` and the output-gradient reads of the two
backward kernels take contiguous [c, h, w, b] blocks from them without a
transposing copy, and a reduction over the batch and spatial axes (bias,
batchnorm) runs over one contiguous block per channel. Any layout is
accepted as input. The forward and the weight gradient multiply the same
im2col matrix: a caller that runs both on one input builds it once with
``im2col`` and passes it to each as ``cols`` (``models._conv2d`` does);
without ``cols`` each builds its own.
"""

from __future__ import annotations

import numpy as np


def round_half_up(v: np.ndarray) -> np.ndarray:
    """Round to nearest with halves toward +inf: floor(v + 1/2)."""
    return np.floor(v + 0.5)


def grid_levels(x: np.ndarray, l: float, u: float, s: float) -> np.ndarray:
    """The integer levels floor(clamp(x, l, u) / s + 1/2) of x on the grid
    of step s, as floats, in a new array laid out like x (an array of at
    least one axis: the ufuncs return a 0-d result as a scalar)."""
    v = np.maximum(x, l)
    np.minimum(v, u, out=v)
    v /= s
    v += 0.5
    return np.floor(v, out=v)


def fake_quant(x: np.ndarray, l: float, u: float, s: float) -> np.ndarray:
    """out = s * grid_levels(x, l, u, s).

    Computing the grid value directly (instead of clamp + s*residual) makes
    every element of a bucket produce the exact same float, which the
    unique-value audit relies on.
    """
    v = grid_levels(x, l, u, s)
    v *= s
    return v


# --- 2-d convolution ---------------------------------------------------------


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _batch_last(a):
    """[b, c, h, w] -> contiguous [c, h, w, b]; no copy when a already is
    a view of batch-last memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def im2col(x, kh, kw, stride=1, pad=0):
    """The im2col matrix [c*kh*kw, ho*wo*b] of x zero-padded by `pad`."""
    b, c, h, w = x.shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(1, 2, 3, 0)
    sc, sh, sw, sb = xp.strides
    win = np.ndarray((c, kh, kw, ho, wo, b), xp.dtype, xp, 0,
                     (sc, sh, sw, sh * stride, sw * stride, sb))
    return win.reshape(c * kh * kw, -1)


def conv2d_forward(x, w, stride=1, pad=0, cols=None):
    b, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho, wo = _out_hw(h, wd, kh, kw, stride, pad)
    if cols is None:
        cols = im2col(x, kh, kw, stride, pad)
    out = w.reshape(o, -1) @ cols
    return out.reshape(o, ho, wo, b).transpose(3, 0, 1, 2)


def conv2d_backward_input(g, w, x_shape, stride=1, pad=0):
    b, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    wt = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    gcols = (wt @ _batch_last(g).reshape(o, -1)).reshape(kh, kw, c, ho, wo, b)
    gxp = np.zeros((c, h + 2 * pad, wd + 2 * pad, b))
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                gcols[i, j])
    return np.ascontiguousarray(gxp[:, pad:pad + h, pad:pad + wd]).transpose(
        3, 0, 1, 2)


def conv2d_backward_weight(g, x, w_shape, stride=1, pad=0, cols=None):
    o, _, kh, kw = w_shape
    if cols is None:
        cols = im2col(x, kh, kw, stride, pad)
    return (_batch_last(g).reshape(o, -1) @ cols.T).reshape(w_shape)
