"""The im2col conv kernels against direct nested-loop convolution.

The references below visit every (image, output channel, output pixel,
input channel, tap) and read or write the unpadded input only where the
tap lands inside it, which is what zero padding means. The kernels must
match them on C-ordered inputs and on batch-last views, the layout the
kernels return and training feeds back to them.

The byte tests below hold the kernels to the im2col matrix read through
``sliding_window_view`` and the per-tap col2im loop they replace or keep,
value bytes and strides alike: training takes sums over these results, and
a sum's order follows the memory layout.
"""

import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gdnsq.kernels import (conv2d_backward_input, conv2d_backward_weight,
                           conv2d_forward, im2col)

ATOL = 1e-12


def _taps(x_shape, w_shape, g_shape, stride, pad):
    """(n, oc, y, xq, ic, r, q, i, j) for every tap inside the input."""
    b, c, h, wd = x_shape
    o, _, kh, kw = w_shape
    _, _, ho, wo = g_shape
    for n, oc, y, xq, ic, i, j in itertools.product(
            range(b), range(o), range(ho), range(wo), range(c), range(kh),
            range(kw)):
        r, q = y * stride + i - pad, xq * stride + j - pad
        if 0 <= r < h and 0 <= q < wd:
            yield n, oc, y, xq, ic, r, q, i, j


def loop_forward(x, w, stride, pad):
    b, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    out = np.zeros((b, o, (h + 2 * pad - kh) // stride + 1,
                    (wd + 2 * pad - kw) // stride + 1))
    for n, oc, y, xq, ic, r, q, i, j in _taps(x.shape, w.shape, out.shape,
                                              stride, pad):
        out[n, oc, y, xq] += x[n, ic, r, q] * w[oc, ic, i, j]
    return out


def loop_backward_input(g, w, x_shape, stride, pad):
    gx = np.zeros(x_shape)
    for n, oc, y, xq, ic, r, q, i, j in _taps(x_shape, w.shape, g.shape,
                                              stride, pad):
        gx[n, ic, r, q] += g[n, oc, y, xq] * w[oc, ic, i, j]
    return gx


def loop_backward_weight(g, x, w_shape, stride, pad):
    gw = np.zeros(w_shape)
    for n, oc, y, xq, ic, r, q, i, j in _taps(x.shape, w_shape, g.shape,
                                              stride, pad):
        gw[oc, ic, i, j] += g[n, oc, y, xq] * x[n, ic, r, q]
    return gw


def batch_last(a):
    """a's values as a [b, c, h, w] view of [c, h, w, b] memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_batch_last(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


CASES = list(itertools.product((1, 2), (0, 1), (1, 3)))


def conv_case(stride, pad, k):
    """(x, w, g) of one case: an input of non-square, odd sizes, a kernel
    and an output gradient, all C-ordered."""
    rng = np.random.default_rng([stride, pad, k])
    x = rng.normal(size=(2, 3, 7, 5))
    w = rng.normal(size=(4, 3, k, k))
    g = rng.normal(size=loop_forward(x, w, stride, pad).shape)
    return x, w, g


def assert_kernels_match_loops(x, w, g, stride, pad):
    np.testing.assert_allclose(conv2d_forward(x, w, stride, pad),
                               loop_forward(x, w, stride, pad),
                               rtol=0, atol=ATOL)
    np.testing.assert_allclose(
        conv2d_backward_input(g, w, x.shape, stride, pad),
        loop_backward_input(g, w, x.shape, stride, pad), rtol=0, atol=ATOL)
    np.testing.assert_allclose(
        conv2d_backward_weight(g, x, w.shape, stride, pad),
        loop_backward_weight(g, x, w.shape, stride, pad), rtol=0, atol=ATOL)


@pytest.mark.parametrize("stride,pad,k", CASES)
def test_kernels_match_loops(stride, pad, k):
    x, w, g = conv_case(stride, pad, k)
    assert_kernels_match_loops(x, w, g, stride, pad)


@pytest.mark.parametrize("stride,pad,k", CASES)
def test_kernels_match_loops_on_batch_last_views(stride, pad, k):
    x, w, g = conv_case(stride, pad, k)
    x, g = batch_last(x), batch_last(g)
    assert is_batch_last(x) and not x.flags.c_contiguous
    assert_kernels_match_loops(x, w, g, stride, pad)


@pytest.mark.parametrize("stride,pad,k", CASES)
def test_results_are_batch_last_in_memory(stride, pad, k):
    # [b, c, h, w]-shaped views of [c, h, w, b] memory, so the next layer
    # reads them without a transposing copy
    rng = np.random.default_rng([pad, stride, k])
    x = rng.normal(size=(3, 2, 6, 5))
    w = rng.normal(size=(4, 2, k, k))
    out = conv2d_forward(x, w, stride, pad)
    assert out.shape == (3, 4) + out.shape[2:] and is_batch_last(out)
    gx = conv2d_backward_input(rng.normal(size=out.shape), w, x.shape, stride,
                               pad)
    assert gx.shape == x.shape and is_batch_last(gx)


@pytest.mark.parametrize("stride,pad,k", CASES)
def test_shared_cols_give_the_same_bytes(stride, pad, k):
    # models._conv2d builds the im2col matrix once and hands it to both
    rng = np.random.default_rng([k, pad, stride])
    x = rng.normal(size=(3, 2, 6, 5))
    w = rng.normal(size=(4, 2, k, k))
    cols = im2col(x, k, k, stride, pad)
    out = conv2d_forward(x, w, stride, pad)
    np.testing.assert_array_equal(conv2d_forward(x, w, stride, pad, cols=cols),
                                  out)
    g = rng.normal(size=out.shape)
    np.testing.assert_array_equal(
        conv2d_backward_weight(g, x, w.shape, stride, pad, cols=cols),
        conv2d_backward_weight(g, x, w.shape, stride, pad))


# --- byte-exact against the references ---------------------------------------


def ref_im2col(x, kh, kw, stride, pad):
    """The im2col matrix read through sliding_window_view."""
    b, c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(1, 2, 3, 0)
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [c, ho, wo, b, kh, kw]
    return win.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, -1)


def ref_backward_input(g, w, x_shape, stride, pad):
    """The input gradient: one GEMM into per-tap patch gradients, then
    col2im one tap at a time."""
    b, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    wt = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    g = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
    gcols = (wt @ g.reshape(o, -1)).reshape(kh, kw, c, ho, wo, b)
    gxp = np.zeros((c, h + 2 * pad, wd + 2 * pad, b))
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                gcols[i, j])
    return np.ascontiguousarray(gxp[:, pad:pad + h, pad:pad + wd]).transpose(
        3, 0, 1, 2)


def assert_same_bytes(got, want, what):
    assert got.shape == want.shape, what
    assert got.strides == want.strides, what
    assert got.tobytes("A") == want.tobytes("A"), what


# stride 3, even kernels and pad 2; heights and widths whose padded sizes
# are not all multiples of the stride
KERNELS = [(1, 1), (2, 2), (3, 3), (4, 2), (2, 3), (5, 1)]
SIZES = [(5, 4), (6, 7), (8, 5)]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_kernels_match_the_references_byte_for_byte(stride, pad):
    checked = 0
    for (kh, kw), (h, wd) in itertools.product(KERNELS, SIZES):
        rng = np.random.default_rng([stride, pad, kh, kw, h, wd])
        x = rng.normal(size=(3, 2, h, wd))
        w = rng.normal(size=(4, 2, kh, kw))
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (wd + 2 * pad - kw) // stride + 1
        g = rng.normal(size=(3, 4, ho, wo))
        case = (kh, kw, h, wd)
        for xl, gl in itertools.product((x, batch_last(x)),
                                        (g, batch_last(g))):
            cols = ref_im2col(xl, kh, kw, stride, pad)
            assert_same_bytes(im2col(xl, kh, kw, stride, pad), cols, case)
            assert_same_bytes(
                conv2d_forward(xl, w, stride, pad),
                (w.reshape(4, -1) @ cols).reshape(4, ho, wo, 3).transpose(
                    3, 0, 1, 2), case)
            assert_same_bytes(
                conv2d_backward_input(gl, w, xl.shape, stride, pad),
                ref_backward_input(gl, w, xl.shape, stride, pad), case)
            assert_same_bytes(
                conv2d_backward_weight(gl, xl, w.shape, stride, pad),
                (np.ascontiguousarray(gl.transpose(1, 2, 3, 0)).reshape(4, -1)
                 @ cols.T).reshape(w.shape), case)
            checked += 1
    assert checked == 4 * len(KERNELS) * len(SIZES)
