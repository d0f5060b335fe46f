"""The im2col conv kernels against direct nested-loop convolution.

The references below visit every (image, output channel, output pixel,
input channel, tap) and read or write the unpadded input only where the
tap lands inside it, which is what zero padding means. The kernels must
match them on C-ordered inputs and on batch-last views, the layout the
kernels return and training feeds back to them.
"""

import itertools

import numpy as np
import pytest

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
