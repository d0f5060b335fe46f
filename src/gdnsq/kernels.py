"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

Numba is used when importable unless the environment sets GDNSQ_NUMBA=0.
Matrix products stay on ``np.dot`` (BLAS) in both paths; the kernels here
are the loop-bound pieces: 2-d convolution and the fused fake-quantizer
elementwise pass.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("GDNSQ_NUMBA", "1") != "0"
HAS_NUMBA = False
if USE_NUMBA:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False


def round_half_up(v: np.ndarray) -> np.ndarray:
    """Round to nearest with halves toward +inf: floor(v + 1/2)."""
    return np.floor(v + 0.5)


# --- fused fake-quant elementwise pass -------------------------------------
#
# out = s * floor(clamp(x, l, u) / s + 1/2)
#
# Computing the grid value directly (instead of clamp + s*residual) makes
# every element of a bucket produce the exact same float, which the
# unique-value audit and integer fusion rely on.


def fake_quant_numpy(x: np.ndarray, l: float, u: float, s: float) -> np.ndarray:
    xb = np.minimum(np.maximum(x, l), u)
    return s * np.floor(xb / s + 0.5)


if HAS_NUMBA:

    @njit(cache=True)
    def _fake_quant_numba_flat(x, l, u, s, out):
        for i in range(x.size):
            v = x[i]
            if v < l:
                v = l
            elif v > u:
                v = u
            out[i] = s * np.floor(v / s + 0.5)

    def fake_quant_numba(x: np.ndarray, l: float, u: float, s: float) -> np.ndarray:
        flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
        out = np.empty_like(flat)
        _fake_quant_numba_flat(flat, l, u, s, out)
        return out.reshape(x.shape)

else:
    fake_quant_numba = None


def fake_quant(x, l, u, s):
    if HAS_NUMBA:
        return fake_quant_numba(x, l, u, s)
    return fake_quant_numpy(x, l, u, s)


# --- 2-d convolution ---------------------------------------------------------


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def conv2d_forward_numpy(x, w, stride=1, pad=0):
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho, wo = _out_hw(h, wd, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((b, o, ho, wo))
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("bchw,oc->bohw", xs, w[:, :, i, j])
    return out


def conv2d_backward_input_numpy(g, w, x_shape, stride=1, pad=0):
    b, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    gxp = np.zeros((b, c, h + 2 * pad, wd + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                np.einsum("bohw,oc->bchw", g, w[:, :, i, j])
            )
    if pad:
        return gxp[:, :, pad:-pad, pad:-pad].copy()
    return gxp


def conv2d_backward_weight_numpy(g, x, w_shape, stride=1, pad=0):
    o, c, kh, kw = w_shape
    ho, wo = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw = np.zeros(w_shape)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            gw[:, :, i, j] = np.einsum("bohw,bchw->oc", g, xs)
    return gw


if HAS_NUMBA:

    @njit(cache=True)
    def _conv2d_forward_numba(xp, w, stride, ho, wo):
        b, c, _, _ = xp.shape
        o, _, kh, kw = w.shape
        out = np.zeros((b, o, ho, wo))
        for n in range(b):
            for oc in range(o):
                for y in range(ho):
                    for xq in range(wo):
                        acc = 0.0
                        for ic in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    acc += (
                                        xp[n, ic, y * stride + i, xq * stride + j]
                                        * w[oc, ic, i, j]
                                    )
                        out[n, oc, y, xq] = acc
        return out

    @njit(cache=True)
    def _conv2d_backward_input_numba(g, w, hp, wp, stride):
        b, o, ho, wo = g.shape
        _, c, kh, kw = w.shape
        gxp = np.zeros((b, c, hp, wp))
        for n in range(b):
            for oc in range(o):
                for y in range(ho):
                    for xq in range(wo):
                        gv = g[n, oc, y, xq]
                        for ic in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    gxp[n, ic, y * stride + i, xq * stride + j] += (
                                        gv * w[oc, ic, i, j]
                                    )
        return gxp

    @njit(cache=True)
    def _conv2d_backward_weight_numba(g, xp, o, c, kh, kw, stride):
        b, _, ho, wo = g.shape
        gw = np.zeros((o, c, kh, kw))
        for n in range(b):
            for oc in range(o):
                for y in range(ho):
                    for xq in range(wo):
                        gv = g[n, oc, y, xq]
                        for ic in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    gw[oc, ic, i, j] += (
                                        gv * xp[n, ic, y * stride + i, xq * stride + j]
                                    )
        return gw

    def conv2d_forward_numba(x, w, stride=1, pad=0):
        b, c, h, wd = x.shape
        o, _, kh, kw = w.shape
        ho, wo = _out_hw(h, wd, kh, kw, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return _conv2d_forward_numba(
            np.ascontiguousarray(xp), np.ascontiguousarray(w), stride, ho, wo
        )

    def conv2d_backward_input_numba(g, w, x_shape, stride=1, pad=0):
        b, c, h, wd = x_shape
        gxp = _conv2d_backward_input_numba(
            np.ascontiguousarray(g),
            np.ascontiguousarray(w),
            h + 2 * pad,
            wd + 2 * pad,
            stride,
        )
        if pad:
            return gxp[:, :, pad:-pad, pad:-pad].copy()
        return gxp

    def conv2d_backward_weight_numba(g, x, w_shape, stride=1, pad=0):
        o, c, kh, kw = w_shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return _conv2d_backward_weight_numba(
            np.ascontiguousarray(g), np.ascontiguousarray(xp), o, c, kh, kw, stride
        )

else:
    conv2d_forward_numba = None
    conv2d_backward_input_numba = None
    conv2d_backward_weight_numba = None


def conv2d_forward(x, w, stride=1, pad=0):
    if HAS_NUMBA:
        return conv2d_forward_numba(x, w, stride, pad)
    return conv2d_forward_numpy(x, w, stride, pad)


def conv2d_backward_input(g, w, x_shape, stride=1, pad=0):
    if HAS_NUMBA:
        return conv2d_backward_input_numba(g, w, x_shape, stride, pad)
    return conv2d_backward_input_numpy(g, w, x_shape, stride, pad)


def conv2d_backward_weight(g, x, w_shape, stride=1, pad=0):
    # einsum beats the jitted loops here, so the numba variant is unused
    return conv2d_backward_weight_numpy(g, x, w_shape, stride, pad)
