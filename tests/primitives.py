"""Primitive tape ops: elementwise arithmetic, matmul, reductions, shaping.

Each op records one node on the general tape of ``reference_tape`` with
the almost-everywhere derivative as its rule. The package does not use
them: it trains through closed-form chain entries. They are the building
blocks of the reference graphs in ``reference_graphs``, which the
closed-form entries are compared against, and ``test_tensor`` checks them
against finite differences. Broadcasting is restricted to
scalar-vs-tensor; use ``broadcast_to`` / ``sum_`` explicitly for anything
else.
"""

import numpy as np

from gdnsq.errors import NumericError, ShapeError
from gdnsq.tensor import Tensor
from reference_tape import _record, as_tensor, constant


def _is_scalar_shape(shape) -> bool:
    return shape == () or shape == (1,)


def _check_broadcast(a: Tensor, b: Tensor, opname: str):
    if a.shape == b.shape:
        return
    if _is_scalar_shape(a.shape) or _is_scalar_shape(b.shape):
        return
    raise ShapeError(
        f"{opname}: shapes {a.shape} and {b.shape} differ and neither is "
        "scalar; broadcasting beyond scalar is not supported (use broadcast_to)"
    )


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (inverse of scalar/implicit broadcast)."""
    if g.shape == shape:
        return g
    r = np.sum(g)
    return np.full(shape, r) if shape == (1,) else np.asarray(r)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def rule(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _record([a, b], out, rule, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def rule(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _record([a, b], out, rule, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def rule(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _record([a, b], out, rule, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    out = a.data / b.data

    def rule(g):
        ga = _reduce_to(g / b.data, a.shape)
        gb = _reduce_to(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record([a, b], out, rule, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def rule(g):
        return (-g,)

    return _record([a], -a.data, rule, "neg")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def rule(g):
        return g @ b.data.T, a.data.T @ g

    return _record([a, b], out, rule, "matmul")


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "maximum")
    out = np.maximum(a.data, b.data)

    def rule(g):
        take_a = a.data >= b.data
        return _reduce_to(g * take_a, a.shape), _reduce_to(g * ~take_a, b.shape)

    return _record([a, b], out, rule, "maximum")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties send gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "minimum")
    out = np.minimum(a.data, b.data)

    def rule(g):
        take_a = a.data <= b.data
        return _reduce_to(g * take_a, a.shape), _reduce_to(g * ~take_a, b.shape)

    return _record([a, b], out, rule, "minimum")


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = a.data * mask

    def rule(g):
        return (g * mask,)

    return _record([a], out, rule, "relu")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        idx = int(np.argmax(a.data.reshape(-1) <= 0))
        raise NumericError(
            f"log domain violation at flat index {idx}: "
            f"value {a.data.reshape(-1)[idx]!r}"
        )
    out = np.log(a.data)

    def rule(g):
        return (g / a.data,)

    return _record([a], out, rule, "log")


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    if not np.all(np.isfinite(out)):
        idx = int(np.argmax(~np.isfinite(out.reshape(-1))))
        raise NumericError(
            f"exp overflow at flat index {idx}: input {a.data.reshape(-1)[idx]!r}"
        )

    def rule(g):
        return (g * out,)

    return _record([a], out, rule, "exp")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        idx = int(np.argmax(a.data.reshape(-1) < 0))
        raise NumericError(f"sqrt domain violation at flat index {idx}")
    out = np.sqrt(a.data)

    def rule(g):
        return (g * 0.5 / out,)

    return _record([a], out, rule, "sqrt")


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def rule(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        if not keepdims:
            for ax in sorted(ax % len(in_shape) for ax in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record([a], out, rule, "sum")


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else (
        np.prod([a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)])
    )
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def broadcast_to(a, shape) -> Tensor:
    """Explicit broadcast; gradient sums over the expanded axes."""
    a = as_tensor(a)
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape).copy()
    in_shape = a.shape

    def rule(g):
        extra = len(shape) - len(in_shape)
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        expand_axes = tuple(
            i for i, d in enumerate(in_shape) if d == 1 and g.shape[i] != 1
        )
        if expand_axes:
            g = g.sum(axis=expand_axes, keepdims=True)
        return (g.reshape(in_shape),)

    return _record([a], out, rule, "broadcast_to")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def rule(g):
        return (g.reshape(in_shape),)

    return _record([a], out, rule, "reshape")


def select_columns(a, idx) -> Tensor:
    """out[b] = a[b, idx[b]] for a 2-d tensor; gradient scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.shape[0])
    out = a.data[rows, idx]

    def rule(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return _record([a], out, rule, "select_columns")


def softmax_rows(logits: Tensor) -> Tensor:
    """Row softmax of a [B, C] tensor, built from primitives.

    The row-max shift is a detached constant; softmax is invariant to it,
    so gradients are unaffected.
    """
    shift = constant(np.broadcast_to(
        logits.data.max(axis=1, keepdims=True), logits.shape).copy())
    e = exp(sub(logits, shift))
    z = sum_(e, axis=1, keepdims=True)
    return div(e, broadcast_to(z, logits.shape))
