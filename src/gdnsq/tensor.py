"""Minimal reverse-mode autodiff on float64 numpy arrays.

Every operation appends a node to a module-level tape; creation order is
topological order, so one reverse sweep from the root visits each node
exactly once. The tape is rebuilt per forward pass (``reset_tape``), there
is no graph caching. Broadcasting is restricted to scalar-vs-tensor; use
``broadcast_to`` / ``sum_`` explicitly for anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError


class Tape:
    """Ordered record of forward operations."""

    def __init__(self):
        self.nodes = []
        self.epoch = 0

    def record(self, node):
        self.nodes.append(node)
        return len(self.nodes) - 1

    def reset(self):
        self.nodes.clear()
        self.epoch += 1

    def __len__(self):
        return len(self.nodes)


class Node:
    __slots__ = ("inputs", "output", "rule", "name")

    def __init__(self, inputs, output, rule, name):
        self.inputs = inputs
        self.output = output
        self.rule = rule  # rule(g) -> tuple of grads aligned with inputs
        self.name = name


_TAPE = Tape()
_GRAD_ENABLED = True


def get_tape() -> Tape:
    return _TAPE


def reset_tape():
    _TAPE.reset()


class no_grad:
    """Context manager: operations inside record nothing on the tape."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """n-d float64 array with gradient accumulation.

    ``grad`` is accumulated additively by ``backward``; call sites zero it
    explicitly (the optimizer does). ``node_id`` indexes the producing tape
    node, None for leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_epoch", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = None
        self._epoch = -1
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all dispatch to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    """Leaf tensor that never receives gradient (detached constant)."""
    return Tensor(data, requires_grad=False)


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


def _record(inputs, out_data, rule, name) -> Tensor:
    req = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        node = Node(tuple(inputs), out, rule, name)
        out.node_id = _TAPE.record(node)
        out._epoch = _TAPE.epoch
    return out


def backward(root: Tensor):
    """Accumulate d(root)/d(t) into t.grad for every reachable tensor.

    Repeated calls add: backward twice equals twice the gradients of one
    call. Uses a per-call scratch map so intermediate grads from earlier
    calls are not re-propagated.
    """
    if root.data.shape != ():
        raise ContractError(
            f"backward root must be scalar, got shape {root.data.shape}"
        )
    local = {id(root): np.ones(())}
    holders = {id(root): root}
    if root.node_id is not None:
        if root._epoch != _TAPE.epoch:
            raise ContractError("backward called on a tensor from a reset tape")
        for idx in range(root.node_id, -1, -1):
            node = _TAPE.nodes[idx]
            g = local.get(id(node.output))
            if g is None:
                continue
            grads = node.rule(g)
            for inp, gi in zip(node.inputs, grads):
                if gi is None or not inp.requires_grad:
                    continue
                if np.shape(gi) != inp.data.shape:
                    raise ShapeError(
                        f"{node.name}: backward produced shape {np.shape(gi)} "
                        f"for input of shape {inp.data.shape}"
                    )
                key = id(inp)
                if key in local:
                    local[key] = local[key] + gi
                else:
                    local[key] = np.array(gi, dtype=np.float64)
                    holders[key] = inp
    for key, g in local.items():
        t = holders[key]
        if not t.requires_grad:
            continue
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitive operations


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


def custom_backward(forward_fn, backward_fn, name="custom"):
    """Build an op whose backward is backward_fn, not autodiff composition.

    forward_fn takes the input ndarrays and returns the output ndarray.
    backward_fn(g, *input_arrays) returns one gradient per input (ndarray
    or None); shapes are checked when backward runs.
    """

    def apply(*inputs):
        ts = [as_tensor(x) for x in inputs]
        out = forward_fn(*[t.data for t in ts])

        def rule(g):
            grads = backward_fn(g, *[t.data for t in ts])
            if not isinstance(grads, tuple):
                grads = (grads,)
            if len(grads) != len(ts):
                raise ShapeError(
                    f"{name}: backward returned {len(grads)} gradients for "
                    f"{len(ts)} inputs"
                )
            return grads

        return _record(ts, np.asarray(out, dtype=np.float64), rule, name)

    return apply


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
