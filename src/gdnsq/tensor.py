"""The reverse-mode tape: float64 tensors and one reverse sweep.

A tape node is a closed-form operation: ``_record`` stores its inputs, its
output and a rule that maps the output's gradient to one gradient per
input (None for an input that gets none). Training records the model
layers and the global average pool (``gdnsq.models``) and the two loss
terms and their weighted sum (``gdnsq.losses``); their rules compose numpy
vector-Jacobian products. The primitive ops the tests build reference
graphs from (tests/primitives.py) record on the same tape. Creation
order is topological order, so one reverse sweep from the scalar root
visits each node exactly once. The tape is rebuilt per forward pass
(``reset_tape``); nothing is cached between passes.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


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

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    """Leaf tensor that never receives gradient (detached constant)."""
    return Tensor(data, requires_grad=False)


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
