"""The general reverse-mode tape: a DAG of nodes swept once in reverse.

The package trains through the straight-line chain of ``gdnsq.tensor``.
This tape records any graph of the primitive ops in ``primitives`` and
stays as the reference the bit-exact tests compare the chain against.
``_record`` stores a node's inputs, its output and a rule that maps the
output's gradient to one gradient per input (None for an input that gets
none). Creation order is topological order, so one reverse sweep from a
scalar root visits each node exactly once. ``backward`` accumulates the
gradients in a map keyed by tensor, in the order of that sweep: the first
gradient a tensor receives is copied, later ones are added.
"""

import numpy as np

from gdnsq.errors import ContractError, ShapeError
from gdnsq.tensor import Tensor


class Var(Tensor):
    """A tensor recorded on the tape: its node's index and the tape epoch."""

    __slots__ = ("node_id", "epoch")

    def backward(self, grads=None):
        return backward(self, grads)


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


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    """Leaf tensor that never receives gradient (detached constant)."""
    return Tensor(data, requires_grad=False)


def _record(inputs, out_data, rule, name) -> Tensor:
    if not (_GRAD_ENABLED and any(t.requires_grad for t in inputs)):
        return Tensor(out_data)
    out = Var(out_data, requires_grad=True)
    out.node_id = _TAPE.record(Node(tuple(inputs), out, rule, name))
    out.epoch = _TAPE.epoch
    return out


def backward(root: Tensor, grads=None) -> dict:
    """Add d(root)/d(t) into grads[t] for every reachable tensor t that
    requires a gradient, and return grads (a new dict when None).

    Repeated calls with one dict add: backward twice equals twice the
    gradients of one call. Uses a per-call scratch map so intermediate
    grads from earlier calls are not re-propagated.
    """
    if root.data.shape != ():
        raise ContractError(
            f"backward root must be scalar, got shape {root.data.shape}"
        )
    grads = {} if grads is None else grads
    local = {id(root): np.ones(())}
    holders = {id(root): root}
    if isinstance(root, Var):
        if root.epoch != _TAPE.epoch:
            raise ContractError("backward called on a tensor from a reset tape")
        for idx in range(root.node_id, -1, -1):
            node = _TAPE.nodes[idx]
            g = local.get(id(node.output))
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.rule(g)):
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
        if t.requires_grad:
            grads[t] = g.copy() if t not in grads else grads[t] + g
    return grads
