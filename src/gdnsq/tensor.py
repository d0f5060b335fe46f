"""The training chain: a straight line of entries and one reverse sweep.

A training step is a fixed line of closed-form operations: each model
layer and the global average pool (``gdnsq.models``), then the loss terms,
the distillation distance and the bit-width potential (``gdnsq.losses``).
``record`` appends one entry per operation: its rule, which maps the
gradient of its output to the gradient of its input (None where the input
needs none) followed by one gradient per parameter, and the parameter
tensors those gradients belong to. Intermediates stay plain ndarrays;
each entry's input is the output of the entry before it. A loss term
carries its weight in the loss instead and feeds from the chain's last
output or, like the potential, from nothing but its parameters.

``backward`` sweeps the entries once in reverse. It seeds each loss term
with ``np.ones(()) * weight``, hands one gradient array from entry to
entry, and writes every parameter gradient straight into a caller-owned
array per parameter (``RAdam.slots``, views of the optimizer's flat
gradient buffer): the first write of a sweep assigns, later ones add, in
the order the entries are swept. The chain is rebuilt per forward pass
(``reset_tape``); nothing is cached between passes.

A forward records exactly when it trains: with ``train=True`` each layer
appends its entry, an eval forward appends nothing. ``backward`` needs no
loss root; it starts from the loss terms on the chain.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


class Tensor:
    """n-d float64 array of a model or quantizer parameter.

    ``requires_grad`` marks a tensor that receives a gradient; every
    parameter sets it.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Entry:
    __slots__ = ("name", "rule", "params", "weight")

    def __init__(self, name, rule, params, weight):
        self.name = name
        self.rule = rule  # rule(g) -> (input grad or None, *param grads)
        self.params = params
        self.weight = weight  # the loss weight of a loss term, else None


class Chain:
    """The entries of one training step, in forward order."""

    def __init__(self):
        self.entries = []
        self.head = None  # output of the last entry that is not a loss term

    def reset(self):
        self.entries = []
        self.head = None

    def __len__(self):
        return len(self.entries)


_CHAIN = Chain()


def get_tape() -> Chain:
    return _CHAIN


def reset_tape():
    _CHAIN.reset()


def record(x, params, out, rule, name, weight=None):
    """Append an entry over input array x (None for none) and params and
    return out.

    x must be the chain's last output once the chain has one, so that the
    entries form one line. With a weight the entry is a loss term: its
    output is not an input of later entries.
    """
    chain = _CHAIN
    if x is not None and chain.head is not None and x is not chain.head:
        raise ContractError(f"{name}: its input is not the output of the "
                            "chain's last entry; reset_tape() between passes")
    chain.entries.append(Entry(name, rule, params, weight))
    if weight is None:
        chain.head = out
    return out


def backward(slots: dict):
    """Sweep the chain once in reverse, from its loss terms.

    Writes the gradient of every parameter on the chain into slots[p]
    (assigned at its first write of the sweep, added after that) and
    returns the gradient of the first entry's input, or None when that
    entry computes none. Every array in slots must be written.
    """
    g = None
    written = set()
    for e in reversed(_CHAIN.entries):
        if e.weight is None:
            if g is None:
                raise ContractError(f"{e.name}: no gradient reaches its output")
            grads = e.rule(g)
            g = grads[0]
        else:
            grads = e.rule(np.ones(()) * e.weight)
            if grads[0] is not None:
                if g is not None:
                    raise ContractError(f"{e.name}: a second loss term feeds "
                                        "the chain")
                g = grads[0]
        for p, gp in zip(e.params, grads[1:]):
            slot = slots.get(p)
            if slot is None:
                raise ContractError(f"{e.name}: no slot for parameter "
                                    f"{p.name or p!r}")
            if p in written:
                slot += gp
            else:
                slot[...] = gp
                written.add(p)
    if len(written) != len(slots):
        missing = [p.name or repr(p) for p in slots if p not in written]
        raise ContractError(f"no gradient reached {missing}")
    return g
