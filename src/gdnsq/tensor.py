"""The training chain: a straight line of entries and one reverse sweep.

A training step is a fixed line of closed-form operations: each model
layer (``gdnsq.models``), then one scalar loss entry (``gdnsq.losses``).
``record`` appends one entry per operation: its rule, which maps the
gradient of its output to the gradient of its input (None where the input
needs none) followed by one gradient per parameter, and the parameter
tensors those gradients belong to. Intermediates stay plain ndarrays;
each entry's input is the output of the entry before it.

``backward`` sweeps the entries once in reverse. It seeds the last entry,
the loss, with ``np.ones(())``, hands one gradient array from entry to
entry, and writes every parameter gradient into a caller-owned array per
parameter (``RAdam.slots``, views of the optimizer's flat gradient
buffer), summing each parameter's terms in the order the entries are
swept. An array term goes straight into the slot: the first write of a
sweep assigns, later ones add. A Python float term, the gradient of a
quantizer site's scalar parameter, is added to a Python float, and the
slot is written once after the sweep; a Python float add costs a small
fraction of an in-place add on a 0-d array. The chain is rebuilt per
forward pass (``reset_tape``); nothing is cached between passes.

A forward records exactly when it trains: with ``train=True`` each layer
appends its entry, an eval forward appends nothing.
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
    __slots__ = ("name", "rule", "params")

    def __init__(self, name, rule, params):
        self.name = name
        self.rule = rule  # rule(g) -> (input grad or None, *param grads)
        self.params = params


class Chain:
    """The entries of one training step, in forward order."""

    def __init__(self):
        self.entries = []
        self.head = None  # output of the last entry

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


def record(x, params, out, rule, name):
    """Append an entry over input array x (None for none) and params and
    return out.

    x must be the chain's last output once the chain has one, so that the
    entries form one line.
    """
    chain = _CHAIN
    if x is not None and chain.head is not None and x is not chain.head:
        raise ContractError(f"{name}: its input is not the output of the "
                            "chain's last entry; reset_tape() between passes")
    chain.entries.append(Entry(name, rule, params))
    chain.head = out
    return out


def backward(slots: dict):
    """Sweep the chain once in reverse, from its last entry, the loss.

    Writes the gradient of every parameter on the chain into slots[p] and
    returns the gradient of the first entry's input, or None when that
    entry computes none. A parameter's terms are summed in the order the
    entries are swept, starting from its first term. Python float terms
    (the scalar gradients of the quantizer sites) are summed in Python and
    written to the slot once, after the sweep; array terms are assigned at
    a parameter's first write and added after that. A parameter that gets
    both kinds keeps the same order: its float sum so far is written when
    its first array term arrives, and later terms are added to the slot.
    Every array in slots must be written. A chain whose last output is not
    a scalar, or whose entry after the first returns no gradient of its
    input, raises ContractError.
    """
    entries = _CHAIN.entries
    if not entries or np.ndim(_CHAIN.head) != 0:
        raise ContractError("the chain does not end in a scalar loss entry")
    g = np.ones(())
    sums = {}  # parameter -> sum of its float terms, not yet in its slot
    written = set()  # parameters whose slot holds their terms so far
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        grads = e.rule(g)
        g = grads[0]
        if g is None and i > 0:
            raise ContractError(f"{e.name}: no gradient of its input, the "
                                f"output of {entries[i - 1].name}")
        for p, gp in zip(e.params, grads[1:]):
            slot = slots.get(p)
            if slot is None:
                raise ContractError(f"{e.name}: no slot for parameter "
                                    f"{p.name or p!r}")
            if type(gp) is float and p not in written:
                sums[p] = sums[p] + gp if p in sums else gp
                continue
            if p in written:
                slot += gp
                continue
            if p in sums:  # its float terms so far come first
                slot[...] = sums.pop(p)
                slot += gp
            else:
                slot[...] = gp
            written.add(p)
    for p, total in sums.items():
        slots[p][...] = total
    written.update(sums)
    if len(written) != len(slots):
        missing = [p.name or repr(p) for p in slots if p not in written]
        raise ContractError(f"no gradient reached {missing}")
    return g
