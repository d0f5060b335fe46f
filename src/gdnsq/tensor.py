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
entry, and sums each parameter's terms in the order the entries are
swept; after the last entry it writes each sum once into a caller-owned
array per parameter (``RAdam.slots``, views of the optimizer's flat
gradient buffer). The chain is rebuilt per forward pass (``reset_tape``);
nothing is cached between passes.

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

    Sums each parameter's terms, arrays or Python floats, in the order the
    entries are swept, starting from its first term, then writes every
    sum into slots[p] once, after the last entry's rule has run; a sweep
    that raises writes no slot. Returns the gradient of the first entry's
    input, or None when that entry computes none. Every array in slots
    must be written. A chain whose last output is not a scalar, or whose
    entry after the first returns no gradient of its input, raises
    ContractError.
    """
    entries = _CHAIN.entries
    if not entries or np.ndim(_CHAIN.head) != 0:
        raise ContractError("the chain does not end in a scalar loss entry")
    g = np.ones(())
    sums = {}  # parameter -> sum of its terms so far, in sweep order
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        grads = e.rule(g)
        g = grads[0]
        if g is None and i > 0:
            raise ContractError(f"{e.name}: no gradient of its input, the "
                                f"output of {entries[i - 1].name}")
        for p, gp in zip(e.params, grads[1:]):
            if p not in slots:
                raise ContractError(f"{e.name}: no slot for parameter "
                                    f"{p.name or p!r}")
            sums[p] = sums[p] + gp if p in sums else gp
    if len(sums) != len(slots):
        missing = [p.name or repr(p) for p in slots if p not in sums]
        raise ContractError(f"no gradient reached {missing}")
    for p, total in sums.items():
        slots[p][...] = total
    return g
