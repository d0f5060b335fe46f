"""Distillation distance and exterior-point potential.

The training loss is  L = w_p * P + d  with

* d: batch-mean Jeffreys divergence J(p, q) = KL(p||q) + KL(q||p) between
  student and teacher softmax outputs (nats),
* P: mean hinge excess of the smooth bit-width estimates over their
  targets, weight sites and activation sites averaged separately and
  summed,
* w_p: the potential's weight t_q * c_r, which the QAT run
  (``pipeline.QatRun``) keeps from batch to batch.

Probabilities are floored at 1e-12 and renormalized before any log so the
divergence stays finite for near-one-hot teachers. ``teacher_probs``
computes the teacher's floored softmax and its log once, over a whole
split, and checks the teacher logits for non-finite values there.

The loss is the chain's last entry (``gdnsq.tensor``), one scalar with a
closed-form gradient. ``distill_loss`` and ``potential`` are its numpy
pieces: each returns its value with a vector-Jacobian product, like
``FakeQuantizer.fake_quant``. ``distill_loss`` maps the student logits to
d for each ``--distill`` kind (it also serves as the teacher's hard-label
loss, ``hard_label_loss``); its gradient goes back through the
renormalization, the floor and the softmax. ``potential`` maps every
site's raw quantizer parameters to P through d omega
(``FakeQuantizer.bitwidth``), the hinges and the group means.
``total_loss`` records w_p * P + d as one ``loss[<kind>]`` entry whose
rule runs the potential's product with seed w_p, then the distance's
with seed 1. Two conventions of the primitive graphs are kept: a
probability at or above the floor passes its gradient, one below passes
none (max(p, floor) sends ties to p), and a hinge whose omega equals its
target is active. The rules evaluate their products in the order the
primitive graphs did, so they round the same way and training runs
reproduce those graphs' metrics.

The loss functions take ndarray logits and return float64 values; the
chain, not the value, carries the gradient.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import DomainError, NumericError, ShapeError

PROB_FLOOR = 1e-12


def floor_normalize(p: np.ndarray) -> np.ndarray:
    p = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl(p, q) -> float:
    """KL(p||q) = sum p_i log(p_i / q_i), in nats."""
    p, q = np.asarray(p, np.float64), np.asarray(q, np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"kl support mismatch: {p.shape} vs {q.shape}")
    p, q = floor_normalize(p), floor_normalize(q)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def jeffreys(p, q) -> float:
    """Symmetrized KL: J(p, q) = KL(p||q) + KL(q||p)."""
    return kl(p, q) + kl(q, p)


DISTILL_KINDS = ("jeffreys", "cross_entropy", "hard_label_ce")


def _check_finite(logits, who):
    if not np.all(np.isfinite(logits)):
        bad = int(np.argmax(~np.isfinite(np.asarray(logits)).all(axis=1)))
        raise NumericError(f"non-finite {who} logits at batch row {bad}")


class TeacherProbs(NamedTuple):
    """The teacher's floored softmax q and log q, row for row."""

    q: np.ndarray
    log_q: np.ndarray

    def rows(self, idx) -> "TeacherProbs":
        return TeacherProbs(self.q[idx], self.log_q[idx])


def teacher_probs(teacher_logits) -> TeacherProbs:
    """q = floor_normalize(softmax(teacher_logits)) and log q, after a
    check that every teacher logit is finite."""
    _check_finite(teacher_logits, "teacher")
    q = floor_normalize(softmax(teacher_logits))
    return TeacherProbs(q, np.log(q))


def distill_loss(student_logits: np.ndarray, teacher: TeacherProbs = None,
                 labels=None, kind="jeffreys"):
    """The batch-mean distance d between the student and its reference,
    and its vector-Jacobian product onto the student logits.

    The student distribution is pf = max(p, floor) / sum(max(p, floor))
    with p = softmax(logits). Per row, ``jeffreys`` is sum (pf - q)(log pf -
    log q) and ``cross_entropy`` is -sum q log pf, with q and log q from
    ``teacher`` (``teacher_probs``), and ``hard_label_ce`` is -log
    pf[label]. The gradient goes back through the renormalization, the
    floor (to p where p >= floor, as a maximum() with ties to its first
    operand would route it) and the softmax.
    """
    z = np.asarray(student_logits, dtype=np.float64)
    if kind not in DISTILL_KINDS:
        raise DomainError(f"unknown distillation kind {kind!r}")
    if kind == "hard_label_ce":
        if labels is None:
            raise DomainError("hard_label_ce needs ground-truth labels")
        rows = np.arange(z.shape[0])
        labels = np.asarray(labels, dtype=np.int64)
    elif not isinstance(teacher, TeacherProbs):
        raise DomainError(f"{kind} needs the teacher's probabilities "
                          "(losses.teacher_probs)")
    else:
        q = teacher.q
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e_sum = e.sum(axis=1, keepdims=True)
    p = e / e_sum
    m = np.maximum(p, PROB_FLOOR)
    m_sum = m.sum(axis=1, keepdims=True)
    pf = m / m_sum
    if kind == "hard_label_ce":
        d_rows = -np.log(pf[rows, labels])
    else:
        logp = np.log(pf)
        if kind == "jeffreys":
            diff, log_ratio = pf - q, logp - teacher.log_q
            d_rows = (diff * log_ratio).sum(axis=1)
        else:
            d_rows = -(q * logp).sum(axis=1)
    inv_b = 1.0 / d_rows.size
    d = d_rows.sum() * inv_b

    def vjp(g):
        gr = g * inv_b  # every row's share of the batch mean
        if kind == "jeffreys":
            g_pf = gr * diff / pf + gr * log_ratio
        elif kind == "cross_entropy":
            g_pf = -gr * q / pf
        else:
            g_pf = np.zeros_like(pf)
            g_pf[rows, labels] = -gr / pf[rows, labels]
        # quotient rule through pf = m / m_sum and p = e / e_sum
        g_m = g_pf / m_sum + (-g_pf * m / (m_sum * m_sum)).sum(
            axis=1, keepdims=True)
        g_p = g_m * (p >= PROB_FLOOR)
        g_e = g_p / e_sum + (-g_p * e / (e_sum * e_sum)).sum(
            axis=1, keepdims=True)
        return g_e * e

    return d, vjp


def hard_label_loss(logits: np.ndarray, labels) -> np.float64:
    """Mean cross-entropy against integer class labels, recorded as the
    chain's loss entry on the logits."""
    d, vjp = distill_loss(logits, labels=labels, kind="hard_label_ce")
    return T.record(logits, (), d, lambda g: (vjp(g),),
                    "loss[hard_label_ce]")


def potential(weight_fqs, act_fqs, targets):
    """The potential P, every site's raw parameters and the
    vector-Jacobian product of P onto them, in that order. Given a Python
    float seed, the product returns Python floats.

    Each hinge max(omega - target, 0) passes d omega to its parameters,
    divided by its group's size, when omega >= target (ties count as
    active, as a maximum() with ties to its first operand would route
    them); inactive sites get a zero gradient.
    """
    if not weight_fqs or not act_fqs:
        raise DomainError("potential needs at least one site in each group")
    params, sites, value = [], [], 0.0
    for fqs, target in ((weight_fqs, targets[0]), (act_fqs, targets[1])):
        inv_n = 1.0 / len(fqs)
        hinge_sum = 0.0
        for fq in fqs:
            omega, site_params, site_vjp = fq.bitwidth()
            excess = omega - float(target)
            active = excess >= 0.0
            hinge_sum += excess if active else 0.0
            params.extend(site_params)
            sites.append((site_vjp, inv_n, active))
        value += hinge_sum * inv_n

    def vjp(g):
        grads = []
        for site_vjp, inv_n, active in sites:
            grads.extend(site_vjp(g * inv_n * active))
        return grads

    return np.float64(value), params, vjp


def total_loss(student_logits: np.ndarray, teacher: TeacherProbs,
               weight_fqs, act_fqs, targets, w_p, labels=None,
               kind="jeffreys"):
    """Exterior-point loss w_p*P + d for one batch.

    teacher holds the batch rows of ``teacher_probs`` (None for
    hard_label_ce); targets is (omega_w*, omega_a*). Records the loss
    as the chain's ``loss[<kind>]`` entry on the student logits and
    returns (loss value, info dict); info carries the scalar d and P
    values for the metrics and the running mean of d.
    """
    _check_finite(student_logits, "student")
    d, d_vjp = distill_loss(student_logits, teacher, labels=labels, kind=kind)
    p, params, p_vjp = potential(weight_fqs, act_fqs, targets)

    def rule(g):
        p_grads = p_vjp(float(g) * w_p)
        return (d_vjp(g), *p_grads)

    loss = T.record(student_logits, params, p * w_p + d, rule,
                    f"loss[{kind}]")
    return loss, {"d": float(d), "P": float(p)}
