import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdnsq import tensor as T
from gdnsq.errors import DomainError, NumericError, ShapeError
from gdnsq.losses import (distill_loss, hard_label_loss, jeffreys, kl,
                          potential, softmax, teacher_probs, total_loss)
from gdnsq.models import Model, make_model_spec
from gdnsq.pipeline import QatRun, RunConfig
from gdnsq.quantizer import FakeQuantizer


def make_fq(kind, lo, hi, bits, seed=0):
    fq = FakeQuantizer(kind, rng=np.random.default_rng(seed))
    fq.init_from_minmax(lo, hi, bits)
    return fq


def potential_entry(weight_fqs, act_fqs, targets):
    """P recorded as the chain's loss entry over the sites' parameters."""
    p, params, vjp = potential(weight_fqs, act_fqs, targets)
    return T.record(None, params, p, lambda g: (None, *vjp(g)), "potential")


def sweep(params):
    """The gradient of each parameter from one reverse sweep of the chain."""
    slots = {t: np.zeros(t.data.shape) for t in params}
    T.backward(slots)
    T.reset_tape()
    return slots


class TestKl:
    def test_self_divergence_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_vs_uniform_is_log2(self):
        assert kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_frozen_value(self):
        # 0.9 ln(0.9/0.1) + 0.1 ln(0.1/0.9) = 0.8 ln 9
        got = kl(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
        assert got == pytest.approx(0.8 * math.log(9.0), abs=1e-12)
        assert got == pytest.approx(1.7577796618689757, abs=1e-12)

    def test_support_mismatch(self):
        with pytest.raises(ShapeError):
            kl(np.array([1.0, 0.0]), np.array([0.3, 0.3, 0.4]))


class TestJeffreys:
    def test_zero_iff_equal(self):
        p = np.array([0.4, 0.6])
        assert jeffreys(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert jeffreys(p, q) == pytest.approx(jeffreys(q, p), rel=1e-12)

    def test_frozen_value(self):
        got = jeffreys(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
        assert got == pytest.approx(2 * 1.7577796618689757, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_jeffreys_dominates_each_kl(ws, vs):
    n = min(len(ws), len(vs))
    p = np.asarray(ws[:n]) / np.sum(ws[:n])
    q = np.asarray(vs[:n]) / np.sum(vs[:n])
    j = jeffreys(p, q)
    assert j >= max(kl(p, q), kl(q, p)) - 1e-12
    assert j >= -1e-12


class TestPotential:
    def test_zero_at_targets(self):
        wqs = [make_fq("weight", -1.0, 1.0, 2.0, seed=i) for i in range(2)]
        aq = make_fq("activation", 0.0, 1.0, 3.0, seed=2)
        targets = (max(wq.bitwidth_value() for wq in wqs), aq.bitwidth_value())
        assert float(potential(wqs, [aq], targets)[0]) == 0.0

    def test_single_active_hinge(self):
        # one weight site at 3 over target 2, activation at target
        wq = make_fq("weight", -1.0, 1.0, 3.0)
        aq = make_fq("activation", 0.0, 1.0, 4.0, seed=1)
        p, _, _ = potential([wq], [aq], (2.0, aq.bitwidth_value()))
        assert float(p) == pytest.approx(1.0)

    def test_under_target_zero_gradient(self):
        wq = make_fq("weight", -1.0, 1.0, 3.0)
        aq = make_fq("activation", 0.0, 1.0, 3.0, seed=1)
        T.reset_tape()
        p = potential_entry([wq], [aq], (8.0, 8.0))
        assert float(p) == 0.0
        grads = sweep(wq.raw_params() + aq.raw_params())
        assert float(grads[wq.log_s]) == 0.0
        assert float(grads[aq.log_s]) == 0.0

    def test_group_mean_gradient(self):
        # two weight sites above target: each hinge contributes 1/2
        wqs = [make_fq("weight", -1.0, 1.0, 6.0, seed=i) for i in range(2)]
        aq = make_fq("activation", 0.0, 1.0, 2.0, seed=9)
        T.reset_tape()
        potential_entry(wqs, [aq], (4.0, 4.0))
        grads = sweep([t for fq in wqs + [aq] for t in fq.raw_params()])
        for wq in wqs:
            ratio = (wq.bound_values()[1] - wq.bound_values()[0]) / wq.scale_value()
            domega = -(1.0 / math.log(2.0)) * ratio / (ratio + 1.0)
            assert float(grads[wq.log_s]) == pytest.approx(0.5 * domega, rel=1e-10)

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            potential([], [make_fq("activation", 0.0, 1.0, 3.0)],
                      (1.0, 1.0))


class TestTotalLoss:
    def _sites(self, wbits=3.0, abits=3.0):
        wq = make_fq("weight", -1.0, 1.0, wbits)
        aq = make_fq("activation", 0.0, 1.0, abits, seed=3)
        return [wq], [aq]

    def test_zero_when_feasible_and_matched(self):
        wfq, afq = self._sites()
        logits = np.array([[2.0, -1.0], [0.5, 0.5]])
        loss, info = total_loss(logits, teacher_probs(logits), wfq,
                                afq, (8.0, 8.0), 5.0 * 2.0)
        assert float(loss) == pytest.approx(0.0, abs=1e-12)
        assert info["P"] == 0.0 and info["d"] == pytest.approx(0.0, abs=1e-12)
        T.reset_tape()

    def test_step_zero_is_pure_distillation(self):
        wfq, afq = self._sites(wbits=6.0, abits=6.0)
        # the constraint is active, but t_q = 0 at step 0
        s_logits = np.array([[1.0, 0.0]])
        t_logits = np.array([[0.0, 1.0]])
        loss, info = total_loss(s_logits, teacher_probs(t_logits),
                                wfq, afq, (2.0, 2.0), 0.0 * 1.0)
        expected_d = jeffreys(softmax(s_logits)[0], softmax(t_logits)[0])
        assert float(loss) == pytest.approx(expected_d, rel=1e-12)
        T.reset_tape()

    def test_hand_built_two_class_single_site(self):
        wfq, afq = self._sites(wbits=3.0, abits=2.0)
        s_logits = np.array([[0.2, -0.4]])
        t_logits = np.array([[1.0, 0.3]])
        loss, _ = total_loss(s_logits, teacher_probs(t_logits), wfq,
                             afq, (2.0, 2.0), 0.7 * 1.3)
        d = jeffreys(softmax(s_logits)[0], softmax(t_logits)[0])
        hinge = max(0.0, wfq[0].bitwidth_value() - 2.0)
        assert float(loss) == pytest.approx(0.7 * 1.3 * hinge + d, rel=1e-10)
        T.reset_tape()

    def test_infinite_targets_reduce_to_distillation(self):
        wfq, afq = self._sites()
        s_logits = np.array([[0.3, 0.9], [2.0, -2.0]])
        t_logits = np.array([[0.1, 0.2], [0.5, 0.5]])
        loss, info = total_loss(s_logits, teacher_probs(t_logits),
                                wfq, afq, (1e9, 1e9), 123.0 * 7.0)
        assert float(loss) == pytest.approx(info["d"], rel=1e-12)
        T.reset_tape()

    def test_nan_logits_rejected_with_row(self):
        wfq, afq = self._sites()
        bad = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(NumericError, match="row"):
            total_loss(bad, teacher_probs(np.zeros((2, 2))), wfq, afq,
                       (4.0, 4.0), 1.0)
        T.reset_tape()

    def test_gradient_reaches_quantizers_and_logits(self):
        wfq, afq = self._sites(wbits=6.0, abits=6.0)
        s = np.array([[0.4, -0.2]])
        T.reset_tape()
        loss, _ = total_loss(s, teacher_probs(np.array([[1.0, -1.0]])), wfq,
                             afq, (2.0, 2.0), 1.0 * 1.0)
        slots = {t: np.zeros(t.data.shape)
                 for fq in wfq + afq for t in fq.raw_params()}
        g_logits = T.backward(slots)
        T.reset_tape()
        assert g_logits is not None and np.any(g_logits != 0)
        assert float(slots[wfq[0].log_s]) != 0.0


def make_run(**config):
    """A QAT run over a fresh quantized mlp3."""
    student = Model(make_model_spec("mlp3", 2, 2), quantized=True)
    return QatRun(RunConfig(**config), student)


class TestSchedule:
    """The temperature and c_r schedule of a QAT run (pipeline.QatRun)."""

    def test_first_step(self):
        # t_q = tq_init + lambda * n, with n = 0 on the first batch
        run = make_run(lr0=0.01)
        assert run.next_batch() == (0.01, 0.0)
        run.fold_distance(0.5)
        assert run.step_n == 1
        assert run.next_batch() == (0.01, 0.01 * 1)

    def test_running_mean(self):
        run = make_run()
        run.fold_distance(2.0)
        run.fold_distance(4.0)
        assert run.c_r == pytest.approx(3.0)
        assert run.c_r == pytest.approx(run.c_r_sum / run.step_n)

    def test_neutral_c_r_before_first_batch(self):
        run = make_run()
        assert run.c_r == 1.0 and run.step_n == 0

    def test_tq_init_offset(self):
        run = make_run(lr0=0.01, tq_init=100.0)
        assert run.next_batch()[1] == 100.0
        for d in (1.0, 2.0, 3.0):
            run.fold_distance(d)
        assert run.next_batch()[1] == 100.0 + 0.01 * 3


def test_hard_label_loss_matches_direct_formula():
    logits = np.array([[2.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0])
    loss = hard_label_loss(logits, labels)
    p = softmax(logits)
    expected = -np.mean(np.log([p[0, 0], p[1, 0]]))
    assert float(loss) == pytest.approx(expected, rel=1e-12)
    T.reset_tape()


def test_distill_loss_rejects_bad_arguments():
    z = np.array([[0.1, 0.2], [0.3, -0.1]])
    t = np.zeros((2, 2))
    with pytest.raises(DomainError, match="unknown"):
        distill_loss(z, t, kind="kl")
    with pytest.raises(DomainError, match="labels"):
        distill_loss(z, t, kind="hard_label_ce")
    with pytest.raises(DomainError, match="teacher"):
        distill_loss(z, None, kind="jeffreys")
    with pytest.raises(DomainError, match="teacher_probs"):
        distill_loss(z, t, kind="cross_entropy")  # logits, not probabilities
    T.reset_tape()


def test_total_loss_names_the_non_finite_side():
    wfq = [make_fq("weight", -1.0, 1.0, 6.0)]
    afq = [make_fq("activation", 0.0, 1.0, 6.0, seed=1)]
    bad = np.array([[0.0, 1.0], [np.inf, 0.0]])
    with pytest.raises(NumericError, match="student logits at batch row 1"):
        total_loss(bad, teacher_probs(np.zeros((2, 2))), wfq, afq,
                   (4.0, 4.0), 0.0)
    # the teacher's side is checked once per run, where its probabilities
    # are computed
    with pytest.raises(NumericError, match="teacher logits at batch row 1"):
        teacher_probs(bad)
    T.reset_tape()
