"""The general tape (reference_tape) and the primitive ops the reference
graphs are built from (primitives), against finite differences, and the
training chain of gdnsq.tensor: its line check, its write order and its
refusals, on hand-built chains and on one QAT step of a PTQ student."""

import numpy as np
import pytest

import primitives as P
import reference_tape as R
from gdnsq import tensor as T
from gdnsq.data import Dataset
from gdnsq.errors import ContractError, NumericError, ShapeError
from gdnsq.losses import teacher_probs, total_loss
from gdnsq.models import Model, make_model_spec
from gdnsq.optim import RAdam
from gdnsq.oracles import finite_difference_grads
from gdnsq.pipeline import ptq_minmax
from gdnsq.tensor import Tensor


def make_loss(build):
    """Wrap a graph builder so finite differences can re-evaluate it."""

    def f(arrays):
        R.reset_tape()
        val = float(build([Tensor(a, requires_grad=True) for a in arrays]).data)
        R.reset_tape()
        return val

    return f


def analytic_grads(build, arrays):
    R.reset_tape()
    params = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(params)
    grads = loss.backward()
    out = [grads[p].copy() for p in params]
    R.reset_tape()
    return out


def assert_matches_fd(build, arrays, rtol=1e-6):
    analytic = analytic_grads(build, arrays)
    numeric = finite_difference_grads(make_loss(build), arrays)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=1e-8)


class TestMatmul:
    def test_identity(self):
        out = P.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_scalar_case(self):
        out = P.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            P.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))))

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        assert_matches_fd(lambda p: P.sum_(P.mul(P.matmul(p[0], p[1]),
                                                 P.matmul(p[0], p[1]))),
                          [a, b])


class TestElementwise:
    def test_max_with_scalar(self):
        out = P.maximum(Tensor([-1.0, 0.5]), 0.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.5])

    def test_relu_backward_ae(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        grads = P.sum_(P.relu(x)).backward()
        np.testing.assert_array_equal(grads[x], [0.0, 1.0])

    def test_log_gradient(self):
        x = Tensor(2.0, requires_grad=True)
        grads = P.log(x).backward()
        assert grads[x] == pytest.approx(0.5, rel=1e-12)
        assert_matches_fd(lambda p: P.log(p[0]), [np.asarray(2.0)])

    def test_log_domain_error_names_index(self):
        with pytest.raises(NumericError, match="index 1"):
            P.log(Tensor([1.0, -2.0]))

    def test_exp_overflow_error(self):
        with pytest.raises(NumericError):
            P.exp(Tensor([1.0, 800.0]))

    def test_no_implicit_row_broadcast(self):
        with pytest.raises(ShapeError):
            P.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_scalar_broadcast_grads(self):
        rng = np.random.default_rng(3)
        x, c = rng.normal(size=(4,)), np.asarray(1.5)
        assert_matches_fd(lambda p: P.sum_(P.mul(P.add(p[0], p[1]), p[0])),
                          [x, c])

    def test_minimum_ties_go_to_first_operand(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        u = Tensor(2.0, requires_grad=True)
        grads = P.sum_(P.minimum(x, u)).backward()
        np.testing.assert_array_equal(grads[x], [1.0, 1.0])
        assert grads[u] == 0.0


class TestReductionsAndShaping:
    def test_sum_axis_grads(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        assert_matches_fd(
            lambda p: P.sum_(P.mul(P.sum_(p[0], axis=1), P.sum_(p[0], axis=1))),
            [x])

    def test_mean_multi_axis(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 2, 2))
        assert_matches_fd(lambda p: P.sum_(P.mul(P.mean(p[0], axis=(2, 3)),
                                                 P.mean(p[0], axis=(2, 3)))),
                          [x])

    def test_broadcast_to_grads(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 1))
        assert_matches_fd(
            lambda p: P.sum_(P.mul(P.broadcast_to(p[0], (3, 4)),
                                   P.broadcast_to(p[0], (3, 4)))), [x])

    def test_softmax_rows_matches_fd(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4)) * 3
        coeff = rng.normal(size=(3, 4))
        assert_matches_fd(
            lambda p: P.sum_(P.mul(P.softmax_rows(p[0]), R.constant(coeff))),
            [x], rtol=1e-5)

    def test_select_columns(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = P.select_columns(x, [1, 0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])
        grads = P.sum_(out).backward()
        np.testing.assert_array_equal(grads[x], [[0.0, 1.0], [1.0, 0.0]])


def custom_node(forward_fn, backward_fn):
    """A one-input node whose rule is backward_fn(g, x), as the package's
    closed-form nodes are recorded."""

    def op(x):
        return R._record([x], forward_fn(x.data),
                         lambda g: (backward_fn(g, x.data),), "custom")

    return op


class TestCustomBackward:
    def test_identity_forward_zero_backward(self):
        op = custom_node(lambda x: x, lambda g, x: np.zeros_like(x))
        x = Tensor([1.0, 2.0], requires_grad=True)
        grads = P.sum_(op(x)).backward()
        np.testing.assert_array_equal(grads[x], [0.0, 0.0])

    def test_classic_ste_round(self):
        op = custom_node(lambda x: np.floor(x + 0.5), lambda g, x: g)
        x = Tensor([0.3, 1.7], requires_grad=True)
        out = op(x)
        np.testing.assert_array_equal(out.data, [0.0, 2.0])
        grads = P.sum_(out).backward()
        np.testing.assert_array_equal(grads[x], [1.0, 1.0])

    def test_zero_override_blocks_downstream(self):
        op = custom_node(lambda x: x * x, lambda g, x: np.zeros_like(x))
        x = Tensor([3.0], requires_grad=True)
        y = P.sum_(P.mul(op(x), 2.0))
        grads = y.backward()
        np.testing.assert_array_equal(grads[x], [0.0])

    def test_bad_backward_shape_raises_at_backward_time(self):
        op = custom_node(lambda x: x, lambda g, x: np.zeros(5))
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = P.sum_(op(x))
        with pytest.raises(ShapeError):
            out.backward()


class TestBackward:
    def setup_method(self):
        R.reset_tape()

    def test_sum_gives_ones(self):
        x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
        grads = P.sum_(x).backward()
        np.testing.assert_array_equal(grads[x], [1.0, 1.0, 1.0])

    def test_scalar_chain_rule(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(3.0, requires_grad=True)
        grads = P.mul(x, y).backward()
        assert grads[x] == 3.0 and grads[y] == 2.0

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            R.backward(x)

    def test_two_layer_mlp_matches_fd(self):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=(3, 5)), rng.normal(size=(5, 2)),
                  rng.normal(size=(2, 3))]

        def build(p):
            w1, w2, x = p
            return P.sum_(P.relu(P.matmul(P.relu(P.matmul(x, w1)), w2)))

        assert_matches_fd(build, arrays, rtol=1e-5)

    def test_accumulation_is_additive(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = P.sum_(P.mul(x, x))
        grads = loss.backward()
        once = grads[x].copy()
        loss.backward(grads)
        np.testing.assert_allclose(grads[x], 2.0 * once, rtol=0, atol=0)

    def test_deterministic_given_tape(self):
        rng = np.random.default_rng(22)
        arrays = [rng.normal(size=(4, 4)), rng.normal(size=(2, 4))]

        def run():
            R.reset_tape()
            w, x = [Tensor(a, requires_grad=True) for a in arrays]
            grads = P.sum_(P.matmul(x, w)).backward()
            return grads[w].copy()

        np.testing.assert_array_equal(run(), run())

    def test_each_node_visited_exactly_once(self):
        calls = []
        op = custom_node(lambda x: x * 2.0,
                         lambda g, x: (calls.append(1), 2.0 * g)[1])
        x = Tensor([1.0], requires_grad=True)
        y = op(x)
        # diamond: y feeds two consumers that rejoin
        grads = P.sum_(P.add(P.mul(y, 3.0), P.mul(y, 4.0))).backward()
        assert len(calls) == 1
        np.testing.assert_array_equal(grads[x], [14.0])

    def test_stale_tape_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        y = P.sum_(x)
        R.reset_tape()
        z = P.sum_(x)  # fresh tape: fine
        z.backward()
        with pytest.raises(ContractError):
            y.backward()

    def test_no_grad_records_nothing(self):
        before = len(R.get_tape())
        with R.no_grad():
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = P.sum_(P.mul(x, x))
        assert len(R.get_tape()) == before
        assert not y.requires_grad


@pytest.mark.parametrize("seed", range(10))
def test_random_graph_gradients_match_fd(seed):
    # random primitive graphs; the models the package trains are swept by
    # the gradcheck_random_models oracle of `gdnsq verify`
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)),
              rng.normal(size=(2, 4))]

    def build(p):
        w1, w2, x = p
        h = P.relu(P.matmul(x, w1))
        z = P.matmul(h, w2)
        q = P.softmax_rows(z)
        return P.mean(P.mul(P.log(P.maximum(q, 1e-9)), R.constant(
            np.random.default_rng(seed + 1).normal(size=(2, 2)))))

    assert_matches_fd(build, arrays, rtol=1e-4)


class _LoggedSlot(np.ndarray):
    """A gradient slot that logs each write: an assign or an add."""

    def __setitem__(self, key, value):
        self.log.append("assign")
        super().__setitem__(key, value)

    def __iadd__(self, other):
        self.log.append("add")
        return super().__iadd__(other)


def logged_slot(value):
    slot = np.asarray(value, dtype=np.float64).copy().view(_LoggedSlot)
    slot.log = []
    return slot


class TestChain:
    def setup_method(self):
        T.reset_tape()

    def teardown_method(self):
        T.reset_tape()

    def test_first_write_assigns_later_writes_add_in_sweep_order(self):
        p = Tensor(0.0, requires_grad=True, name="p")
        h = T.record(np.zeros(2), [p], np.ones(2),
                     lambda g: (None, np.asarray(-1e16)), "layer")
        # a loss entry that writes p twice: swept first, so 1e16 is p's
        # first write, then + 1.0 (absorbed), then the layer's -1e16
        T.record(h, [p, p], np.asarray(2.0),
                 lambda g: (g * np.ones(2), np.asarray(1e16),
                            np.asarray(1.0)), "loss")
        slots = {p: np.asarray(99.0)}  # stale content is overwritten
        assert T.backward(slots) is None
        assert float(slots[p]) == 0.0  # (1e16 + 1) - 1e16; -1e16 first gives 1

    def test_float_terms_sum_in_sweep_order_and_write_the_slot_once(self):
        p = Tensor(0.0, requires_grad=True, name="p")
        h = T.record(np.zeros(2), [p], np.ones(2),
                     lambda g: (None, -1e16), "layer")
        T.record(h, [p, p], np.asarray(2.0),
                 lambda g: (g * np.ones(2), 1e16, 1.0), "loss")
        slot = logged_slot(99.0)
        T.backward({p: slot})
        assert slot.log == ["assign"]
        assert float(slot) == 0.0  # (1e16 + 1) - 1e16; -1e16 first gives 1

    @pytest.mark.parametrize("kinds", ["ffff", "aaaa", "fafa", "afaf",
                                       "ffaa", "aaff", "faaf", "affa"])
    def test_float_and_array_terms_of_one_parameter_sum_in_sweep_order(
            self, kinds):
        # kinds[k] is the type of the k-th term swept: f(loat) or a(rray)
        terms = [1e16, 1.0, -1e16, 0.5]
        p = Tensor(0.0, requires_grad=True, name="p")
        h = np.zeros(2)
        for k in range(3, -1, -1):  # forward order: the last term first
            gp = terms[k] if kinds[k] == "f" else np.asarray(terms[k])
            h = T.record(h, [p], np.ones(2) if k else np.asarray(1.0),
                         lambda g, gp=gp: (np.ones(2), gp), f"entry{k}")
        slot = logged_slot(99.0)
        T.backward({p: slot})
        # one assign, never an overwrite, then adds
        assert slot.log[0] == "assign" and "assign" not in slot.log[1:]
        assert float(slot) == ((1e16 + 1.0) - 1e16) + 0.5 == 0.5

    def test_a_rule_that_raises_leaves_every_slot_untouched(self):
        p = Tensor(0.0, requires_grad=True, name="p")

        def overflow(g):
            raise NumericError("layer: overflow")

        h = T.record(np.zeros(2), [p], np.ones(2), overflow, "layer")
        # the loss entry, swept first, gives p an array term
        T.record(h, [p], np.asarray(2.0),
                 lambda g: (g * np.ones(2), np.asarray(5.0)), "loss")
        slot = logged_slot(99.0)
        with pytest.raises(NumericError, match="overflow"):
            T.backward({p: slot})
        assert slot.log == [] and float(slot) == 99.0

    def test_float_term_without_a_slot_rejected(self):
        p = Tensor(1.0, requires_grad=True, name="p")
        T.record(None, [p], np.asarray(1.0), lambda g: (None, 1.0), "loss")
        with pytest.raises(ContractError, match="loss: no slot for .*p"):
            T.backward({})

    def test_loss_entry_seeds_the_sweep_with_one(self):
        seen = []
        T.record(np.zeros(3), (), np.asarray(1.0),
                 lambda g: (seen.append(g) or 0.25 * g,), "loss")
        assert T.backward({}) == 0.25
        assert seen == [1.0] and np.shape(seen[0]) == ()

    def test_non_scalar_chain_rejected(self):
        T.record(np.zeros(3), (), np.ones(2), lambda g: (g,), "layer")
        with pytest.raises(ContractError, match="scalar loss"):
            T.backward({})

    def test_empty_chain_rejected(self):
        with pytest.raises(ContractError, match="scalar loss"):
            T.backward({})

    def test_middle_entry_without_input_gradient_rejected(self):
        h = T.record(np.zeros(2), (), np.ones(2), lambda g: (g,), "a")
        T.record(h, (), np.asarray(1.0), lambda g: (None,), "b")
        with pytest.raises(ContractError,
                           match="b: no gradient of its input, the output "
                                 "of a"):
            T.backward({})

    def test_input_must_be_the_last_output(self):
        out = T.record(np.zeros(2), (), np.ones(2), lambda g: (g,), "a")
        T.record(out, (), np.ones(2), lambda g: (g,), "b")
        with pytest.raises(ContractError, match="c: its input"):
            T.record(out, (), np.ones(2), lambda g: (g,), "c")

    def test_parameter_without_gradient_rejected(self):
        p = Tensor(1.0, requires_grad=True, name="p")
        q = Tensor(2.0, requires_grad=True, name="q")
        T.record(None, [p], np.asarray(1.0), lambda g: (None, g), "loss")
        with pytest.raises(ContractError, match="no gradient reached.*'q'"):
            T.backward({p: np.zeros(()), q: np.zeros(())})


@pytest.mark.parametrize("model_id", ["mlp4", "conv3"])
def test_qat_step_assigns_every_slot_once(model_id):
    # one QAT step of a PTQ student: its forward and total_loss, swept into
    # logged views of the optimizer's gradient buffer, then swept again
    # into the optimizer's own slots with the same probe draws
    rng = np.random.default_rng(3)
    shape = (16, 2, 6, 6) if model_id == "conv3" else (16, 2)
    ds = Dataset(rng.normal(size=shape), rng.integers(0, 3, size=16),
                 num_classes=3)
    spec = make_model_spec(model_id, 2, 3)
    teacher = Model(spec, init_seed=3)
    probes = np.random.default_rng(4)
    student = Model(spec, quantized=True, quant_rng=probes)
    student.copy_weights_from(teacher)
    ptq_minmax(student, ds, 4.0)
    opt = RAdam(student.named_parameters(), lr=1e-3)
    T.reset_tape()
    logits = student.forward(ds.inputs, train=True)
    total_loss(logits, teacher_probs(teacher.predict_logits(ds.inputs)),
               student.weight_quantizers(), student.act_quantizers(),
               (3.0, 3.0), 0.5)
    draws = probes.bit_generator.state
    slots = {}
    for name, p in student.named_parameters():
        slots[p] = opt.g[name].view(_LoggedSlot)
        slots[p].log = []
    T.backward(slots)
    logs = {name: slots[p].log for name, p in student.named_parameters()}
    assert logs == dict.fromkeys(logs, ["assign"])
    logged = opt._g.tobytes()
    opt._g[...] = np.nan
    probes.bit_generator.state = draws
    T.backward(opt.slots)
    T.reset_tape()
    assert opt._g.tobytes() == logged
