import numpy as np
import pytest

import reference_graphs as ref
from gdnsq.errors import ContractError, NumericError
from gdnsq.models import Model, make_model_spec
from gdnsq.optim import RAdam
from gdnsq.oracles import _radam_scalar_reference, radam_reference_check
from gdnsq.pipeline import QatRun, RunConfig
from gdnsq.tensor import Tensor


def make_param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


class TestRAdam:
    def test_zero_gradient_leaves_params(self):
        p = make_param([1.0, -2.0])
        opt = RAdam([("p", p)], lr=0.1)
        opt.g["p"][...] = 0.0
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_rho_inf_default(self):
        opt = RAdam([("p", make_param(0.0))], lr=0.01)
        assert opt.rho_inf == pytest.approx(1999.0, rel=1e-12)

    def test_matches_independent_reference_on_quadratic(self):
        p = make_param(1.0)
        opt = RAdam([("x", p)], lr=0.1)
        ref = _radam_scalar_reference(1.0, 0.1, 10)
        for t in range(10):
            opt.g["x"][...] = 2.0 * float(p.data)
            opt.step()
            assert abs(float(p.data) - ref[t]) < 1e-10

    def test_reference_oracle_passes(self):
        (report,) = radam_reference_check(steps=10, lr=0.1)
        assert report.passed, report.format()

    def test_early_steps_use_momentum_branch(self):
        # rho_t <= 4 for t <= 4 at beta2 = 0.999
        p = make_param(1.0)
        opt = RAdam([("x", p)], lr=0.05)
        m = 0.0
        x = 1.0
        for t in range(1, 5):
            g = 2.0 * x
            opt.g["x"][...] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            x = x - 0.05 * m / (1.0 - 0.9 ** t)
            assert float(p.data) == pytest.approx(x, abs=1e-14)

    def test_beta_zero_reduces_to_plain_sgd(self):
        p = make_param(1.0)
        opt = RAdam([("x", p)], lr=0.1)
        opt.beta1 = opt.beta2 = 0.0
        x = 1.0
        for _ in range(6):
            opt.g["x"][...] = 2.0 * float(p.data)
            opt.step()
            x = x - 0.1 * 2.0 * x
            assert float(p.data) == pytest.approx(x, abs=1e-14)

    def test_non_finite_gradient_rejected(self):
        p = make_param(1.0)
        opt = RAdam([("x", p)], lr=0.1)
        opt.g["x"][...] = np.nan
        with pytest.raises(NumericError, match="x"):
            opt.step()

    def test_state_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        p1 = make_param(rng.normal(size=4))
        opt1 = RAdam([("p", p1)], lr=0.02)
        for _ in range(7):
            opt1.g["p"][...] = rng.normal(size=4)
            opt1.step()
        saved = {k: v.copy() for k, v in opt1.state_arrays().items()}
        p2 = make_param(p1.data.copy())
        opt2 = RAdam([("p", p2)], lr=0.02)
        opt2.load_state_arrays(saved)
        assert opt2.t == opt1.t
        np.testing.assert_array_equal(opt2.m["p"], opt1.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt1.v["p"])
        follow = np.random.default_rng(1).normal(size=(5, 4))
        for g in follow:
            opt1.g["p"][...] = g
            opt2.g["p"][...] = g
            opt1.step()
            opt2.step()
        np.testing.assert_array_equal(p1.data, p2.data)


SHAPES = {"w": (6, 8), "b": (5,), "log_s": ()}


def three_params(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [(name, make_param(scale * rng.normal(size=shape)))
            for name, shape in SHAPES.items()]


class TestFlatRAdam:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ContractError, match="duplicate parameter name 'p'"):
            RAdam([("p", make_param(1.0)), ("p", make_param(2.0))], lr=0.01)

    def test_one_tensor_under_two_names_rejected(self):
        p = make_param([1.0, 2.0])
        with pytest.raises(ContractError, match="'a' and 'b' are one tensor"):
            RAdam([("a", p), ("c", make_param(0.0)), ("b", p)], lr=0.01)

    def test_matches_per_parameter_loop(self):
        # steps as large as the parameters, so a last-bit change in the
        # step survives the subtraction
        flat_params, loop_params = three_params(0, 0.01), three_params(0, 0.01)
        opt = RAdam(flat_params, lr=0.1)
        loop = ref.RAdamLoop(loop_params, lr=0.1)
        rng = np.random.default_rng(1)
        for step in range(1, 13):  # rho_t <= 4 up to step 4, > 4 after
            grads = {name: rng.normal(size=shape)
                     for name, shape in SHAPES.items()}
            for name, g in grads.items():
                opt.g[name][...] = g
            opt.step()
            loop.step(grads)
            for (name, p), (_, q) in zip(flat_params, loop_params):
                np.testing.assert_array_equal(p.data, q.data, err_msg=name)
                np.testing.assert_array_equal(opt.m[name], loop.m[name])
                np.testing.assert_array_equal(opt.v[name], loop.v[name])
                assert p.data.shape == SHAPES[name]

    def test_gradient_buffer_views(self):
        params = three_params(2)
        opt = RAdam(params, lr=0.1)
        for name, p in params:
            assert opt.slots[p] is opt.g[name]
            assert opt.g[name].shape == SHAPES[name]
        opt.slots[params[1][1]][...] = 7.0
        np.testing.assert_array_equal(opt._g[48:53], np.full(5, 7.0))

    def test_parameters_are_views_of_the_flat_buffer(self):
        params = three_params(6)
        values = [p.data.copy() for _, p in params]
        opt = RAdam(params, lr=0.1)
        held = [p.data for _, p in params]
        np.testing.assert_array_equal(
            opt.data, np.concatenate([v.reshape(-1) for v in values]))
        opt._g[...] = 1.0
        opt.step()
        for (name, p), v, h in zip(params, values, held):
            # stepped in place: the same view, new values
            assert p.data is h and np.shares_memory(p.data, opt.data)
            assert p.data.shape == SHAPES[name]
            assert not np.array_equal(p.data, v)

    def test_non_finite_gradient_rejected_before_any_change(self):
        params = three_params(3)
        opt = RAdam(params, lr=0.1)
        opt._g[...] = 1.0
        opt.step()
        before = {k: v.copy() for k, v in opt.state_arrays().items()}
        data = [p.data.copy() for _, p in params]
        opt.g["b"][...] = [1.0, np.inf, 0.0, 1.0, 1.0]
        with pytest.raises(NumericError, match="'b'"):
            opt.step()
        for k, v in opt.state_arrays().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)
        for (_, p), d in zip(params, data):
            np.testing.assert_array_equal(p.data, d)

    def test_state_arrays_round_trip_bytes(self):
        params = three_params(4)
        opt = RAdam(params, lr=0.02)
        rng = np.random.default_rng(5)
        for step in range(6):
            for name, _ in params:
                opt.g[name][...] = rng.normal(size=SHAPES[name])
            opt.step()
        saved = opt.state_arrays()
        again = RAdam(three_params(4), lr=0.02)
        again.load_state_arrays({k: v.copy() for k, v in saved.items()})
        restored = again.state_arrays()
        assert sorted(restored) == sorted(saved)
        for k in saved:
            assert restored[k].shape == saved[k].shape, k
            assert restored[k].tobytes() == saved[k].tobytes(), k
        assert again.t == opt.t == 6


class TestLrPolicy:
    """The learning rate a QAT run (pipeline.QatRun) gives each batch and
    sets on its optimizer."""

    @staticmethod
    def lam_after(run, reached):
        # an audit before this batch was the first to meet the targets
        if reached and run.reached_epoch is None:
            run.reached_epoch = 0
        lam, _ = run.next_batch()
        assert run.opt.lr == lam
        return lam

    @staticmethod
    def make_run(lr0):
        student = Model(make_model_spec("mlp3", 2, 2), quantized=True)
        return QatRun(RunConfig(lr0=lr0), student)

    def test_constant_until_trigger(self):
        run = self.make_run(0.01)
        for _ in range(100):
            assert self.lam_after(run, reached=False) == 0.01
        assert run.phase == "constant"

    def test_first_annealing_step(self):
        run = self.make_run(0.01)
        lam = self.lam_after(run, reached=True)
        assert run.phase == "annealing"
        assert lam == pytest.approx(0.009985, abs=1e-15)

    def test_geometric_decay_closed_form(self):
        run = self.make_run(1.0)
        lam = None
        for _ in range(1000):
            lam = self.lam_after(run, reached=True)
        assert lam == pytest.approx(0.9985 ** 1000, rel=1e-9)
        assert lam == pytest.approx(0.22287902884342548, rel=1e-9)

    def test_switch_is_one_way(self):
        run = self.make_run(0.5)
        self.lam_after(run, True)
        run.reached_epoch = None  # stays annealing even if it were cleared
        lam = self.lam_after(run, False)
        assert run.phase == "annealing"
        assert lam == pytest.approx(0.5 * 0.9985 ** 2, rel=1e-12)

    def test_nonincreasing_across_run(self):
        run = self.make_run(0.3)
        vals = [self.lam_after(run, i > 40) for i in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
