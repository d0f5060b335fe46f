import math

import numpy as np
import pytest

from gdnsq.errors import DomainError
from gdnsq.oracles import (OracleReport, bernoulli_clt_check, bsc_reduction,
                           default_noise_quantizer, gradcheck_layer_nodes,
                           gradcheck_random_models, gradcheck_total_loss,
                           jeffreys_hamming, lemma_fd_round, noise_uniformity,
                           oracle_registry, radam_reference_check, run_all,
                           ste_gradient_check)


class TestLemma:
    @pytest.mark.parametrize("l,u,d", [(0, 4, 0.25), (-3, 2, 0.1), (0, 1, 0.49)])
    def test_passes_for_acceptance_configs(self, l, u, d):
        reports = lemma_fd_round(l, u, d, m=200_000, seed=0)
        for r in reports:
            assert r.passed, r.format()

    def test_component_mean_value(self):
        main, comp = lemma_fd_round(0, 4, 0.25, m=200_000, seed=1)
        # E floor(x + d + 1/2) = (l+u)/2 + d = 2.25
        assert comp.expected == pytest.approx(2.25)
        assert abs(comp.statistic - 2.25) <= comp.tolerance

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            lemma_fd_round(0, 4, 0.5, m=10)
        with pytest.raises(DomainError):
            lemma_fd_round(0, 4, 0.0, m=10)

    def test_integer_bounds_required(self):
        with pytest.raises(DomainError):
            lemma_fd_round(0.5, 4, 0.25, m=10)


class TestNoiseUniformity:
    def test_gaussian_through_four_bits(self):
        for r in noise_uniformity(default_noise_quantizer(), "gaussian",
                                  m=200_000, seed=0):
            assert r.passed, r.format()

    def test_uniform_over_integer_range(self):
        for r in noise_uniformity(default_noise_quantizer(), "uniform",
                                  m=200_000, seed=0):
            assert r.passed, r.format()


class TestJeffreysHamming:
    def test_equality_to_1e9(self):
        for p0, p1 in ((0.1, 0.1), (0.2, 0.05), (0.4, 0.3)):
            (r,) = jeffreys_hamming(p0, p1, n=64, trials=100, seed=0)
            assert r.passed, r.format()

    def test_single_flip_constant(self):
        # p0 = p1 = 0.1: delta = 2 * (0.8 ln 9)
        (r,) = jeffreys_hamming(0.1, 0.1, n=1, trials=5, seed=0)
        assert f"{2 * 0.8 * math.log(9.0):.12f}" in r.details

    def test_identical_vectors_give_zero(self):
        rng = np.random.default_rng(0)
        from gdnsq.oracles import _j2, _soft_label
        b = rng.integers(0, 2, size=32)
        total = sum(_j2(_soft_label(int(x), 0.2, 0.05),
                        _soft_label(int(x), 0.2, 0.05)) for x in b)
        assert total == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_probability_rejected(self):
        with pytest.raises(DomainError):
            jeffreys_hamming(0.0, 0.5)
        with pytest.raises(DomainError):
            jeffreys_hamming(0.5, 1.0)


class TestBsc:
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_identities_hold(self, p):
        (r,) = bsc_reduction(p)
        assert r.passed and r.tolerance == 1e-12

    def test_half_is_trivial_zero(self):
        (r,) = bsc_reduction(0.5)
        assert r.passed
        from gdnsq.oracles import _j2, _soft_label
        assert _j2(_soft_label(0, 0.5, 0.5),
                   _soft_label(1, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)


class TestSteOracle:
    def test_clamp_fd_and_exact_zero(self):
        fd, zero = ste_gradient_check(seed=0)
        assert fd.passed, fd.format()
        assert zero.passed and zero.tolerance == 0.0


class TestCltOracle:
    def test_batch_of_100(self):
        for r in bernoulli_clt_check(m=100, trials=10_000, seed=0):
            assert r.passed, r.format()

    def test_single_sample_variance_is_one_twelfth(self):
        reports = bernoulli_clt_check(m=1, trials=10_000, seed=0)
        var_report = next(r for r in reports if "variance" in r.name)
        assert var_report.expected == pytest.approx(1.0 / 12.0)
        assert var_report.passed


def test_gradcheck_small_slice():
    (r,) = gradcheck_random_models(n_models=10, seed=0)
    assert r.passed, r.format()


def test_gradcheck_total_loss_small_slice():
    (r,) = gradcheck_total_loss(n_cases=6, seed=0)
    assert r.passed, r.format()
    assert r.tolerance == 1e-4

    assert [n for n, _ in oracle_registry() if "gradcheck" in n] == [
        "gradcheck_random_models", "gradcheck_total_loss",
        "gradcheck_layer_nodes"]


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_layer_nodes(seed):
    (r,) = gradcheck_layer_nodes(n_cases=6, seed=seed)
    assert r.passed, r.format()
    assert r.tolerance == 1e-4 and r.trials == 6


def test_radam_reference():
    (r,) = radam_reference_check()
    assert r.passed


def test_report_invariant_holds_everywhere():
    reports = []
    reports += lemma_fd_round(0, 4, 0.25, m=50_000, seed=2)
    reports += bsc_reduction(0.3)
    reports += bernoulli_clt_check(m=10, trials=2_000, seed=2)
    for r in reports:
        assert r.passed == (abs(r.statistic - r.expected) <= r.tolerance)


def test_run_all_filter_selects_groups():
    reports = run_all(name_filter="bsc_reduction", seed=0)
    assert reports and all("bsc_reduction" in r.name for r in reports)


def test_registry_names_are_unique():
    names = [name for name, _ in oracle_registry()]
    assert len(names) == len(set(names))


def test_report_formatting():
    r = OracleReport.make("demo", 10, 0.5, 0.5, 0.1)
    assert r.format().startswith("PASS")
    r2 = OracleReport.make("demo", 10, 9.0, 0.5, 0.1)
    assert r2.format().startswith("FAIL")
