"""Gate sampler fidelity: saturation, Monte-Carlo frequencies, gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import init_gate, numeric_grad, rel_err

from hssr.errors import ParameterError
from hssr.gating import GateParams, mask_for, sample_hard, sample_soft
from hssr.tensor import Graph, Param, Tensor, backward, mean_all, mul


def _gate(logits, tau=2.0 / 3.0, dtype=np.float64) -> GateParams:
    return GateParams(Param("g", np.asarray(logits, dtype=dtype)), tau=tau)


class TestSampleSoft:
    def test_saturates_at_extreme_logit(self, rng):
        gate = _gate(np.full(64, 30.0))
        mask = sample_soft(gate, rng).data
        assert np.all(mask > 1.0 - 1e-6)

    def test_half_probability_threshold_frequency(self):
        # tau=0.01, logit 0: the hard-thresholded mask is Bernoulli(0.5)
        gate = _gate(np.zeros(1), tau=0.01)
        rng = np.random.default_rng(11)
        hits = sum(float(sample_soft(gate, rng).data[0]) > 0.5 for _ in range(10_000))
        assert 0.48 <= hits / 10_000 <= 0.52

    def test_keep_rate_tracks_probability(self):
        logit = float(np.log(0.8 / 0.2))
        gate = _gate(np.full(1, logit), tau=0.01)
        rng = np.random.default_rng(12)
        mean_rounded = np.mean(
            [round(float(sample_soft(gate, rng).data[0])) for _ in range(10_000)]
        )
        assert 0.78 <= mean_rounded <= 0.82

    @given(st.floats(-8, 8), st.integers(0, 1000))
    def test_strictly_inside_unit_interval(self, logit, seed):
        gate = _gate(np.full(3, logit))
        mask = sample_soft(gate, np.random.default_rng(seed)).data
        assert np.all(mask > 0.0) and np.all(mask < 1.0)

    def test_distributional_limit_at_low_tau(self):
        # mean |empirical keep freq - p| over draws < 0.02 for tau <= 0.05
        for p in (0.2, 0.5, 0.8):
            gate = _gate(np.full(1, np.log(p / (1 - p))), tau=0.05)
            rng = np.random.default_rng(21)
            freq = np.mean(
                [float(sample_soft(gate, rng).data[0]) > 0.5 for _ in range(10_000)]
            )
            assert abs(freq - p) < 0.02

    def test_pathwise_gradient_matches_fd(self):
        # common random numbers: same uniforms at theta+h and theta-h
        rng_master = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            logits = rng_master.uniform(-2, 2, 5)
            seed = int(rng_master.integers(1 << 30))
            w = rng_master.standard_normal(5)

            gate = _gate(logits.copy())
            g = Graph()
            out = sample_soft(gate, np.random.default_rng(seed), graph=g)
            s = mean_all(mul(out, Tensor(w)))
            ana = backward(s)[g.leaf_id(gate.logits)]

            theta = logits.copy()

            def f():
                gate_f = _gate(theta)
                out_f = sample_soft(gate_f, np.random.default_rng(seed))
                return float((out_f.data * w).mean())

            worst = max(worst, rel_err(ana, numeric_grad(f, theta)))
        assert worst < 1e-3

    def test_tau_must_be_positive(self):
        # a net's gates take tau from NetConfig, which rejects a bad one
        # (tests/test_train.py); this is the test-only gate constructor
        with pytest.raises(ParameterError):
            init_gate("g", 4, 0.9, tau=-1.0)


class TestSampleHard:
    def test_probability_one_gives_ones(self, rng):
        gate = _gate(np.full(32, 30.0))
        np.testing.assert_array_equal(sample_hard(gate, rng).data, np.ones(32))

    def test_probability_zero_gives_zeros(self, rng):
        gate = _gate(np.full(32, -30.0))
        np.testing.assert_array_equal(sample_hard(gate, rng).data, np.zeros(32))

    def test_keep_rate(self):
        gate = _gate(np.full(1, np.log(0.3 / 0.7)))
        rng = np.random.default_rng(9)
        freq = np.mean([float(sample_hard(gate, rng).data[0]) for _ in range(10_000)])
        assert 0.28 <= freq <= 0.32

    @given(st.integers(0, 500))
    def test_output_exactly_binary(self, seed):
        gate = _gate(np.linspace(-2, 2, 8))
        mask = sample_hard(gate, np.random.default_rng(seed)).data
        assert set(np.unique(mask)).issubset({0.0, 1.0})


class TestExpectationAndWarmup:
    def test_logit_zero_is_half(self):
        np.testing.assert_allclose(mask_for(_gate(np.zeros(3)), "expect").data, 0.5)

    def test_large_logit_saturates(self):
        assert abs(float(mask_for(_gate(np.full(1, 30.0)), "expect").data[0]) - 1.0) < 1e-9

    def test_reference_values(self):
        out = mask_for(_gate(np.array([-1.0, 0.0, 2.0])), "expect").data
        np.testing.assert_allclose(out, [0.26894, 0.5, 0.88079], atol=1e-4)

    def test_warmup_is_ones_regardless_of_logits(self, rng):
        gate = _gate(rng.uniform(-9, 9, 16))
        np.testing.assert_array_equal(mask_for(gate, "warmup").data, np.ones(16))

    def test_warmup_consumes_no_randomness(self, rng):
        gate = _gate(np.zeros(4))
        r = np.random.default_rng(3)
        before = r.bit_generator.state
        mask_for(gate, "warmup", rng=r)
        assert r.bit_generator.state == before


class TestDispatchAndInit:
    def test_init_gate_probability(self):
        gate = init_gate("g", 8, keep_prob=0.9, tau=0.5)
        np.testing.assert_allclose(mask_for(gate, "expect").data, 0.9, atol=1e-6)
        assert gate.logits.data.shape == (8,)
        assert abs(float(gate.logits.data[0]) - 2.197) < 1e-3

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ParameterError):
            mask_for(_gate(np.zeros(2)), "inference", rng)

    def test_modes_requiring_rng(self):
        gate = _gate(np.zeros(2))
        with pytest.raises(ParameterError):
            mask_for(gate, "train")
        with pytest.raises(ParameterError):
            mask_for(gate, "sample")

    def test_bad_init_arguments(self):
        with pytest.raises(ParameterError):
            init_gate("g", 0, 0.9, 0.5)
        with pytest.raises(ParameterError):
            init_gate("g", 4, keep_prob=1.0, tau=0.5)
