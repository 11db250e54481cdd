import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import grad_check
from vidcap.errors import DimensionError, NumericError, ParameterError
from vidcap.numerics import (
    OptState,
    dropout_mask,
    make_rng,
    rmsprop_step,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_large_values_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self):
        v = np.array([1.0, 2.0, 3.0])
        expected = np.exp(v) / np.exp(v).sum()
        assert np.allclose(softmax(v), expected, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            softmax(np.array([]))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20))
    def test_sums_to_one(self, values):
        # Entries may underflow to exactly 0 when logits differ by >~745,
        # so only non-negativity is asserted alongside the sum.
        out = softmax(np.array(values))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)


class TestRmsProp:
    def test_zero_grad_leaves_param(self):
        state = OptState(learning_rate=0.01, decay=0.9, epsilon=1e-8)
        state.acc["p"] = np.full(3, 0.5)
        p = np.array([1.0, -2.0, 3.0])
        rmsprop_step(p, np.zeros(3), state, name="p")
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert np.allclose(state.acc["p"], 0.45)  # decayed by 0.9

    def test_single_step_formula(self):
        # acc = 0.1*1 = 0.1; delta = -0.01/sqrt(0.1 + 1e-8)
        state = OptState(learning_rate=0.01, decay=0.9, epsilon=1e-8)
        p = np.zeros(1)
        rmsprop_step(p, np.ones(1), state, name="p")
        assert p[0] == pytest.approx(-0.0316228, abs=1e-6)

    def test_second_step_smaller(self):
        state = OptState(learning_rate=0.01, decay=0.9, epsilon=1e-8)
        p = np.zeros(1)
        rmsprop_step(p, np.ones(1), state, name="p")
        first = abs(p[0])
        before = p[0]
        rmsprop_step(p, np.ones(1), state, name="p")
        assert abs(p[0] - before) < first

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rmsprop_step(np.zeros(2), np.zeros(3), OptState())

    def test_nonfinite_grad(self):
        with pytest.raises(NumericError):
            rmsprop_step(np.zeros(2), np.array([np.nan, 0.0]), OptState())

    def test_bad_hyperparams(self):
        with pytest.raises(ParameterError):
            OptState(learning_rate=-1.0)
        with pytest.raises(ParameterError):
            OptState(decay=1.0)


class TestDropout:
    def test_rate_zero_all_ones(self):
        assert np.array_equal(dropout_mask((4, 5), 0.0, make_rng(0)), np.ones((4, 5)))

    def test_monte_carlo_mean(self):
        mask = dropout_mask(100_000, 0.5, make_rng(1))
        assert abs(mask.mean() - 1.0) < 0.02
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_same_seed_same_mask(self):
        a = dropout_mask((10, 10), 0.3, make_rng(42))
        b = dropout_mask((10, 10), 0.3, make_rng(42))
        assert np.array_equal(a, b)

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            dropout_mask(5, 1.0, make_rng(0))


class TestGradCheck:
    def test_quadratic(self):
        theta = {"theta": make_rng(3).normal(size=8) + 2.0}

        def loss_fn(p):
            return 0.5 * float(np.sum(p["theta"] ** 2)), {"theta": p["theta"].copy()}

        assert grad_check(loss_fn, theta, make_rng(0), h=1e-5, samples_per_param=8) < 1e-8

    def test_corrupted_gradient_detected(self):
        theta = {"theta": make_rng(3).normal(size=8) + 2.0}

        def loss_fn(p):
            return 0.5 * float(np.sum(p["theta"] ** 2)), {"theta": 2.0 * p["theta"]}

        err = grad_check(loss_fn, theta, make_rng(0), h=1e-5, samples_per_param=8)
        assert err == pytest.approx(1.0, abs=0.01)

    def test_rng_determinism(self):
        rng = make_rng(10)
        a = rng.random(1000)
        b = make_rng(10).random(1000)
        assert np.array_equal(a, b)
