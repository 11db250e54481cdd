import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import grad_check
from vidcap.errors import DimensionError, NumericError, ParameterError
from vidcap.numerics import (
    OptState,
    check_fits_in_memory,
    dropout_mask,
    log_softmax,
    make_rng,
    rmsprop_step,
    rmsprop_update,
    sigmoid,
)

# +-0, where exp(-|x|) underflows (745, 746), subnormals, and a spread.
SPECIAL = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324,
           1e-310, -1e-310, 2.2250738585072014e-308, 36.7, -36.7, 1.0, -1.0]


def sigmoid_by_sign(x):
    """The sign-split sigmoid that `sigmoid` replaced, kept as its oracle."""
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rmsprop_step_copying(param, grad, state, name):
    """The allocating RMSProp step that `rmsprop_step` replaced, kept as its oracle."""
    acc = state.acc.get(name)
    if acc is None:
        acc = np.zeros_like(param)
    acc = state.decay * acc + (1.0 - state.decay) * grad * grad
    state.acc[name] = acc
    param -= state.learning_rate * grad / np.sqrt(acc + state.epsilon)
    return param


def softmax(v):
    """Probabilities read back from `log_softmax`, the one the decoder uses."""
    return np.exp(log_softmax(v))


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


class TestSigmoid:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    @example(SPECIAL + [np.inf, -np.inf])
    def test_bytes_equal_to_sign_split_form(self, values):
        x = np.array(values)
        assert sigmoid(x).tobytes() == sigmoid_by_sign(x).tobytes()

    def test_strided_slab(self):
        # the decoder passes the i|f|o columns of a wider pre-activation
        a = make_rng(1).normal(size=(16, 4 * 48)) * 8
        got = sigmoid(a[:, : 3 * 48])
        assert got.shape == (16, 3 * 48)
        assert got.tobytes() == sigmoid_by_sign(np.ascontiguousarray(a[:, : 3 * 48])).tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan, 0.0]))[:2]).all()


class TestRmsProp:
    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=30), st.integers(1, 20))
    @example(SPECIAL, 20)
    @settings(deadline=None)
    def test_bytes_equal_to_copying_form(self, values, steps):
        grads = np.array(values)
        start = make_rng(len(values)).normal(size=grads.shape)
        params = [start.copy(), start.copy()]
        states = [OptState(learning_rate=0.01, decay=0.9, epsilon=1e-8) for _ in range(2)]
        for k in range(steps):
            g = grads * (k + 1) if k % 2 else grads[::-1].copy()
            rmsprop_step(params[0], g, states[0], name="p")
            rmsprop_step_copying(params[1], g, states[1], name="p")
            assert params[0].tobytes() == params[1].tobytes()
            assert states[0].acc["p"].tobytes() == states[1].acc["p"].tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_grad_mutates_nothing(self, bad):
        state = OptState(learning_rate=0.01)
        p = np.array([1.0, -2.0, 3.0])
        with pytest.raises(NumericError):
            rmsprop_step(p, np.array([0.1, bad, 0.2]), state, name="p")
        assert "p" not in state.acc
        rmsprop_step(p, np.array([0.1, 0.3, 0.2]), state, name="p")
        acc, before = state.acc["p"].copy(), p.copy()
        with pytest.raises(NumericError):
            rmsprop_step(p, np.array([bad, 0.3, 0.2]), state, name="p")
        assert state.acc["p"].tobytes() == acc.tobytes()
        assert p.tobytes() == before.tobytes()

    def test_zero_grad_leaves_param(self):
        state = OptState(learning_rate=0.01, decay=0.9, epsilon=1e-8)
        state.acc["p"] = np.full(3, 0.5)
        p = np.array([1.0, -2.0, 3.0])
        rmsprop_step(p, np.zeros(3), state, name="p")
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert np.allclose(state.acc["p"], 0.45)  # decayed by 0.9

    def test_zero_gradients_only_decay_the_accumulators(self):
        """An update whose gradients are all zero, as an evaluator update with
        no active hinge has, leaves every parameter bit for bit, -0.0
        included, and multiplies each existing accumulator by exactly `decay`.
        The zero accumulator it makes for a parameter that had none changes
        no later update."""
        rng = make_rng(3)
        params = {"a": np.array([1.5, -0.0, 0.0, -2.0, 5e-324]), "b": rng.normal(size=(2, 3))}
        state = OptState(learning_rate=0.01, decay=0.9)
        state.acc["b"] = rng.random((2, 3))
        before = {k: v.copy() for k, v in params.items()}
        decayed = state.acc["b"] * 0.9
        rmsprop_update(params, {k: np.zeros_like(v) for k, v in params.items()}, state)
        for k in params:
            assert params[k].tobytes() == before[k].tobytes(), k
        assert state.acc["b"].tobytes() == decayed.tobytes()
        fresh = OptState(learning_rate=0.01, decay=0.9, acc={"b": decayed})
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        rmsprop_update(params, grads, state)
        rmsprop_update(before, grads, fresh)
        for k in params:
            assert params[k].tobytes() == before[k].tobytes(), k
            assert state.acc[k].tobytes() == fresh.acc[k].tobytes(), k

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


class TestMakeRng:
    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_unkeyed_stream_is_pcg64_of_the_seed(self, seed):
        expected = np.random.Generator(np.random.PCG64(seed)).random(100)
        assert np.array_equal(make_rng(seed).random(100), expected)

    @pytest.mark.parametrize("seed", [0, 3, 99])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_keyed_stream_is_a_spawned_child(self, seed, k):
        """make_rng(s, k) is stream k of SeedSequence(s).spawn(n), whatever n > k."""
        drawn = make_rng(seed, k).random(100)
        for n in (k + 1, k + 3):
            child = np.random.SeedSequence(seed).spawn(n)[k]
            assert np.array_equal(drawn, np.random.Generator(np.random.PCG64(child)).random(100))

    @pytest.mark.parametrize("key", [(), (2,)])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            make_rng(-1, *key)


class TestMemoryBound:
    @staticmethod
    def _memory(monkeypatch, page, pages):
        values = {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(os, "sysconf", lambda name: values[name])

    def test_bound_is_physical_memory(self, monkeypatch):
        self._memory(monkeypatch, 4096, 2)
        check_fits_in_memory({"W": (32, 32)}, "the model's parameters")  # 8192 bytes: all of it
        with pytest.raises(ParameterError, match=r"^the model's parameters need 8200 bytes, "
                                                 r"more than the 8192 bytes"):
            check_fits_in_memory({"W": (32, 32), "b": (1,)}, "the model's parameters")

    def test_no_overflow_on_huge_extents(self, monkeypatch):
        self._memory(monkeypatch, 4096, 2)
        with pytest.raises(ParameterError, match=f"need {8 * 10**30} bytes"):
            check_fits_in_memory({"W": (10**15, 10**15)}, "the model's")

    @pytest.mark.parametrize("page, pages", [(-1, 2), (4096, -1), (None, None)],
                             ids=["no-page-size", "no-page-count", "no-sysconf"])
    def test_no_bound_where_sysconf_cannot_tell(self, monkeypatch, page, pages):
        if page is None:
            monkeypatch.delattr(os, "sysconf")
        else:
            self._memory(monkeypatch, page, pages)
        check_fits_in_memory({"W": (10**9, 10**9)}, "the model's")
