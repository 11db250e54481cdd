import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gradcheck import grad_check
from reference_decoder import ref_batch_loss_and_grads, ref_forward_logprob, ref_perplexity
from vidcap import binio, decoder
from vidcap.decoder import (
    LMConfig,
    batch_loss_and_grads,
    fit_lm,
    forward_logprob,
    init_lm_params,
    load_lm,
    make_batch,
    perplexity,
    save_lm,
    stack_step,
    train_step,
    zero_states,
)
from vidcap.errors import DataError, FormatError
from vidcap.numerics import OptState, make_rng
from vidcap.text import BOS, EOS


def ref_cell(x, h, c, Wx, Wh, b):
    """Scalar-loop transliteration of the cell equations (test oracle)."""
    H = len(h)
    h_out, c_out = np.zeros(H), np.zeros(H)
    for k in range(H):
        acts = []
        for gate in range(4):
            a = b[gate * H + k]
            for j in range(len(x)):
                a += Wx[gate * H + k, j] * x[j]
            for j in range(H):
                a += Wh[gate * H + k, j] * h[j]
            acts.append(a)
        i = 1.0 / (1.0 + math.exp(-acts[0]))
        f = 1.0 / (1.0 + math.exp(-acts[1]))
        o = 1.0 / (1.0 + math.exp(-acts[2]))
        g = math.tanh(acts[3])
        c_out[k] = f * c[k] + i * g
        h_out[k] = o * math.tanh(c_out[k])
    return h_out, c_out


def cell_step(x, h, c, Wx, Wh, b):
    """One LSTM cell step: a depth-1 stack_step whose layer holds these weights."""
    H, D = Wh.shape[1], Wx.shape[1]
    cfg = LMConfig(vocab_size=1, init_dim=1, persist_dim=1, depth=1, hidden=H,
                   embed_dim=D - 1)
    params = {"l1_Wx": Wx, "l1_Wh": Wh, "l1_b": b}
    out, [(h_new, c_new)] = stack_step(x, [(h, c)], params, cfg)
    assert np.array_equal(out, h_new)
    return h_new, c_new


def tiny_cfg(depth=2, vocab=12, hidden=8):
    return LMConfig(vocab_size=vocab, init_dim=5, persist_dim=4, depth=depth,
                    hidden=hidden, embed_dim=6, dropout_rate=0.0)


def random_examples(cfg, rng, n=3, min_len=2, max_len=6):
    out = []
    for _ in range(n):
        body = list(rng.integers(4, cfg.vocab_size, size=int(rng.integers(min_len, max_len))))
        out.append((rng.normal(size=cfg.init_dim), rng.normal(size=cfg.persist_dim),
                    [BOS] + body + [EOS]))
    return out


class TestCell:
    def test_all_zero(self):
        H, D = 3, 4
        h, c = cell_step(np.zeros(D), np.zeros(H), np.zeros(H),
                         np.zeros((4 * H, D)), np.zeros((4 * H, H)), np.zeros(4 * H))
        assert np.array_equal(h, np.zeros(H)) and np.array_equal(c, np.zeros(H))

    def test_forget_bias_saturation(self):
        rng = make_rng(0)
        H, D = 4, 3
        Wx = rng.uniform(-0.1, 0.1, (4 * H, D))
        Wh = rng.uniform(-0.1, 0.1, (4 * H, H))
        b = rng.uniform(-0.1, 0.1, 4 * H)
        b[H : 2 * H] = 20.0
        x, h, c = rng.normal(size=D), rng.normal(size=H), rng.normal(size=H)
        _, c_new = cell_step(x, h, c, Wx, Wh, b)
        a = x @ Wx.T + h @ Wh.T + b
        i = 1.0 / (1.0 + np.exp(-a[:H]))
        g = np.tanh(a[3 * H :])
        assert np.max(np.abs(c_new - (c + i * g))) < 1e-6

    def test_matches_reference(self):
        rng = make_rng(1)
        H, D = 5, 4
        Wx = rng.normal(0, 0.5, (4 * H, D))
        Wh = rng.normal(0, 0.5, (4 * H, H))
        b = rng.normal(0, 0.5, 4 * H)
        x, h, c = rng.normal(size=D), rng.normal(size=H), rng.normal(size=H)
        h1, c1 = cell_step(x, h, c, Wx, Wh, b)
        h2, c2 = ref_cell(x, h, c, Wx, Wh, b)
        assert np.allclose(h1, h2, atol=1e-12) and np.allclose(c1, c2, atol=1e-12)


class TestStack:
    def test_depth1_is_plain_cell(self):
        cfg = tiny_cfg(depth=1)
        rng = make_rng(2)
        params = init_lm_params(cfg, rng)
        x = rng.normal(size=cfg.embed_dim + cfg.persist_dim)
        out, states = stack_step(x, zero_states(cfg), params, cfg)
        h, c = ref_cell(x, np.zeros(cfg.hidden), np.zeros(cfg.hidden),
                        params["l1_Wx"], params["l1_Wh"], params["l1_b"])
        assert np.array_equal(out, states[0][0])
        assert np.allclose(out, h, atol=1e-12) and np.allclose(states[0][1], c, atol=1e-12)

    def test_depth2_zero_upper_passes_through(self):
        cfg = tiny_cfg(depth=2)
        rng = make_rng(3)
        params = init_lm_params(cfg, rng)
        for name in ("l2_Wx", "l2_Wh", "l2_b"):
            params[name][:] = 0.0
        cfg1 = tiny_cfg(depth=1)
        params1 = {k: v for k, v in params.items() if not k.startswith("l2_")}
        states2, states1 = zero_states(cfg), zero_states(cfg1)
        for _ in range(6):
            x = rng.normal(size=cfg.embed_dim + cfg.persist_dim)
            out2, states2 = stack_step(x, states2, params, cfg)
            out1, states1 = stack_step(x, states1, params1, cfg1)
            assert np.max(np.abs(out2 - out1)) < 1e-12

    def test_depth3_matches_reference(self):
        cfg = tiny_cfg(depth=3)
        rng = make_rng(4)
        params = init_lm_params(cfg, rng)
        states = zero_states(cfg)
        ref_states = [(s[0].copy(), s[1].copy()) for s in states]
        for _ in range(5):
            x = rng.normal(size=cfg.embed_dim + cfg.persist_dim)
            out, states = stack_step(x, states, params, cfg)
            # reference: explicit per-layer cells with materialized adds
            inp, ref_out, new_ref = x, None, []
            for layer in (1, 2, 3):
                h, c = ref_cell(inp, ref_states[layer - 1][0], ref_states[layer - 1][1],
                                params[f"l{layer}_Wx"], params[f"l{layer}_Wh"],
                                params[f"l{layer}_b"])
                ref_out = h if layer == 1 else h + ref_out
                new_ref.append((h, c))
                inp = ref_out
            ref_states = new_ref
            assert np.allclose(out, ref_out, atol=1e-10)


class TestForward:
    def test_uniform_model_logprob(self):
        cfg = tiny_cfg()
        params = {k: np.zeros_like(v) for k, v in init_lm_params(cfg, make_rng(0)).items()}
        params["out_b"][:] = 3.7  # constant bias keeps the softmax uniform
        target = [BOS, 5, 6, 7, EOS]
        _, logprob = forward_logprob(np.ones(cfg.init_dim), np.ones(cfg.persist_dim),
                                     target, params, cfg)
        assert logprob == pytest.approx(-4 * math.log(cfg.vocab_size), abs=1e-9)

    def test_persist_column_block_ablation(self):
        cfg = tiny_cfg()
        rng = make_rng(5)
        params = init_lm_params(cfg, rng)
        params["l1_Wx"][:, cfg.embed_dim :] = 0.0  # sever the persist channel
        target = [BOS, 4, 9, EOS]
        init = rng.normal(size=cfg.init_dim)
        _, lp_a = forward_logprob(init, rng.normal(size=cfg.persist_dim), target, params, cfg)
        _, lp_b = forward_logprob(init, rng.normal(size=cfg.persist_dim), target, params, cfg)
        assert lp_a == pytest.approx(lp_b, abs=1e-12)

    def test_step_distributions_normalized(self):
        cfg = tiny_cfg()
        rng = make_rng(6)
        params = init_lm_params(cfg, rng)
        logits, _ = forward_logprob(rng.normal(size=cfg.init_dim),
                                    rng.normal(size=cfg.persist_dim),
                                    [BOS, 4, 5, 6, EOS], params, cfg)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        sums = np.exp(logits)
        # normalized via log-softmax inside the model: exp sums to 1 directly
        from vidcap.numerics import log_softmax
        assert np.allclose(np.exp(log_softmax(logits, axis=1)).sum(axis=1), 1.0, atol=1e-9)
        assert probs.shape == (4, cfg.vocab_size)

    def test_batch_loss_matches_per_example(self):
        cfg = tiny_cfg()
        rng = make_rng(7)
        params = init_lm_params(cfg, rng)
        examples = random_examples(cfg, rng, n=4, min_len=1, max_len=7)
        batch = make_batch(examples)
        loss, _ = batch_loss_and_grads(params, cfg, batch)
        total, count = 0.0, 0
        for ex in examples:
            _, lp = forward_logprob(ex[0], ex[1], ex[2], params, cfg)
            total -= lp
            count += len(ex[2]) - 1
        assert loss == pytest.approx(total / count, abs=1e-9)


class TestTraining:
    def test_gradients_match_finite_differences(self):
        cfg = tiny_cfg(depth=2, vocab=12, hidden=8)
        rng = make_rng(8)
        params = init_lm_params(cfg, rng)
        batch = make_batch(random_examples(cfg, rng))

        def loss_fn(p):
            return batch_loss_and_grads(p, cfg, batch)

        assert grad_check(loss_fn, params, make_rng(9), samples_per_param=5) < 1e-4

    def test_overfits_two_examples(self):
        cfg = LMConfig(vocab_size=10, init_dim=3, persist_dim=3, depth=1,
                       hidden=16, embed_dim=8)
        rng = make_rng(10)
        params = init_lm_params(cfg, rng)
        examples = [
            (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), [BOS, 4, 5, 6, EOS]),
            (np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]), [BOS, 7, 8, EOS]),
        ]
        batch = make_batch(examples)
        opt = OptState(learning_rate=5e-3)
        loss = None
        for _ in range(500):
            loss = train_step(batch, params, cfg, opt, rng)
        assert loss < 0.1

    def test_zero_learning_rate_keeps_params(self):
        cfg = tiny_cfg()
        rng = make_rng(11)
        params = init_lm_params(cfg, rng)
        snapshot = {k: v.copy() for k, v in params.items()}
        batch = make_batch(random_examples(cfg, rng))
        train_step(batch, params, cfg, OptState(learning_rate=0.0), rng)
        for k in params:
            assert np.array_equal(params[k], snapshot[k])

    def test_deterministic_trajectory(self):
        cfg = tiny_cfg()

        def run():
            rng = make_rng(12)
            params = init_lm_params(cfg, rng)
            batch = make_batch(random_examples(cfg, make_rng(13)))
            opt = OptState()
            losses = [train_step(batch, params, cfg, opt, rng) for _ in range(5)]
            return losses, params

        l1, p1 = run()
        l2, p2 = run()
        assert l1 == l2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)


class TestLayerMajor:
    """The layer-major pass against the step-major oracle in reference_decoder.py."""

    @given(depth=st.integers(1, 3), rate=st.sampled_from([0.0, 0.3]),
           lengths=st.lists(st.integers(2, 9), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    @example(depth=2, rate=0.3, lengths=[2, 2, 2], seed=0)  # L = 2: one predicted step
    def test_matches_step_major_oracle(self, depth, rate, lengths, seed):
        cfg = replace(tiny_cfg(depth=depth, hidden=7), dropout_rate=rate)
        rng = make_rng(seed)
        params = {k: rng.normal(0.0, 0.5, v.shape)
                  for k, v in init_lm_params(cfg, rng).items()}
        examples = [(rng.normal(size=cfg.init_dim), rng.normal(size=cfg.persist_dim),
                     [BOS] + list(rng.integers(4, cfg.vocab_size, size=n - 2)) + [EOS])
                    for n in lengths]
        batch = make_batch(examples)
        got_rng, want_rng = make_rng(seed + 1), make_rng(seed + 1)
        loss, grads = batch_loss_and_grads(params, cfg, batch, rng=got_rng)
        want_loss, want_grads = ref_batch_loss_and_grads(params, cfg, batch, rng=want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
        assert set(grads) == set(want_grads)
        for k in want_grads:
            np.testing.assert_allclose(grads[k], want_grads[k], rtol=0, atol=1e-12, err_msg=k)
        for ex in examples:
            logits, lp = forward_logprob(*ex, params, cfg)
            want_logits, want_lp = ref_forward_logprob(*ex, params, cfg)
            np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
            assert lp == pytest.approx(want_lp, rel=0, abs=1e-12)
        assert perplexity(examples, params, cfg) == pytest.approx(
            ref_perplexity(examples, params, cfg), rel=0, abs=1e-12)

    def test_one_train_step_call_per_batch(self, monkeypatch):
        """fit_lm steps through decoder.train_step, and train_step updates
        through decoder.rmsprop_update: the module attributes a tracer wraps."""
        steps, updates = [], []
        real_step, real_update = decoder.train_step, decoder.rmsprop_update
        monkeypatch.setattr(decoder, "train_step", lambda batch, *a:
                            steps.append(len(batch.targets)) or real_step(batch, *a))
        monkeypatch.setattr(decoder, "rmsprop_update",
                            lambda *a: updates.append(1) or real_update(*a))
        cfg = tiny_cfg()
        rng = make_rng(22)
        params = init_lm_params(cfg, rng)
        fit_lm(params, cfg, random_examples(cfg, rng, n=5), OptState(), rng,
               epochs=2, batch_size=2)
        assert steps == [2, 2, 1] * 2
        assert len(updates) == len(steps)


class TestDropoutSwitch:
    """The rng is the only train/eval switch: dropout is on exactly when one is given."""

    @pytest.mark.parametrize("depth", [1, 3])
    def test_rate_has_no_effect_without_rng(self, depth):
        cfg = tiny_cfg(depth=depth)
        dropped = replace(cfg, dropout_rate=0.3)
        rng = make_rng(20)
        params = init_lm_params(cfg, rng)
        examples = random_examples(cfg, rng, n=5)
        assert perplexity(examples, params, dropped) == perplexity(examples, params, cfg)
        for ex in examples:
            logits_d, lp_d = forward_logprob(*ex, params, dropped)
            logits, lp = forward_logprob(*ex, params, cfg)
            assert np.array_equal(logits_d, logits)
            assert lp_d == lp

    def test_equal_seeds_give_equal_masks(self):
        cfg = replace(tiny_cfg(depth=2), dropout_rate=0.3)
        rng = make_rng(21)
        params = init_lm_params(cfg, rng)
        batch = make_batch(random_examples(cfg, rng, n=4))
        loss_a, grads_a = batch_loss_and_grads(params, cfg, batch, rng=make_rng(3))
        loss_b, grads_b = batch_loss_and_grads(params, cfg, batch, rng=make_rng(3))
        loss_e, grads_e = batch_loss_and_grads(params, cfg, batch)
        assert loss_a == loss_b
        assert all(np.array_equal(grads_a[k], grads_b[k]) for k in params)
        assert loss_a != loss_e
        assert not np.array_equal(grads_a["l1_Wx"], grads_e["l1_Wx"])


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        cfg = tiny_cfg()
        params = {k: np.zeros_like(v) for k, v in init_lm_params(cfg, make_rng(0)).items()}
        examples = random_examples(cfg, make_rng(14))
        assert perplexity(examples, params, cfg) == pytest.approx(cfg.vocab_size, rel=1e-9)

    def test_memorized_caption_near_one(self):
        cfg = LMConfig(vocab_size=9, init_dim=2, persist_dim=2, depth=1,
                       hidden=16, embed_dim=8)
        rng = make_rng(15)
        params = init_lm_params(cfg, rng)
        example = (np.ones(2), np.ones(2), [BOS, 4, 5, 6, 7, EOS])
        batch = make_batch([example])
        opt = OptState(learning_rate=5e-3)
        for _ in range(400):
            train_step(batch, params, cfg, opt, rng)
        assert perplexity([example], params, cfg) <= 1.05

    def test_empty_dataset(self):
        cfg = tiny_cfg()
        with pytest.raises(DataError):
            perplexity([], init_lm_params(cfg, make_rng(0)), cfg)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = tiny_cfg(depth=3)
        params = init_lm_params(cfg, make_rng(16))
        p1, p2 = tmp_path / "m1.vlmp", tmp_path / "m2.vlmp"
        save_lm(p1, cfg, params, init_feature="categ")
        cfg2, params2, header = load_lm(p1)
        assert cfg2 == cfg
        assert header.init_feature == "categ"
        assert set(params2) == set(params)
        for k in params:
            assert np.array_equal(params2[k], params[k])
            assert params2[k].dtype == params[k].dtype
        save_lm(p2, cfg2, params2, init_feature="categ")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_without_feature_names_loads(self, tmp_path):
        """A header of the config's fields alone, as checkpoints without bound
        features were written, loads with both feature names None."""
        cfg = tiny_cfg()
        path = tmp_path / "m.vlmp"
        binio.write_checkpoint(path, binio.LM_MAGIC, asdict(cfg), init_lm_params(cfg, make_rng(0)))
        cfg2, _, header = load_lm(path)
        assert cfg2 == cfg
        assert header.init_feature is None and header.persist_feature is None

    @pytest.mark.parametrize("other", [tiny_cfg(depth=3), tiny_cfg(vocab=13), tiny_cfg(hidden=9)])
    def test_params_not_fitting_config_rejected(self, tmp_path, other):
        path = tmp_path / "m.vlmp"
        save_lm(path, tiny_cfg(), init_lm_params(other, make_rng(0)))
        with pytest.raises(FormatError, match="m.vlmp: tensor"):
            load_lm(path)
