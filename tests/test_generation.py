import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_beam import greedy_ids, ref_beam_search_ids
from vidcap import generation
from vidcap.decoder import LMConfig, fit_lm, forward_logprob, init_lm_params, lm_param_shapes
from vidcap.errors import DimensionError, NumericError, ParameterError
from vidcap.generation import GenerationConfig, beam_search_ids
from vidcap.numerics import OptState
from vidcap.text import BOS, EOS, build_vocab, decode

# vocab_size 8 = 4 reserved ids + 4 emittable words
TINY = LMConfig(vocab_size=8, init_dim=3, persist_dim=2, depth=1, hidden=6, embed_dim=4)
WORDS = [4, 5, 6, 7]


def tiny_model(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_lm_params(TINY, rng, scale=0.8)
    init_vec = rng.normal(size=TINY.init_dim)
    persist_vec = rng.normal(size=TINY.persist_dim)
    return params, init_vec, persist_vec


def exhaustive_best(params, init_vec, persist_vec, max_len):
    """Enumerate every EOS-terminated emission sequence with at most max_len
    emissions (EOS included) and score it with the teacher-forced forward."""
    best = None
    for k in range(max_len):
        for body in itertools.product(WORDS, repeat=k):
            target = [BOS] + list(body) + [EOS]
            _, lp = forward_logprob(init_vec, persist_vec, target, params, TINY)
            key = (-lp, tuple(list(body) + [EOS]))
            if best is None or key < best[0]:
                best = (key, list(body) + [EOS], lp)
    return best[1], best[2]


class TestBeamOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_wide_beam_equals_exhaustive(self, seed):
        params, init_vec, persist_vec = tiny_model(seed)
        cfg = GenerationConfig(beam_size=512, max_len=4)
        tokens, logprob, completed = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        ref_tokens, ref_lp = exhaustive_best(params, init_vec, persist_vec, 4)
        assert completed
        assert tokens == ref_tokens
        assert logprob == pytest.approx(ref_lp, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_beam1_equals_greedy(self, seed):
        params, init_vec, persist_vec = tiny_model(seed + 100)
        cfg = GenerationConfig(beam_size=1, max_len=8)
        tokens, logprob, _ = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        g_tokens, g_lp = greedy_ids(params, TINY, init_vec, persist_vec, max_len=8)
        assert tokens == g_tokens
        assert logprob == pytest.approx(g_lp, abs=1e-9)


class TestBeamBehavior:
    def test_immediate_eos_gives_empty_caption(self):
        params = {k: np.zeros_like(v) for k, v in init_lm_params(TINY, np.random.default_rng(0)).items()}
        params["out_b"][EOS] = 50.0  # EOS probability ~1 at every step
        tokens, _, completed = beam_search_ids(
            params, TINY, np.ones(3), np.ones(2), GenerationConfig(beam_size=5, max_len=10))
        assert tokens == [EOS] and completed

    def test_score_consistent_with_forward(self):
        params, init_vec, persist_vec = tiny_model(7)
        cfg = GenerationConfig(beam_size=5, max_len=10)
        tokens, logprob, completed = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        assert completed
        target = [BOS] + tokens  # tokens already end with EOS
        _, lp = forward_logprob(init_vec, persist_vec, target, params, TINY)
        assert logprob == pytest.approx(lp, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_in_beam_size(self, seed):
        params, init_vec, persist_vec = tiny_model(seed + 50)
        scores = []
        for b in range(1, 7):
            _, lp, _ = beam_search_ids(params, TINY, init_vec, persist_vec,
                                       GenerationConfig(beam_size=b, max_len=6))
            scores.append(lp)
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-12

    def test_deterministic(self):
        params, init_vec, persist_vec = tiny_model(9)
        cfg = GenerationConfig(beam_size=5, max_len=10)
        first = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        second = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        assert first == second

    def test_never_emits_reserved_except_eos(self):
        for seed in range(5):
            params, init_vec, persist_vec = tiny_model(seed + 30)
            tokens, _, _ = beam_search_ids(params, TINY, init_vec, persist_vec,
                                           GenerationConfig(beam_size=3, max_len=6))
            body = tokens[:-1] if tokens and tokens[-1] == EOS else tokens
            assert all(t in WORDS for t in body)

    def test_bad_beam_size(self):
        with pytest.raises(ParameterError):
            GenerationConfig(beam_size=0)

    def test_decoded_caption(self):
        vocab = build_vocab(["w x y z"], min_count=1)
        assert len(vocab) == TINY.vocab_size
        params, init_vec, persist_vec = tiny_model(11)
        tokens, logprob, _ = beam_search_ids(params, TINY, init_vec, persist_vec,
                                             GenerationConfig(beam_size=4, max_len=6))
        caption = decode(tokens, vocab)
        assert isinstance(caption, str)
        assert np.isfinite(logprob)
        for word in caption.split():
            assert word in ("w", "x", "y", "z")

    def test_feature_dimension_mismatch(self):
        params, init_vec, persist_vec = tiny_model(12)
        gen_cfg = GenerationConfig(beam_size=2, max_len=4)
        with pytest.raises(DimensionError, match=rf"init feature \(5,\) != \({TINY.init_dim},\)"):
            beam_search_ids(params, TINY, np.ones(5), persist_vec, gen_cfg)
        with pytest.raises(DimensionError,
                           match=rf"persist feature \(5,\) != \({TINY.persist_dim},\)"):
            beam_search_ids(params, TINY, init_vec, np.ones(5), gen_cfg)


class TestBeamStop:
    """The search ends once its answer is fixed, and only then; counted in
    stack_step calls, one for the init feature and one per step."""

    @pytest.fixture
    def steps(self, monkeypatch) -> list:
        calls = []
        real = generation.stack_step

        def counted(*args):
            calls.append(1)
            assert len(calls) <= 1000, "the search did not stop"
            return real(*args)

        monkeypatch.setattr(generation, "stack_step", counted)
        return calls

    def test_completed_beams_stop_long_before_max_len(self, steps):
        params, init_vec, persist_vec = tiny_model(7)
        fit_lm(params, TINY, [(init_vec, persist_vec, [BOS, 4, 5, 6, 7, EOS])],
               OptState(learning_rate=0.05), np.random.default_rng(0), epochs=60, batch_size=1)
        steps.clear()
        result = beam_search_ids(params, TINY, init_vec, persist_vec,
                                 GenerationConfig(beam_size=5, max_len=10**6))
        assert result[0] == [4, 5, 6, 7, EOS] and result[2]
        assert len(steps) <= 1 + 5 + 2  # the init step, the caption's 5 and a little slack
        assert result == ref_beam_search_ids(params, TINY, init_vec, persist_vec,
                                             GenerationConfig(beam_size=5, max_len=30))

    def test_overflowing_outputs_are_a_numeric_error(self, steps):
        """Finite weights whose activations overflow (3 x 1e308) give NaN
        log-probs: no expansion survives the first step, so nothing retires and
        there is no answer."""
        params, _, persist_vec = tiny_model(3)
        params["init_W"][:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="no hypothesis with a finite log-prob"):
            beam_search_ids(params, TINY, np.ones(3), persist_vec, GenerationConfig())
        assert len(steps) == 2

    def test_live_tie_with_the_best_completed_keeps_searching(self):
        """A transition model: one LSTM unit per previous token, and an output
        layer that makes the next token certain (log-prob exactly 0) or ties
        two. BOS -> 4 or 5 (each -log 2), 5 -> EOS, 4 -> 6 -> EOS. [5, EOS]
        completes one step before [4, 6, EOS] with the same score; the later
        one wins on its smaller token tuple, so a stop on a tie would be wrong."""
        cfg = LMConfig(vocab_size=8, init_dim=1, persist_dim=1, depth=1, hidden=8, embed_dim=8)
        params = {name: np.zeros(shape) for name, shape in lm_param_shapes(cfg).items()}
        params["embed"][:] = 10.0 * np.eye(8)
        params["l1_Wx"][24:32, :8] = 10.0 * np.eye(8)  # g = tanh(100) = 1 for the last token
        params["l1_b"][:24] = np.repeat([50.0, -50.0, 50.0], 8)  # i = o = 1, f ~ 0
        params["out_W"][:] = -1e4
        for prev, nxt in [(BOS, 4), (BOS, 5), (5, EOS), (4, 6), (6, EOS)]:
            params["out_W"][nxt, prev] = 0.0
        gen_cfg = GenerationConfig(beam_size=2, max_len=10)
        result = beam_search_ids(params, cfg, np.zeros(1), np.zeros(1), gen_cfg)
        assert result == ([4, 6, EOS], -np.log(2.0), True)
        assert result == ref_beam_search_ids(params, cfg, np.zeros(1), np.zeros(1), gen_cfg)

    def test_beam_without_eos_runs_every_step(self, steps):
        params, init_vec, persist_vec = tiny_model(8)
        params["out_b"][EOS] = -np.inf  # EOS is never emitted
        cfg = GenerationConfig(beam_size=3, max_len=40)
        tokens, logprob, completed = beam_search_ids(params, TINY, init_vec, persist_vec, cfg)
        assert len(steps) == 1 + 40
        assert not completed and len(tokens) == 40 and EOS not in tokens
        assert (tokens, logprob, completed) == ref_beam_search_ids(
            params, TINY, init_vec, persist_vec, cfg)


@st.composite
def beam_cases(draw):
    """A random tiny model and decoding config, optionally with forced ties."""
    vocab_size = draw(st.integers(5, 40))
    cfg = LMConfig(vocab_size=vocab_size, init_dim=3, persist_dim=2,
                   depth=draw(st.integers(1, 2)), hidden=6, embed_dim=4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_lm_params(cfg, rng, scale=0.8)
    # Forced ties: duplicated output rows tie tokens at one step, duplicating
    # their embeddings too ties whole sequences that differ in them, and an
    # output layer that ignores the state ties the reorderings of a sequence.
    duplicate = draw(st.sampled_from([(), ("out_W", "out_b"), ("out_W", "out_b", "embed")]))
    if duplicate:
        src = draw(st.integers(EOS, vocab_size - 1))
        for dst in draw(st.lists(st.integers(EOS, vocab_size - 1), min_size=1, max_size=8)):
            for name in duplicate:
                params[name][dst] = params[name][src]
    output = draw(st.sampled_from(["random", "bias-only", "zero"]))
    if output != "random":
        params["out_W"][:] = 0.0
    if output == "zero":
        params["out_b"][:] = 0.0
    # A peaked EOS logit completes beams early, so the search stops before max_len.
    params["out_b"][EOS] += draw(st.sampled_from([0.0, 2.0, 6.0]))
    # beam sizes past 40 exceed live x V at the first steps, so every expansion
    # survives; the reference loop is slow there, so those searches stay short
    max_len = draw(st.integers(1, 30))
    wide = st.integers(9, 600) if max_len <= 6 else st.integers(9, 40)
    gen_cfg = GenerationConfig(beam_size=draw(st.one_of(st.integers(1, 8), wide)),
                               max_len=max_len)
    return params, cfg, rng.normal(size=3), rng.normal(size=2), gen_cfg


@given(beam_cases())
def test_vectorised_beam_equals_reference_loop(case):
    params, cfg, init_vec, persist_vec, gen_cfg = case
    tokens, logprob, completed = beam_search_ids(params, cfg, init_vec, persist_vec, gen_cfg)
    ref_tokens, ref_logprob, ref_completed = ref_beam_search_ids(
        params, cfg, init_vec, persist_vec, gen_cfg)
    assert tokens == ref_tokens
    assert logprob == ref_logprob
    assert completed == ref_completed
