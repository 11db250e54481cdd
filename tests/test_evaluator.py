import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import grad_check
from reference_evaluator import (
    ref_cosine,
    ref_encode_sentence,
    ref_project_video,
    ref_sample_negatives,
    ref_train_evaluator,
    ref_triple_loss_and_grads,
)
from vidcap import evaluator
from vidcap.errors import DataError, DimensionError, FormatError, ParameterError
from vidcap.evaluator import (
    EvaluatorConfig,
    check_training_fits,
    cosines,
    encode_sentence,
    encode_sentences,
    init_evaluator_params,
    load_evaluator,
    pad_ids,
    project_videos,
    sample_negatives,
    save_evaluator,
    similarity,
    train_evaluator,
    triple_loss_and_grads,
)
from vidcap.harness import VideoRecord
from vidcap.numerics import OptState, make_rng
from vidcap.text import BOS, EOS, PAD, build_vocab


def tiny_cfg(**kw):
    base = dict(vocab_size=15, video_dim=7, embed_dim=5, filter_widths=(2, 3),
                filters_per_width=4, joint_dim=6, margin=0.2, n_negatives=3)
    base.update(kw)
    return EvaluatorConfig(**base)


def seq(rng, cfg, n):
    return [BOS] + list(rng.integers(4, cfg.vocab_size, size=n)) + [EOS]


def one_triple(params, cfg, video, pos, negs):
    """triple_loss_and_grads for one anchor whose negatives are all valid."""
    return triple_loss_and_grads(params, cfg, np.asarray(video)[None], *pad_ids([pos, *negs], cfg),
                                 np.ones((1, len(negs)), dtype=bool))


def anchor_mean(params, cfg, videos, positives, negs, valid):
    """The per-anchor mean of ref_triple_loss_and_grads over each anchor's
    valid negatives; an anchor with none adds 0 loss and no gradient."""
    loss, grads = 0.0, {k: np.zeros_like(v) for k, v in params.items()}
    for video, pos, mask in zip(videos, positives, valid):
        if mask.any():
            anchor_loss, anchor_grads = ref_triple_loss_and_grads(
                params, cfg, video, pos, [n for n, keep in zip(negs, mask) if keep])
            loss += anchor_loss
            for k in grads:
                grads[k] += anchor_grads[k]
    return loss / len(videos), {k: g / len(videos) for k, g in grads.items()}


class TestEncodeSentence:
    def test_fixed_output_dim_across_lengths(self):
        cfg = tiny_cfg()
        rng = make_rng(0)
        params = init_evaluator_params(cfg, rng)
        for n in (0, 1, 3, 28):
            out = encode_sentence(seq(rng, cfg, n), params, cfg)
            assert out.shape == (cfg.joint_dim,)

    def test_all_zero_params_zero_output(self):
        cfg = tiny_cfg()
        params = {k: np.zeros_like(v)
                  for k, v in init_evaluator_params(cfg, make_rng(0)).items()}
        out = encode_sentence(seq(make_rng(1), cfg, 4), params, cfg)
        assert np.array_equal(out, np.zeros(cfg.joint_dim))

    def test_padding_after_eos_invariant(self):
        cfg = tiny_cfg()
        rng = make_rng(2)
        params = init_evaluator_params(cfg, rng)
        for trial in range(10):
            ids = seq(rng, cfg, int(rng.integers(0, 8)))
            padded = ids + [PAD] * int(rng.integers(1, 6))
            a = encode_sentence(ids, params, cfg)
            b = encode_sentence(padded, params, cfg)
            assert np.array_equal(a, b)

    def test_empty_sequence_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(DataError):
            encode_sentence([], init_evaluator_params(cfg, make_rng(0)), cfg)


# Token ids 0..11 include PAD, BOS, EOS and UNK, so drawn sequences hold EOS
# mid-sequence followed by other tokens, PAD before EOS and repeated ids.
SEQS = st.lists(st.integers(0, 11), min_size=1, max_size=9)


@st.composite
def triples(draw):
    """(cfg, params, video, pos, negs): lengths 1-9 against widths up to 5 give
    sentences shorter than every filter and of length exactly w. `case` picks
    plain random weights, a video aligned with the positive (most hinges
    inactive), zero sentence embeddings, a zero video embedding, or a PAD
    embedding that is not zero (padding must still read as zeros)."""
    widths = draw(st.sampled_from([(1,), (2,), (2, 3), (2, 3, 4), (3, 5), (1, 4)]))
    cfg = tiny_cfg(vocab_size=12, video_dim=6, joint_dim=6, filter_widths=widths,
                   embed_dim=draw(st.integers(1, 5)), filters_per_width=draw(st.integers(1, 5)),
                   margin=draw(st.sampled_from([0.05, 0.2, 1.5])))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_evaluator_params(cfg, rng, scale=draw(st.sampled_from([0.08, 0.5, 1.0])))
    pos, negs = draw(SEQS), draw(st.lists(SEQS, min_size=1, max_size=8))
    case = draw(st.sampled_from(["plain", "aligned", "zero-sentences", "zero-video", "pad"]))
    video = rng.normal(size=cfg.video_dim)
    if case == "aligned":
        params["vid_W"], params["vid_b"] = np.eye(6), np.zeros(6)
        video = ref_encode_sentence(pos, params, cfg)
    elif case == "zero-sentences":
        params["sent_W"][:], params["sent_b"][:] = 0.0, 0.0
    elif case == "zero-video":
        params["vid_b"][:], video = 0.0, np.zeros(cfg.video_dim)
    elif case == "pad":
        params["embed"][PAD] = rng.normal(size=cfg.embed_dim)
    return cfg, params, video, pos, negs


@st.composite
def anchor_batches(draw):
    """(cfg, params, videos, positives, negs, valid): B = 1..4 anchors over one
    triple's draws, each with its own video and positive, sharing the negatives
    under a random mask. Anchor 0's mask is all False in a third of the draws:
    every negative drawn is a caption of its own video."""
    cfg, params, video, pos, negs = draw(triples())
    B = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    videos = np.vstack([video, rng.normal(size=(B - 1, cfg.video_dim))])
    positives = [pos] + [draw(SEQS) for _ in range(B - 1)]
    valid = rng.random((B, len(negs))) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    if draw(st.integers(0, 2)) == 0:
        valid[0] = False
    return cfg, params, videos, positives, negs, valid


def oracle_tolerance(params, cfg, seqs, videos):
    """A cosine's gradient grows as 1 / |embedding| of either side, and with it
    the rounding in every sum it enters (norms reach 1e-4 here)."""
    norms = [np.linalg.norm(ref_encode_sentence(ids, params, cfg)) for ids in seqs]
    norms += [np.linalg.norm(ref_project_video(v, params)) for v in videos]
    return 1e-12 * max([1.0] + [1.0 / n for n in norms if n > 0.0])


class TestBatchedEncoder:
    @given(triples())
    def test_triple_matches_per_sentence_oracle(self, triple):
        """One anchor with every negative valid is the per-triple hinge."""
        cfg, params, video, pos, negs = triple
        want_loss, want = ref_triple_loss_and_grads(params, cfg, video, pos, negs)
        loss, grads = one_triple(params, cfg, video, pos, negs)
        assert abs(loss - want_loss) <= 1e-12
        assert grads.keys() == want.keys()
        tol = oracle_tolerance(params, cfg, [pos, *negs], [video])
        for k in want:
            np.testing.assert_allclose(grads[k], want[k], rtol=0, atol=tol, err_msg=k)

    @given(anchor_batches())
    def test_batch_matches_per_anchor_oracle(self, batch):
        """B anchors on one shared, masked draw give the mean over anchors of
        each anchor's per-sentence triple; no 0 / 0 on an all-masked anchor."""
        cfg, params, videos, positives, negs, valid = batch
        want_loss, want = anchor_mean(params, cfg, videos, positives, negs, valid)
        with np.errstate(all="raise"):
            loss, grads = triple_loss_and_grads(params, cfg, videos,
                                                *pad_ids([*positives, *negs], cfg), valid)
        assert abs(loss - want_loss) <= 1e-12
        assert grads.keys() == want.keys()
        tol = oracle_tolerance(params, cfg, [*positives, *negs], videos)
        for k in want:
            np.testing.assert_allclose(grads[k], want[k], rtol=0, atol=tol, err_msg=k)

    def test_all_masked_anchor_adds_nothing(self):
        """An anchor whose drawn negatives are all its own captions adds 0 to
        the loss sum and no gradient: its video and positive do not matter."""
        cfg = tiny_cfg()
        rng = make_rng(12)
        params = init_evaluator_params(cfg, rng, scale=0.5)
        negs = [seq(rng, cfg, 3) for _ in range(4)]
        pos = seq(rng, cfg, 4)
        video = rng.normal(size=cfg.video_dim)
        want_loss, want = ref_triple_loss_and_grads(params, cfg, video, pos, negs)
        for other in (seq(rng, cfg, 2), seq(rng, cfg, 5)):
            videos = np.stack([video, rng.normal(size=cfg.video_dim)])
            with np.errstate(all="raise"):
                loss, grads = triple_loss_and_grads(
                    params, cfg, videos, *pad_ids([pos, other, *negs], cfg),
                    np.array([[True] * 4, [False] * 4]))
            assert loss == pytest.approx(want_loss / 2, abs=1e-15)
            for k in want:
                np.testing.assert_allclose(grads[k], want[k] / 2, rtol=0, atol=1e-12, err_msg=k)
        with np.errstate(all="raise"):
            loss, grads = triple_loss_and_grads(params, cfg, video[None],
                                                *pad_ids([pos, *negs], cfg),
                                                np.zeros((1, 4), dtype=bool))
        assert loss == 0.0 and all(not g.any() for g in grads.values())

    def test_video_matrix_shape_checked(self):
        cfg = tiny_cfg()
        params = init_evaluator_params(cfg, make_rng(0))
        ids, lengths = pad_ids([[BOS, 4, EOS], [BOS, 5, EOS]], cfg)
        for videos in (np.zeros(cfg.video_dim), np.zeros((1, cfg.video_dim + 1))):
            with pytest.raises(DimensionError):
                triple_loss_and_grads(params, cfg, videos, ids, lengths, np.ones((1, 1), bool))

    @given(triples())
    def test_encodings_match_per_sentence_oracle(self, triple):
        cfg, params, _, pos, negs = triple
        got = encode_sentences([pos, *negs], params, cfg)
        want = [ref_encode_sentence(ids, params, cfg) for ids in [pos, *negs]]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_all_hinges_inactive_and_zero_norm_covered(self):
        """The two degenerate corners of the oracle test, pinned down once."""
        cfg = tiny_cfg(video_dim=6, joint_dim=6)
        params = init_evaluator_params(cfg, make_rng(3), scale=1.0)
        params["vid_W"], params["vid_b"] = np.eye(6), np.zeros(6)
        pos, neg = [BOS, 5, 6, 7, EOS], [BOS, 9, EOS, 4]
        video = ref_encode_sentence(pos, params, cfg)
        loss, grads = one_triple(params, cfg, video, pos, [neg])
        assert loss == 0.0 and all(not g.any() for g in grads.values())
        params["sent_W"][:], params["sent_b"][:] = 0.0, 0.0
        loss, grads = one_triple(params, cfg, video, pos, [neg])
        assert loss == cfg.margin and all(not g.any() for g in grads.values())

    def test_pad_ids_width_and_cut(self):
        cfg = tiny_cfg(filter_widths=(2, 5))
        ids, lengths = pad_ids([[BOS, EOS, 7, 8], [BOS, 4, 5, 6, 7, 8, EOS]], cfg)
        assert lengths.tolist() == [2, 7]
        assert ids.tolist() == [[BOS, EOS, PAD, PAD, PAD, PAD, PAD], [BOS, 4, 5, 6, 7, 8, EOS]]
        assert pad_ids([[BOS]], cfg)[0].shape == (1, 5)  # at least the widest filter


class TestProjectVideo:
    def test_zero_feature_zero_bias(self):
        cfg = tiny_cfg()
        params = init_evaluator_params(cfg, make_rng(3))
        params["vid_b"][:] = 0.0
        assert np.array_equal(project_videos(np.zeros((2, cfg.video_dim)), params),
                              np.zeros((2, cfg.joint_dim)))

    def test_identity_projection_passthrough(self):
        cfg = tiny_cfg(video_dim=6, joint_dim=6)
        params = init_evaluator_params(cfg, make_rng(4))
        params["vid_W"] = np.eye(6)
        params["vid_b"][:] = 0.0
        V = make_rng(5).normal(size=(3, 6))
        assert np.allclose(project_videos(V, params), V)

    def test_matches_affine_oracle(self):
        """Each row is the per-video reference projection."""
        cfg = tiny_cfg()
        rng = make_rng(6)
        params = init_evaluator_params(cfg, rng)
        V = rng.normal(size=(4, cfg.video_dim))
        expected = [ref_project_video(v, params) for v in V]
        np.testing.assert_allclose(project_videos(V, params), expected, rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        cfg = tiny_cfg()
        params = init_evaluator_params(cfg, make_rng(0))
        for V in (np.zeros((1, cfg.video_dim + 1)), np.zeros(cfg.video_dim),
                  np.zeros((1, 1, cfg.video_dim))):
            with pytest.raises(DimensionError):
                project_videos(V, params)


def cosine(u, v) -> float:
    """The one cosine of two vectors, through the (R, B) matrix."""
    return float(cosines(np.asarray(u)[None], np.asarray(v)[None])[0][0, 0])


class TestSimilarity:
    def test_equal_embeddings(self):
        u = np.array([0.3, -0.7, 2.0])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_convention(self):
        """A zero row of either side scores 0 against everything."""
        S = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        V = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with np.errstate(all="raise"):
            cos, ns, nv = cosines(S, V)
        assert cos[0].tolist() == [0.0, 0.0] and cos[1, 1] == 0.0 and cos[1, 0] > 0.0
        assert ns[0] == 0.0 and nv[1] == 0.0

    def test_scale_invariance(self):
        rng = make_rng(7)
        S, V = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
        for a, b in ((2.0, 3.0), (0.1, 100.0)):
            np.testing.assert_allclose(cosines(a * S, b * V)[0], cosines(S, V)[0],
                                       rtol=0, atol=1e-12)

    def test_shape_norms_and_reference_agreement(self):
        """(R, B) cosines, entry (r, b) the reference cosine of row r and video
        b, with the rows' norms beside them."""
        rng = make_rng(9)
        S, V = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        S[2] = 0.0
        cos, ns, nv = cosines(S, V)
        assert cos.shape == (5, 3) and ns.shape == (5,) and nv.shape == (3,)
        np.testing.assert_allclose(ns, np.linalg.norm(S, axis=1), rtol=0, atol=1e-15)
        np.testing.assert_allclose(nv, np.linalg.norm(V, axis=1), rtol=0, atol=1e-15)
        want = [[ref_cosine(s, v) for v in V] for s in S]
        np.testing.assert_allclose(cos, want, rtol=0, atol=1e-15)

    def test_end_to_end_range(self):
        cfg = tiny_cfg()
        rng = make_rng(8)
        params = init_evaluator_params(cfg, rng)
        ids, video = seq(rng, cfg, 4), rng.normal(size=cfg.video_dim)
        s = similarity(ids, video, params, cfg)
        assert -1.0 <= s <= 1.0
        assert s == pytest.approx(ref_cosine(ref_encode_sentence(ids, params, cfg),
                                             ref_project_video(video, params)), abs=1e-12)


class TestSampleNegatives:
    def _records(self, n_videos, n_caps):
        return [VideoRecord(id=f"v{i}", category=0, split="train",
                            captions=[f"caption {i} {j}" for j in range(n_caps)])
                for i in range(n_videos)]

    def test_capped_by_availability(self):
        recs = self._records(2, 20)
        negs = sample_negatives("v0", recs, 50, make_rng(0))
        assert len(negs) == 20

    def test_never_from_anchor(self):
        recs = self._records(5, 4)
        for trial in range(5):
            negs = sample_negatives("v2", recs, 10, make_rng(trial))
            assert all("caption 2" not in c for c in negs)

    def test_deterministic(self):
        recs = self._records(6, 3)
        assert sample_negatives("v1", recs, 7, make_rng(9)) == \
               sample_negatives("v1", recs, 7, make_rng(9))

    def test_no_replacement(self):
        recs = self._records(4, 5)
        negs = sample_negatives("v0", recs, 15, make_rng(1))
        assert len(set(negs)) == len(negs)

    def test_single_video_rejected(self):
        with pytest.raises(DataError):
            sample_negatives("v0", self._records(1, 3), 5, make_rng(0))

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=6), st.integers(1, 25),
           st.integers(0, 2**32 - 1), st.data())
    def test_row_draw_matches_reference(self, n_caps, n_neg, seed, data):
        """sample_negatives picks the captions the caption-list rebuild picks,
        with the same RNG calls."""
        records = [VideoRecord(id=f"v{i}", category=0, split="test",  # may have no captions
                               captions=[f"caption {i} {j}" for j in range(n)])
                   for i, n in enumerate(n_caps)]
        rows = [c for r in records for c in r.captions]
        a = data.draw(st.integers(0, len(records) - 1))
        if n_caps[a] == len(rows):
            return  # no other captions: rejected, see test_single_video_rejected
        rngs = [make_rng(seed) for _ in range(2)]
        want = ref_sample_negatives(f"v{a}", records, n_neg, rngs[0])
        assert sample_negatives(f"v{a}", records, n_neg, rngs[1]) == want
        assert len({r.random() for r in rngs}) == 1


class TestTraining:
    def test_gradients_match_finite_differences(self):
        # scale 0.5 keeps embedding norms O(1); near-zero norms make the
        # cosine so curved that central differences themselves go inaccurate
        cfg = tiny_cfg()
        rng = make_rng(10)
        params = init_evaluator_params(cfg, rng, scale=0.5)
        video = rng.normal(size=cfg.video_dim)
        pos = seq(rng, cfg, 4)
        negs = [seq(rng, cfg, int(rng.integers(1, 6))) for _ in range(3)]

        def loss_fn(p):
            return one_triple(p, cfg, video, pos, negs)

        assert grad_check(loss_fn, params, make_rng(11), samples_per_param=6) < 1e-4

    def test_batch_gradients_match_finite_differences(self):
        """Three anchors on one shared draw, one negative masked for anchor 1."""
        cfg = tiny_cfg()
        rng = make_rng(13)
        params = init_evaluator_params(cfg, rng, scale=0.5)
        videos = rng.normal(size=(3, cfg.video_dim))
        positives = [seq(rng, cfg, int(rng.integers(1, 6))) for _ in range(3)]
        negs = [seq(rng, cfg, int(rng.integers(1, 6))) for _ in range(4)]
        valid = np.ones((3, 4), dtype=bool)
        valid[1, 2] = False
        rows = pad_ids([*positives, *negs], cfg)

        def loss_fn(p):
            return triple_loss_and_grads(p, cfg, videos, *rows, valid)

        assert grad_check(loss_fn, params, make_rng(14), samples_per_param=6) < 1e-4

    def test_gradient_exactly_zero_outside_margin(self):
        # align the video embedding with the positive sentence so the positive
        # cosine is 1; any negative below 1 - margin leaves the hinge inactive
        # and every gradient must be exactly zero
        cfg = tiny_cfg(joint_dim=6, video_dim=6)
        rng = make_rng(1)
        params = init_evaluator_params(cfg, rng, scale=1.0)
        params["vid_W"] = np.eye(6)
        params["vid_b"][:] = 0.0
        pos = seq(rng, cfg, 4)
        neg = seq(rng, cfg, 3)
        s_pos = encode_sentence(pos, params, cfg)
        video = s_pos.copy()
        c_neg = ref_cosine(encode_sentence(neg, params, cfg), video)
        assert c_neg < 1.0 - cfg.margin  # constructed to sit outside the margin
        loss, grads = one_triple(params, cfg, video, pos, [neg])
        assert loss == 0.0
        for k, g in grads.items():
            assert np.array_equal(g, np.zeros_like(g)), k

    def test_matches_per_sentence_training(self):
        """Encoding once and training B anchors per update on one masked
        draw trains the same weights as re-encoding every caption and running
        each anchor's triple on its own."""
        corpus = ["red cat posing", "blue dog running fast", "a green bird", "black horse",
                  "the red cat", "a dog", "green bird eating seeds today", "horse jumping"]
        vocab = build_vocab(corpus, min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), video_dim=4, n_negatives=5, filter_widths=(2, 4))
        records = [VideoRecord(id=f"v{i}", category=0, split="train",
                               captions=[corpus[i], corpus[i + 4]][: 1 + i % 2])
                   for i in range(4)]
        feats = {f"v{i}": np.eye(4)[i] for i in range(4)}
        got, got_hist = train_evaluator(records, feats.__getitem__, vocab, cfg, make_rng(4),
                                        opt=OptState(learning_rate=5e-3), epochs=4)
        want, want_hist = ref_train_evaluator(records, feats.__getitem__, vocab, cfg, make_rng(4),
                                              opt=OptState(learning_rate=5e-3), epochs=4)
        np.testing.assert_allclose(got_hist, want_hist, rtol=0, atol=1e-12)
        for k in want:
            np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-12, err_msg=k)

    @pytest.mark.parametrize("n_negatives", [2, 50])
    def test_one_triple_call_per_anchor_group_and_epoch(self, monkeypatch, n_negatives):
        """ceil(videos / ANCHORS) calls per epoch, each with its anchors'
        positives and min(n_negatives, caption rows) shared negatives."""
        calls = []
        real = evaluator.triple_loss_and_grads
        monkeypatch.setattr(evaluator, "triple_loss_and_grads",
                            lambda *a: calls.append((len(a[2]), a[3].shape[0])) or real(*a))
        corpus = ["red cat posing", "blue dog posing", "green bird posing", "a cat",
                  "a dog", "a bird"]
        vocab = build_vocab(corpus, min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), video_dim=3, n_negatives=n_negatives)
        records = [VideoRecord(id=f"v{i}", category=0, split="train", captions=[corpus[i]])
                   for i in range(6)]
        train_evaluator(records, lambda v: np.ones(3), vocab, cfg, make_rng(0), epochs=2)
        drawn = min(n_negatives, len(corpus))
        assert evaluator.ANCHORS == 4
        assert calls == [(4, 4 + drawn), (2, 2 + drawn)] * 2

    def test_zero_epochs_returns_init(self):
        cfg = tiny_cfg()
        records = [VideoRecord(id=f"v{i}", category=0, split="train",
                               captions=["a cat sits", "a dog runs"]) for i in range(3)]
        vocab = build_vocab(["a cat sits", "a dog runs"], min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab))
        params, history = train_evaluator(
            records, lambda vid: np.ones(cfg.video_dim), vocab, cfg,
            make_rng(14), epochs=0)
        reference = init_evaluator_params(cfg, make_rng(14))
        assert history == []
        for k in params:
            assert np.array_equal(params[k], reference[k])

    def test_pad_embedding_stays_zero(self):
        corpus = ["red cat posing", "blue dog posing", "green bird posing"]
        vocab = build_vocab(corpus, min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), video_dim=3)
        records = [VideoRecord(id=f"v{i}", category=0, split="train", captions=[corpus[i]])
                   for i in range(3)]
        feats = {f"v{i}": np.eye(3)[i] for i in range(3)}
        params, _ = train_evaluator(records, feats.__getitem__, vocab, cfg,
                                    make_rng(15), epochs=3)
        assert np.array_equal(params["embed"][PAD], np.zeros(cfg.embed_dim))

    def test_learns_tiny_discrimination(self):
        corpus = ["red cat posing", "blue dog running", "green bird eating",
                  "black horse jumping"]
        vocab = build_vocab(corpus, min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), video_dim=4, n_negatives=3,
                       filters_per_width=8, joint_dim=8)
        records = [VideoRecord(id=f"v{i}", category=0, split="train", captions=[corpus[i]])
                   for i in range(4)]
        feats = {f"v{i}": np.eye(4)[i] for i in range(4)}
        params, history = train_evaluator(records, feats.__getitem__, vocab, cfg,
                                          make_rng(16), opt=OptState(learning_rate=5e-3),
                                          epochs=40)
        assert history[-1] < history[0]
        from vidcap.text import encode, tokenize
        wins = total = 0
        for i in range(4):
            own = similarity(encode(tokenize(corpus[i]), vocab), feats[f"v{i}"], params, cfg)
            for j in range(4):
                if i == j:
                    continue
                other = similarity(encode(tokenize(corpus[j]), vocab), feats[f"v{i}"], params, cfg)
                total += 1
                wins += own > other
        assert wins / total >= 0.9

    def test_training_needs_two_captioned_videos(self):
        vocab = build_vocab(["a cat"], min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), video_dim=3)
        for captions in ([["a cat"]], [["a cat"], []]):  # test videos may have none
            records = [VideoRecord(id=f"v{i}", category=0, split="test", captions=c)
                       for i, c in enumerate(captions)]
            with pytest.raises(DataError, match="at least two videos"):
                train_evaluator(records, lambda v: np.ones(3), vocab, cfg, make_rng(0))

    def test_update_bound_counts_three_copies_and_transients(self, monkeypatch):
        """Three copies of the 3V + 214 parameters (parameters, gradients and
        RMSProp accumulators), and one update of 4 positives and 3 negatives
        padded to the longest caption, BOS + 8 words + EOS: embedded rows (10 x
        3), windows and pre-activations of widths 2 (9 x (6 + 5)) and 4 (7 x
        (12 + 5)), 248 floats a row, twice; 8 bytes each."""
        corpus = ["a red cat is posing on the mat", "a dog", "green bird"]
        vocab = build_vocab(corpus, min_count=1)
        cfg = tiny_cfg(vocab_size=len(vocab), embed_dim=3, filter_widths=(2, 4),
                       filters_per_width=5)
        records = [VideoRecord(id=f"v{i}", category=0, split="train", captions=[c])
                   for i, c in enumerate(corpus)]
        seen = []
        monkeypatch.setattr(evaluator, "check_fits_in_memory", lambda shapes, what: seen.append(
            (8 * sum(math.prod(shape) for shape in shapes.values()), what)))
        check_training_fits(records, vocab, cfg)
        assert seen == [(8 * (3 * (3 * len(vocab) + 214) + 2 * (4 + 3) * 248),
                         "the evaluator's parameters, gradients, RMSProp accumulators "
                         "and training update")]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_cfg(feature_name="feat-a+feat-b")
        params = init_evaluator_params(cfg, make_rng(17))
        p1, p2 = tmp_path / "e1.vevp", tmp_path / "e2.vevp"
        save_evaluator(p1, cfg, params)
        cfg2, params2 = load_evaluator(p1)
        assert cfg2 == cfg
        for k in params:
            assert np.array_equal(params2[k], params[k])
        save_evaluator(p2, cfg2, params2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("name", ["a\\b", "it's", 'say "hi"', "'both\"", "two\nlines",
                                      "caméra+视频", "", "feat-a+feat-b"])
    def test_feature_name_round_trip(self, tmp_path, name):
        cfg = tiny_cfg(feature_name=name)
        path = tmp_path / "e.vevp"
        save_evaluator(path, cfg, init_evaluator_params(cfg, make_rng(0)))
        assert load_evaluator(path)[0].feature_name == name

    @pytest.mark.parametrize("raw", ["'unterminated", "feat-a", "12", "['a']", "(" * 300,
                                     "-" * 100_000 + "1", '["a"]', "null",
                                     "[" * 100_000 + "]" * 100_000])
    def test_malformed_feature_name_names_file(self, tmp_path, raw):
        """`raw` is spliced into the index as feature_name's JSON text; length and
        checksum are made valid again, so only the header decoding can object."""
        cfg = tiny_cfg(feature_name="@@")
        path = tmp_path / "bad.vevp"
        save_evaluator(path, cfg, init_evaluator_params(cfg, make_rng(0)))
        data = path.read_bytes()
        (n,) = struct.unpack_from("<I", data, 4)
        index = data[8 : 8 + n].replace(b'"@@"', raw.encode())
        body = data[:4] + struct.pack("<I", len(index)) + index + data[8 + n : -4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="bad.vevp"):
            load_evaluator(path)

    @pytest.mark.parametrize("other", [dict(filter_widths=(2, 4)), dict(joint_dim=7),
                                       dict(video_dim=8)])
    def test_params_not_fitting_config_rejected(self, tmp_path, other):
        path = tmp_path / "e.vevp"
        save_evaluator(path, tiny_cfg(), init_evaluator_params(tiny_cfg(**other), make_rng(0)))
        with pytest.raises(FormatError, match="e.vevp: tensor"):
            load_evaluator(path)

    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            tiny_cfg(margin=0.0)
        with pytest.raises(ParameterError):
            tiny_cfg(n_negatives=0)
        with pytest.raises(ParameterError, match="filter widths"):
            tiny_cfg(filter_widths=(2, 2))  # both would be named conv2_W
