import numpy as np
import pytest

from vidcap.decoder import LMConfig, init_lm_params
from vidcap.ensemble import (
    Candidate,
    CandidatePool,
    GeneratorModel,
    dump_pools,
    generate_pool,
    load_pools,
    rerank,
)
from vidcap.errors import DataError
from vidcap.evaluator import (
    EvaluatorConfig,
    encode_sentence,
    init_evaluator_params,
    similarity,
)
from vidcap.generation import GenerationConfig
from vidcap.harness import FeatureStore
from vidcap.numerics import make_rng
from reference_evaluator import ref_cosine, ref_encode_sentence, ref_project_video
from vidcap.text import build_vocab, encode, tokenize

VOCAB = build_vocab(["w x y z"], min_count=1)
LM = LMConfig(vocab_size=len(VOCAB), init_dim=3, persist_dim=2, depth=1, hidden=6, embed_dim=4)


def make_model(tag, seed):
    rng = make_rng(seed)
    return GeneratorModel(tag=tag, cfg=LM, params=init_lm_params(LM, rng, scale=0.8),
                          init_feature="fa", persist_feature="fb")


def feature_of(vid, name):
    rng = make_rng(hash((vid, name)) % 2**32)
    return rng.normal(size=3 if name == "fa" else 2)


class TestGeneratePool:
    def test_pool_size_matches_models(self):
        models = [make_model(f"m{i}", i) for i in range(4)]
        pool = generate_pool(models, "vid0", feature_of, GenerationConfig(beam_size=3, max_len=5), VOCAB)
        assert len(pool.entries) == 4
        assert [c.model for c in pool.entries] == ["m0", "m1", "m2", "m3"]

    def test_identical_models_duplicate_entries(self):
        models = [make_model("a", 7), make_model("b", 7)]
        pool = generate_pool(models, "vid0", feature_of, GenerationConfig(beam_size=3, max_len=5), VOCAB)
        assert pool.entries[0].caption == pool.entries[1].caption
        assert len(pool.entries) == 2

    def test_missing_feature_names_feature_and_video(self):
        store = FeatureStore()
        store.add("fa", "vid0", feature_of("vid0", "fa"))  # no "fb"
        with pytest.raises(DataError, match=r"'fb'.*'vid0'"):
            generate_pool([make_model("m0", 0)], "vid0", store.get,
                          GenerationConfig(beam_size=2, max_len=4), VOCAB)


class TestRerank:
    def _eval_setup(self, seed=0):
        cfg = EvaluatorConfig(vocab_size=len(VOCAB), video_dim=4, embed_dim=4,
                              filter_widths=(2,), filters_per_width=6, joint_dim=5,
                              margin=0.2, n_negatives=1)
        params = init_evaluator_params(cfg, make_rng(seed), scale=0.6)
        return cfg, params

    def test_pool_of_one_is_identity(self):
        cfg, params = self._eval_setup()
        pool = CandidatePool("v", [Candidate("w x", "m0", -1.0)])
        best = rerank(pool, np.ones(4), params, cfg, VOCAB)
        assert best.caption == "w x"

    def test_chosen_attains_max_score(self):
        cfg, params = self._eval_setup(1)
        rng = make_rng(2)
        words = ["w", "x", "y", "z"]
        pool = CandidatePool("v", [
            Candidate(" ".join(rng.choice(words, size=3)), f"m{i}", float(-i)) for i in range(5)
        ])
        video = rng.normal(size=4)
        best = rerank(pool, video, params, cfg, VOCAB)
        assert best in pool.entries
        assert all(c.score is not None for c in pool.entries)
        assert best.score == max(c.score for c in pool.entries)

    def test_matches_bruteforce_scoring(self):
        cfg, params = self._eval_setup(3)
        rng = make_rng(4)
        words = ["w", "x", "y", "z"]
        pool = CandidatePool("v", [
            Candidate(" ".join(rng.choice(words, size=int(rng.integers(1, 5)))), f"m{i}",
                      float(rng.normal())) for i in range(6)
        ])
        video = rng.normal(size=4)
        best = rerank(pool, video, params, cfg, VOCAB)
        vid_emb = ref_project_video(video, params)
        scored = [(ref_cosine(encode_sentence(encode(tokenize(c.caption), VOCAB), params, cfg),
                              vid_emb), c.logprob, c.caption) for c in pool.entries]
        scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
        assert best.caption == scored[0][2]

    def test_forced_argmax_by_matching_embedding(self):
        # candidate B's sentence embedding equals the video embedding: cosine 1
        cfg, params = self._eval_setup(5)
        pool = CandidatePool("v", [Candidate("w x y", "A", 0.0), Candidate("z z", "B", -9.0)])
        ids = encode(tokenize("z z"), VOCAB)
        target = encode_sentence(ids, params, cfg)
        # invert the video projection on a square system: vid_W @ v + b = target
        cfg2 = EvaluatorConfig(vocab_size=len(VOCAB), video_dim=cfg.joint_dim,
                               embed_dim=4, filter_widths=(2,), filters_per_width=6,
                               joint_dim=cfg.joint_dim, margin=0.2, n_negatives=1)
        params2 = dict(params)
        params2["vid_W"] = np.eye(cfg.joint_dim)
        params2["vid_b"] = np.zeros(cfg.joint_dim)
        best = rerank(pool, target, params2, cfg2, VOCAB)
        assert best.model == "B"
        assert best.score == pytest.approx(1.0)

    def test_tie_breaks_by_logprob_then_caption(self):
        cfg, params = self._eval_setup(6)
        # identical captions tie exactly on score; higher logprob wins
        pool = CandidatePool("v", [Candidate("w x", "A", -5.0), Candidate("w x", "B", -1.0)])
        best = rerank(pool, np.ones(4), params, cfg, VOCAB)
        assert best.model == "B"

    def test_batch_scores_equal_per_candidate_similarity(self):
        """One batched encoding of the pool scores each candidate as the
        one-sentence path and the per-sentence oracle do; identical captions
        score bit-equal, so their tie falls to log-prob, then to caption."""
        cfg = EvaluatorConfig(vocab_size=len(VOCAB), video_dim=4, embed_dim=4,
                              filter_widths=(2, 3, 5), filters_per_width=6, joint_dim=5)
        params = init_evaluator_params(cfg, make_rng(9), scale=0.6)
        rng = make_rng(10)
        captions = [" ".join(rng.choice(["w", "x", "y", "z"], size=int(rng.integers(0, 6))))
                    for _ in range(6)]
        pool = CandidatePool("v", [Candidate(c, f"m{i}", -1.0) for i, c in enumerate(captions)]
                             + [Candidate(captions[2], "dup", -0.5),
                                Candidate(captions[2], "dup-same-logprob", -0.5)])
        video = rng.normal(size=4)
        best = rerank(pool, video, params, cfg, VOCAB)
        vid_emb = ref_project_video(video, params)
        for c in pool.entries:
            ids = encode(tokenize(c.caption), VOCAB)
            assert abs(c.score - similarity(ids, video, params, cfg)) <= 1e-12
            want = ref_cosine(ref_encode_sentence(ids, params, cfg), vid_emb)
            assert abs(c.score - want) <= 1e-12
        dups = [c.score for c in pool.entries if c.caption == captions[2]]
        assert dups[0] == dups[1] == dups[2]
        assert best == min(pool.entries, key=lambda c: (-c.score, -c.logprob, c.caption))
        pool.entries = pool.entries[6:]
        assert rerank(pool, video, params, cfg, VOCAB).model == "dup"

    def test_empty_pool_rejected(self):
        cfg, params = self._eval_setup(8)
        with pytest.raises(DataError):
            rerank(CandidatePool("v", []), np.ones(4), params, cfg, VOCAB)


class TestPoolFile:
    def test_round_trip(self, tmp_path):
        pools = [
            CandidatePool("v0", [Candidate("w x", "m0", -1.5, 0.25),
                                 Candidate("y", "m1", -0.5, None)]),
            CandidatePool("v1", [Candidate("z z z", "m0", -3.25, -0.125)]),
        ]
        path = tmp_path / "pools.jsonl"
        dump_pools(pools, path)
        loaded = load_pools(path)
        assert [p.video_id for p in loaded] == ["v0", "v1"]
        assert loaded[0].entries[0].caption == "w x"
        assert loaded[0].entries[0].score == 0.25
        assert loaded[0].entries[1].score is None
        assert loaded[1].entries[0].logprob == -3.25

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"video_id": "v0"}\n')
        with pytest.raises(DataError):
            load_pools(path)

    @pytest.mark.parametrize("line", [b"[1]", b"\xff", b'{"video_id": "v0", "model": "m", '
                                      b'"caption": 5, "logprob": -1.0}'])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"video_id": "v0", "model": "m", "caption": "a", "logprob": -1.0}\n'
                         + line + b"\n")
        with pytest.raises(DataError, match="bad.jsonl:2"):
            load_pools(path)
