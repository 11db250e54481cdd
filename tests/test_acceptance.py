"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria with stated runtime budgets assert elapsed wall time too.
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from gradcheck import grad_check
from reference_beam import greedy_ids
from reference_metrics import ref_bleu4, ref_cider_d, ref_rouge_l
from vidcap import binio, decoder, evaluator, harness, metrics
from vidcap.features import DESCRIPTOR_CHANNELS, Codebook, bof_encode, kmeans
from vidcap.generation import GenerationConfig, beam_search_ids
from vidcap.numerics import OptState, make_rng
from vidcap.text import BOS, EOS, build_vocab, encode, tokenize

WORDS8 = ["a", "man", "dog", "runs", "fast", "ball", "red", "plays"]


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for depth in (1, 2, 3):
        for seed in (0, 1):
            rng = make_rng(100 * depth + seed)
            cfg = decoder.LMConfig(vocab_size=20, init_dim=5, persist_dim=4,
                                   depth=depth, hidden=16, embed_dim=8,
                                   dropout_rate=0.2)
            params = decoder.init_lm_params(cfg, rng)
            examples = []
            for _ in range(3):
                body = list(rng.integers(4, 20, size=int(rng.integers(2, 7))))
                examples.append((rng.normal(size=5), rng.normal(size=4),
                                 [BOS] + body + [EOS]))
            batch = decoder.make_batch(examples)

            def lm_loss(p):
                # fixed rng per call keeps the dropout masks identical
                return decoder.batch_loss_and_grads(p, cfg, batch, rng=make_rng(555))

            err = grad_check(lm_loss, params, make_rng(seed), h=1e-5,
                             samples_per_param=5)
            assert err < 1e-4, f"decoder depth={depth} seed={seed}: {err:.2e}"
            worst = max(worst, err)

    for seed in (0, 1, 2):
        rng = make_rng(seed)
        ecfg = evaluator.EvaluatorConfig(vocab_size=20, video_dim=9, embed_dim=6,
                                         filter_widths=(2, 3), filters_per_width=5,
                                         joint_dim=8, margin=0.2, n_negatives=4)
        # scale 0.5 keeps embedding norms O(1); the cosine around near-zero
        # embeddings is too curved for finite differences to resolve
        eparams = evaluator.init_evaluator_params(ecfg, rng, scale=0.5)
        video = rng.normal(size=9)
        pos = [BOS] + list(rng.integers(4, 20, size=5)) + [EOS]
        negs = [[BOS] + list(rng.integers(4, 20, size=int(rng.integers(1, 7)))) + [EOS]
                for _ in range(4)]

        def ev_loss(p):  # one anchor, every negative valid
            return evaluator.triple_loss_and_grads(p, ecfg, video[None],
                                                   *evaluator.pad_ids([pos, *negs], ecfg),
                                                   np.ones((1, 4), dtype=bool))

        err = grad_check(ev_loss, eparams, make_rng(seed + 40), h=1e-5,
                         samples_per_param=5)
        assert err < 1e-4, f"evaluator seed={seed}: {err:.2e}"
        worst = max(worst, err)

    elapsed = time.time() - start
    assert elapsed < 60
    _report(1, f"decoder depths 1-3 + evaluator gradients, worst rel err "
               f"{worst:.2e} < 1e-4 in {elapsed:.1f}s")


def test_acceptance_2_beam_search_optimality():
    start = time.time()
    cfg = decoder.LMConfig(vocab_size=8, init_dim=3, persist_dim=2, depth=1,
                           hidden=6, embed_dim=4)
    words = [4, 5, 6, 7]

    def exhaustive(params, init_vec, persist_vec):
        best = None
        for k in range(4):
            for body in itertools.product(words, repeat=k):
                target = [BOS] + list(body) + [EOS]
                _, lp = decoder.forward_logprob(init_vec, persist_vec, target,
                                                params, cfg)
                key = (-lp, tuple(list(body) + [EOS]))
                if best is None or key < best[0]:
                    best = (key, list(body) + [EOS], lp)
        return best[1], best[2]

    for seed in range(20):
        rng = make_rng(seed)
        params = decoder.init_lm_params(cfg, rng, scale=0.8)
        init_vec, persist_vec = rng.normal(size=3), rng.normal(size=2)

        tokens, lp, completed = beam_search_ids(
            params, cfg, init_vec, persist_vec,
            GenerationConfig(beam_size=512, max_len=4))
        ref_tokens, ref_lp = exhaustive(params, init_vec, persist_vec)
        assert completed
        assert tokens == ref_tokens, f"seed {seed}"
        assert abs(lp - ref_lp) < 1e-9

        b1_tokens, b1_lp, _ = beam_search_ids(
            params, cfg, init_vec, persist_vec,
            GenerationConfig(beam_size=1, max_len=8))
        g_tokens, g_lp = greedy_ids(params, cfg, init_vec, persist_vec, max_len=8)
        assert b1_tokens == g_tokens and abs(b1_lp - g_lp) < 1e-9

    elapsed = time.time() - start
    assert elapsed < 60
    _report(2, f"beam(b=512) == exhaustive argmax and beam(b=1) == greedy on 20 "
               f"random models in {elapsed:.1f}s")


def test_acceptance_3_residual_identity():
    checked = 0
    for depth in (2, 3):
        cfg = decoder.LMConfig(vocab_size=10, init_dim=3, persist_dim=3,
                               depth=depth, hidden=12, embed_dim=6)
        shallow_cfg = decoder.LMConfig(vocab_size=10, init_dim=3, persist_dim=3,
                                       depth=depth - 1, hidden=12, embed_dim=6)
        rng = make_rng(depth)
        params = decoder.init_lm_params(cfg, rng)
        for name in (f"l{depth}_Wx", f"l{depth}_Wh", f"l{depth}_b"):
            params[name][:] = 0.0
        shallow = {k: v for k, v in params.items() if not k.startswith(f"l{depth}_")}
        deep_states = decoder.zero_states(cfg)
        sh_states = decoder.zero_states(shallow_cfg)
        for _ in range(50):  # 50 steps x 2 depths = 100 random inputs
            x = rng.normal(size=cfg.embed_dim + cfg.persist_dim)
            out_d, deep_states = decoder.stack_step(x, deep_states, params, cfg)
            out_s, sh_states = decoder.stack_step(x, sh_states, shallow, shallow_cfg)
            assert np.max(np.abs(out_d - out_s)) <= 1e-12
            checked += 1
    assert checked == 100
    _report(3, "zeroed upper layer leaves depth-2/3 stack outputs within 1e-12 "
               "of the shallower stack on 100 random inputs")


def test_acceptance_4_overfit_sanity():
    start = time.time()
    ds, store = harness.synth_generate(
        harness.SynthConfig(n_videos=10, train_frac=1.0, val_frac=0.0), make_rng(0))
    records = ds.split("train")
    assert len(records) == 10 and all(len(r.captions) == 3 for r in records)
    vocab = build_vocab([c for r in records for c in r.captions], 1)
    cfg = decoder.LMConfig(vocab_size=len(vocab), init_dim=store.dim("categ"),
                           persist_dim=store.dim("feat-a+feat-b"),
                           depth=2, hidden=64, embed_dim=64)
    rng = make_rng(1)
    params = decoder.init_lm_params(cfg, rng)
    examples = harness.lm_examples(records, store, vocab, "categ", "feat-a+feat-b")
    batch = decoder.make_batch(examples)
    opt = OptState(learning_rate=1e-3)
    for _ in range(500):
        decoder.train_step(batch, params, cfg, opt, rng)
    ppl = decoder.perplexity(examples, params, cfg)
    elapsed = time.time() - start
    assert ppl <= 1.5, f"perplexity {ppl:.4f}"
    assert elapsed < 120
    _report(4, f"depth-2 hidden-64 memorizes 10x3 captions to perplexity "
               f"{ppl:.3f} <= 1.5 in 500 steps ({elapsed:.1f}s)")


def test_acceptance_5_evaluator_discrimination():
    start = time.time()
    ds, store = harness.synth_generate(harness.SynthConfig(n_videos=200), make_rng(0))
    train = ds.split("train")
    vocab = build_vocab([c for r in train for c in r.captions], 5)
    cfg = evaluator.EvaluatorConfig(
        vocab_size=len(vocab), video_dim=store.dim("feat-a+feat-b"), embed_dim=32,
        filters_per_width=32, joint_dim=64, margin=0.2, n_negatives=50,
        feature_name="feat-a+feat-b")
    params, _ = evaluator.train_evaluator(
        train, lambda v: store.get(v, "feat-a+feat-b"), vocab, cfg, make_rng(1),
        epochs=10)

    held = ds.split("val") + ds.split("test")
    neg_rng = make_rng(2)
    wins = total = 0
    for rec in sorted(held, key=lambda r: r.id):
        vf = store.get(rec.id, "feat-a+feat-b")
        negs = evaluator.sample_negatives(rec.id, held, 50, neg_rng)
        neg_scores = [evaluator.similarity(encode(tokenize(c), vocab), vf, params, cfg)
                      for c in negs]
        for cap in rec.captions:
            pos = evaluator.similarity(encode(tokenize(cap), vocab), vf, params, cfg)
            for ns in neg_scores:
                total += 1
                wins += pos > ns
    rate = wins / total
    elapsed = time.time() - start
    assert rate >= 0.95, f"win rate {rate:.4f}"
    assert elapsed < 300
    _report(5, f"held-out matched pairs outscore negatives in {rate:.2%} of "
               f"{total} comparisons (>= 95%) in {elapsed:.1f}s")


def test_acceptance_6_ensemble_improvement():
    start = time.time()
    rel_gains, gaps_a, gaps_b = [], [], []
    for seed in range(5):
        cfg = harness.ExperimentConfig(seed=seed)
        result = harness.run_experiment(cfg)
        ciders = {row["tag"]: row["cider"] for row in result.model_rows}
        ens = result.ensemble_row["cider"]
        weaker = min(ciders.values())
        gaps_a.append(ens - ciders["m-a"])
        gaps_b.append(ens - ciders["m-b"])
        rel_gains.append((ens - weaker) / weaker)
    med_gain = statistics.median(rel_gains)
    elapsed = time.time() - start
    assert statistics.median(gaps_a) >= 0.0
    assert statistics.median(gaps_b) >= 0.0
    assert med_gain >= 0.05, f"median relative gain {med_gain:.3f}"
    assert elapsed < 600
    _report(6, f"ensemble CIDEr-D >= both specialists; median gain over the "
               f"weaker one {med_gain:.1%} (>= 5%) across 5 seeds in {elapsed:.1f}s")


def test_acceptance_7_metric_oracles():
    words = ["a", "b", "c", "d", "e", "f", "g", "h"]
    for seed in range(50):
        rng = make_rng(seed + 7000)
        hyps, refs = {}, {}
        for i in range(int(rng.integers(2, 6))):
            vid = f"v{i}"
            hyps[vid] = " ".join(rng.choice(words, size=rng.integers(1, 9)))
            refs[vid] = [" ".join(rng.choice(words, size=rng.integers(1, 9)))
                         for _ in range(rng.integers(1, 4))]
        assert metrics.bleu4(hyps, refs) == pytest.approx(ref_bleu4(hyps, refs), abs=1e-9)
        mine_r, per_r = metrics.rouge_l(hyps, refs)
        ref_r, ref_per_r = ref_rouge_l(hyps, refs)
        assert mine_r == pytest.approx(ref_r, abs=1e-9)
        mine_c, per_c = metrics.cider_d(hyps, refs)
        ref_c, ref_per_c = ref_cider_d(hyps, refs)
        assert mine_c == pytest.approx(ref_c, abs=1e-9)
        for vid in hyps:
            assert per_r[vid] == pytest.approx(ref_per_r[vid], abs=1e-9)
            assert per_c[vid] == pytest.approx(ref_per_c[vid], abs=1e-9)

    # trivial extremes hold exactly
    hyps = {"v0": "red cat sits calmly here", "v1": "dog runs around the yard"}
    refs = {k: [v] for k, v in hyps.items()}
    assert metrics.bleu4(hyps, refs) == 1.0
    assert metrics.rouge_l(hyps, refs)[0] == 1.0
    assert metrics.cider_d(hyps, refs)[0] == pytest.approx(10.0, abs=1e-12)
    disjoint = {"v0": "x y z w q", "v1": "j k l m"}
    assert metrics.bleu4(disjoint, refs) == 0.0
    assert metrics.rouge_l(disjoint, refs)[0] == 0.0
    assert metrics.cider_d(disjoint, refs)[0] == 0.0
    _report(7, "BLEU-4/ROUGE-L/CIDEr-D match brute-force references on 50 "
               "micro-corpora within 1e-9; extremes exact")


def test_acceptance_8_bof_pipeline():
    for seed in range(10):
        rng = make_rng(seed + 800)
        pts = rng.normal(size=(150, 4)) * rng.uniform(0.5, 2.0)
        _, _, history = kmeans(pts, int(rng.integers(2, 12)), rng)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:])), \
            f"objective increased at seed {seed}"

    rng = make_rng(42)
    books_small = {ch: Codebook(channel=ch, centroids=rng.normal(size=(7, 3)))
                   for ch in DESCRIPTOR_CHANNELS}
    desc = {ch: rng.normal(size=(11, 3)) for ch in DESCRIPTOR_CHANNELS}
    assert bof_encode(desc, books_small).shape == (5 * 7,)

    books_1000 = {ch: Codebook(channel=ch, centroids=rng.normal(size=(1000, 4)))
                  for ch in DESCRIPTOR_CHANNELS}
    desc4 = {ch: rng.normal(size=(5, 4)) for ch in DESCRIPTOR_CHANNELS}
    assert bof_encode(desc4, books_1000).shape == (5000,)

    shuffled = {ch: d[make_rng(1).permutation(len(d))] for ch, d in desc.items()}
    assert np.array_equal(bof_encode(desc, books_small), bof_encode(shuffled, books_small))
    _report(8, "k-means objective non-increasing on 10 runs; BoF dim = 5k "
               "(5000 at k=1000); descriptor-permutation invariant")


def test_acceptance_9_determinism_and_formats(tmp_path):
    cfg_kwargs = dict(seed=123)
    outputs = []
    for run in range(2):
        cfg = harness.ExperimentConfig(**cfg_kwargs)
        cfg.synth = harness.SynthConfig(n_videos=40)
        cfg.lm_epochs = 3
        cfg.eval_epochs = 3
        cfg.hidden = cfg.embed_dim = 32
        out = tmp_path / f"run{run}"
        harness.run_experiment(cfg, out_dir=out)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"

    # checkpoint and feature files round-trip bit-exactly
    rng = make_rng(9)
    lm_cfg = decoder.LMConfig(vocab_size=11, init_dim=3, persist_dim=2, depth=2,
                              hidden=8, embed_dim=6)
    params = decoder.init_lm_params(lm_cfg, rng)
    p1, p2 = tmp_path / "a.vlmp", tmp_path / "b.vlmp"
    decoder.save_lm(p1, lm_cfg, params)
    _, loaded, _ = decoder.load_lm(p1)
    decoder.save_lm(p2, lm_cfg, loaded)
    assert p1.read_bytes() == p2.read_bytes()

    ecfg = evaluator.EvaluatorConfig(vocab_size=11, video_dim=5)
    eparams = evaluator.init_evaluator_params(ecfg, rng)
    e1, e2 = tmp_path / "a.vevp", tmp_path / "b.vevp"
    evaluator.save_evaluator(e1, ecfg, eparams)
    ecfg2, eloaded = evaluator.load_evaluator(e1)
    evaluator.save_evaluator(e2, ecfg2, eloaded)
    assert e1.read_bytes() == e2.read_bytes()

    rows = [(f"v{i}", rng.normal(size=6).astype(np.float32)) for i in range(20)]
    f1, f2 = tmp_path / "a.vfea", tmp_path / "b.vfea"
    binio.write_feature_file(f1, "gcnn", rows)
    name, loaded_rows = binio.read_feature_file(f1)
    binio.write_feature_file(f2, name, loaded_rows)
    assert f1.read_bytes() == f2.read_bytes()
    _report(9, "fixed-seed run reproduces byte-identical artifacts; feature and "
               "checkpoint files round-trip bit-exactly")
