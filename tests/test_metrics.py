import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_metrics import ref_bleu4, ref_cider_d, ref_rouge_l
from vidcap.errors import DataError
from vidcap.metrics import bleu4, cider_d, rouge_l, rouge_l_single, score_captions
from vidcap.numerics import make_rng

WORDS = ["a", "man", "dog", "runs", "fast", "ball", "red", "plays"]


def random_corpus(seed, n_videos=3, max_refs=3):
    rng = make_rng(seed)
    hyps, refs = {}, {}
    for i in range(n_videos):
        vid = f"v{i}"
        hyps[vid] = " ".join(rng.choice(WORDS, size=rng.integers(1, 8)))
        refs[vid] = [" ".join(rng.choice(WORDS, size=rng.integers(1, 8)))
                     for _ in range(rng.integers(1, max_refs + 1))]
    return hyps, refs


class TestBleu4:
    def test_identity_is_one(self):
        hyps = {"v0": "a man is running fast", "v1": "the dog plays with a ball"}
        refs = {k: [v, "something else entirely"] for k, v in hyps.items()}
        assert bleu4(hyps, refs) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert bleu4({"v0": "x y z w"}, {"v0": ["a b c d"]}) == 0.0

    def test_hand_case(self):
        # hyp 4 tokens, all n-gram precisions 1; closest ref length 5
        val = bleu4({"v0": "a man is running"}, {"v0": ["a man is running fast"]})
        assert val == pytest.approx(math.exp(1.0 - 5.0 / 4.0), abs=1e-12)

    def test_zero_when_any_order_unmatched(self):
        # shares unigrams but no 4-grams: unsmoothed BLEU-4 must be 0
        assert bleu4({"v0": "a dog a dog a"}, {"v0": ["dog a man runs fast"]}) == 0.0

    def test_brevity_tie_prefers_shorter(self):
        # hyp length 3, refs lengths 2 and 4: tie resolved to 2 -> BP=1
        val = bleu4({"v0": "a b c"}, {"v0": ["a b", "a b c d"]})
        ref_val = ref_bleu4({"v0": "a b c"}, {"v0": ["a b", "a b c d"]})
        assert val == pytest.approx(ref_val, abs=1e-12)

    def test_missing_reference(self):
        with pytest.raises(DataError):
            bleu4({"v0": "a"}, {"v0": []})


class TestRougeL:
    def test_identical(self):
        assert rouge_l_single("a man runs", ["a man runs"]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l_single("x y z", ["a b c"]) == 0.0

    def test_hand_lcs(self):
        # LCS("a b c", "a c d") = 2, P = R = 2/3 -> F = 2/3
        assert rouge_l_single("a b c", ["a c d"]) == pytest.approx(2.0 / 3.0)

    def test_max_over_references(self):
        score = rouge_l_single("a b c", ["x y z", "a b c"])
        assert score == pytest.approx(1.0)

    def test_f_measure_beta_symmetry(self):
        def f(p, r, beta):
            return (1 + beta * beta) * p * r / (r + beta * beta * p)

        for p, r in ((0.25, 0.75), (0.6, 0.2), (0.5, 0.5)):
            assert f(p, r, 1.2) == pytest.approx(f(r, p, 1.0 / 1.2))

    def test_corpus_is_mean(self):
        hyps = {"v0": "a b c", "v1": "x y"}
        refs = {"v0": ["a b c"], "v1": ["x y"]}
        corpus, per = rouge_l(hyps, refs)
        assert corpus == pytest.approx((per["v0"] + per["v1"]) / 2)


class TestCiderD:
    def test_disjoint_zero(self):
        hyps = {"v0": "x y z w", "v1": "a man runs fast"}
        refs = {"v0": ["a man runs fast"], "v1": ["a man runs fast"]}
        corpus, per = cider_d(hyps, refs)
        assert per["v0"] == 0.0

    def test_unique_exact_match_scores_ten(self):
        # v0's caption shares no n-grams with the rest of the corpus, so every
        # n-gram has df=1 and the exact match hits the 10.0 ceiling
        hyps = {"v0": "red cat sits calmly here", "v1": "a dog runs"}
        refs = {"v0": ["red cat sits calmly here"], "v1": ["a dog runs", "a dog walks"]}
        _, per = cider_d(hyps, refs)
        assert per["v0"] == pytest.approx(10.0, abs=1e-12)

    def test_single_video_rejected(self):
        with pytest.raises(DataError):
            cider_d({"v0": "a"}, {"v0": ["a"]})

    def test_matches_bruteforce_small_corpus(self):
        hyps, refs = random_corpus(123, n_videos=3)
        mine, mine_per = cider_d(hyps, refs)
        ref, ref_per = ref_cider_d(hyps, refs)
        assert mine == pytest.approx(ref, abs=1e-9)
        for vid in mine_per:
            assert mine_per[vid] == pytest.approx(ref_per[vid], abs=1e-9)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_three_match(self, seed):
        hyps, refs = random_corpus(seed, n_videos=2 + seed % 4)
        assert bleu4(hyps, refs) == pytest.approx(ref_bleu4(hyps, refs), abs=1e-9)
        assert rouge_l(hyps, refs)[0] == pytest.approx(ref_rouge_l(hyps, refs)[0], abs=1e-9)
        assert cider_d(hyps, refs)[0] == pytest.approx(ref_cider_d(hyps, refs)[0], abs=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_maximum_at_exact_match(self, seed):
        rng = make_rng(seed + 900)
        refs = {}
        hyps = {}
        for i in range(3):
            cap = " ".join(rng.choice(WORDS, size=6))
            refs[f"v{i}"] = [cap, " ".join(rng.choice(WORDS, size=4))]
            hyps[f"v{i}"] = cap
        assert bleu4(hyps, refs) == pytest.approx(1.0)
        corpus, per = rouge_l(hyps, refs)
        assert corpus == pytest.approx(1.0)
        # CIDEr-D maximum: every other hypothesis scores no higher
        c_exact, _ = cider_d(hyps, refs)
        worse = dict(hyps)
        worse["v0"] = " ".join(rng.choice(WORDS, size=6))
        c_other, _ = cider_d(worse, refs)
        assert c_exact >= c_other - 1e-12

    def test_reference_order_invariance(self):
        hyps = {"v0": "a man runs", "v1": "dog plays ball"}
        refs1 = {"v0": ["a man runs fast", "man runs"], "v1": ["dog plays", "a ball"]}
        refs2 = {k: list(reversed(v)) for k, v in refs1.items()}
        assert bleu4(hyps, refs1) == bleu4(hyps, refs2)
        assert rouge_l(hyps, refs1)[0] == rouge_l(hyps, refs2)[0]
        # cider sums float per-reference terms, so order costs the last ulp
        assert cider_d(hyps, refs1)[0] == pytest.approx(cider_d(hyps, refs2)[0], abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_ranges(self, seed):
        hyps, refs = random_corpus(seed)
        assert 0.0 <= bleu4(hyps, refs) <= 1.0
        assert 0.0 <= rouge_l(hyps, refs)[0] <= 1.0
        assert cider_d(hyps, refs)[0] >= 0.0


class TestReport:
    def test_report_shape(self):
        hyps, refs = random_corpus(5)
        report = score_captions(hyps, refs)
        text = report.to_text()
        assert "bleu4:" in text and "rouge_l:" in text and "cider:" in text
        assert set(report.per_video) == set(hyps)
        import json
        doc = json.loads(report.to_json())
        assert doc["bleu4"] == report.bleu4
