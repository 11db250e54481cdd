import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_metrics import _lcs, ngram_counts, ref_bleu4, ref_cider_d, ref_rouge_l, toks
from vidcap import metrics
from vidcap.errors import DataError
from vidcap.metrics import bleu4, cider_d, rouge_l, score_captions
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

    def test_empty_corpus_is_a_data_error(self):
        with pytest.raises(DataError, match="^the corpus has no videos to score$"):
            bleu4({}, {})


def rouge_l_single(hypothesis, refs):
    """Per-video ROUGE-L of one hypothesis against its references."""
    return rouge_l({"v0": hypothesis}, {"v0": refs})[1]["v0"]


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

    def test_empty_corpus_is_a_data_error(self):
        with pytest.raises(DataError, match="^the corpus has no videos to score$"):
            rouge_l({}, {})


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

    def test_empty_corpus_is_a_data_error(self):
        with pytest.raises(DataError, match="at least two videos in the corpus, got 0"):
            cider_d({}, {})

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


def _f_of_lcs(lcs, n_hyp, n_ref, beta=1.2):
    """ROUGE-L's F-measure from an LCS length, in the library's float order."""
    if lcs == 0:
        return 0.0
    p, r = lcs / n_hyp, lcs / n_ref
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


@st.composite
def token_pairs(draw):
    """Two token lists over an alphabet of 1-3 tokens (so tokens repeat), long
    enough to need more than 64 bits per bitmask."""
    alphabet = ["a", "b", "c"][: draw(st.integers(1, 3))]
    seq = st.lists(st.sampled_from(alphabet), max_size=80)
    return draw(seq), draw(seq)


class TestBitParallelLcs:
    """`metrics._rouge_f` computes the LCS length bit-parallel. Its F-measure
    is strictly increasing in the LCS length at fixed caption lengths, so
    equal F-measures mean equal LCS lengths."""

    @given(token_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dp_table(self, pair):
        a, b = pair
        assert metrics._rouge_f(a, [b]) == _f_of_lcs(_lcs(a, b), len(a), len(b))

    @given(token_pairs(), token_pairs())
    @settings(max_examples=100, deadline=None)
    def test_max_over_references(self, pair, more):
        hyp, refs = pair[0], [pair[1], *more]
        want = max(_f_of_lcs(_lcs(hyp, r), len(hyp), len(r)) for r in refs)
        assert metrics._rouge_f(hyp, refs) == want

    def test_long_identical_is_exactly_one(self):
        seq = ["a", "b"] * 50
        assert metrics._rouge_f(seq, [seq[:-1], seq]) == 1.0


CAPTION_WORDS = ["a", "dog", "runs", "a dog", "ball"]
caption = st.lists(st.sampled_from(CAPTION_WORDS), max_size=7).map(" ".join)
no_tokens = st.sampled_from(["", "...", " ,!? ", "'"])


@st.composite
def corpora(draw):
    """2-5 videos with 1-4 references each. Hypotheses may be empty or
    punctuation only, or equal one of their references; references may be
    shorter than four tokens; the small vocabulary repeats n-grams."""
    hyps, refs = {}, {}
    for i in range(draw(st.integers(2, 5))):
        rs = draw(st.lists(caption, min_size=1, max_size=4))
        hyps[f"v{i}"] = draw(st.one_of(caption, no_tokens, st.sampled_from(rs)))
        refs[f"v{i}"] = rs
    return hyps, refs


class TestTwoPassScorer:
    @given(corpora())
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_loop_oracles(self, corpus):
        hyps, refs = corpus
        report = score_captions(hyps, refs)
        rouge, rouge_per = ref_rouge_l(hyps, refs)
        cider, cider_per = ref_cider_d(hyps, refs)
        assert report.bleu4 == pytest.approx(ref_bleu4(hyps, refs), abs=1e-9)
        assert report.rouge_l == pytest.approx(rouge, abs=1e-9)
        assert report.cider == pytest.approx(cider, abs=1e-9)
        assert sorted(report.per_video) == sorted(hyps)
        for vid, row in report.per_video.items():
            assert row["rouge_l"] == pytest.approx(rouge_per[vid], abs=1e-9)
            assert row["cider"] == pytest.approx(cider_per[vid], abs=1e-9)
            if toks(hyps[vid]) and toks(hyps[vid]) in [toks(r) for r in refs[vid]]:
                assert row["rouge_l"] == 1.0

    @given(corpora())
    @settings(max_examples=100, deadline=None)
    def test_sums_in_the_oracles_order(self, corpus):
        """The oracles add their terms in the textbook order, as the scorer
        does, so every score agrees to the bit."""
        hyps, refs = corpus
        report = score_captions(hyps, refs)
        assert report.bleu4 == ref_bleu4(hyps, refs)
        assert (report.rouge_l, report.cider) == (ref_rouge_l(hyps, refs)[0], ref_cider_d(hyps, refs)[0])
        assert {vid: row["cider"] for vid, row in report.per_video.items()} == ref_cider_d(hyps, refs)[1]

    @given(corpora())
    @settings(max_examples=50, deadline=None)
    def test_views_equal_the_report(self, corpus):
        hyps, refs = corpus
        report = score_captions(hyps, refs)
        assert bleu4(hyps, refs) == report.bleu4
        corpus_r, per_r = rouge_l(hyps, refs)
        corpus_c, per_c = cider_d(hyps, refs)
        assert (corpus_r, corpus_c) == (report.rouge_l, report.cider)
        assert per_r == {vid: row["rouge_l"] for vid, row in report.per_video.items()}
        assert per_c == {vid: row["cider"] for vid, row in report.per_video.items()}

    def test_rejects_like_the_views(self):
        with pytest.raises(DataError, match="'v1' has no references"):
            score_captions({"v0": "a", "v1": "b"}, {"v0": ["a"], "v1": []})
        with pytest.raises(DataError, match="at least two videos"):
            score_captions({"v0": "a"}, {"v0": ["a"]})
        with pytest.raises(DataError, match="at least two videos"):
            score_captions({}, {})

    def test_no_state_between_calls(self):
        hyps, refs = random_corpus(3, n_videos=4)
        first = score_captions(hyps, refs).to_json()
        score_captions(*random_corpus(4, n_videos=5))
        assert score_captions(hyps, refs).to_json() == first


def _ngram_rows(hyps, refs) -> list[list[tuple]]:
    """`metrics._ngrams` on the corpus: per order n, its rows as (first
    token, caption, n-gram as a word tuple, id, count, df of the id)."""
    corpus = metrics._first_pass(hyps, refs)
    captions = [toks(c) for vid in sorted(hyps) for c in (hyps[vid], *refs[vid])]
    tokens = [*chain.from_iterable(captions)]
    cap = np.array([j for j, c in enumerate(captions) for _ in c], np.int32)
    doc = np.array([-1 if i == 0 else v for v, vid in enumerate(sorted(hyps))
                    for i in range(1 + len(refs[vid]))], np.int32)
    return [[(a, c, tuple(tokens[a - n + 1:a + 1]), g, count, int(df[g]))
             for a, c, g, count in zip(at.tolist(), cs.tolist(), gs.tolist(), counts.tolist())]
            for n, (at, cs, gs, counts, df) in enumerate(metrics._ngrams(np, corpus, cap, doc), 1)]


class TestIntegerCodes:
    @given(corpora())
    @settings(max_examples=300, deadline=None)
    def test_codes_decode_to_the_oracle_ngrams(self, corpus):
        """Each order's rows are each caption's distinct n-grams with the
        counts the oracle gives them, in order of first occurrence, sorted by
        id, then caption. The ids are 0, 1, ..., and two rows share an id
        exactly when their n-grams are equal."""
        hyps, refs = corpus
        captions = [toks(c) for vid in sorted(hyps) for c in (hyps[vid], *refs[vid])]
        for n, rows in enumerate(_ngram_rows(hyps, refs), 1):
            assert [(c, gram, count) for _, c, gram, _, count, _ in sorted(rows)] == \
                [(j, gram, count) for j, c in enumerate(captions)
                 for gram, count in ngram_counts(c, n).items()]
            order = [(g, c) for _, c, _, g, _, _ in rows]
            assert order == sorted(order)
            id_of = {gram: g for _, _, gram, g, _, _ in rows}
            assert all(id_of[gram] == g for _, _, gram, g, _, _ in rows)
            assert sorted(id_of.values()) == list(range(len(id_of)))

    def test_vocabulary_past_int64_codes(self):
        """With more than 55,108 distinct words, base**4 >= 2**63: the 4-gram
        codes outgrow a 64-bit integer, and every score still equals the
        oracles' to the bit."""
        rng = make_rng(7)
        common = [f"c{i}" for i in range(40)]
        fresh = (f"w{i}" for i in range(10**6))
        hyps, refs = {}, {}
        for v in range(3000):
            rs = [[rng.choice(common) if rng.random() < 0.2 else next(fresh) for _ in range(5)]
                  for _ in range(5)]
            hyp = list(rs[int(rng.integers(5))])
            if v % 3:
                hyp[int(rng.integers(5))] = next(fresh)
            hyps[f"v{v:04d}"], refs[f"v{v:04d}"] = " ".join(hyp), [" ".join(r) for r in rs]
        words = set(chain.from_iterable(map(str.split, chain(*refs.values(), hyps.values()))))
        assert len(words) > 55_108
        report = score_captions(hyps, refs)
        rouge, rouge_per = ref_rouge_l(hyps, refs)
        cider, cider_per = ref_cider_d(hyps, refs)
        assert (report.bleu4, report.rouge_l, report.cider) == (ref_bleu4(hyps, refs), rouge, cider)
        assert {vid: row["rouge_l"] for vid, row in report.per_video.items()} == rouge_per
        assert {vid: row["cider"] for vid, row in report.per_video.items()} == cider_per
        assert report.bleu4 > 0.0

    def test_tokenizes_each_caption_once(self, monkeypatch):
        """Every hypothesis and reference string is tokenized exactly once."""
        calls, real = [], metrics.tokenize
        monkeypatch.setattr(metrics, "tokenize", lambda s: calls.append(s) or real(s))
        hyps, refs = random_corpus(8, n_videos=6)
        score_captions(hyps, refs)
        assert sorted(calls) == sorted(chain(hyps.values(), *refs.values()))


def _oracle_df(hyps, refs):
    """The oracle's document frequency of every n-gram (word tuple): the
    number of videos whose references contain it."""
    df = {}
    for vid in sorted(hyps):
        grams = {g for r in refs[vid] for n in range(1, 5) for g in ngram_counts(toks(r), n)}
        for g in grams:
            df[g] = df.get(g, 0) + 1
    return df


def _shared_df(hyps, refs):
    """The document frequencies `metrics._ngrams` gives the n-grams in two
    videos or more, by word tuple."""
    return {gram: df for rows in _ngram_rows(hyps, refs) for *_, gram, _, _, df in rows if df > 1}


class TestSharedDocumentFrequencies:
    """The document frequency of an n-gram in two videos or more equals the
    oracle's; idf(0) == idf(1), so the others need not be checked."""

    @given(corpora())
    @settings(max_examples=200, deadline=None)
    def test_keys_are_the_ngrams_of_two_videos(self, corpus):
        hyps, refs = corpus
        assert _shared_df(hyps, refs) == {g: d for g, d in _oracle_df(hyps, refs).items() if d > 1}

    def test_hand_built_corpus(self):
        """"dog" is in the references of one video, "cat" in those of two and
        "a" in all three; no other n-gram is in two videos."""
        hyps = {"v0": "a dog", "v1": "a cat", "v2": "a cat"}
        refs = {"v0": ["a dog", "a dog runs"], "v1": ["a cat sits"], "v2": ["the cat", "a"]}
        assert _oracle_df(hyps, refs)[("dog",)] == 1
        assert _shared_df(hyps, refs) == {("a",): 3, ("cat",): 2}
        assert score_captions(hyps, refs).cider == ref_cider_d(hyps, refs)[0]
