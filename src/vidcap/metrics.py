"""Corpus-level caption metrics: BLEU-4, ROUGE-L and CIDEr-D.

All three reuse the pipeline tokenizer so hypotheses and references are
normalized identically. Hypotheses/references are keyed by video id:
hypotheses[vid] is one caption string, references[vid] a non-empty list.

`score_captions` first reads the strings (`_first_pass`): it tokenizes each
caption once, in video id order, hypothesis first, and numbers the words 1..W
as they first appear. ROUGE-L runs on the id lists, and all captions' ids go
end to end into one flat array. With B = W + 1, the n-gram (i1..in) is the
integer code sum(ik * B**(n-k)), which lies in [B**(n-1), B**n): codes of
different orders never collide, and the order is read from the code. From
55,108 words on, B**4 reaches 2**63: Python ints do not overflow, but
4-gram codes no longer fit in an int64.

Two passes then run over the ids. Pass 1 clips the BLEU-4 n-gram counts and
counts the CIDEr-D document frequencies (df), keyed by code. It keeps only the
codes that occur in two videos or more: idf = log(N) - log(max(1, df)), so
idf(0) equals idf(1) to the bit, and a code in one video needs no entry. At
2500 videos x 20 references that is 57,200 of 835,818 codes. So that the full
table never exists, each video appends its distinct codes to one run per
order, an int64 array while the order's codes fit in one (B**n <= 2**63)
and a list past that. After the loop the runs are counted one order at a
time, the largest order's 326k codes at most, and each run is freed before
the next is counted. Pass 2 computes the CIDEr-D tf-idf terms, which need the
finished frequencies, and counts every caption's n-grams again: keeping pass
1's counts raised peak RSS at that shape from 172 MB to 260 MB. The
benchmark's peak RSS there is about 86 MB, against 136.7 MB with every code
kept. Sums run in the textbook order, so the scores equal the plain-loop
formulas to the bit.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, mul

from .errors import DataError
from .text import tokenize

ROUGE_BETA = 1.2   # recall weight of the ROUGE-L F-measure
CIDER_N = 4        # CIDEr-D averages n-gram orders 1..CIDER_N
CIDER_SIGMA = 6.0  # width of CIDEr-D's gaussian length penalty


def _ngram_orders(t, base: int) -> tuple:
    """The 1..4-gram codes of the id sequence t, one sequence per order, each in
    order of occurrence. The code of (i1..in) is sum(ik * base**(n-k)), so an
    n-gram's code lies in [base**(n-1), base**n)."""
    c2 = [*map(add, map(mul, t, repeat(base)), t[1:])]
    c3 = [*map(add, map(mul, c2, repeat(base)), t[2:])]
    return t, c2, c3, [*map(add, map(mul, c3, repeat(base)), t[3:])]


def _ngram_codes(t, base: int) -> Counter:
    """The 1..4-gram codes of t with their counts: order by order, each order in
    order of first occurrence."""
    return Counter(chain(*_ngram_orders(t, base)))


def _rouge_f(hyp: list[str], refs: list[list[str]]) -> float:
    """ROUGE-L: LCS F-measure, maximized over refs. LCS is bit-parallel
    (Allison and Dix 1986; Hyyro 2004): a match bitmask per hypothesis token,
    a few big-int operations per reference token. The cleared low len(hyp)
    bits of v mark where the LCS table's row steps up; carries only move up."""
    masks: dict[str, int] = {}
    for i, t in enumerate(hyp):
        masks[t] = masks.get(t, 0) | 1 << i
    full = (1 << len(hyp)) - 1
    b2 = ROUGE_BETA * ROUGE_BETA
    best = 0.0
    for ref in refs:
        v = full
        for t in ref:
            if m := masks.get(t):
                u = v & m
                v = (v + u) | (v - u)
        if lcs := len(hyp) - (v & full).bit_count():
            p, r = lcs / len(hyp), lcs / len(ref)
            best = max(best, (1 + b2) * p * r / (r + b2 * p))
    return best


class _WordIds(dict):
    """Word -> id, numbering unseen words 1, 2, ... as they are looked up."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self) + 1
        return n


class _Corpus:
    """Every caption as word ids, video by video in id order, hypothesis
    first. Caption j is ids[ends[j]:ends[j + 1]], video k has n_refs[k]
    references, and base is one more than the largest id. A plain class: as
    a dataclass it added about 1.5 ms to the cold import of this module."""

    def __init__(self, ids: array, ends: array, n_refs: list[int], base: int):
        self.ids, self.ends, self.n_refs, self.base = ids, ends, n_refs, base

    def videos(self):
        """(hypothesis, references) id arrays of each video."""
        ids, ends, j = self.ids, self.ends, 0
        for n in self.n_refs:
            hyp, *refs = (ids[ends[i]:ends[i + 1]] for i in range(j, j + 1 + n))
            j += 1 + n
            yield hyp, refs


def _first_pass(hypotheses, references) -> tuple[dict[str, float], _Corpus]:
    """Per-video ROUGE-L and the corpus as word ids; the one tokenization."""
    word_ids = _WordIds()
    ids, ends, n_refs = array("l"), array("l", [0]), []
    rouge: dict[str, float] = {}
    for vid in sorted(hypotheses):
        hyp, *refs = ([*map(word_ids.__getitem__, tokenize(c))]
                      for c in chain((hypotheses[vid],), references_of(references, vid)))
        rouge[vid] = _rouge_f(hyp, refs)
        for t in (hyp, *refs):
            ids.extend(t)
            ends.append(len(ids))
        n_refs.append(len(refs))
    return rouge, _Corpus(ids, ends, n_refs, len(word_ids) + 1)


def _bleu_pass(corpus: _Corpus) -> tuple[float, dict[int, int]]:
    """Pass 1: corpus BLEU-4 and the CIDEr-D document frequencies of the codes
    in two videos or more."""
    base = corpus.base
    cuts = [base ** n for n in range(1, CIDER_N)]  # bisect_right(cuts, code) = order - 1
    matches, totals = [0] * 4, [0] * 4
    hyp_len_total = ref_len_total = 0
    # each video's distinct codes, one run per order; int64 while the order's codes fit
    runs = [array("q") if base ** n <= 2 ** 63 else [] for n in range(1, CIDER_N + 1)]
    for hyp, refs in corpus.videos():
        hyp_len_total += len(hyp)
        ref_len_total += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        hyp_counts = _ngram_codes(hyp, base)
        max_ref: dict[int, int] = {}
        seen = [set() for _ in runs]  # a document is a video's reference set
        for ref in refs:
            orders = _ngram_orders(ref, base)
            for codes, grams in zip(seen, orders):
                codes.update(grams)
            counts = Counter(chain(*orders))
            for g in hyp_counts.keys() & counts.keys():
                max_ref[g] = max(max_ref.get(g, 0), counts[g])
        for run, codes in zip(runs, seen):
            run.extend(codes)
        for g, c in max_ref.items():
            matches[bisect_right(cuts, g)] += min(c, hyp_counts[g])
        totals = [t + max(0, len(hyp) - n) for n, t in enumerate(totals)]
    df: dict[int, int] = {}
    while runs:  # one order's counts at a time, each run freed once counted
        df.update((g, d) for g, d in Counter(runs.pop()).items() if d > 1)
    if not all(matches):
        return 0.0, df
    log_p = sum(math.log(m / t) / 4.0 for m, t in zip(matches, totals))
    bp = 1.0 if hyp_len_total > ref_len_total else math.exp(1.0 - ref_len_total / hyp_len_total)
    return bp * math.exp(log_p), df


def _cider_pass(corpus: _Corpus, df: dict[int, int]) -> list[float]:
    """Pass 2: per-video CIDEr-D. A code missing from df is in one video or none,
    and idf[0] == idf[1]. No reference tf-idf vector is built, and a zero term
    is skipped: every term is >= 0, and adding +0.0 changes no sum."""
    powers = [corpus.base ** n for n in range(CIDER_N + 1)]
    cuts = powers[1:CIDER_N]
    n_videos = len(corpus.n_refs)
    log_n = math.log(n_videos)
    idf = [log_n - math.log(max(1.0, d)) for d in range(n_videos + 1)]
    df_of = df.get
    per_video: list[float] = []
    for hyp, refs in corpus.videos():
        h_vec = {g: c * idf[df_of(g, 0)] for g, c in _ngram_codes(hyp, corpus.base).items()}
        h_sq = [0.0] * CIDER_N
        for g, w in h_vec.items():
            h_sq[bisect_right(cuts, g)] += w * w
        total = 0.0
        for ref in refs:
            counts = _ngram_codes(ref, corpus.base)
            nums = [0.0] * CIDER_N
            for g, w in h_vec.items():
                if c := counts.get(g):
                    r = c * idf[df_of(g, 0)]
                    nums[bisect_right(cuts, g)] += min(w, r) * r
            top = max((n for n, num in enumerate(nums, 1) if num), default=0)
            r_sq = [0.0] * CIDER_N  # the reference's norms, up to the top order that matched
            for g, c in counts.items():
                if g >= powers[top]:
                    break
                r = c * idf[df_of(g, 0)]
                r_sq[bisect_right(cuts, g)] += r * r
            penalty = math.exp(-((len(hyp) - len(ref)) ** 2) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
            for num, hs, rs in zip(nums, h_sq, r_sq):
                if num:
                    total += penalty * num / (math.sqrt(hs) * math.sqrt(rs))
        per_video.append(10.0 * total / (len(refs) * CIDER_N))
    return per_video


def bleu4(hypotheses: dict[str, str], references: dict[str, list[str]]) -> float:
    """Corpus BLEU with uniform weights over n=1..4.

    Clipped n-gram precision against the per-video reference maxima; brevity
    penalty uses the closest reference length (ties prefer the shorter one).
    Unsmoothed: any n with zero matches corpus-wide gives 0.
    """
    return _bleu_pass(_first_pass(hypotheses, references)[1])[0]


def rouge_l(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """Corpus score (mean over videos) plus the per-video breakdown."""
    per_video = _first_pass(hypotheses, references)[0]
    return sum(per_video.values()) / len(per_video), per_video


def cider_d(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """CIDEr-D: tf-idf n-gram cosine with count clipping and a gaussian
    length penalty, averaged over n=1..4 and scaled by 10.

    Documents are videos: the document frequency of an n-gram is the number
    of videos whose reference set contains it; idf = log(N) - log(max(1,df)).
    Needs at least two videos, otherwise idf is degenerate.
    """
    report = score_captions(hypotheses, references)
    return report.cider, {vid: row["cider"] for vid, row in report.per_video.items()}


@dataclass
class MetricReport:
    bleu4: float
    rouge_l: float
    cider: float
    per_video: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_text(self) -> str:
        return (f"bleu4: {self.bleu4:.6f}\n"
                f"rouge_l: {self.rouge_l:.6f}\n"
                f"cider: {self.cider:.6f}\n")

    def to_json(self) -> str:
        return json.dumps(
            {"bleu4": self.bleu4, "rouge_l": self.rouge_l, "cider": self.cider,
             "per_video": self.per_video},
            sort_keys=True, indent=2)


def references_of(references: dict[str, list[str]], vid: str,
                  corpus: str = "the corpus") -> list[str]:
    """The references of video `vid` in `corpus`; DataError when it has none
    there (an unknown video has none): a scored video needs references."""
    if refs := references.get(vid):
        return refs
    raise DataError(f"video {vid!r} has no references in {corpus}")


def check_corpus(n_videos: int, corpus: str = "the corpus") -> None:
    """DataError unless `corpus` has two videos or more: CIDEr-D's idf,
    log(N) - log(df), needs two documents (Vedantam, Zitnick and Parikh, CVPR 2015)."""
    if n_videos < 2:
        raise DataError(f"cider_d needs at least two videos in {corpus}, got {n_videos}")


def score_captions(hypotheses: dict[str, str],
                   references: dict[str, list[str]]) -> MetricReport:
    """Corpus BLEU-4, ROUGE-L and CIDEr-D, and ROUGE-L and CIDEr-D per video.
    DataError when a hypothesis's video has no references (`references_of`)
    or there are fewer than two videos (`check_corpus`)."""
    r_per, corpus = _first_pass(hypotheses, references)
    check_corpus(len(r_per))
    b, df = _bleu_pass(corpus)
    c_per = _cider_pass(corpus, df)
    per_video = {vid: {"rouge_l": r, "cider": c} for (vid, r), c in zip(r_per.items(), c_per)}
    return MetricReport(bleu4=b, rouge_l=sum(r_per.values()) / len(r_per),
                        cider=sum(c_per) / len(c_per), per_video=per_video)
