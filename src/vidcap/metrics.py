"""Corpus-level caption metrics: BLEU-4, ROUGE-L and CIDEr-D.

All three reuse the pipeline tokenizer so hypotheses and references are
normalized identically. Hypotheses/references are keyed by video id:
hypotheses[vid] is one caption string, references[vid] a non-empty list.

`score_captions` makes three passes. The first (`_first_pass`) reads the
strings: it tokenizes each caption once, in video id order, hypothesis first,
numbers the words 1..W as they first appear, and puts all captions' ids end
to end into one flat array. With B = W + 1, the n-gram (i1..in) is the
integer code sum(ik * B**(n-k)), which lies in [B**(n-1), B**n): codes of
different orders never collide, and the order is read from the code. From
55,108 words on, B**4 reaches 2**63: Python ints do not overflow, but
4-gram codes no longer fit in an int64.

The df pass (`_df_pass`) counts the CIDEr-D document frequencies (df), keyed
by code. It keeps only the codes that occur in two videos or more: idf =
log(N) - log(max(1, df)), so idf(0) equals idf(1) to the bit, and a code in
one video needs no entry. At 2500 videos x 20 references that is 57,200 of
835,818 codes. So that the full table never exists, each video appends its
distinct codes to one run per order, an int64 array while the order's codes
fit in one (B**n <= 2**63) and a list past that. After the loop the runs
are counted one order at a time, the largest order's 326k codes at most, and
each run is freed before the next is counted.

The per-video pass (`_score_videos`) needs the finished frequencies. It
counts each reference's n-grams once, for the BLEU-4 clip and for CIDEr-D's
numerators and norms, and runs ROUGE-L on the id arrays; it returns each
video's ROUGE-L and CIDEr-D and the integer BLEU-4 tallies. Keeping the df
pass's counts instead raised peak RSS at that shape from 172 MB to 260 MB.
Above FORK_MIN_CAPTIONS captions, and when `forking._can_fork` allows, a
forked worker scores the second half of the videos while this process scores
the first. The worker inherits the corpus and the frequencies and pickles
back only its floats and tallies, which this process adds up in video id
order. Sums run in the textbook order, so the scores equal the plain-loop
formulas to the bit, forked or not. At 2500 x 20 on a 2-CPU VM a call took
1.86 s in one process and 1.37 s forked; this process peaked at 84.6 MB either
way, and the worker at 62.8 MB, most of it pages shared with this process.
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
from .forking import _can_fork, _worker
from .text import tokenize

ROUGE_BETA = 1.2   # recall weight of the ROUGE-L F-measure
CIDER_N = 4        # CIDEr-D averages n-gram orders 1..CIDER_N
CIDER_SIGMA = 6.0  # width of CIDEr-D's gaussian length penalty
# Captions (hypotheses and references) above which score_captions forks: the
# measured break-even. Fork, pickle and exit cost about 4-5 ms. On a 2-CPU VM,
# at 20 references a video, a forked call took 9.4 ms against 6.2 ms
# in-process at 10 videos (210 captions), 26.7 against 26.3 ms at 40 (840)
# and 51.8 against 62.8 ms at 100 (2100).
FORK_MIN_CAPTIONS = 1000


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


def _rouge_f(hyp, refs) -> float:
    """ROUGE-L of the token sequence hyp (word ids, or words): LCS F-measure,
    maximized over the sequences refs. LCS is bit-parallel
    (Allison and Dix 1986; Hyyro 2004): a match bitmask per hypothesis token,
    a few big-int operations per reference token. The cleared low len(hyp)
    bits of v mark where the LCS table's row steps up; carries only move up."""
    masks: dict = {}
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
    first. Caption j is ids[ends[j]:ends[j + 1]], video k is vids[k] and has
    n_refs[k] references, and base is one more than the largest id. A plain
    class: as a dataclass it added about 1.5 ms to the cold import of this
    module."""

    def __init__(self, vids: list[str], ids: array, ends: array, n_refs: list[int], base: int):
        self.vids, self.ids, self.ends, self.n_refs, self.base = vids, ids, ends, n_refs, base

    def videos(self, lo: int = 0, hi: int | None = None):
        """(hypothesis, references) id arrays of videos lo..hi-1."""
        ids, ends, j = self.ids, self.ends, lo + sum(self.n_refs[:lo])
        for n in self.n_refs[lo:hi]:
            hyp, *refs = (ids[ends[i]:ends[i + 1]] for i in range(j, j + 1 + n))
            j += 1 + n
            yield hyp, refs


def _first_pass(hypotheses, references) -> _Corpus:
    """The corpus as word ids; the one tokenization."""
    word_ids = _WordIds()
    vids = sorted(hypotheses)
    ids, ends, n_refs = array("l"), array("l", [0]), []
    for vid in vids:
        refs = references_of(references, vid)
        for c in chain((hypotheses[vid],), refs):
            ids.extend(map(word_ids.__getitem__, tokenize(c)))
            ends.append(len(ids))
        n_refs.append(len(refs))
    return _Corpus(vids, ids, ends, n_refs, len(word_ids) + 1)


def _df_pass(corpus: _Corpus) -> dict[int, int]:
    """The CIDEr-D document frequencies of the codes in two videos or more."""
    base = corpus.base
    # each video's distinct codes, one run per order; int64 while the order's codes fit
    runs = [array("q") if base ** n <= 2 ** 63 else [] for n in range(1, CIDER_N + 1)]
    for _, refs in corpus.videos():  # a document is a video's reference set
        for run, grams in zip(runs, zip(*(_ngram_orders(ref, base) for ref in refs))):
            run.extend(set(chain.from_iterable(grams)))
    df: dict[int, int] = {}
    while runs:  # one order's counts at a time, each run freed once counted
        df.update((g, d) for g, d in Counter(runs.pop()).items() if d > 1)
    return df


def _score_videos(corpus: _Corpus, df: dict[int, int], lo: int, hi: int) -> tuple:
    """Videos lo..hi-1: their ROUGE-L and CIDEr-D, and the BLEU-4 tallies they
    add (matches and totals per order, hypothesis and closest reference
    lengths). Each reference's n-grams are counted once, for both the BLEU-4
    clip and CIDEr-D. A code missing from df is in one video or none, and
    idf[0] == idf[1]. No reference tf-idf vector is built, and a zero term is
    skipped: every term is >= 0, and adding +0.0 changes no sum."""
    base = corpus.base
    powers = [base ** n for n in range(CIDER_N + 1)]
    cuts = powers[1:CIDER_N]
    n_videos = len(corpus.n_refs)
    log_n = math.log(n_videos)
    idf = [log_n - math.log(max(1.0, d)) for d in range(n_videos + 1)]
    df_of = df.get
    rouge: list[float] = []
    cider: list[float] = []
    tally = [0] * (2 * CIDER_N + 2)  # matches and totals per order, then the two lengths
    for hyp, refs in corpus.videos(lo, hi):
        rouge.append(_rouge_f(hyp, refs))
        tally[-2] += len(hyp)
        tally[-1] += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        for n in range(CIDER_N):
            tally[CIDER_N + n] += max(0, len(hyp) - n)
        hyp_counts = _ngram_codes(hyp, base)
        h_vec = []  # (code, tf-idf weight, order - 1, idf) of each hypothesis n-gram
        h_sq = [0.0] * CIDER_N
        for g, c in hyp_counts.items():
            i = idf[df_of(g, 0)]
            w, k = c * i, bisect_right(cuts, g)
            h_vec.append((g, w, k, i))
            h_sq[k] += w * w
        max_ref: dict[int, int] = {}
        total = 0.0
        for ref in refs:
            counts = _ngram_codes(ref, base)
            nums = [0.0] * CIDER_N
            for g, w, k, i in h_vec:
                if c := counts.get(g):
                    if c > max_ref.get(g, 0):
                        max_ref[g] = c
                    r = c * i
                    nums[k] += min(w, r) * r
            top = max((n for n, num in enumerate(nums, 1) if num), default=0)
            r_sq = [0.0] * CIDER_N  # the reference's norms, up to the top order that matched
            k, next_order = 0, powers[1]
            for g, c in counts.items() if top else ():
                if g >= next_order:  # counts holds the orders one after another
                    k = bisect_right(cuts, g)
                    if k >= top:
                        break
                    next_order = powers[k + 1]
                r = c * idf[df_of(g, 0)]
                r_sq[k] += r * r
            penalty = math.exp(-((len(hyp) - len(ref)) ** 2) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
            for num, hs, rs in zip(nums, h_sq, r_sq):
                if num:
                    total += penalty * num / (math.sqrt(hs) * math.sqrt(rs))
        for g, c in max_ref.items():
            tally[bisect_right(cuts, g)] += min(c, hyp_counts[g])
        cider.append(10.0 * total / (len(refs) * CIDER_N))
    return rouge, cider, tally


def _bleu(tally: list[int]) -> float:
    """Corpus BLEU-4 from the summed tallies of `_score_videos`."""
    matches, totals = tally[:CIDER_N], tally[CIDER_N:2 * CIDER_N]
    hyp_len_total, ref_len_total = tally[-2:]
    if not all(matches):
        return 0.0
    log_p = sum(math.log(m / t) / 4.0 for m, t in zip(matches, totals))
    bp = 1.0 if hyp_len_total > ref_len_total else math.exp(1.0 - ref_len_total / hyp_len_total)
    return bp * math.exp(log_p)


def bleu4(hypotheses: dict[str, str], references: dict[str, list[str]]) -> float:
    """Corpus BLEU with uniform weights over n=1..4.

    Clipped n-gram precision against the per-video reference maxima; brevity
    penalty uses the closest reference length (ties prefer the shorter one).
    Unsmoothed: any n with zero matches corpus-wide gives 0.
    """
    return _report(_first_pass(hypotheses, references)).bleu4


def rouge_l(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """Corpus score (mean over videos) plus the per-video breakdown."""
    report = _report(_first_pass(hypotheses, references))
    return report.rouge_l, {vid: row["rouge_l"] for vid, row in report.per_video.items()}


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
    corpus = _first_pass(hypotheses, references)
    check_corpus(len(corpus.vids))
    return _report(corpus)


def _report(corpus: _Corpus) -> MetricReport:
    """The scores of a corpus of one video or more. With one, every idf is 0
    and so is CIDEr-D; `score_captions` refuses it, its views do not."""
    if not (n := len(corpus.vids)):
        raise DataError("the corpus has no videos to score")
    df = _df_pass(corpus)
    if len(corpus.ends) - 1 > FORK_MIN_CAPTIONS and _can_fork():
        half = n // 2
        with _worker(lambda: _score_videos(corpus, df, half, n), "score") as join:
            blocks = [_score_videos(corpus, df, 0, half), join()]
    else:
        blocks = [_score_videos(corpus, df, 0, n)]
    rouge = [r for b in blocks for r in b[0]]
    cider = [c for b in blocks for c in b[1]]
    tally = [sum(t) for t in zip(*(b[2] for b in blocks))]
    per_video = {vid: {"rouge_l": r, "cider": c} for vid, r, c in zip(corpus.vids, rouge, cider)}
    return MetricReport(bleu4=_bleu(tally), rouge_l=sum(rouge) / n,
                        cider=sum(cider) / n, per_video=per_video)
