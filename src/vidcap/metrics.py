"""Corpus-level caption metrics: BLEU-4, ROUGE-L and CIDEr-D.

All three reuse the pipeline tokenizer so hypotheses and references are
normalized identically. Hypotheses/references are keyed by video id:
hypotheses[vid] is one caption string, references[vid] a non-empty list.

Two passes run over the videos in id order. Pass 1 tokenizes each caption
and counts its n-grams once for BLEU-4, ROUGE-L and the CIDEr-D document
frequencies. Pass 2 recounts for the CIDEr-D tf-idf terms, which need the
finished frequencies: keeping pass 1's counts raised peak RSS on 2500 videos
x 20 references from 172 MB to 260 MB. Sums run in the textbook order.
"""

from __future__ import annotations

import gc
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import DataError
from .text import tokenize

ROUGE_BETA = 1.2   # recall weight of the ROUGE-L F-measure
CIDER_N = 4        # CIDEr-D averages n-gram orders 1..CIDER_N
CIDER_SIGMA = 6.0  # width of CIDEr-D's gaussian length penalty


def _ngram_counts(t: list[str]) -> Counter:
    """The 1..4-grams of t (token tuples, so len(g) is the order) with their
    counts, order by order, each order in order of first occurrence."""
    return Counter(chain(zip(t), zip(t, t[1:]), zip(t, t[1:], t[2:]), zip(t, t[1:], t[2:], t[3:])))


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


def _first_pass(hypotheses, references) -> tuple[float, dict[str, float], Counter]:
    """BLEU-4, per-video ROUGE-L and the CIDEr-D document frequencies."""
    matches, totals = [0] * 4, [0] * 4
    hyp_len_total = ref_len_total = 0
    rouge: dict[str, float] = {}
    df: Counter = Counter()
    for vid in sorted(hypotheses):
        if not references.get(vid):
            raise DataError(f"video {vid!r} has no references")
        hyp = tokenize(hypotheses[vid])
        refs = [tokenize(r) for r in references[vid]]
        rouge[vid] = _rouge_f(hyp, refs)
        hyp_len_total += len(hyp)
        ref_len_total += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        hyp_counts = _ngram_counts(hyp)
        max_ref: dict[tuple, int] = {}
        seen: set = set()  # a document is a video's reference set
        for ref in refs:
            counts = _ngram_counts(ref)
            seen.update(counts)
            for g in hyp_counts.keys() & counts.keys():
                max_ref[g] = max(max_ref.get(g, 0), counts[g])
        df.update(seen)
        for g, c in hyp_counts.items():
            matches[len(g) - 1] += min(c, max_ref.get(g, 0))
        totals = [t + max(0, len(hyp) - n) for n, t in enumerate(totals)]
    if not all(matches):
        return 0.0, rouge, df
    log_p = sum(math.log(m / t) / 4.0 for m, t in zip(matches, totals))
    bp = 1.0 if hyp_len_total > ref_len_total else math.exp(1.0 - ref_len_total / hyp_len_total)
    return bp * math.exp(log_p), rouge, df


def _cider_pass(hypotheses, references, ids: list[str], df: Counter) -> dict[str, float]:
    """Per-video CIDEr-D. No reference tf-idf vector is built, and a zero
    term is skipped: every term is >= 0, and adding +0.0 changes no sum."""
    log_n = math.log(len(ids))
    idf = [log_n - math.log(max(1.0, d)) for d in range(len(ids) + 1)]
    per_video: dict[str, float] = {}
    for vid in ids:
        hyp = tokenize(hypotheses[vid])
        h_vec = {g: c * idf[df[g]] for g, c in _ngram_counts(hyp).items()}
        h_sq = [0.0] * CIDER_N
        for g, w in h_vec.items():
            h_sq[len(g) - 1] += w * w
        total = 0.0
        for ref in references[vid]:
            rtoks = tokenize(ref)
            counts = _ngram_counts(rtoks)
            nums = [0.0] * CIDER_N
            for g, w in h_vec.items():
                if c := counts.get(g):
                    r = c * idf[df[g]]
                    nums[len(g) - 1] += min(w, r) * r
            top = max((n for n, num in enumerate(nums, 1) if num), default=0)
            r_sq = [0.0] * CIDER_N  # the reference's norms, up to the top order that matched
            for g, c in counts.items():
                if len(g) > top:
                    break
                r = c * idf[df[g]]
                r_sq[len(g) - 1] += r * r
            penalty = math.exp(-((len(hyp) - len(rtoks)) ** 2) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
            for num, hs, rs in zip(nums, h_sq, r_sq):
                if num:
                    total += penalty * num / (math.sqrt(hs) * math.sqrt(rs))
        per_video[vid] = 10.0 * total / (len(references[vid]) * CIDER_N)
    return per_video


def bleu4(hypotheses: dict[str, str], references: dict[str, list[str]]) -> float:
    """Corpus BLEU with uniform weights over n=1..4.

    Clipped n-gram precision against the per-video reference maxima; brevity
    penalty uses the closest reference length (ties prefer the shorter one).
    Unsmoothed: any n with zero matches corpus-wide gives 0.
    """
    return _first_pass(hypotheses, references)[0]


def rouge_l(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """Corpus score (mean over videos) plus the per-video breakdown."""
    per_video = _first_pass(hypotheses, references)[1]
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


def score_captions(hypotheses: dict[str, str],
                   references: dict[str, list[str]]) -> MetricReport:
    """Corpus BLEU-4, ROUGE-L and CIDEr-D, and ROUGE-L and CIDEr-D per video.
    Everything the passes allocate is acyclic, so the cyclic garbage collector
    is paused while they run (its full collections would only rescan the
    n-gram counters), and left as the caller had it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        b, r_per, df = _first_pass(hypotheses, references)
        ids = list(r_per)
        if len(ids) < 2:
            raise DataError("cider_d needs a corpus of at least two videos")
        c_per = _cider_pass(hypotheses, references, ids, df)
    finally:
        if was_enabled:
            gc.enable()
    per_video = {vid: {"rouge_l": r_per[vid], "cider": c_per[vid]} for vid in ids}
    return MetricReport(bleu4=b, rouge_l=sum(r_per.values()) / len(ids),
                        cider=sum(c_per.values()) / len(ids), per_video=per_video)
