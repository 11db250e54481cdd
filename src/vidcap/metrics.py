"""Corpus-level caption metrics: BLEU-4, ROUGE-L and CIDEr-D.

All three reuse the pipeline tokenizer so hypotheses and references are
normalized identically. Hypotheses/references are keyed by video id:
hypotheses[vid] is one caption string, references[vid] a non-empty list.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import DataError
from .text import tokenize

ROUGE_BETA = 1.2   # recall weight of the ROUGE-L F-measure
CIDER_N = 4        # CIDEr-D averages n-gram orders 1..CIDER_N
CIDER_SIGMA = 6.0  # width of CIDEr-D's gaussian length penalty


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_aligned(hypotheses: dict, references: dict) -> list[str]:
    ids = sorted(hypotheses)
    for vid in ids:
        if vid not in references or not references[vid]:
            raise DataError(f"video {vid!r} has no references")
    return ids


def bleu4(hypotheses: dict[str, str], references: dict[str, list[str]]) -> float:
    """Corpus BLEU with uniform weights over n=1..4.

    Clipped n-gram precision against the per-video reference maxima; brevity
    penalty uses the closest reference length (ties prefer the shorter one).
    Unsmoothed: any n with zero matches corpus-wide gives 0.
    """
    ids = _check_aligned(hypotheses, references)
    matches = [0] * 4
    totals = [0] * 4
    hyp_len_total = 0
    ref_len_total = 0
    for vid in ids:
        hyp = tokenize(hypotheses[vid])
        refs = [tokenize(r) for r in references[vid]]
        hyp_len_total += len(hyp)
        ref_len_total += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        for n in range(1, 5):
            counts = _ngrams(hyp, n)
            max_ref = Counter()
            for r in refs:
                for g, c in _ngrams(r, n).items():
                    max_ref[g] = max(max_ref[g], c)
            matches[n - 1] += sum(min(c, max_ref[g]) for g, c in counts.items())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    log_p = 0.0
    for m, t in zip(matches, totals):
        if t == 0 or m == 0:
            return 0.0
        log_p += math.log(m / t) / 4.0
    if hyp_len_total == 0:
        return 0.0
    bp = 1.0 if hyp_len_total > ref_len_total else math.exp(1.0 - ref_len_total / hyp_len_total)
    return bp * math.exp(log_p)


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_single(hypothesis: str, refs: list[str]) -> float:
    """Per-video ROUGE-L: LCS F-measure, maximized over the references."""
    if not refs:
        raise DataError("rouge_l needs at least one reference")
    hyp = tokenize(hypothesis)
    best = 0.0
    for ref_str in refs:
        ref = tokenize(ref_str)
        lcs = _lcs_len(hyp, ref)
        if lcs == 0 or not hyp or not ref:
            continue
        p = lcs / len(hyp)
        r = lcs / len(ref)
        f = (1 + ROUGE_BETA * ROUGE_BETA) * p * r / (r + ROUGE_BETA * ROUGE_BETA * p)
        best = max(best, f)
    return best


def rouge_l(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """Corpus score (mean over videos) plus the per-video breakdown."""
    ids = _check_aligned(hypotheses, references)
    per_video = {vid: rouge_l_single(hypotheses[vid], references[vid]) for vid in ids}
    return sum(per_video.values()) / len(ids), per_video


def cider_d(hypotheses: dict[str, str],
            references: dict[str, list[str]]) -> tuple[float, dict[str, float]]:
    """CIDEr-D: tf-idf n-gram cosine with count clipping and a gaussian
    length penalty, averaged over n=1..4 and scaled by 10.

    Documents are videos: the document frequency of an n-gram is the number
    of videos whose reference set contains it; idf = log(N) - log(max(1,df)).
    Needs at least two videos, otherwise idf is degenerate.
    """
    ids = _check_aligned(hypotheses, references)
    if len(ids) < 2:
        raise DataError("cider_d needs a corpus of at least two videos")
    df: dict[tuple, int] = defaultdict(int)
    for vid in ids:
        seen = set()
        for ref in references[vid]:
            toks = tokenize(ref)
            for n in range(1, CIDER_N + 1):
                seen.update(_ngrams(toks, n).keys())
        for g in seen:
            df[g] += 1
    log_n = math.log(len(ids))

    def tfidf(tokens: list[str]):
        vecs, norms = [], []
        for n in range(1, CIDER_N + 1):
            vec = {g: c * (log_n - math.log(max(1.0, df[g])))
                   for g, c in _ngrams(tokens, n).items()}
            vecs.append(vec)
            norms.append(math.sqrt(sum(v * v for v in vec.values())))
        return vecs, norms

    per_video: dict[str, float] = {}
    for vid in ids:
        hyp = tokenize(hypotheses[vid])
        h_vecs, h_norms = tfidf(hyp)
        total = 0.0
        for ref in references[vid]:
            rtoks = tokenize(ref)
            r_vecs, r_norms = tfidf(rtoks)
            penalty = math.exp(-((len(hyp) - len(rtoks)) ** 2) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
            for n in range(CIDER_N):
                num = sum(min(w, r_vecs[n].get(g, 0.0)) * r_vecs[n].get(g, 0.0)
                          for g, w in h_vecs[n].items())
                if h_norms[n] > 0.0 and r_norms[n] > 0.0:
                    total += penalty * num / (h_norms[n] * r_norms[n])
        per_video[vid] = 10.0 * total / (len(references[vid]) * CIDER_N)
    return sum(per_video.values()) / len(ids), per_video


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
    b = bleu4(hypotheses, references)
    r, r_per = rouge_l(hypotheses, references)
    c, c_per = cider_d(hypotheses, references)
    per_video = {vid: {"rouge_l": r_per[vid], "cider": c_per[vid]} for vid in r_per}
    return MetricReport(bleu4=b, rouge_l=r, cider=c, per_video=per_video)
