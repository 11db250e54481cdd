"""Corpus-level caption metrics: BLEU-4, ROUGE-L and CIDEr-D.

All three reuse the pipeline tokenizer so hypotheses and references are
normalized identically. Hypotheses/references are keyed by video id:
hypotheses[vid] is one caption string, references[vid] a non-empty list.

`score_captions` reads the strings once (`_first_pass`): it tokenizes each
caption, in video id order, hypothesis first, numbers the words 1..W as they
first appear, and puts all captions' ids end to end into one flat array.
ROUGE-L then runs per video on the id arrays (`_rouge_f`); BLEU-4 and
CIDEr-D run as numpy passes over the flat array, one n-gram order at a time
(`_ngrams`).

N-gram ids are dense. With B = W + 1, an order-n n-gram's key is the id of
its first n - 1 words times B plus its last word (order 1: the word), and
its id is the key's rank among the order's keys: 0, 1, ... As an id is
below the number of tokens, every key is below tokens x B, so no vocabulary
is too large for an int64. One stable sort of an order's keys gives the
ids and each caption's distinct n-grams with their counts, as rows sorted by
id, then caption. A video's rows of one n-gram are adjacent, its hypothesis
row first, so a reference row finds its hypothesis match, and the document
frequency (the number of videos whose references contain the n-gram) counts
runs, without a table keyed by n-gram. idf = log(N) - log(max(1, df)).

Every float sum over n-grams and references goes through np.bincount,
which adds its weights one at a time in input order, from 0.0 (np.sum adds
pairwise). The weights are laid out in the order of the plain-loop formulas
in tests/reference_metrics.py: a caption's n-grams in order of first
occurrence, a reference's matches in the order the hypothesis first has
them, a video's terms by reference, then order. The idf and length-penalty
tables are built with math.log and math.exp, as there: numpy's log and exp
differ from them in the last bit for some arguments (3 of the logs of
1..99,999, 5 of CIDEr-D's first 200 penalties). So the scores equal those
formulas to the bit. BLEU-4 counts in integers.

numpy is imported inside `_report`: a cold `import vidcap.metrics` stays
without it, and that import is what score-challenge-scale's set-up times.
Every caller that scores has numpy loaded already. Each order's arrays are
freed before the next order's pass: the largest hold one int64 per token.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

from .errors import DataError
from .text import tokenize

ROUGE_BETA = 1.2   # recall weight of the ROUGE-L F-measure
CIDER_N = 4        # CIDEr-D averages n-gram orders 1..CIDER_N
CIDER_SIGMA = 6.0  # width of CIDEr-D's gaussian length penalty


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

    def videos(self):
        """(hypothesis, references) id arrays of each video."""
        ids, ends, j = self.ids, self.ends, 0
        for n in self.n_refs:
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


def _changes(np, *keys):
    """True where a run of equal rows of `keys` begins: at 0, and wherever
    one of the keys differs from the element before."""
    new = np.zeros(len(keys[0]), bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _ngrams(np, corpus: _Corpus, cap, doc):
    """Each caption's distinct n-grams, one order n = 1..CIDER_N at a time.
    cap is the caption of each token, doc the video of each reference caption
    and -1 for a hypothesis. Yields (at, c, g, count, df): one row per
    distinct (caption, n-gram) pair, sorted by n-gram id, then caption. The
    row's n-gram has id g and occurs count times in caption c, first as the
    n-gram that ends at token at; df[g] is the number of videos whose
    references contain it."""
    tok = np.asarray(corpus.ids)
    pos = (np.arange(len(tok)) - np.asarray(corpus.ends)[cap]).astype(np.int32)
    ids_at = np.empty(len(tok), np.int32)  # the id of the n-gram each token ends
    for n in range(CIDER_N):
        ends = np.flatnonzero(pos >= n).astype(np.int32)  # each n-gram's last token
        key = tok[ends]
        if n:
            key += np.multiply(ids_at[ends - 1], corpus.base, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        ids = np.cumsum(_changes(np, key[order]), dtype=np.int32)
        ids -= 1
        del key
        ends = ends[order]
        del order
        ids_at[ends] = ids
        c = cap[ends]
        first = np.flatnonzero(_changes(np, ids, c))
        count = np.diff(first, append=len(ids)).astype(np.int32)
        at, c, g = ends[first], c[first], ids[first]
        del ends, ids, first
        ref = doc[c] >= 0
        rg = g[ref]
        df = np.bincount(rg[_changes(np, rg, doc[c[ref]])], minlength=g.max(initial=-1) + 1)
        del ref, rg
        yield at, c, g, count, df


def _bleu(tally: list[int]) -> float:
    """Corpus BLEU-4 from its tallies: matches and totals per order, then
    the hypothesis and closest reference lengths, each summed over the corpus."""
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
    import numpy as np  # not at module level: see the module docstring

    lens = np.diff(corpus.ends)
    n_refs = np.asarray(corpus.n_refs)
    hyp = np.cumsum(n_refs + 1) - n_refs - 1  # the caption of each video's hypothesis
    video = np.repeat(np.arange(n, dtype=np.int32), n_refs + 1)
    doc = video.copy()
    doc[hyp] = -1
    ref = doc >= 0
    cap = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    log_n = math.log(n)
    idf = np.array([log_n - math.log(max(1.0, d)) for d in range(n + 1)])
    num, sq = np.zeros((len(lens), CIDER_N)), np.zeros((len(lens), CIDER_N))
    tally = [0] * (2 * CIDER_N + 2)  # matches and totals per order, then the two lengths
    for k, (at, c, g, count, df) in enumerate(_ngrams(np, corpus, cap, doc)):
        w = idf[df[g]] * count  # each row's tf-idf weight
        # The hypothesis row a reference row matches, if any, is the first row
        # of its run of rows with one n-gram and one video.
        head = np.where(_changes(np, g, video[c]), np.arange(len(c), dtype=np.int32), 0)
        np.maximum.accumulate(head, out=head)
        r = np.flatnonzero(ref[c] & ~ref[c[head]])
        h = head[r]
        by = np.lexsort((at[h], c[r]))  # by reference, then first occurrence in the hypothesis
        r, h = r[by], h[by]
        num[:, k] = np.bincount(c[r], np.minimum(w[h], w[r]) * w[r], minlength=len(lens))
        top = np.zeros_like(count)  # each hypothesis row's largest count in a reference
        np.maximum.at(top, h, count[r])
        tally[k] = int(np.minimum(count, top).sum())
        w_sq = np.zeros(len(cap))  # at each row's first token, the row's squared weight
        w_sq[at] = w * w
        sq[:, k] = np.bincount(cap, w_sq, minlength=len(lens))
        del at, c, g, count, df, w, head, r, h, by, top, w_sq  # before the next order's pass
    hyp_len, ref_len, ref_video = lens[hyp], lens[ref], doc[ref]
    gap = np.abs(ref_len - hyp_len[ref_video])
    for k in range(CIDER_N):
        tally[CIDER_N + k] = int(np.maximum(hyp_len - k, 0).sum())
    tally[-2] = int(hyp_len.sum())
    longest = int(ref_len.max()) + 1  # the closest reference: least gap, then shorter
    closest = np.minimum.reduceat(gap * longest + ref_len, np.cumsum(n_refs) - n_refs)
    tally[-1] = int((closest % longest).sum())
    penalty = np.array([math.exp(-(d * d) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
                        for d in range(int(gap.max()) + 1)])[gap]
    norm = np.sqrt(sq)
    h_norm, r_norm = norm[hyp][ref_video], norm[ref]
    terms = np.divide(penalty[:, None] * num[ref], h_norm * r_norm, out=np.zeros_like(r_norm),
                      where=(h_norm > 0) & (r_norm > 0))
    total = np.bincount(np.repeat(ref_video, CIDER_N), terms.ravel(), minlength=n)
    cider = (10.0 * total / (CIDER_N * n_refs)).tolist()
    rouge = [_rouge_f(h, refs) for h, refs in corpus.videos()]
    per_video = {vid: {"rouge_l": r, "cider": c} for vid, r, c in zip(corpus.vids, rouge, cider)}
    return MetricReport(bleu4=_bleu(tally), rouge_l=sum(rouge) / n,
                        cider=sum(cider) / n, per_video=per_video)
