"""Inputs the benchmark generates from its workload seed.

Nothing here calls the program: the workloads hand these inputs to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Head concepts: object-centric videos pair a color with an object (and always
# show "posing"); action-centric videos pair an adverb with an action performed
# by "person". One feature family encodes each pair, so a generator trained on
# one family masters one half of the videos, as in the program's own synthetic
# benchmark.
COLORS = ("red", "blue", "green", "yellow", "black", "white")
OBJECTS = ("cat", "dog", "bird", "horse", "car", "robot")
ADVERBS = ("slowly", "quickly", "quietly", "loudly", "calmly", "happily")
ACTIONS = ("running", "jumping", "dancing", "swimming", "climbing", "singing")
FUNCTION_WORDS = ("a", "the", "is", "there", "person", "posing", "near")

NOISE_SIGMA = 0.05  # feature noise, as in the program's synthetic benchmark
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def pseudo_words(n: int) -> list[str]:
    """n distinct lowercase words that collide with no head or function word."""
    reserved = set(COLORS + OBJECTS + ADVERBS + ACTIONS + FUNCTION_WORDS)
    words = []
    for k in itertools.count(2):
        for parts in itertools.product(_SYLLABLES, repeat=k):
            w = "".join(parts)
            if w not in reserved:
                words.append(w)
                if len(words) == n:
                    return words


@dataclass
class Video:
    id: str
    captions: list[str]
    features: dict[str, np.ndarray]  # "feat-a", "feat-b"


@dataclass
class CaptionCorpus:
    """Training videos plus a seed-determined stream of held-out videos.

    The vocabulary reaches a thousand tokens through a long tail: the last
    caption of every video names `tail_per_video` rare words, each used by
    exactly one training video, the way most words of a real caption corpus
    are rare. The generators train on the other captions, so they carry the
    whole vocabulary but give the tail almost no probability, and every beam
    does about the same work; the evaluator trains on all captions.
    """

    seed: int
    train: list[Video]
    tail: list[str]
    tail_per_video: int

    def held_out(self, k: int) -> Video:
        """Held-out video k: fresh concepts, three template references plus a
        tail reference."""
        rng = np.random.default_rng([self.seed, 1, k])
        tails = [self.tail[i] for i in rng.choice(len(self.tail), self.tail_per_video,
                                                   replace=False)]
        return _video(f"test{k:05d}", k % 2, int(rng.integers(len(COLORS))),
                      int(rng.integers(len(OBJECTS))), tails, rng, train=False)


def _onehot_pair(i: int, j: int, n: int) -> np.ndarray:
    v = np.zeros(2 * (n + 1))
    v[i] = 1.0
    v[n + 1 + j] = 1.0
    return v


def _video(vid: str, kind: int, a: int, b: int, tails: list[str], rng,
           train: bool) -> Video:
    n = len(COLORS)
    none = _onehot_pair(n, n, n)
    if kind == 0:
        body = f"{COLORS[a]} {OBJECTS[b]} is posing"
        templates = [f"a {body}", f"the {body}",
                     f"there is a {COLORS[a]} {OBJECTS[b]} posing"]
        fa, fb = _onehot_pair(a, b, n), none
    else:
        body = f"person is {ADVERBS[a]} {ACTIONS[b]}"
        templates = [f"a {body}", f"the {body}",
                     f"there is a person {ADVERBS[a]} {ACTIONS[b]}"]
        fa, fb = none, _onehot_pair(a, b, n)
    tail_caption = f"the {body} near {' '.join(tails)}"
    captions = [templates[0], tail_caption] if train else templates + [tail_caption]
    features = {"feat-a": fa + rng.normal(0.0, NOISE_SIGMA, fa.shape),
                "feat-b": fb + rng.normal(0.0, NOISE_SIGMA, fb.shape)}
    return Video(vid, captions, features)


def caption_corpus(seed: int, n_train: int, tail_per_video: int) -> CaptionCorpus:
    rng = np.random.default_rng([seed, 0])
    tail = pseudo_words(n_train * tail_per_video)
    order = rng.permutation(len(tail))
    train = []
    for i in range(n_train):
        tails = [tail[j] for j in order[i * tail_per_video : (i + 1) * tail_per_video]]
        train.append(_video(f"train{i:05d}", i % 2, int(rng.integers(len(COLORS))),
                            int(rng.integers(len(OBJECTS))), tails, rng, train=True))
    return CaptionCorpus(seed=seed, train=train, tail=tail, tail_per_video=tail_per_video)


def challenge_captions(seed: int, n_videos: int, n_refs: int, vocab_size: int,
                       copy_every: int = 10) -> tuple[dict[str, str], dict[str, list[str]]]:
    """A caption set shaped like a test split: n_refs references per video
    over a Zipf-distributed vocabulary, each reference mixing the video's six
    topic words with background words.

    The hypothesis of every `copy_every`-th video is one of its references
    verbatim; the others are a reference with about 30% of tokens replaced.
    """
    rng = np.random.default_rng([seed, 2])
    words = np.array(pseudo_words(vocab_size))
    p = 1.0 / np.arange(1, vocab_size + 1)
    p /= p.sum()
    hypotheses, references = {}, {}
    for v in range(n_videos):
        vid = f"video{v:05d}"
        topic = rng.choice(vocab_size, size=6, p=p)
        lengths = rng.integers(6, 14, size=n_refs)
        total = int(lengths.sum())
        background = rng.choice(vocab_size, size=total, p=p)
        ids = np.where(rng.random(total) < 0.5, topic[rng.integers(6, size=total)], background)
        cuts = np.cumsum(lengths)[:-1]
        refs = [" ".join(words[chunk]) for chunk in np.split(ids, cuts)]
        pick = refs[int(rng.integers(n_refs))].split()
        if v % copy_every:
            swap = rng.random(len(pick)) < 0.3
            repl = words[rng.choice(vocab_size, size=len(pick), p=p)]
            pick = [r if s else w for w, r, s in zip(pick, repl, swap)]
        hypotheses[vid] = " ".join(pick)
        references[vid] = refs
    return hypotheses, references
