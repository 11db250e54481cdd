"""Candidate pools from several generator models and evaluator-based reranking."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binio, generation  # generation.beam_search_ids: bench/layers.py traces it
from .decoder import LMConfig
from .errors import DataError, DimensionError, NumericError, naming
from .evaluator import EvaluatorConfig, cosines, encode_sentences, project_videos
from .evaluator import encode_sentence  # noqa: F401  (bench/layers.py traces this name)
from .generation import GenerationConfig
from .numerics import Params
from .text import Vocabulary, decode, encode, tokenize


@dataclass
class Candidate:
    caption: str
    model: str
    logprob: float
    score: float | None = None


@dataclass
class CandidatePool:
    video_id: str
    entries: list[Candidate] = field(default_factory=list)


@dataclass
class GeneratorModel:
    """A trained decoder bound to the feature names it consumes."""

    tag: str
    cfg: LMConfig
    params: Params
    init_feature: str
    persist_feature: str


def generate_pool(models: list[GeneratorModel], video_id: str, feature_of,
                  gen_cfg: GenerationConfig, vocab: Vocabulary) -> CandidatePool:
    """One beam-search caption per model; duplicates stay, tagged per source.

    feature_of(video_id, name) -> float64 vector is FeatureStore.get or a
    callable with its contract: a feature it cannot resolve raises DataError
    naming the feature and the video, here prefixed with the model. A feature
    of the wrong dimension raises DimensionError naming the model, the feature
    and the video, and a model whose every hypothesis scores NaN raises
    NumericError naming the model and the video.
    """
    pool = CandidatePool(video_id=video_id)
    for m in models:
        with naming(f"model {m.tag!r}: ", DataError):
            init = feature_of(video_id, m.init_feature)
            persist = feature_of(video_id, m.persist_feature)
        # beam_search_ids checks the init feature first
        name = m.init_feature if np.shape(init) != (m.cfg.init_dim,) else m.persist_feature
        with naming(f"model {m.tag!r}, video {video_id!r}: ", NumericError), \
                naming(f"model {m.tag!r}, feature {name!r}, video {video_id!r}: ", DimensionError):
            tokens, logprob, _ = generation.beam_search_ids(
                m.params, m.cfg, init, persist, gen_cfg)
        pool.entries.append(Candidate(caption=decode(tokens, vocab), model=m.tag, logprob=logprob))
    return pool


def rerank(pool: CandidatePool, video_values: np.ndarray, eval_params: Params,
           eval_cfg: EvaluatorConfig, vocab: Vocabulary) -> Candidate:
    """Score every candidate by the evaluator's cosine and return the argmax.

    Distinct captions are encoded in one batch; identical ones share a score.
    Ties break toward higher generator log-prob, then the smaller caption.
    """
    if not pool.entries:
        raise DataError(f"empty candidate pool for video {pool.video_id!r}")
    vid_emb = project_videos(np.asarray(video_values)[None], eval_params)
    captions = list(dict.fromkeys(c.caption for c in pool.entries))
    sents = encode_sentences([encode(tokenize(c), vocab) for c in captions], eval_params, eval_cfg)
    score_of = dict(zip(captions, cosines(sents, vid_emb)[0][:, 0].tolist()))
    for cand in pool.entries:
        cand.score = score_of[cand.caption]
    return min(pool.entries, key=lambda c: (-c.score, -c.logprob, c.caption))


def dump_pools(pools: list[CandidatePool], path) -> None:
    """Line-delimited JSON, one record per candidate."""
    binio.write_file(path, "".join(
        json.dumps({"video_id": pool.video_id, **asdict(cand)}, sort_keys=True) + "\n"
        for pool in pools for cand in pool.entries))


@dataclass
class _PoolRecord:  # one line of a pool file
    video_id: str
    model: str
    caption: str
    logprob: float
    score: float | None = None


def load_pools(path) -> list[CandidatePool]:
    pools: dict[str, CandidatePool] = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if line.strip():
            where = f"{path}:{lineno}"
            rec = binio.config_from_json(_PoolRecord, binio.parse_json(line, where), where)
            pools.setdefault(rec.video_id, CandidatePool(rec.video_id)).entries.append(
                Candidate(rec.caption, rec.model, rec.logprob, rec.score))
    return [pools[k] for k in sorted(pools)]
