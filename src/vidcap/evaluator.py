"""Caption-video evaluator: convolutional sentence encoder, video projection,
cosine scoring and discriminative training against sampled negatives.

The sentence encoder (Kim 2014, arXiv 1408.5882) takes a batch of token
sequences, cut after EOS and PAD-padded into one (B, T) id matrix. It embeds
them (PAD embedding pinned to zero), convolves every window of several widths,
max-pools each filter over time with the positions past max(L - w, 0) masked
(so windows never extend past EOS, and a sequence shorter than w keeps one
zero-padded window), applies tanh, floors the pool at zero and projects it
into the joint space. Videos reach the same space through one affine map,
`project_videos`, and `cosines` scores every sentence row against every video
row. Training, `similarity` and the reranker (`ensemble.rerank`) all score
through these two functions, so a pool is ranked by the cosine the evaluator
was trained on.

Training maximizes the cosine of matched pairs over sampled negatives with a
per-negative hinge. Each update takes ANCHORS videos and one uniform draw of
caption rows that all of them share as negatives (Kiros et al. 2014, arXiv
1411.2539; Faghri et al. 2017, arXiv 1707.05612); a drawn caption of an
anchor's own video is masked out of that anchor's hinge. The loss is the mean
over anchors of each anchor's mean hinge over its unmasked negatives, so one
encoder pass covers the B positives and the shared negatives, and one backward
pass covers the positives and the negatives active for any anchor. Every
update, one with no active hinge included, is one RMSProp step;
`check_training_fits` bounds what training holds before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import binio
from .errors import DataError, DimensionError, NumericError, ParameterError
from .numerics import OptState, Params, check_fits_in_memory, rmsprop_update
from .text import PAD, EOS, Vocabulary, encode, tokenize

ANCHORS = 4  # anchor videos per training update, sharing one draw of negatives


@dataclass
class EvaluatorConfig:
    vocab_size: int
    video_dim: int
    embed_dim: int = 32
    filter_widths: tuple[int, ...] = (2, 3, 4)
    filters_per_width: int = 64
    joint_dim: int = 64
    margin: float = 0.2
    n_negatives: int = 50
    feature_name: str = ""

    def __post_init__(self):
        self.filter_widths = tuple(self.filter_widths)
        for name in ("vocab_size", "video_dim", "embed_dim", "filters_per_width", "joint_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if (not self.filter_widths or min(self.filter_widths) < 1
                or len(set(self.filter_widths)) != len(self.filter_widths)):
            raise ParameterError(f"bad filter widths {self.filter_widths}")
        if self.margin <= 0:
            raise ParameterError(f"margin must be > 0, got {self.margin}")
        if self.n_negatives < 1:
            raise ParameterError(f"n_negatives must be >= 1, got {self.n_negatives}")
        check_fits_in_memory(evaluator_param_shapes(self), "the evaluator's parameters")


def evaluator_param_shapes(cfg: EvaluatorConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialisation order."""
    shapes = {"embed": (cfg.vocab_size, cfg.embed_dim)}
    for w in cfg.filter_widths:
        shapes[f"conv{w}_W"] = (cfg.filters_per_width, w * cfg.embed_dim)
        shapes[f"conv{w}_b"] = (cfg.filters_per_width,)
    shapes["sent_W"] = (cfg.joint_dim, len(cfg.filter_widths) * cfg.filters_per_width)
    shapes["sent_b"] = (cfg.joint_dim,)
    shapes["vid_W"] = (cfg.joint_dim, cfg.video_dim)
    shapes["vid_b"] = (cfg.joint_dim,)
    return shapes


def init_evaluator_params(cfg: EvaluatorConfig, rng: np.random.Generator,
                          scale: float = 0.08) -> Params:
    """Uniform(-scale, scale) weights, zero biases and a zero PAD embedding."""
    params: Params = {name: np.zeros(shape) if name.endswith("_b")
                      else rng.uniform(-scale, scale, size=shape)
                      for name, shape in evaluator_param_shapes(cfg).items()}
    params["embed"][PAD] = 0.0
    return params


def _effective_ids(ids) -> list[int]:
    """Cut the sequence after the first EOS; PAD beyond it never enters a window."""
    ids = list(ids)
    if not ids:
        raise DataError("cannot encode an empty token sequence")
    return ids[: ids.index(EOS) + 1] if EOS in ids else ids


def pad_ids(seqs, cfg: EvaluatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """EOS-cut token sequences as a (B, T) PAD-padded id matrix and their (B,)
    lengths; T is the longest sequence or the widest filter, whichever is more."""
    cut = [_effective_ids(s) for s in seqs]
    T = max(max(map(len, cut)), max(cfg.filter_widths))
    return np.array([s + [PAD] * (T - len(s)) for s in cut]), np.array([len(s) for s in cut])


def _windows(emb: np.ndarray, w: int) -> np.ndarray:
    """(B, T, E) -> (B, T - w + 1, w * E): window p holds tokens p..p+w-1 raveled."""
    P = emb.shape[1] - w + 1
    return np.concatenate([emb[:, k : k + P] for k in range(w)], axis=2)


def _encode_rows(ids: np.ndarray, lengths: np.ndarray, params: Params, cfg: EvaluatorConfig):
    """(B, joint_dim) embeddings of padded id rows, and the backward cache."""
    emb = params["embed"][ids]  # (B, T, E)
    emb[np.arange(ids.shape[1]) >= lengths[:, None]] = 0.0  # padding, whatever embed[PAD] holds
    pres = []
    for w in cfg.filter_widths:
        pre = _windows(emb, w) @ params[f"conv{w}_W"].T + params[f"conv{w}_b"]  # (B, P, F)
        # windows past EOS never win the pool; a row shorter than w keeps window 0
        pre[np.arange(pre.shape[1]) > np.maximum(lengths - w, 0)[:, None]] = -np.inf
        pres.append(pre)
    # tanh is monotonic, so it commutes with the time max-pool
    pooled = np.maximum(np.tanh(np.concatenate([p.max(axis=1) for p in pres], axis=1)), 0.0)
    return pooled @ params["sent_W"].T + params["sent_b"], (ids, emb, pooled, pres)


def _encode_rows_backward(dsent: np.ndarray, rows: np.ndarray, cache, params: Params,
                          cfg: EvaluatorConfig, grads: Params) -> None:
    """Add to grads the gradient of sum_i dsent[i] . sent[rows[i]]."""
    ids, emb, pooled, pres = cache
    ids, emb, pooled = ids[rows], emb[rows], pooled[rows]
    grads["sent_W"] += dsent.T @ pooled
    grads["sent_b"] += dsent.sum(axis=0)
    dpooled = dsent @ params["sent_W"]
    demb = np.zeros_like(emb)
    F, E = cfg.filters_per_width, cfg.embed_dim
    for i, w in enumerate(cfg.filter_widths):
        pre = pres[i][rows]
        arg = pre.argmax(axis=1)[:, None]  # (B', 1, F): first maximum, as np.argmax
        pool = pooled[:, None, i * F : (i + 1) * F]  # tanh(pre at arg), floored at 0
        dpre = np.zeros_like(pre)
        np.put_along_axis(dpre, arg, dpooled[:, None, i * F : (i + 1) * F]
                          * (pool > 0.0) * (1.0 - pool * pool), axis=1)
        grads[f"conv{w}_b"] += dpre.sum(axis=(0, 1))
        # slot by slot, so that no (B', P, w*E) window matrix or its gradient
        # sets the update's peak memory: slot k holds tokens k..k+P-1
        P, flat, W = dpre.shape[1], dpre.reshape(-1, F), params[f"conv{w}_W"]
        for k in range(w):
            cols = slice(k * E, (k + 1) * E)
            grads[f"conv{w}_W"][:, cols] += flat.T @ emb[:, k : k + P].reshape(-1, E)
            demb[:, k : k + P] += dpre @ W[:, cols]
    np.add.at(grads["embed"], ids, demb)
    grads["embed"][PAD] = 0.0  # PAD embedding stays pinned at zero


def encode_sentences(seqs, params: Params, cfg: EvaluatorConfig) -> np.ndarray:
    """(B, joint_dim) embeddings of B token sequences, encoded as one batch."""
    return _encode_rows(*pad_ids(seqs, cfg), params, cfg)[0]


def encode_sentence(ids: list[int], params: Params, cfg: EvaluatorConfig) -> np.ndarray:
    """Fixed-size sentence embedding in the joint space."""
    return encode_sentences([ids], params, cfg)[0]


def project_videos(V, params: Params) -> np.ndarray:
    """(B, joint_dim) embeddings of a (B, video_dim) matrix of video features."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != params["vid_W"].shape[1]:
        raise DimensionError(
            f"video matrix {V.shape} != (videos, {params['vid_W'].shape[1]})")
    return V @ params["vid_W"].T + params["vid_b"]


def cosines(S: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, B) cosines of every row of S with every row of V, 0 where either
    embedding is zero, and the (R,) and (B,) row norms of S and V."""
    ns, nv = np.linalg.norm(S, axis=1), np.linalg.norm(V, axis=1)
    norms = np.outer(ns, nv)
    return np.divide(S @ V.T, norms, out=np.zeros(norms.shape), where=norms != 0.0), ns, nv


def similarity(ids: list[int], video_values: np.ndarray, params: Params,
               cfg: EvaluatorConfig) -> float:
    """Cosine between the sentence and video embeddings, in [-1, 1]."""
    video = project_videos(np.asarray(video_values)[None], params)
    return float(cosines(encode_sentence(ids, params, cfg)[None], video)[0][0, 0])


def sample_negatives(video_id: str, records, n_neg: int,
                     rng: np.random.Generator) -> list[str]:
    """Uniform sample (no replacement) from the other videos' captions."""
    others = [c for r in records if r.id != video_id for c in r.captions]
    if not others:
        raise DataError("negative sampling needs captions of at least two videos")
    return [others[j] for j in rng.choice(len(others), size=min(n_neg, len(others)),
                                          replace=False)]


def triple_loss_and_grads(params: Params, cfg: EvaluatorConfig, videos,
                          ids: np.ndarray, lengths: np.ndarray, valid: np.ndarray):
    """Hinge loss and gradients for B anchor videos that share one draw of
    negatives. videos is (B, video_dim); ids and lengths are padded id rows
    (see `pad_ids`), the B anchors' positive captions first and then the n
    shared negatives; valid (B, n) is False where a negative is a caption of
    that anchor's own video. The loss is the mean over anchors of each
    anchor's mean hinge over its valid negatives (an anchor with none adds 0).
    Only the positives and the negatives active for some anchor backpropagate."""
    vid_emb = project_videos(videos, params)  # (B, joint_dim)
    B = len(vid_emb)
    sents, cache = _encode_rows(ids, lengths, params, cfg)
    cos, ns, nv = cosines(sents, vid_emb)  # every row against every anchor's video
    hinges = cfg.margin - cos[np.arange(B), np.arange(B)][:, None] + cos[B:].T  # (B, n)
    active = valid & (hinges > 0.0)
    n_valid = valid.sum(axis=1)
    per_anchor = np.divide(np.where(active, hinges, 0.0).sum(axis=1), n_valid,
                           out=np.zeros(B), where=n_valid > 0)
    loss = float(per_anchor.mean())
    if not np.isfinite(loss):
        raise NumericError("non-finite evaluator loss")

    grads: Params = {k: np.zeros_like(v) for k, v in params.items()}
    if not active.any():
        return loss, grads
    weight = np.where(active, 1.0 / (B * np.maximum(n_valid, 1))[:, None], 0.0)
    dcos = np.zeros_like(cos)
    dcos[B:] = weight.T
    dcos[np.arange(B), np.arange(B)] = -weight.sum(axis=1)
    dcos[np.outer(ns, nv) == 0.0] = 0.0  # a zero embedding passes no gradient
    ns[ns == 0.0], nv[nv == 0.0] = 1.0, 1.0  # their rows and columns of dcos are zero
    rows = np.flatnonzero(np.concatenate((active.any(axis=1), active.any(axis=0))))
    dc, S, n = dcos[rows], sents[rows], ns[rows, None]
    scaled = dc / (n * nv)
    dsent = scaled @ vid_emb - (dc * cos[rows]).sum(axis=1)[:, None] * S / (n * n)
    dvid = scaled.T @ S - (dc * cos[rows]).sum(axis=0)[:, None] * vid_emb / (nv * nv)[:, None]
    _encode_rows_backward(dsent, rows, cache, params, cfg, grads)
    grads["vid_W"] += dvid.T @ videos
    grads["vid_b"] += dvid.sum(axis=0)
    return loss, grads


def check_training_fits(records, vocab: Vocabulary, cfg: EvaluatorConfig) -> None:
    """DataError unless the records hold two videos or more, each with a caption.
    ParameterError when training on their captions could not fit in memory:
    the parameters, their gradients and RMSProp accumulators, and one update
    of ANCHORS positives and n_negatives caption rows, padded to the longest
    caption or the widest filter as `pad_ids` pads them. The update's embedded
    rows and each filter width's windows and pre-activations count twice,
    which bounds what the backward pass builds while the forward pass's cache
    is held."""
    if len(records) < 2 or not all(r.captions for r in records):
        raise DataError("evaluator training needs at least two videos, each with a caption")
    lengths = [len(encode(tokenize(c), vocab)) for r in records for c in r.captions]
    rows, cols = ANCHORS + min(cfg.n_negatives, len(lengths)), max(lengths + [*cfg.filter_widths])
    shapes = {name: (3, *shape) for name, shape in evaluator_param_shapes(cfg).items()}
    shapes["embedded rows"] = (2, rows, cols, cfg.embed_dim)
    for w in cfg.filter_widths:
        shapes[f"windows {w}"] = (2, rows, cols - w + 1, w * cfg.embed_dim)
        shapes[f"pre-activations {w}"] = (2, rows, cols - w + 1, cfg.filters_per_width)
    check_fits_in_memory(shapes, "the evaluator's parameters, gradients, RMSProp "
                                 "accumulators and training update")


def train_evaluator(records, feature_of, vocab: Vocabulary, cfg: EvaluatorConfig,
                    rng: np.random.Generator, opt: OptState | None = None,
                    epochs: int = 10):
    """Discriminative training over (videos, captions, shared negatives) updates.

    records: VideoRecord-like objects with .id and .captions; feature_of maps
    a video id to its (frozen) feature vector. Returns (params, loss history).
    Every caption is encoded once into one padded id matrix, video by video.
    Each update takes the next ANCHORS videos of the epoch's permutation, one
    random caption of each as its positive, and one uniform draw (without
    replacement) of n_negatives caption rows of any video, which all its
    anchors share; a drawn caption of an anchor's own video is masked out of
    that anchor's hinge. The update's loss is the mean over anchors of each
    anchor's mean hinge over its unmasked negatives.
    """
    if epochs < 0:
        raise ParameterError(f"epochs must be >= 0, got {epochs}")
    records = sorted(records, key=lambda r: r.id)
    check_training_fits(records, vocab, cfg)
    params = init_evaluator_params(cfg, rng)
    opt = opt or OptState()
    ids, lengths = pad_ids([encode(tokenize(c), vocab) for r in records for c in r.captions], cfg)
    starts = np.cumsum([0] + [len(r.captions) for r in records])
    history = []
    for _ in range(epochs):
        losses = []
        order = rng.permutation(len(records))
        for s in range(0, len(order), ANCHORS):
            anchors = order[s : s + ANCHORS]
            pos = [starts[a] + rng.integers(len(records[a].captions)) for a in anchors]
            neg = rng.choice(len(ids), size=min(cfg.n_negatives, len(ids)), replace=False)
            valid = (neg < starts[anchors, None]) | (neg >= starts[anchors + 1, None])
            rows = np.concatenate((pos, neg))
            cols = max(lengths[rows].max(), max(cfg.filter_widths))
            videos = np.stack([feature_of(records[a].id) for a in anchors])
            loss, grads = triple_loss_and_grads(params, cfg, videos, ids[rows, :cols],
                                                lengths[rows], valid)
            rmsprop_update(params, grads, opt)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return params, history


def save_evaluator(path, cfg: EvaluatorConfig, params: Params) -> None:
    binio.write_checkpoint(path, binio.EVAL_MAGIC, asdict(cfg), params)


def load_evaluator(path) -> tuple[EvaluatorConfig, Params]:
    return binio.load(path, binio.EVAL_MAGIC, EvaluatorConfig, evaluator_param_shapes)
