"""Caption-video evaluator: convolutional sentence encoder, video projection,
cosine scoring and discriminative training against sampled negatives.

The sentence encoder embeds the token sequence (PAD embedding pinned to
zero), runs 1-D convolutions of several widths with tanh, max-pools each
filter over time (windows never extend past EOS; sequences shorter than a
filter width get one zero-padded window), floors the pooled value at zero,
and projects the concatenated pools into the joint space. Videos reach the
same space through a single affine map. Training maximizes the cosine of
matched pairs over sampled negatives with a per-negative hinge.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import binio
from .errors import DataError, DimensionError, NumericError, ParameterError
from .numerics import OptState, Params, rmsprop_update
from .text import PAD, EOS, Vocabulary, encode, tokenize


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


def _effective_ids(ids: list[int]) -> list[int]:
    """Cut the sequence after the first EOS; PAD beyond it never enters a window."""
    if len(ids) == 0:
        raise DataError("cannot encode an empty token sequence")
    if EOS in ids:
        return list(ids[: ids.index(EOS) + 1])
    return list(ids)


def _encode_sentence_cached(ids: list[int], params: Params, cfg: EvaluatorConfig):
    seq = _effective_ids(ids)
    emb = params["embed"][seq]  # (L, E)
    L = len(seq)
    pooled_parts = []
    width_caches = []
    for w in cfg.filter_widths:
        if L >= w:
            windows = np.stack([emb[p : p + w].ravel() for p in range(L - w + 1)])
            n_real = w  # every window row maps onto real tokens
        else:
            padded = np.zeros((w, cfg.embed_dim))
            padded[:L] = emb
            windows = padded.reshape(1, -1)
            n_real = L
        acts = np.tanh(windows @ params[f"conv{w}_W"].T + params[f"conv{w}_b"])
        arg = np.argmax(acts, axis=0)
        raw = acts[arg, np.arange(acts.shape[1])]
        pooled = np.maximum(raw, 0.0)  # non-negative guard on the time pool
        pooled_parts.append(pooled)
        width_caches.append((windows, acts, arg, raw, n_real))
    pooled_all = np.concatenate(pooled_parts)
    sent = params["sent_W"] @ pooled_all + params["sent_b"]
    return sent, (seq, emb, width_caches, pooled_all)


def encode_sentence(ids: list[int], params: Params, cfg: EvaluatorConfig) -> np.ndarray:
    """Fixed-size sentence embedding in the joint space."""
    sent, _ = _encode_sentence_cached(ids, params, cfg)
    return sent


def _encode_sentence_backward(dsent: np.ndarray, cache, params: Params,
                              cfg: EvaluatorConfig, grads: Params) -> None:
    seq, emb, width_caches, pooled_all = cache
    grads["sent_W"] += np.outer(dsent, pooled_all)
    grads["sent_b"] += dsent
    dpooled = params["sent_W"].T @ dsent
    demb = np.zeros_like(emb)
    nf = cfg.filters_per_width
    for wi, w in enumerate(cfg.filter_widths):
        windows, acts, arg, raw, n_real = width_caches[wi]
        dp = dpooled[wi * nf : (wi + 1) * nf] * (raw > 0.0)
        dacts = np.zeros_like(acts)
        dacts[arg, np.arange(nf)] = dp
        dpre = dacts * (1.0 - acts * acts)
        grads[f"conv{w}_W"] += dpre.T @ windows
        grads[f"conv{w}_b"] += dpre.sum(axis=0)
        dwin = dpre @ params[f"conv{w}_W"]  # (n_win, w*E)
        E = cfg.embed_dim
        if windows.shape[0] == 1 and n_real < w:
            demb += dwin[0, : n_real * E].reshape(n_real, E)
        else:
            for p in range(dwin.shape[0]):
                demb[p : p + w] += dwin[p].reshape(w, E)
    np.add.at(grads["embed"], seq, demb)
    grads["embed"][PAD] = 0.0  # PAD embedding stays pinned at zero


def project_video(values: np.ndarray, params: Params) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] != params["vid_W"].shape[1]:
        raise DimensionError(
            f"video feature dim {values.shape} != projection columns {params['vid_W'].shape[1]}"
        )
    return params["vid_W"] @ values + params["vid_b"]


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0  # documented convention for degenerate embeddings
    return float(u @ v / (nu * nv))


def _cosine_backward(u, v, dc):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v / (nu * nv))
    du = dc * (v / (nu * nv) - c * u / (nu * nu))
    dv = dc * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


def similarity(ids: list[int], video_values: np.ndarray, params: Params,
               cfg: EvaluatorConfig) -> float:
    """Cosine between the sentence and video embeddings, in [-1, 1]."""
    return _cosine(encode_sentence(ids, params, cfg), project_video(video_values, params))


def ranking_loss(pos: float, negs: list[float], margin: float) -> float:
    """Mean per-negative hinge: max(0, margin - pos + neg)."""
    if margin <= 0:
        raise ParameterError(f"margin must be > 0, got {margin}")
    if len(negs) == 0:
        raise DataError("ranking_loss needs at least one negative score")
    return float(np.mean([max(0.0, margin - pos + n) for n in negs]))


def sample_negatives(video_id: str, records, n_neg: int,
                     rng: np.random.Generator) -> list[str]:
    """Uniform sample (no replacement) from the other videos' captions."""
    others = [r for r in records if r.id != video_id]
    if not others:
        raise DataError("negative sampling needs at least two videos")
    pool = [c for r in others for c in r.captions]
    take = min(n_neg, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    return [pool[i] for i in idx]


def triple_loss_and_grads(params: Params, cfg: EvaluatorConfig, video_values,
                          pos_ids: list[int], neg_ids_list: list[list[int]]):
    """Hinge loss and gradients for one (video, positive, negatives) triple."""
    video_values = np.asarray(video_values, dtype=np.float64)
    vid_emb = project_video(video_values, params)
    s_pos, cache_pos = _encode_sentence_cached(pos_ids, params, cfg)
    c_pos = _cosine(s_pos, vid_emb)

    neg_caches, c_negs = [], []
    for ids in neg_ids_list:
        s, cache = _encode_sentence_cached(ids, params, cfg)
        neg_caches.append((s, cache))
        c_negs.append(_cosine(s, vid_emb))

    n = len(c_negs)
    hinges = [cfg.margin - c_pos + c for c in c_negs]
    loss = float(np.mean([max(0.0, h) for h in hinges]))
    if not np.isfinite(loss):
        raise NumericError("non-finite evaluator loss")

    grads: Params = {k: np.zeros_like(v) for k, v in params.items()}
    dvid = np.zeros_like(vid_emb)
    active = [j for j, h in enumerate(hinges) if h > 0.0]
    if active:
        dc_pos = -len(active) / n
        du_pos, dv = _cosine_backward(s_pos, vid_emb, dc_pos)
        dvid += dv
        _encode_sentence_backward(du_pos, cache_pos, params, cfg, grads)
        for j in active:
            s, cache = neg_caches[j]
            du, dv = _cosine_backward(s, vid_emb, 1.0 / n)
            dvid += dv
            _encode_sentence_backward(du, cache, params, cfg, grads)
        grads["vid_W"] += np.outer(dvid, video_values)
        grads["vid_b"] += dvid
    return loss, grads


def train_evaluator(records, feature_of, vocab: Vocabulary, cfg: EvaluatorConfig,
                    rng: np.random.Generator, opt: OptState | None = None,
                    epochs: int = 10):
    """Discriminative training over (video, caption, negatives) triples.

    records: VideoRecord-like objects with .id and .captions; feature_of maps
    a video id to its (frozen) feature vector. Returns (params, loss history).
    Negatives are resampled for every triple.
    """
    records = sorted(records, key=lambda r: r.id)
    if len(records) < 2:
        raise DataError("evaluator training needs at least two videos")
    params = init_evaluator_params(cfg, rng)
    opt = opt or OptState()
    encoded = {r.id: [encode(tokenize(c), vocab) for c in r.captions] for r in records}
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(records))
        losses = []
        for i in order:
            rec = records[i]
            pos = encoded[rec.id][rng.integers(len(rec.captions))]
            negs = [encode(tokenize(c), vocab)
                    for c in sample_negatives(rec.id, records, cfg.n_negatives, rng)]
            loss, grads = triple_loss_and_grads(params, cfg, feature_of(rec.id), pos, negs)
            rmsprop_update(params, grads, opt)
            params["embed"][PAD] = 0.0
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return params, history


def save_evaluator(path, cfg: EvaluatorConfig, params: Params) -> None:
    binio.write_checkpoint(path, binio.EVAL_MAGIC, asdict(cfg), params)


def load_evaluator(path) -> tuple[EvaluatorConfig, Params]:
    header, tensors = binio.read_checkpoint(path, binio.EVAL_MAGIC)
    cfg = binio.config_from_json(EvaluatorConfig, header, path)
    binio.check_shapes(path, tensors, evaluator_param_shapes(cfg))
    return cfg, tensors
