"""Per-sentence reference evaluator for the batched-encoder tests.

`ref_encode_sentence` encodes one token sequence at a time, building each
convolution window with its own `np.stack`; `ref_triple_loss_and_grads` runs
it once per caption of one anchor's (video, positive, negatives), takes each
cosine with its own `ref_cosine` against the `ref_project_video` embedding and
backpropagates sentence by sentence. `ref_sample_negatives` rebuilds the other
videos' caption list on every call. `ref_train_evaluator` is the
shared-negative training loop over these pieces, one anchor at a time. They
serve as oracles for `vidcap.evaluator`, in the same spirit as
`reference_beam.py` for beam search.
"""

import numpy as np

from vidcap.evaluator import ANCHORS, init_evaluator_params
from vidcap.numerics import OptState, rmsprop_update
from vidcap.text import EOS, PAD, encode, tokenize


def ref_project_video(video_values, params):
    """The video's joint-space embedding: one affine map."""
    return params["vid_W"] @ np.asarray(video_values, dtype=np.float64) + params["vid_b"]


def ref_cosine(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def _cosine_backward(u, v, dc):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v / (nu * nv))
    du = dc * (v / (nu * nv) - c * u / (nu * nu))
    dv = dc * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


def _effective_ids(ids):
    """Cut the sequence after the first EOS."""
    ids = list(ids)
    return ids[: ids.index(EOS) + 1] if EOS in ids else ids


def ref_encode_sentence_cached(ids, params, cfg):
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


def ref_encode_sentence(ids, params, cfg):
    return ref_encode_sentence_cached(ids, params, cfg)[0]


def ref_encode_sentence_backward(dsent, cache, params, cfg, grads):
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


def ref_triple_loss_and_grads(params, cfg, video_values, pos_ids, neg_ids_list):
    """Hinge loss and gradients for one anchor, one sentence at a time."""
    video_values = np.asarray(video_values, dtype=np.float64)
    vid_emb = ref_project_video(video_values, params)
    s_pos, cache_pos = ref_encode_sentence_cached(pos_ids, params, cfg)
    c_pos = ref_cosine(s_pos, vid_emb)

    neg_caches, c_negs = [], []
    for ids in neg_ids_list:
        s, cache = ref_encode_sentence_cached(ids, params, cfg)
        neg_caches.append((s, cache))
        c_negs.append(ref_cosine(s, vid_emb))

    n = len(c_negs)
    hinges = [cfg.margin - c_pos + c for c in c_negs]
    loss = float(np.mean([max(0.0, h) for h in hinges]))

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dvid = np.zeros_like(vid_emb)
    active = [j for j, h in enumerate(hinges) if h > 0.0]
    if active:
        dc_pos = -len(active) / n
        du_pos, dv = _cosine_backward(s_pos, vid_emb, dc_pos)
        dvid += dv
        ref_encode_sentence_backward(du_pos, cache_pos, params, cfg, grads)
        for j in active:
            s, cache = neg_caches[j]
            du, dv = _cosine_backward(s, vid_emb, 1.0 / n)
            dvid += dv
            ref_encode_sentence_backward(du, cache, params, cfg, grads)
        grads["vid_W"] += np.outer(dvid, video_values)
        grads["vid_b"] += dvid
    return loss, grads


def ref_sample_negatives(video_id, records, n_neg, rng):
    """Uniform sample (no replacement) from the other videos' captions."""
    others = [r for r in records if r.id != video_id]
    pool = [c for r in others for c in r.captions]
    take = min(n_neg, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    return [pool[i] for i in idx]


def ref_train_evaluator(records, feature_of, vocab, cfg, rng, opt=None, epochs=10):
    """Training with every caption re-encoded per update. ANCHORS videos of the
    permutation share one draw of negatives from all captions; each anchor's
    loss and gradients are `ref_triple_loss_and_grads` over its drawn negatives
    of other videos (none: it adds nothing), and the update averages them."""
    records = sorted(records, key=lambda r: r.id)
    params = init_evaluator_params(cfg, rng)
    opt = opt or OptState()
    captions = [(r.id, c) for r in records for c in r.captions]
    history = []
    for _ in range(epochs):
        losses = []
        order = rng.permutation(len(records))
        for s in range(0, len(order), ANCHORS):
            anchors = [records[i] for i in order[s : s + ANCHORS]]
            positives = [rec.captions[rng.integers(len(rec.captions))] for rec in anchors]
            drawn = [captions[j] for j in rng.choice(
                len(captions), size=min(cfg.n_negatives, len(captions)), replace=False)]
            loss, grads = 0.0, {k: np.zeros_like(v) for k, v in params.items()}
            for rec, pos in zip(anchors, positives):
                negs = [encode(tokenize(c), vocab) for vid, c in drawn if vid != rec.id]
                if negs:
                    anchor_loss, anchor_grads = ref_triple_loss_and_grads(
                        params, cfg, feature_of(rec.id), encode(tokenize(pos), vocab), negs)
                    loss += anchor_loss
                    for k in grads:
                        grads[k] += anchor_grads[k]
            rmsprop_update(params, {k: g / len(anchors) for k, g in grads.items()}, opt)
            params["embed"][PAD] = 0.0
            losses.append(loss / len(anchors))
        history.append(float(np.mean(losses)))
    return params, history
