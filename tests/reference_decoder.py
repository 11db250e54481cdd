"""Step-major reference LM pass for the layer-major decoder tests.

`ref_forward` runs one time step at a time through the whole residual stack,
with one input projection, one output projection and one softmax per step;
`ref_backward` walks the steps in reverse and adds every weight gradient one
step at a time. The dropout masks are drawn up front as `vidcap.decoder`
draws them, one (L, B, .) tensor per layer input (layer 1 first), then one
(L - 1, B, H) tensor for the top output, and step t reads row t of each. They
serve as oracles for `vidcap.decoder`, in the same spirit as
`reference_evaluator.py` for the evaluator.
"""

import numpy as np

from vidcap.decoder import make_batch
from vidcap.numerics import dropout_mask, log_softmax, sigmoid
from vidcap.text import PAD


def _stack_step_cached(x, states, params, cfg, masks):
    """All layers for one time step; dropout applies on the cell input path only."""
    new_states, layer_caches = [], []
    inp = x if masks is None else x * masks[0]
    out = None
    H = cfg.hidden
    for layer in range(1, cfg.depth + 1):
        Wx, Wh, b = params[f"l{layer}_Wx"], params[f"l{layer}_Wh"], params[f"l{layer}_b"]
        h_prev, c_prev = states[layer - 1]
        a = inp @ Wx.T + h_prev @ Wh.T + b
        ifo = sigmoid(a[..., : 3 * H])
        i, f, o = ifo[..., :H], ifo[..., H : 2 * H], ifo[..., 2 * H :]
        g = np.tanh(a[..., 3 * H :])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        hcell = o * tc
        out = hcell if layer == 1 else hcell + out
        new_states.append((hcell, c))
        layer_caches.append((inp, h_prev, c_prev, i, f, o, g, tc))
        if layer < cfg.depth:
            inp = out if masks is None else out * masks[layer]
    return out, new_states, layer_caches


def ref_forward(params, cfg, batch, rng):
    """Teacher-forced loss and one cache per step; dropout is on when rng is given."""
    B, L = batch.targets.shape
    pred_mask = (batch.targets != PAD).astype(np.float64)
    pred_mask[:, 0] = 0.0
    n_pred = pred_mask.sum()
    rate = cfg.dropout_rate if rng is not None else 0.0
    rows = np.arange(B)
    states = [(np.zeros((B, cfg.hidden)), np.zeros((B, cfg.hidden))) for _ in range(cfg.depth)]
    x_init = batch.init @ params["init_W"].T + params["init_b"]
    if rate > 0.0:
        layer_masks = [dropout_mask((L, B, cfg.layer_input_dim(layer)), rate, rng)
                       for layer in range(1, cfg.depth + 1)]
        top_masks = dropout_mask((L - 1, B, cfg.hidden), rate, rng)
    steps = []
    logprobs = np.zeros((B, L))
    for t in range(L):
        x_emb = x_init if t == 0 else params["embed"][batch.targets[:, t - 1]]
        u = np.concatenate([x_emb, batch.persist], axis=1)
        masks = [mask[t] for mask in layer_masks] if rate > 0.0 else None
        top, states, layer_caches = _stack_step_cached(u, states, params, cfg, masks)
        step = {"layers": layer_caches, "masks": masks}
        if t >= 1:
            top_mask = top_masks[t - 1] if rate > 0.0 else None
            top_used = top if top_mask is None else top * top_mask
            logits = top_used @ params["out_W"].T + params["out_b"]
            lp = log_softmax(logits, axis=1)
            logprobs[:, t] = lp[rows, batch.targets[:, t]]
            step.update(top_mask=top_mask, top_used=top_used, logits=logits, lp=lp)
        steps.append(step)
    loss = -(logprobs * pred_mask).sum() / n_pred
    return loss, dict(steps=steps, pred_mask=pred_mask, n_pred=n_pred)


def ref_backward(params, cfg, batch, fwd):
    B, L = batch.targets.shape
    rows = np.arange(B)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_carry = [np.zeros((B, cfg.hidden)) for _ in range(cfg.depth)]
    dc_carry = [np.zeros((B, cfg.hidden)) for _ in range(cfg.depth)]
    for t in range(L - 1, -1, -1):
        step = fwd["steps"][t]
        if t >= 1:
            dz = np.exp(step["lp"])
            dz[rows, batch.targets[:, t]] -= 1.0
            dz *= fwd["pred_mask"][:, t : t + 1] / fwd["n_pred"]
            grads["out_W"] += dz.T @ step["top_used"]
            grads["out_b"] += dz.sum(axis=0)
            d_res = dz @ params["out_W"]
            if step["top_mask"] is not None:
                d_res *= step["top_mask"]
        else:
            d_res = np.zeros((B, cfg.hidden))
        for layer in range(cfg.depth, 0, -1):
            inp, h_prev, c_prev, i, f, o, g, tc = step["layers"][layer - 1]
            dh = d_res + dh_carry[layer - 1]
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc_carry[layer - 1]
            df = dc * c_prev
            di = dc * g
            dg = dc * i
            dc_carry[layer - 1] = dc * f
            da = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o),
                 dg * (1.0 - g * g)], axis=1)
            grads[f"l{layer}_Wx"] += da.T @ inp
            grads[f"l{layer}_Wh"] += da.T @ h_prev
            grads[f"l{layer}_b"] += da.sum(axis=0)
            dh_carry[layer - 1] = da @ params[f"l{layer}_Wh"]
            dinp = da @ params[f"l{layer}_Wx"]
            if step["masks"] is not None:
                dinp *= step["masks"][layer - 1]
            if layer >= 2:
                d_res = d_res + dinp
        dx_emb = dinp[:, : cfg.embed_dim]
        if t == 0:
            grads["init_W"] += dx_emb.T @ batch.init
            grads["init_b"] += dx_emb.sum(axis=0)
        else:
            np.add.at(grads["embed"], batch.targets[:, t - 1], dx_emb)
    return grads


def ref_batch_loss_and_grads(params, cfg, batch, rng=None):
    loss, fwd = ref_forward(params, cfg, batch, rng)
    return loss, ref_backward(params, cfg, batch, fwd)


def ref_forward_logprob(init_vec, persist_vec, target, params, cfg):
    """(per-step logits for steps 1..len-1, summed log-probability), no dropout."""
    batch = make_batch([(np.asarray(init_vec), np.asarray(persist_vec), list(target))])
    loss, fwd = ref_forward(params, cfg, batch, None)
    logits = np.stack([step["logits"][0] for step in fwd["steps"][1:]])
    return logits, float(-loss * fwd["n_pred"])


def ref_perplexity(examples, params, cfg):
    total, count = 0.0, 0
    for s in range(0, len(examples), 64):
        loss, fwd = ref_forward(params, cfg, make_batch(examples[s : s + 64]), None)
        total += loss * fwd["n_pred"]
        count += int(fwd["n_pred"])
    return float(np.exp(total / count))
