"""Two-channel residual-LSTM caption generator.

The language model takes two feature inputs through separate channels: the
init feature enters once, projected to embedding size and fed as the step-0
pseudo-word; the persist feature is concatenated with the word embedding at
every step. Layers 2..depth add the lower layer's output to their own
(residual), and the top output feeds the softmax projection.

Training is teacher-forced with full-sequence backpropagation through time,
written out by hand so gradients can be finite-difference checked.

Dropout is on exactly when a pass is given an rng and dropout_rate > 0; the
rng is the only train/eval switch. Each time step draws its own inverted-
dropout masks, in this order: one per layer input (layer 1 first), then, at
steps t >= 1, one for the top output before the softmax projection.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import binio
from .errors import DataError, DimensionError, NumericError, ParameterError
from .numerics import (
    OptState,
    Params,
    dropout_mask,
    log_softmax,
    rmsprop_update,
    sigmoid,
)
from .text import PAD, BOS, EOS

# One caption example: (init feature values, persist feature values, token ids).
Example = tuple[np.ndarray, np.ndarray, list[int]]


@dataclass
class LMConfig:
    vocab_size: int
    init_dim: int
    persist_dim: int
    depth: int = 2
    hidden: int = 64
    embed_dim: int = 64
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")
        for name in ("vocab_size", "init_dim", "persist_dim", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")

    def layer_input_dim(self, layer: int) -> int:
        return self.embed_dim + self.persist_dim if layer == 1 else self.hidden


def lm_param_shapes(cfg: LMConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialisation order."""
    H, E, V = cfg.hidden, cfg.embed_dim, cfg.vocab_size
    shapes = {"embed": (V, E), "init_W": (E, cfg.init_dim), "init_b": (E,),
              "out_W": (V, H), "out_b": (V,)}
    for layer in range(1, cfg.depth + 1):
        shapes[f"l{layer}_Wx"] = (4 * H, cfg.layer_input_dim(layer))
        shapes[f"l{layer}_Wh"] = (4 * H, H)
        shapes[f"l{layer}_b"] = (4 * H,)
    return shapes


def init_lm_params(cfg: LMConfig, rng: np.random.Generator, scale: float = 0.08) -> Params:
    """Uniform(-scale, scale) weights, zero biases; forget-gate bias starts at +1."""
    params: Params = {name: np.zeros(shape) if name.endswith("_b")
                      else rng.uniform(-scale, scale, size=shape)
                      for name, shape in lm_param_shapes(cfg).items()}
    for layer in range(1, cfg.depth + 1):
        params[f"l{layer}_b"][cfg.hidden : 2 * cfg.hidden] = 1.0
    return params


def zero_states(cfg: LMConfig, batch: int | None = None):
    shape = (cfg.hidden,) if batch is None else (batch, cfg.hidden)
    return [(np.zeros(shape), np.zeros(shape))
            for _ in range(cfg.depth)]


def _stack_step_cached(x, states, params: Params, cfg: LMConfig, masks):
    """Run all layers for one time step, returning everything backward needs.

    masks: per-layer input dropout masks, or None. The residual add uses the
    clean lower-layer output; dropout applies on the cell input path only.
    """
    new_states = []
    layer_caches = []
    inp = x if masks is None else x * masks[0]
    out = None
    for layer in range(1, cfg.depth + 1):
        Wx, Wh, b = params[f"l{layer}_Wx"], params[f"l{layer}_Wh"], params[f"l{layer}_b"]
        h_prev, c_prev = states[layer - 1]
        H = cfg.hidden
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


def stack_step(x, states, params: Params, cfg: LMConfig):
    """Public step through the residual stack: (top output, new states)."""
    out, new_states, _ = _stack_step_cached(np.asarray(x), states, params, cfg, None)
    return out, new_states


@dataclass
class Batch:
    init: np.ndarray      # (B, init_dim)
    persist: np.ndarray   # (B, persist_dim)
    targets: np.ndarray   # (B, L) token ids, rows are [BOS, ..., EOS, PAD...]


def make_batch(examples: list[Example]) -> Batch:
    if not examples:
        raise DataError("empty batch")
    L = max(len(seq) for _, _, seq in examples)
    targets = np.full((len(examples), L), PAD, dtype=np.int64)
    for row, (_, _, seq) in enumerate(examples):
        if len(seq) < 2 or seq[0] != BOS or seq[-1] != EOS or seq.count(EOS) != 1:
            raise DataError(f"target must be [BOS, ..., EOS] with one EOS: {seq}")
        targets[row, : len(seq)] = seq
    init = np.stack([np.asarray(e[0], dtype=np.float64) for e in examples])
    persist = np.stack([np.asarray(e[1], dtype=np.float64) for e in examples])
    return Batch(init=init, persist=persist, targets=targets)


def _forward(params: Params, cfg: LMConfig, batch: Batch, rng):
    """Teacher-forced forward pass over the whole batch.

    Step 0 consumes the projected init feature, step t>=1 the embedding of
    targets[:, t-1]; the logits at step t>=1 score targets[:, t]. Returns the
    scalar mean loss plus one cache per step for the backward pass.
    """
    B, L = batch.targets.shape
    if batch.init.shape != (B, cfg.init_dim):
        raise DimensionError(f"init features {batch.init.shape} != (B,{cfg.init_dim})")
    if batch.persist.shape != (B, cfg.persist_dim):
        raise DimensionError(f"persist features {batch.persist.shape} != (B,{cfg.persist_dim})")

    pred_mask = (batch.targets != PAD).astype(np.float64)
    pred_mask[:, 0] = 0.0  # BOS is input only
    n_pred = pred_mask.sum()
    if n_pred == 0:
        raise DataError("batch contains no predictable tokens")

    rate = cfg.dropout_rate if rng is not None else 0.0
    rows = np.arange(B)
    states = zero_states(cfg, B)
    x_init = batch.init @ params["init_W"].T + params["init_b"]
    steps = []
    logprobs = np.zeros((B, L))
    for t in range(L):
        x_emb = x_init if t == 0 else params["embed"][batch.targets[:, t - 1]]
        u = np.concatenate([x_emb, batch.persist], axis=1)
        masks = [dropout_mask((B, cfg.layer_input_dim(layer)), rate, rng)
                 for layer in range(1, cfg.depth + 1)] if rate > 0.0 else None
        top, states, layer_caches = _stack_step_cached(u, states, params, cfg, masks)
        step = {"layers": layer_caches, "masks": masks}
        if t >= 1:
            top_mask = dropout_mask((B, cfg.hidden), rate, rng) if rate > 0.0 else None
            top_used = top if top_mask is None else top * top_mask
            logits = top_used @ params["out_W"].T + params["out_b"]
            lp = log_softmax(logits, axis=1)
            logprobs[:, t] = lp[rows, batch.targets[:, t]]
            step.update(top_mask=top_mask, top_used=top_used, logits=logits, lp=lp)
        steps.append(step)
    loss = -(logprobs * pred_mask).sum() / n_pred
    if not np.isfinite(loss):
        raise NumericError("non-finite loss")
    return loss, dict(steps=steps, pred_mask=pred_mask, n_pred=n_pred)


def _backward(params: Params, cfg: LMConfig, batch: Batch, fwd) -> Params:
    B, L = batch.targets.shape
    rows = np.arange(B)
    grads: Params = {k: np.zeros_like(v) for k, v in params.items()}
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

        # Walk the stack top-down; d_res is the grad on the current layer's
        # residual output (clean, pre-dropout).
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
                # Residual skip plus the cell-input path both land on out_{l-1}.
                d_res = d_res + dinp

        dx_emb = dinp[:, : cfg.embed_dim]  # persist channel grads are dropped: features frozen
        if t == 0:
            grads["init_W"] += dx_emb.T @ batch.init
            grads["init_b"] += dx_emb.sum(axis=0)
        else:
            np.add.at(grads["embed"], batch.targets[:, t - 1], dx_emb)
    return grads


def batch_loss_and_grads(params: Params, cfg: LMConfig, batch: Batch, rng=None):
    """Mean loss and its gradients; dropout is on when an rng is given."""
    loss, fwd = _forward(params, cfg, batch, rng)
    return loss, _backward(params, cfg, batch, fwd)


def forward_logprob(init_vec, persist_vec, target: list[int], params: Params,
                    cfg: LMConfig):
    """Per-step logits and total log-probability of one caption, without dropout.

    Returns (logits of shape (len-1, vocab) for steps 1..len-1, summed log
    probability of the predicted tokens)."""
    batch = make_batch([(np.asarray(init_vec), np.asarray(persist_vec), list(target))])
    loss, fwd = _forward(params, cfg, batch, None)
    logits = np.stack([step["logits"][0] for step in fwd["steps"][1:]])
    return logits, float(-loss * fwd["n_pred"])


def train_step(batch: Batch, params: Params, cfg: LMConfig, opt: OptState,
               rng) -> float:
    """One RMSProp update over the batch; returns the pre-update mean loss."""
    loss, grads = batch_loss_and_grads(params, cfg, batch, rng)
    rmsprop_update(params, grads, opt)
    return float(loss)


def perplexity(examples: list[Example], params: Params, cfg: LMConfig) -> float:
    """exp of the mean per-token negative log-likelihood, without dropout."""
    if not examples:
        raise DataError("empty dataset")
    total, count = 0.0, 0
    for s in range(0, len(examples), 64):
        loss, fwd = _forward(params, cfg, make_batch(examples[s : s + 64]), None)
        total += loss * fwd["n_pred"]
        count += int(fwd["n_pred"])
    return float(np.exp(total / count))


def fit_lm(params: Params, cfg: LMConfig, examples: list[Example], opt: OptState,
           rng: np.random.Generator, epochs: int = 10, batch_size: int = 16) -> list[float]:
    """Shuffled mini-batch training; returns the mean loss per epoch."""
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        losses = []
        for s in range(0, len(order), batch_size):
            chunk = [examples[j] for j in order[s : s + batch_size]]
            losses.append(train_step(make_batch(chunk), params, cfg, opt, rng))
        history.append(float(np.mean(losses)))
    return history


def save_lm(path, cfg: LMConfig, params: Params, extra: dict | None = None) -> None:
    """Header: the config's fields plus `extra` (JSON values), which may not shadow them."""
    header, extra = asdict(cfg), extra or {}
    if header.keys() & extra.keys():
        raise ParameterError(f"extra keys {sorted(header.keys() & extra.keys())} shadow LMConfig")
    binio.write_checkpoint(path, binio.LM_MAGIC, {**header, **extra}, params)


def load_lm(path) -> tuple[LMConfig, Params, dict]:
    header, tensors = binio.read_checkpoint(path, binio.LM_MAGIC)
    names = {f.name for f in fields(LMConfig)}
    cfg = binio.config_from_json(LMConfig, {k: v for k, v in header.items() if k in names}, path)
    binio.check_shapes(path, tensors, lm_param_shapes(cfg))
    return cfg, tensors, header
