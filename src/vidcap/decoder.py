"""Two-channel residual-LSTM caption generator.

The language model takes two feature inputs through separate channels: the
init feature enters once, projected to embedding size and fed as the step-0
pseudo-word; the persist feature is concatenated with the word embedding at
every step. Layers 2..depth add the lower layer's output to their own
(residual), and the top output feeds the softmax projection.

Training is teacher-forced with full-sequence backpropagation through time,
written out by hand so gradients can be finite-difference checked.
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

    masks: per-layer input dropout masks (or None for eval). The residual add
    uses the clean lower-layer output; dropout applies on the cell input path
    only.
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
        layer_caches.append((inp, h_prev, c_prev, i, f, o, g, tc, out))
        if layer < cfg.depth:
            nxt = out
            inp = nxt if masks is None else nxt * masks[layer]
    return out, new_states, layer_caches


def stack_step(x, states, params: Params, cfg: LMConfig, masks=None):
    """Public step through the residual stack: (top output, new states)."""
    out, new_states, _ = _stack_step_cached(np.asarray(x), states, params, cfg, masks)
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


def _draw_masks(cfg: LMConfig, B: int, L: int, rng) -> tuple[list, list]:
    """Fresh inverted-dropout masks per step: one per layer input, one for the
    pre-softmax top output (steps 1..L-1 only)."""
    rate = cfg.dropout_rate
    step_masks, top_masks = [], []
    for t in range(L):
        step_masks.append([
            dropout_mask((B, cfg.layer_input_dim(layer)), rate, rng)
            for layer in range(1, cfg.depth + 1)
        ])
        top_masks.append(dropout_mask((B, cfg.hidden), rate, rng) if t >= 1 else None)
    return step_masks, top_masks


def _forward(params: Params, cfg: LMConfig, batch: Batch, mode: str, rng):
    """Teacher-forced forward pass over the whole batch.

    Step 0 consumes the projected init feature, step t>=1 the embedding of
    targets[:, t-1]; the logits at step t>=1 score targets[:, t]. Returns the
    scalar mean loss plus caches for the backward pass.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    B, L = batch.targets.shape
    if batch.init.shape != (B, cfg.init_dim):
        raise DimensionError(f"init features {batch.init.shape} != (B,{cfg.init_dim})")
    if batch.persist.shape != (B, cfg.persist_dim):
        raise DimensionError(f"persist features {batch.persist.shape} != (B,{cfg.persist_dim})")

    if mode == "train" and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ParameterError("train mode with dropout needs an rng")
        step_masks, top_masks = _draw_masks(cfg, B, L, rng)
    else:
        step_masks = [None] * L
        top_masks = [None] * L

    pred_mask = (batch.targets != PAD).astype(np.float64)
    pred_mask[:, 0] = 0.0  # BOS is input only
    n_pred = pred_mask.sum()
    if n_pred == 0:
        raise DataError("batch contains no predictable tokens")

    states = zero_states(cfg, B)
    x_init = batch.init @ params["init_W"].T + params["init_b"]
    caches = []
    logprobs = np.zeros((B, L))
    logits_all = []
    for t in range(L):
        x_emb = x_init if t == 0 else params["embed"][batch.targets[:, t - 1]]
        u = np.concatenate([x_emb, batch.persist], axis=1)
        top, states, layer_caches = _stack_step_cached(u, states, params, cfg, step_masks[t])
        if t >= 1:
            top_used = top if top_masks[t] is None else top * top_masks[t]
            logits = top_used @ params["out_W"].T + params["out_b"]
            lp = log_softmax(logits, axis=1)
            logprobs[:, t] = lp[np.arange(B), batch.targets[:, t]]
            logits_all.append(logits)
            caches.append((u, layer_caches, top, top_used, lp))
        else:
            caches.append((u, layer_caches, top, None, None))
    nll = -(logprobs * pred_mask).sum()
    loss = nll / n_pred
    if not np.isfinite(loss):
        raise NumericError("non-finite loss")
    fwd = dict(caches=caches, step_masks=step_masks, top_masks=top_masks,
               pred_mask=pred_mask, n_pred=n_pred, x_init=x_init,
               logits=np.stack(logits_all, axis=1) if logits_all else None)
    return loss, fwd


def _backward(params: Params, cfg: LMConfig, batch: Batch, fwd) -> Params:
    B, L = batch.targets.shape
    H = cfg.hidden
    E = cfg.embed_dim
    grads: Params = {k: np.zeros_like(v) for k, v in params.items()}
    dh_carry = [np.zeros((B, H)) for _ in range(cfg.depth)]
    dc_carry = [np.zeros((B, H)) for _ in range(cfg.depth)]
    n_pred = fwd["n_pred"]

    for t in range(L - 1, -1, -1):
        u, layer_caches, top, top_used, lp = fwd["caches"][t]
        if t >= 1:
            dz = np.exp(lp)
            dz[np.arange(B), batch.targets[:, t]] -= 1.0
            dz *= fwd["pred_mask"][:, t : t + 1] / n_pred
            grads["out_W"] += dz.T @ top_used
            grads["out_b"] += dz.sum(axis=0)
            dtop = dz @ params["out_W"]
            if fwd["top_masks"][t] is not None:
                dtop *= fwd["top_masks"][t]
        else:
            dtop = np.zeros((B, H))

        # Walk the stack top-down; d_out[l] is the grad on layer l's residual
        # output (clean, pre-dropout).
        d_out = [np.zeros((B, H)) for _ in range(cfg.depth)]
        d_out[cfg.depth - 1] = dtop
        du = None
        for layer in range(cfg.depth, 0, -1):
            inp, h_prev, c_prev, i, f, o, g, tc, _ = layer_caches[layer - 1]
            dh = d_out[layer - 1] + dh_carry[layer - 1]
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
            mask = fwd["step_masks"][t]
            if layer >= 2:
                if mask is not None:
                    dinp = dinp * mask[layer - 1]
                # Residual skip plus the cell-input path both land on out_{l-1}.
                d_out[layer - 2] += d_out[layer - 1] + dinp
            else:
                du = dinp if mask is None else dinp * mask[0]

        dx_emb = du[:, :E]  # persist channel grads are dropped: features frozen
        if t == 0:
            grads["init_W"] += dx_emb.T @ batch.init
            grads["init_b"] += dx_emb.sum(axis=0)
        else:
            np.add.at(grads["embed"], batch.targets[:, t - 1], dx_emb)
    return grads


def batch_loss_and_grads(params: Params, cfg: LMConfig, batch: Batch,
                         mode: str = "train", rng=None):
    loss, fwd = _forward(params, cfg, batch, mode, rng)
    grads = _backward(params, cfg, batch, fwd)
    return loss, grads


def forward_logprob(init_vec, persist_vec, target: list[int], params: Params,
                    cfg: LMConfig, mode: str = "eval", rng=None):
    """Per-step logits and total log-probability of one caption.

    Returns (logits of shape (len-1, vocab) for steps 1..len-1, summed log
    probability of the predicted tokens)."""
    batch = make_batch([(np.asarray(init_vec), np.asarray(persist_vec), list(target))])
    loss, fwd = _forward(params, cfg, batch, mode, rng)
    total_logprob = -loss * fwd["n_pred"]
    return fwd["logits"][0], float(total_logprob)


def train_step(batch: Batch, params: Params, cfg: LMConfig, opt: OptState,
               rng) -> float:
    """One RMSProp update over the batch; returns the pre-update mean loss."""
    loss, grads = batch_loss_and_grads(params, cfg, batch, mode="train", rng=rng)
    rmsprop_update(params, grads, opt)
    return float(loss)


def dataset_nll(examples: list[Example], params: Params, cfg: LMConfig,
                batch_size: int = 64) -> tuple[float, int]:
    """Total eval-mode negative log-likelihood and predicted-token count."""
    if not examples:
        raise DataError("empty dataset")
    total, count = 0.0, 0
    for s in range(0, len(examples), batch_size):
        batch = make_batch(examples[s : s + batch_size])
        loss, fwd = _forward(params, cfg, batch, mode="eval", rng=None)
        total += loss * fwd["n_pred"]
        count += int(fwd["n_pred"])
    return float(total), count


def perplexity(examples: list[Example], params: Params, cfg: LMConfig) -> float:
    nll, count = dataset_nll(examples, params, cfg)
    return float(np.exp(nll / count))


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
