"""Two-channel residual-LSTM caption generator.

The language model takes two feature inputs through separate channels: the
init feature enters once, projected to embedding size and fed as the step-0
pseudo-word; the persist feature is concatenated with the word embedding at
every step. Layers 2..depth add the lower layer's output to their own
(residual), and the top output feeds the softmax projection.

Training is teacher-forced with full-sequence backpropagation through time,
written out by hand so gradients can be finite-difference checked. Teacher
forcing knows every input in advance, so a pass runs layer-major (Appleyard,
Kocisky and Blunsom 2016, arXiv 1604.01946): each layer runs all its time
steps before the next layer starts. The input projection, the output
projection, the softmax and every weight gradient are one matmul over all
steps; only the h @ Wh recurrence and the gate math loop per step. Beam
search steps the same cell one token at a time through `stack_step`.

Dropout is on exactly when a pass is given an rng and dropout_rate > 0; the
rng is the only train/eval switch. The inverted-dropout masks are drawn up
front, one draw per mask tensor: one (L, B, .) mask per layer input (layer 1
first), then one (L - 1, B, H) mask for the top output before the softmax
projection at steps t >= 1. Step t reads row t of each.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import binio
from .errors import DataError, DimensionError, NumericError, ParameterError
from .numerics import (
    OptState,
    Params,
    check_fits_in_memory,
    dropout_mask,
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
        # Layers 2..depth hold depth - 1 times 4H x (2H + 1) weights: count them
        # before listing every tensor, a list too long to fit at huge depths.
        check_fits_in_memory({"Wx, Wh, b": (self.depth - 1, 4 * self.hidden, 2 * self.hidden + 1)},
                             "the language model's layers 2..depth")
        check_fits_in_memory(lm_param_shapes(self), "the language model's parameters")

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


def zero_states(cfg: LMConfig):
    return [(np.zeros(cfg.hidden), np.zeros(cfg.hidden)) for _ in range(cfg.depth)]


def _cell(a, c_prev):
    """LSTM gate math from the pre-activation a = [i f o g] and the previous
    cell state: (h, c, the sigmoid gates [i f o], g, tanh(c))."""
    H = c_prev.shape[-1]
    ifo = sigmoid(a[..., : 3 * H])
    g = np.tanh(a[..., 3 * H :])
    c = ifo[..., H : 2 * H] * c_prev + ifo[..., :H] * g
    tc = np.tanh(c)
    return ifo[..., 2 * H :] * tc, c, ifo, g, tc


def stack_step(x, states, params: Params, cfg: LMConfig):
    """One step through the residual stack: (top output, new states)."""
    new_states = []
    inp = out = np.asarray(x)
    for layer in range(1, cfg.depth + 1):
        Wx, Wh, b = params[f"l{layer}_Wx"], params[f"l{layer}_Wh"], params[f"l{layer}_b"]
        h_prev, c_prev = states[layer - 1]
        h, c, _, _, _ = _cell(inp @ Wx.T + h_prev @ Wh.T + b, c_prev)
        out = inp = h if layer == 1 else h + out
        new_states.append((h, c))
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


def _layer_forward(inp, Wx, Wh, b):
    """One layer over all L steps of its (L, B, D) input. The input projection
    is one matmul; only h @ Wh and the gate math run per step. Returns the
    (L, B, .) stacks of h, c, the gates [i f o g] and tanh(c)."""
    (L, B, D), H = inp.shape, Wh.shape[1]
    gates = inp.reshape(L * B, D) @ Wx.T
    gates += b
    gates = gates.reshape(L, B, 4 * H)  # step t's input projection, then its gates
    WhT = np.ascontiguousarray(Wh.T)
    hs, cs, tcs = (np.empty((L, B, H)) for _ in range(3))
    c = np.zeros((B, H))
    for t in range(L):
        a = gates[t] if t == 0 else gates[t] + hs[t - 1] @ WhT
        hs[t], cs[t], gates[t, :, : 3 * H], gates[t, :, 3 * H :], tcs[t] = _cell(a, c)
        c = cs[t]
    return hs, cs, gates, tcs


def _forward(params: Params, cfg: LMConfig, batch: Batch, rng):
    """Teacher-forced forward pass over the whole batch, layer by layer.

    Step 0 consumes the projected init feature, step t>=1 the embedding of
    targets[:, t-1]; the log-probs at step t>=1 score targets[:, t]. Stacks
    are time-major, (L, B, .). Returns the scalar mean loss and the cache for
    the backward pass.
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

    H, E = cfg.hidden, cfg.embed_dim
    masks = top_mask = None
    if rng is not None and cfg.dropout_rate > 0.0:  # in the order of the module docstring
        masks = [dropout_mask((L, B, cfg.layer_input_dim(layer)), cfg.dropout_rate, rng)
                 for layer in range(1, cfg.depth + 1)]
        top_mask = dropout_mask((L - 1, B, H), cfg.dropout_rate, rng)

    out = np.empty((L, B, E + cfg.persist_dim))
    out[0, :, :E] = batch.init @ params["init_W"].T + params["init_b"]
    out[1:, :, :E] = params["embed"][batch.targets[:, :-1].T]
    out[:, :, E:] = batch.persist
    layers = []
    for layer in range(1, cfg.depth + 1):
        inp = out if masks is None else out * masks[layer - 1]
        hs, cs, gates, tcs = _layer_forward(inp, params[f"l{layer}_Wx"],
                                            params[f"l{layer}_Wh"], params[f"l{layer}_b"])
        out = hs if layer == 1 else hs + out
        layers.append((inp, hs, cs, gates, tcs))

    top = out[1:].reshape((L - 1) * B, H)
    if top_mask is not None:
        top = top * top_mask.reshape(top.shape)
    lp = top @ params["out_W"].T
    lp += params["out_b"]
    lp -= lp.max(axis=1, keepdims=True)  # log_softmax in place: the logits are not kept
    lp -= np.log(np.exp(lp).sum(axis=1, keepdims=True))
    logprobs = np.zeros((B, L))
    logprobs[:, 1:] = lp[np.arange(len(lp)), batch.targets[:, 1:].T.ravel()].reshape(L - 1, B).T
    loss = -(logprobs * pred_mask).sum() / n_pred
    if not np.isfinite(loss):
        raise NumericError("non-finite loss")
    return loss, dict(layers=layers, masks=masks, top_mask=top_mask, top=top, lp=lp,
                      pred_mask=pred_mask, n_pred=n_pred)


def _layer_backward(d_out, Wh, cs, gates, tcs):
    """Gate pre-activation gradients (L, B, 4H) of one layer, given the
    gradient on its h at every step. The gate derivatives are formed once over
    all steps; only the dh/dc carries and da_t @ Wh run per step."""
    L, B, H = cs.shape
    gates = gates.reshape(L, B, 4, H)
    i, f, o, g = (gates[:, :, n] for n in range(4))
    # da_t = [dc*k_i, dc*k_f, dh*k_o, dc*k_g]; k is formed in place and
    # turned into da step by step, so the pass holds one (L, B, 4H) array.
    k = np.empty((L, B, 4, H))
    np.subtract(1.0, gates[:, :, :3], out=k[:, :, :3])
    k[:, :, :3] *= gates[:, :, :3]  # sigmoid' of i, f, o
    k[:, :, 0] *= g
    k[0, :, 1] = 0.0  # c_prev is zero at step 0
    k[1:, :, 1] *= cs[:-1]
    k[:, :, 2] *= tcs
    np.multiply(g, g, out=k[:, :, 3])
    np.subtract(1.0, k[:, :, 3], out=k[:, :, 3])
    k[:, :, 3] *= i  # i * tanh'(g)
    o_dtc = np.multiply(tcs, tcs, out=tcs)  # the cache is consumed
    np.subtract(1.0, o_dtc, out=o_dtc)
    o_dtc *= o  # o * tanh'(c)
    dh_carry = dc_carry = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        dh = d_out[t] + dh_carry
        dc = dh * o_dtc[t]
        dc += dc_carry
        da = k[t]
        da[:, 2] *= dh
        da[:, :2] *= dc[:, None]
        da[:, 3] *= dc
        if t > 0:
            dc_carry = dc * f[t]
            dh_carry = da.reshape(B, 4 * H) @ Wh
    return k.reshape(L, B, 4 * H)


def _backward(params: Params, cfg: LMConfig, batch: Batch, fwd) -> Params:
    """Gradients of the mean loss. Consumes `fwd`: its log-probs and cached
    stacks are overwritten."""
    B, L = batch.targets.shape
    H, E = cfg.hidden, cfg.embed_dim
    grads: Params = {}
    # d loss / d logits = (softmax - one-hot) * weight, formed over the cached log-probs
    dz = np.exp(fwd["lp"], out=fwd["lp"])
    dz[np.arange(len(dz)), batch.targets[:, 1:].T.ravel()] -= 1.0
    dz *= fwd["pred_mask"][:, 1:].T.reshape(-1, 1) / fwd["n_pred"]
    grads["out_W"] = dz.T @ fwd["top"]
    grads["out_b"] = dz.sum(axis=0)
    # d_res: the grad on the current layer's residual output (clean, pre-dropout)
    d_res = np.zeros((L, B, H))
    d_res[1:] = (dz @ params["out_W"]).reshape(L - 1, B, H)
    if fwd["top_mask"] is not None:
        d_res[1:] *= fwd["top_mask"]

    for layer in range(cfg.depth, 0, -1):
        inp, hs, cs, gates, tcs = fwd["layers"].pop()
        da = _layer_backward(d_res, params[f"l{layer}_Wh"], cs, gates, tcs).reshape(L * B, 4 * H)
        grads[f"l{layer}_Wx"] = da.T @ inp.reshape(L * B, -1)
        grads[f"l{layer}_Wh"] = da[B:].T @ hs[:-1].reshape(-1, H)
        grads[f"l{layer}_b"] = da.sum(axis=0)
        # layer 1: only the embedding columns; persist features are frozen
        Wx = params[f"l{layer}_Wx"] if layer >= 2 else params["l1_Wx"][:, :E]
        dinp = (da @ Wx).reshape(L, B, -1)
        if fwd["masks"] is not None:
            dinp *= fwd["masks"][layer - 1][..., : dinp.shape[2]]
        if layer >= 2:
            d_res += dinp  # the residual skip and the cell-input path both land on out_{l-1}

    grads["init_W"] = dinp[0].T @ batch.init
    grads["init_b"] = dinp[0].sum(axis=0)
    grads["embed"] = np.zeros_like(params["embed"])
    np.add.at(grads["embed"], batch.targets[:, :-1].T, dinp[1:])
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
    return fwd["top"] @ params["out_W"].T + params["out_b"], float(-loss * fwd["n_pred"])


def train_step(batch: Batch, params: Params, cfg: LMConfig, opt: OptState,
               rng) -> float:
    """One RMSProp update over the batch; returns the pre-update mean loss."""
    loss, grads = batch_loss_and_grads(params, cfg, batch, rng)
    rmsprop_update(params, grads, opt)
    return float(loss)


def perplexity(examples: list[Example], params: Params, cfg: LMConfig) -> float:
    """exp of the mean per-token negative log-likelihood, without dropout;
    NumericError where that is not a finite float (a mean NLL past about 709)."""
    if not examples:
        raise DataError("empty dataset")
    total, count = 0.0, 0
    for s in range(0, len(examples), 64):
        loss, fwd = _forward(params, cfg, make_batch(examples[s : s + 64]), None)
        total += loss * fwd["n_pred"]
        count += int(fwd["n_pred"])
    with np.errstate(over="ignore"):
        ppl = float(np.exp(total / count))
    if not np.isfinite(ppl):
        raise NumericError(f"perplexity is not finite: mean NLL per token {total / count:.6g}")
    return ppl


def fit_lm(params: Params, cfg: LMConfig, examples: list[Example], opt: OptState,
           rng: np.random.Generator, epochs: int = 10, batch_size: int = 16) -> list[float]:
    """Shuffled mini-batch training; returns the mean loss per epoch."""
    if batch_size < 1 or epochs < 0:
        raise ParameterError(f"need batch_size >= 1 and epochs >= 0, got {batch_size=}, {epochs=}")
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        losses = []
        for s in range(0, len(order), batch_size):
            chunk = [examples[j] for j in order[s : s + batch_size]]
            losses.append(train_step(make_batch(chunk), params, cfg, opt, rng))
        history.append(float(np.mean(losses)))
    return history


@dataclass
class LMHeader(LMConfig):
    """A VLMP checkpoint's header: the config, and the names of the features the
    model reads through each channel (None when it is bound to none)."""

    init_feature: str | None = None
    persist_feature: str | None = None


def save_lm(path, cfg: LMConfig, params: Params, init_feature: str | None = None,
            persist_feature: str | None = None) -> None:
    header = LMHeader(**asdict(cfg), init_feature=init_feature, persist_feature=persist_feature)
    binio.write_checkpoint(path, binio.LM_MAGIC, asdict(header), params)


def load_lm(path) -> tuple[LMConfig, Params, LMHeader]:
    header, tensors = binio.load(path, binio.LM_MAGIC, LMHeader, lm_param_shapes)
    return LMConfig(**{f.name: getattr(header, f.name) for f in fields(LMConfig)}), tensors, header
