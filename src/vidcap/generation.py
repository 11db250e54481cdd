"""Beam-search caption generation from a trained decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import LMConfig, zero_states, stack_step
from .errors import DimensionError, NumericError, ParameterError
from .numerics import Params, check_fits_in_memory, log_softmax
from .text import PAD, BOS, EOS, UNK


@dataclass
class GenerationConfig:
    beam_size: int = 5
    max_len: int = 30

    def __post_init__(self):
        if self.beam_size < 1:
            raise ParameterError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ParameterError(f"max_len must be >= 1, got {self.max_len}")


def check_beam_fits(gen_cfg: GenerationConfig, lm_cfg: LMConfig, tag: str) -> None:
    """ParameterError when a beam step of model `tag` could not fit in memory:
    its (beam_size, vocabulary) score matrix and every layer's (h, c) states."""
    check_fits_in_memory({"scores": (gen_cfg.beam_size, lm_cfg.vocab_size),
                          "states": (2 * lm_cfg.depth, gen_cfg.beam_size, lm_cfg.hidden)},
                         f"the beam scores and states of model {tag!r}")


def beam_search_ids(params: Params, lm_cfg: LMConfig, init_vec, persist_vec,
                    gen_cfg: GenerationConfig) -> tuple[list[int], float, bool]:
    """Best emitted token sequence, its summed log-prob and a completed flag.

    Standard beam search: every live hypothesis expands over the full
    vocabulary (PAD/BOS/UNK banned from emission), the top `beam_size`
    expansions survive, and expansions ending in EOS or reaching max_len
    retire. The best EOS-completed hypothesis wins; if none completed, the
    best truncated one is returned.

    Ties break exactly: expansions rank by (-score, token tuple), so among
    equal scores the lexicographically smaller sequence survives, and the
    final pick ranks retired hypotheses the same way.

    The search stops once the best EOS-completed score is strictly above every
    live score (Huang, Zhao and Ma, "When to Finish? Optimal Beam Search for
    Neural Text Generation", EMNLP 2017). The stop is exact: log-probs are
    <= 0 and adding a non-positive double never rounds upward, so no live
    score can rise; the inequality is strict, so a live hypothesis that could
    still tie, and win on its token tuple, keeps the search going. A beam
    where nothing completes runs all max_len steps.

    Each step selects from the flat beam x vocabulary score matrix (live
    log-probs added into the log-softmax output in place): one partition finds
    the `beam_size`-th best score, one `np.flatnonzero` keeps every finite
    entry tied with or above it, divmod by the vocabulary size gives parent
    row and token, and one `np.lexsort` orders them by score, prefix rank and
    token. The live beam is held as arrays (prefix matrix, log-prob vector,
    batched LSTM states) gathered by parent row.
    """
    init_vec = np.asarray(init_vec, dtype=np.float64)
    persist_vec = np.asarray(persist_vec, dtype=np.float64)
    if init_vec.shape != (lm_cfg.init_dim,):
        raise DimensionError(f"init feature {init_vec.shape} != ({lm_cfg.init_dim},)")
    if persist_vec.shape != (lm_cfg.persist_dim,):
        raise DimensionError(f"persist feature {persist_vec.shape} != ({lm_cfg.persist_dim},)")

    # Step 0: the projected init feature plays the role of a word embedding.
    x0 = np.concatenate([params["init_W"] @ init_vec + params["init_b"], persist_vec])
    _, states0 = stack_step(x0, zero_states(lm_cfg), params, lm_cfg)

    banned = [t for t in (PAD, BOS, UNK) if t < lm_cfg.vocab_size]
    k = gen_cfg.beam_size
    # Live beam, one row per hypothesis; column 0 of every prefix is BOS.
    prefixes = np.full((1, 1), BOS, dtype=np.int64)
    logprob = np.zeros(1)
    states = [(h[None], c[None]) for h, c in states0]
    persist_rows = np.broadcast_to(persist_vec, (k, len(persist_vec)))  # a view: no copy
    completed: list[tuple[list[int], float]] = []
    truncated: list[tuple[list[int], float]] = []

    for step in range(gen_cfg.max_len):
        x = np.concatenate([params["embed"][prefixes[:, -1]], persist_rows[:len(prefixes)]],
                           axis=1)
        top, new_states = stack_step(x, states, params, lm_cfg)
        scores = log_softmax(top @ params["out_W"].T + params["out_b"], axis=1)
        scores[:, banned] = -np.inf
        scores += logprob[:, None]

        # Keep every finite entry tied with or above the k-th best score; the
        # sort below breaks the tie. Negated, NaN partitions past every number,
        # so the cut is NaN only when fewer than k entries are numbers.
        flat = scores.ravel()
        cut = -np.partition(-flat, k - 1)[k - 1] if flat.size > k else -np.inf
        idx = np.flatnonzero(flat >= cut if cut > -np.inf else flat > -np.inf)
        parent, tok = np.divmod(idx, scores.shape[1])
        score = flat[idx]
        # Live prefixes are distinct and of one length, so (prefix rank, token)
        # orders expansions as their token tuples do.
        prefix_rank = np.argsort(np.lexsort(prefixes.T[::-1]))
        kept = np.lexsort((tok, prefix_rank[parent], -score))[:k]
        parent, tok, score = parent[kept], tok[kept], score[kept]
        prefixes = np.concatenate([prefixes[parent], tok[:, None]], axis=1)

        eos = tok == EOS
        live = ~eos if step + 1 < gen_cfg.max_len else np.zeros_like(eos)
        for row in np.flatnonzero(~live):
            retired = completed if eos[row] else truncated
            retired.append((prefixes[row, 1:].tolist(), float(score[row])))
        prefixes, logprob = prefixes[live], score[live]
        if not (logprob >= max((lp for _, lp in completed), default=-np.inf)).any():
            break  # the beam is empty, or no live hypothesis can reach the best completed one
        rows = parent[live]
        states = [(h[rows], c[rows]) for h, c in new_states]

    if not (completed or truncated):  # every score was NaN: the model's outputs overflow
        raise NumericError("beam search found no hypothesis with a finite log-prob")
    tokens, lp = min(completed or truncated, key=lambda hyp: (-hyp[1], tuple(hyp[0])))
    return tokens, lp, bool(completed)
