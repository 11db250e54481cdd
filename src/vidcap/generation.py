"""Beam-search caption generation from a trained decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import LMConfig, zero_states, stack_step
from .errors import ParameterError
from .numerics import Params, log_softmax
from .text import PAD, BOS, EOS, UNK, Vocabulary, decode


@dataclass
class GenerationConfig:
    beam_size: int = 5
    max_len: int = 30

    def __post_init__(self):
        if self.beam_size < 1:
            raise ParameterError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ParameterError(f"max_len must be >= 1, got {self.max_len}")


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
    final pick ranks retired hypotheses the same way. Each step is vectorised
    over the beam x vocabulary score matrix: the top-k keeps every entry tied
    with the `beam_size`-th best, and one `np.lexsort` orders those by score,
    prefix rank and token. The live beam is held as arrays (prefix matrix,
    log-prob vector, batched LSTM states) gathered by parent row.
    """
    init_vec = np.asarray(init_vec, dtype=np.float64)
    persist_vec = np.asarray(persist_vec, dtype=np.float64)

    # Step 0: the projected init feature plays the role of a word embedding.
    x0 = np.concatenate([params["init_W"] @ init_vec + params["init_b"], persist_vec])
    _, states0 = stack_step(x0, zero_states(lm_cfg), params, lm_cfg)

    banned = [t for t in (PAD, BOS, UNK) if t < lm_cfg.vocab_size]
    k = gen_cfg.beam_size
    # Live beam, one row per hypothesis; column 0 of every prefix is BOS.
    prefixes = np.full((1, 1), BOS, dtype=np.int64)
    logprob = np.zeros(1)
    states = [(h[None], c[None]) for h, c in states0]
    completed: list[tuple[list[int], float]] = []
    truncated: list[tuple[list[int], float]] = []

    for step in range(gen_cfg.max_len):
        if not len(prefixes):
            break
        x = np.concatenate(
            [params["embed"][prefixes[:, -1]], np.tile(persist_vec, (len(prefixes), 1))], axis=1)
        top, new_states = stack_step(x, states, params, lm_cfg)
        logp = log_softmax(top @ params["out_W"].T + params["out_b"], axis=1)
        logp[:, banned] = -np.inf

        scores = logprob[:, None] + logp
        parent, tok = np.nonzero(np.isfinite(scores))
        score = scores[parent, tok]
        if len(score) > k:
            # Keep every entry tied with the k-th best; the sort below breaks the tie.
            cut = np.partition(score, len(score) - k)[len(score) - k]
            top_k = score >= cut
            parent, tok, score = parent[top_k], tok[top_k], score[top_k]
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
        states = [(h[parent[live]], c[parent[live]]) for h, c in new_states]

    tokens, lp = min(completed or truncated, key=lambda hyp: (-hyp[1], tuple(hyp[0])))
    return tokens, lp, bool(completed)


def beam_search(params: Params, lm_cfg: LMConfig, init_vec, persist_vec,
                gen_cfg: GenerationConfig, vocab: Vocabulary) -> tuple[str, float]:
    """Decoded best caption and its cumulative log-probability."""
    tokens, logprob, _ = beam_search_ids(params, lm_cfg, init_vec, persist_vec, gen_cfg)
    return decode(tokens, vocab), logprob
