"""Plain-loop reference decoders for the beam-search tests.

`ref_beam_search_ids` expands every live hypothesis over the vocabulary one
Python tuple at a time and sorts the whole expansion list; `greedy_ids` is
argmax decoding written independently of any beam machinery. Both serve as
oracles for `vidcap.generation.beam_search_ids`, in the same spirit as
`reference_metrics.py` for the metrics.
"""

import numpy as np

from vidcap.decoder import stack_step, zero_states
from vidcap.numerics import log_softmax
from vidcap.text import BOS, EOS, PAD, UNK


def ref_beam_search_ids(params, lm_cfg, init_vec, persist_vec, gen_cfg):
    """(tokens, logprob, completed) by the per-expansion loop: expansions sort
    by (-score, token tuple); the final pick ranks retired hypotheses the same
    way."""
    init_vec = np.asarray(init_vec, dtype=np.float64)
    persist_vec = np.asarray(persist_vec, dtype=np.float64)
    x0 = np.concatenate([params["init_W"] @ init_vec + params["init_b"], persist_vec])
    _, states0 = stack_step(x0, zero_states(lm_cfg), params, lm_cfg)

    banned = [t for t in (PAD, BOS, UNK) if t < lm_cfg.vocab_size]
    live = [([], 0.0, states0)]  # (tokens, logprob, per-layer (h, c))
    completed, truncated = [], []

    for _ in range(gen_cfg.max_len):
        if not live:
            break
        last = [tokens[-1] if tokens else BOS for tokens, _, _ in live]
        x = np.concatenate(
            [params["embed"][last], np.tile(persist_vec, (len(live), 1))], axis=1)
        batched = [
            (np.stack([s[l][0] for _, _, s in live]), np.stack([s[l][1] for _, _, s in live]))
            for l in range(lm_cfg.depth)
        ]
        top, new_states = stack_step(x, batched, params, lm_cfg)
        logp = log_softmax(top @ params["out_W"].T + params["out_b"], axis=1)
        logp[:, banned] = -np.inf

        expansions = []
        for bi, (tokens, logprob, _) in enumerate(live):
            for tok in range(lm_cfg.vocab_size):
                score = logprob + logp[bi, tok]
                if np.isfinite(score):
                    expansions.append((score, tokens + [tok], bi, tok))
        expansions.sort(key=lambda e: (-e[0], tuple(e[1])))

        live = []
        for score, tokens, bi, tok in expansions[: gen_cfg.beam_size]:
            hyp = (tokens, float(score), [(h[bi], c[bi]) for h, c in new_states])
            if tok == EOS:
                completed.append(hyp)
            elif len(tokens) >= gen_cfg.max_len:
                truncated.append(hyp)
            else:
                live.append(hyp)

    tokens, logprob, _ = min(completed or truncated, key=lambda hyp: (-hyp[1], tuple(hyp[0])))
    return tokens, logprob, bool(completed)


def greedy_ids(params, lm_cfg, init_vec, persist_vec, max_len=30):
    """Plain argmax decoding, written independently of the beam machinery."""
    init_vec = np.asarray(init_vec, dtype=np.float64)
    persist_vec = np.asarray(persist_vec, dtype=np.float64)
    x = np.concatenate([params["init_W"] @ init_vec + params["init_b"], persist_vec])
    _, states = stack_step(x, zero_states(lm_cfg), params, lm_cfg)
    banned = [t for t in (PAD, BOS, UNK) if t < lm_cfg.vocab_size]
    tokens = []
    total = 0.0
    prev = BOS
    for _ in range(max_len):
        x = np.concatenate([params["embed"][prev], persist_vec])
        top, states = stack_step(x, states, params, lm_cfg)
        logp = log_softmax(top @ params["out_W"].T + params["out_b"])
        logp[banned] = -np.inf
        tok = int(np.argmax(logp))
        tokens.append(tok)
        total += float(logp[tok])
        if tok == EOS:
            break
        prev = tok
    return tokens, total
