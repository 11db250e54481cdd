"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

A function is wrapped in every module namespace its callers look it up in:
``run_experiment`` calls ``harness.fit_lm`` while the caption workload calls
``decoder.fit_lm``, and both feed the span ``decoder.fit_lm``. Every workload
reports every metric; a layer the workload does not run reads 0.
"""

from __future__ import annotations

from vidcap import binio, decoder, ensemble, evaluator, generation, harness, metrics, text

import workloads
from tracing import Tracer, wrapper_cost_s

# (span name, [(module, attribute) the callers use], options)
TRACED = [
    ("harness.run_experiment", [(harness, "run_experiment")], {}),
    # A fresh interpreter that only imports the program: the program's import time.
    ("python.cold_import", [(workloads, "cold_import")], {}),
    ("harness.synth_generate", [(harness, "synth_generate")], {}),
    ("harness.save_dataset", [(harness, "save_dataset")], {}),
    ("text.build_vocab", [(harness, "build_vocab"), (text, "build_vocab")], {}),
    ("decoder.fit_lm", [(harness, "fit_lm"), (decoder, "fit_lm")], {}),
    ("decoder.train_step", [(decoder, "train_step")], {}),
    ("decoder.perplexity", [(harness, "perplexity")], {}),
    ("numerics.rmsprop_update", [(decoder, "rmsprop_update"), (evaluator, "rmsprop_update")], {}),
    ("evaluator.train_evaluator", [(harness, "train_evaluator"),
                                   (evaluator, "train_evaluator")], {}),
    ("evaluator.sample_negatives", [(evaluator, "sample_negatives")], {}),
    ("evaluator.triple_loss_and_grads", [(evaluator, "triple_loss_and_grads")], {}),
    ("ensemble.generate_pool", [(harness, "generate_pool"), (ensemble, "generate_pool")], {}),
    ("ensemble.rerank", [(harness, "rerank"), (ensemble, "rerank")], {}),
    ("generation.beam_search_ids", [(generation, "beam_search_ids")], {"keep_result": True}),
    ("decoder.stack_step", [(generation, "stack_step")], {}),
    ("evaluator.encode_sentence", [(ensemble, "encode_sentence")], {"spans": False}),
    ("decoder.save_lm", [(decoder, "save_lm")], {}),
    ("decoder.load_lm", [(decoder, "load_lm")], {}),
    ("evaluator.save_evaluator", [(evaluator, "save_evaluator")], {}),
    ("evaluator.load_evaluator", [(evaluator, "load_evaluator")], {}),
    ("binio.read_checkpoint", [(binio, "read_checkpoint")], {}),
    ("metrics.score_captions", [(harness, "score_captions"), (metrics, "score_captions")], {}),
    ("metrics.bleu4", [(metrics, "bleu4")], {}),
    ("metrics.rouge_l", [(metrics, "rouge_l")], {}),
    ("metrics.cider_d", [(metrics, "cider_d")], {}),
    ("text.tokenize", [(metrics, "tokenize"), (evaluator, "tokenize"), (ensemble, "tokenize"),
                       (harness, "tokenize")], {"spans": False}),
]


def install(tracer: Tracer) -> None:
    for name, sites, options in TRACED:
        for module, attr in sites:
            tracer.wrap(module, attr, name, **options)
    tracer.watch_gc()


def _write_artifacts_s(tracer: Tracer) -> float:
    """From the first artifact write to the end of each run_experiment: the
    artifact block is the last thing run_experiment does."""
    total = 0.0
    for i, span in enumerate(tracer.spans):
        if span.name == "harness.run_experiment":
            saves = [s for s in tracer.spans if s.parent == i and s.name == "harness.save_dataset"]
            if saves:
                total += span.end - saves[0].start
    return total


def _program_share(tracer: Tracer) -> float:
    """Share of set-up and round time spent inside the program spans directly
    under them; the program's time outside any traced span lowers it."""
    phases = {i for i, s in enumerate(tracer.spans) if s.name in ("bench.setup", "bench.round")}
    phase_s = sum(tracer.spans[i].end - tracer.spans[i].start for i in phases)
    covered_s = sum(s.end - s.start for s in tracer.spans if s.parent in phases)
    return covered_s / phase_s


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    t, c = tracer.total_s, tracer.counts
    beams = tracer.results["generation.beam_search_ids"]
    span_cost, count_cost = wrapper_cost_s()
    n_spans = sum(1 for s in tracer.spans if not s.name.startswith("bench."))
    n_counted = c["evaluator.encode_sentence"] + c["text.tokenize"]
    return {
        "harness.synth_generate_s": (t("harness.synth_generate"), "s"),
        "text.build_vocab_s": (t("text.build_vocab"), "s"),
        "decoder.fit_lm_s": (t("decoder.fit_lm"), "s"),
        "decoder.train_step_s": (t("decoder.train_step"), "s"),
        "decoder.train_step_calls": (c["decoder.train_step"], "count"),
        "decoder.perplexity_s": (t("decoder.perplexity"), "s"),
        "evaluator.train_evaluator_s": (t("evaluator.train_evaluator"), "s"),
        "evaluator.train_evaluator_self_s": (tracer.self_s("evaluator.train_evaluator"), "s"),
        "evaluator.triple_loss_and_grads_s": (t("evaluator.triple_loss_and_grads"), "s"),
        "evaluator.triple_calls": (c["evaluator.triple_loss_and_grads"], "count"),
        "evaluator.sample_negatives_s": (t("evaluator.sample_negatives"), "s"),
        "numerics.rmsprop_update_s": (t("numerics.rmsprop_update"), "s"),
        "numerics.rmsprop_update_calls": (c["numerics.rmsprop_update"], "count"),
        "harness.write_artifacts_s": (_write_artifacts_s(tracer), "s"),
        "ensemble.generate_pool_s": (t("ensemble.generate_pool"), "s"),
        "ensemble.rerank_s": (t("ensemble.rerank"), "s"),
        "metrics.score_captions_s": (t("metrics.score_captions"), "s"),
        "generation.beam_search_ids_s": (t("generation.beam_search_ids"), "s"),
        "generation.beam_search_ids_calls": (c["generation.beam_search_ids"], "count"),
        "generation.beam_search_ids_p50_ms": (tracer.p50_ms("generation.beam_search_ids"), "ms"),
        "decoder.stack_step_s": (t("decoder.stack_step"), "s"),
        "decoder.stack_step_calls": (c["decoder.stack_step"], "count"),
        "generation.beam_self_s": (tracer.self_s("generation.beam_search_ids"), "s"),
        "generation.tokens_emitted": (sum(len(tokens) for tokens, _, _ in beams), "count"),
        "generation.completed_share": (
            sum(done for _, _, done in beams) / len(beams) if beams else 0.0, "share"),
        "evaluator.encode_sentence_calls": (c["evaluator.encode_sentence"], "count"),
        "binio.load_s": (t("binio.read_checkpoint"), "s"),
        "metrics.bleu4_s": (t("metrics.bleu4"), "s"),
        "metrics.rouge_l_s": (t("metrics.rouge_l"), "s"),
        "metrics.cider_d_s": (t("metrics.cider_d"), "s"),
        "text.tokenize_calls": (c["text.tokenize"], "count"),
        "python.gc_s": (tracer.gc_s, "s"),
        "python.gc_full_calls": (tracer.gc_full, "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.program_share": (_program_share(tracer), "share"),
        "trace.overhead_est_s": (n_spans * span_cost + n_counted * count_cost, "s"),
    }
