"""The traced benchmark run wraps program functions by module attribute
(`bench/layers.py`, TRACED); one renamed or deleted here would end every
traced run in an AttributeError, and one the program no longer calls through
that attribute would leave its per-layer metric reading 0."""

import importlib.util
import sys
from pathlib import Path

from vidcap import harness

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Traced names a default run_experiment does not call: the cold import and the
# checkpoint round trip belong to the other workloads, and the rest are sites
# the program stopped calling (the benchmark still has to re-point them).
IDLE_IN_RUN_EXPERIMENT = {
    "python.cold_import", "evaluator.sample_negatives", "evaluator.encode_sentence",
    "decoder.save_lm", "decoder.load_lm", "evaluator.save_evaluator",
    "evaluator.load_evaluator", "binio.read_checkpoint",
    "metrics.bleu4", "metrics.rouge_l", "metrics.cider_d",
}


def _layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_site_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    sites = [(module, attr) for _, where, _ in layers.TRACED for module, attr in where]
    assert len(sites) > 30
    missing = [f"{module.__name__}.{attr}" for module, attr in sites if not hasattr(module, attr)]
    assert missing == []


def test_traced_sites_are_reached(monkeypatch, tmp_path):
    layers = _layers(monkeypatch)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        cfg = harness.ExperimentConfig(lm_epochs=1, eval_epochs=1,
                                       synth=harness.SynthConfig(n_videos=40))
        harness.run_experiment(cfg, out_dir=tmp_path)
    finally:
        tracer.unwrap_all()
    idle = {name for name, _, _ in layers.TRACED if tracer.counts[name] == 0}
    assert idle == IDLE_IN_RUN_EXPERIMENT
