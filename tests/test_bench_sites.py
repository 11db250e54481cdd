"""The traced benchmark run wraps program functions by module attribute
(`bench/layers.py`, TRACED); one renamed or deleted here would end every
traced run in an AttributeError."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = [(module, attr) for _, where, _ in layers.TRACED for module, attr in where]
    assert len(sites) > 30
    missing = [f"{module.__name__}.{attr}" for module, attr in sites if not hasattr(module, attr)]
    assert missing == []
