"""The benchmark's tracer finds its targets by name; a renamed or deleted
target silently turns its layer's metrics into -1.  These tests pin every
name it resolves, reading bench/tracer.py without installing it."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    missing = []
    for layer, targets in tracer.LAYERS.items():
        for module_name, qualname in targets:
            owner = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {module_name}:{qualname}")
    assert missing == []


def test_cache_counters_resolve():
    simplify_module = importlib.import_module("sdesym.expr.simplify")
    calculus = importlib.import_module("sdesym.expr.calculus")
    assert isinstance(simplify_module._cache, dict)
    assert callable(calculus.differentiate.cache_info)
