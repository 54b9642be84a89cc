"""The benchmark's tracer patches named bindings of the library; a binding it
cannot find is only reported as "not traced" and reads as zero time in its
per-layer metric.  Check here that every binding it names exists."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    tracing = _load_tracing()
    missing = [f"{owner}.{attr}" for owner, attr, *_ in tracing.TARGETS
               if attr not in tracing._resolve(owner).__dict__]
    assert missing == []
