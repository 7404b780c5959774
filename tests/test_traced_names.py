"""The benchmark's tracer wraps renov functions by name: each name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [f"renov.{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"renov.{layer}"), name, None))]
    assert missing == []
