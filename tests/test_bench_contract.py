"""The benchmark tracer wraps package attributes by name; each one must exist.

A traced run lists a vanished target in `trace.missing_targets` and records
no span for it, so a rename would silently drop a layer from the benchmark.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up here
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
