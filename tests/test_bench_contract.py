"""The benchmark tracer wraps package attributes by name; each one must exist.

A traced run lists a vanished target in `trace.missing_targets` and records
no span for it, so a rename would silently drop a layer from the benchmark.
Its annotators also bind arguments by name (`meshes`, `grid`, `quad`) and read
`num_triangles` and `num_points`, which only a traced run exercises.
"""
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from splinemask.cli import main

from test_cli import desk_config, write_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(tracer):
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_commands_fill_the_layer_metrics(tracer, tmp_path):
    doc = desk_config(max_iters=1, regions=[{"num_samples": 16, "init_from_target": 0, "num_controls": 8}])
    doc["grid"] = {"nx": 12, "ny": 12, "pixel_nm": 20.0, "origin_nm": [-110.0, -110.0]}
    config = str(write_config(tmp_path, doc))
    recorder = tracer.Tracer()
    recorder.install()
    start = time.perf_counter()
    try:
        codes = [main(["--quiet", "optimize", "--config", config, "--out", str(tmp_path / "out")]),
                 main(["--quiet", "gradcheck", "--config", config])]
    finally:
        recorder.restore()
    metrics = tracer.layer_metrics(recorder.spans, time.perf_counter() - start, 0.0,
                                   len(recorder.missing))
    assert codes == [0, 0]
    for name in ("mesh.triangles", "optics.forward.kernel_evals", "gradient.amplitude.kernel_evals"):
        assert metrics[name] > 0, name
    assert metrics["trace.missing_targets"] == 0
