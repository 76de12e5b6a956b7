"""The benchmark reaches into the package by name; each name it uses must exist.

The tracer wraps package attributes by name. A traced run lists a vanished
target in `trace.missing_targets` and records no span for it, so a rename
would silently drop a layer from the benchmark. Its annotators also bind
arguments by name (`meshes`, `grid`, `quad`) and read `num_triangles` and
`num_points`, which only a traced run exercises. The untraced runs call the
package too: the worker's set-up probe and EPE report, and the runner's
seeded configs. A break there fails `setup_s` and `epe_final_px` on every run.
"""
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from splinemask.cli import build_setup, main, parse_config
from splinemask.optimizer import OptimizationState, OptimizerConfig, step
from splinemask.pipeline import evaluate

from test_cli import desk_config, write_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name: str, path: Path):
    """Import a benchmark file by path as module `name`, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return load(monkeypatch, "tracer", PERFBENCH / "tracer.py")  # the name run.py imports it by


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


def test_untraced_entry_points_run(tracer, monkeypatch, tmp_path):
    run = load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    worker = load(monkeypatch, "perfbench_worker", PERFBENCH / "worker.py")
    doc = run.workload_config("twin", 7)  # a seed other than 0 places controls through the package
    doc["grid"] = {"nx": 12, "ny": 10, "pixel_nm": 40.0, "origin_nm": [-220.0, -180.0]}
    for region in doc["regions"]:
        region["num_samples"] = 16
    config = write_config(tmp_path, doc)
    spec = {"config": str(config), "trace": False, "epe_of_setup": True}
    assert "t_end" in worker.setup_probe(spec)
    result = worker.run_command({**spec, "argv": ["--quiet", "gradcheck", "--config", str(config)]})
    assert result["rc"] == 0, result["stdout_tail"]
    assert isinstance(result["epe_count"], int)


def test_every_trial_meshes_each_region_from_the_iterates_triangles(monkeypatch):
    """A line-search trial re-meshes each region through `pipeline.triangulate_region`, from the iterate's triangles.

    The `mesh.triangulate` span wraps that name, so it times the meshing of
    every trial however the trial meshes.
    """
    from splinemask import optimizer, pipeline

    doc = desk_config(regions=[{"num_samples": 20, "init_from_target": t, "num_controls": 10} for t in (0, 1)])
    doc["target_polygons_nm"] = [[[-140.0, -100.0], [-20.0, -100.0], [-20.0, 100.0], [-140.0, 100.0]],
                                 [[20.0, -100.0], [140.0, -100.0], [140.0, 100.0], [20.0, 100.0]]]
    _, problem, regions, _, _ = build_setup(parse_config(doc))
    state = OptimizationState(evaluate(problem, regions))
    trials, handed = [], []
    triangulate = pipeline.triangulate_region

    def counted_evaluate(problem, regions, starts=None):
        trials.append(starts)
        return evaluate(problem, regions, starts)

    def recorded_triangulate(samples, start=None):
        handed.append(start)
        return triangulate(samples, start)

    monkeypatch.setattr(optimizer, "evaluate", counted_evaluate)
    monkeypatch.setattr(pipeline, "triangulate_region", recorded_triangulate)
    _, alpha = step(state, problem, OptimizerConfig())
    assert alpha > 0
    iterate = [system.base_triangles for system in state.evaluation.systems]
    assert all(given is state.evaluation.systems for given in trials)
    assert len(handed) == len(trials) * len(iterate) > 0
    for k, start in enumerate(handed):
        assert start is iterate[k % len(iterate)]
