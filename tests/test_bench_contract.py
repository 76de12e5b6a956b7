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
    """The CLI fills the layers its curve image runs through; one library mesh pass fills the mesh layers.

    No command meshes a region, so the annotators of the mesh, the mesh
    image and its gradient run only on the library path.
    """
    from splinemask import pipeline

    doc = desk_config(max_iters=1, regions=[{"num_samples": 16, "init_from_target": 0, "num_controls": 8}])
    doc["grid"] = {"nx": 12, "ny": 12, "pixel_nm": 20.0, "origin_nm": [-110.0, -110.0]}
    config = str(write_config(tmp_path, doc))

    def traced(run):
        recorder = tracer.Tracer()
        recorder.install()
        start = time.perf_counter()
        try:
            result = run()
        finally:
            recorder.restore()
        metrics = tracer.layer_metrics(recorder.spans, time.perf_counter() - start, 0.0,
                                       len(recorder.missing))
        assert metrics["trace.missing_targets"] == 0
        return result, metrics

    codes, metrics = traced(lambda: [main(["--quiet", "optimize", "--config", config, "--out", str(tmp_path / "out")]),
                                     main(["--quiet", "gradcheck", "--config", config])])
    assert codes == [0, 0]
    for name in ("spline.collocation.calls", "geometry.self_intersect.calls", "objective.value.calls",
                 "pipeline.evaluate.calls", "pipeline.gradient_of.s", "optimizer.step.calls",
                 "optimizer.line_search.s", "cli.setup.s", "cli.write.s"):
        assert metrics[name] > 0, name
    for name in ("mesh.triangulate.calls", "mesh.triangles", "optics.forward.calls", "gradient.amplitude.calls"):
        assert metrics[name] == 0, name

    _, problem, regions, _, _ = build_setup(parse_config(doc))

    def mesh_pass():
        systems = evaluate(problem, regions).systems
        frozen = pipeline.evaluate_frozen(problem, systems, [r.controls for r in regions])
        return pipeline.frozen_gradient_of(problem, frozen)

    _, metrics = traced(mesh_pass)
    for name in ("mesh.triangles", "optics.forward.kernel_evals", "gradient.amplitude.kernel_evals"):
        assert metrics[name] > 0, name


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


def test_no_trial_meshes_a_region(monkeypatch):
    """A line-search trial images its sample loops exactly: no trial calls `pipeline.triangulate_region`.

    The `mesh.triangulate` span wraps that name, so a CLI run records no
    meshing at all.
    """
    from splinemask import optimizer, pipeline

    doc = desk_config(regions=[{"num_samples": 20, "init_from_target": t, "num_controls": 10} for t in (0, 1)])
    doc["target_polygons_nm"] = [[[-140.0, -100.0], [-20.0, -100.0], [-20.0, 100.0], [-140.0, 100.0]],
                                 [[20.0, -100.0], [140.0, -100.0], [140.0, 100.0], [20.0, 100.0]]]
    _, problem, regions, _, _ = build_setup(parse_config(doc))
    state = OptimizationState(evaluate(problem, regions))
    trials, meshed = [], []

    def counted_evaluate(problem, regions, near=None):
        trials.append(regions)
        return evaluate(problem, regions, near)

    monkeypatch.setattr(optimizer, "evaluate", counted_evaluate)
    monkeypatch.setattr(pipeline, "triangulate_region", lambda *args: meshed.append(args))
    _, alpha = step(state, problem, OptimizerConfig())
    assert alpha > 0
    assert len(trials) > 0
    assert meshed == []
