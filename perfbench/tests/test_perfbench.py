"""Tests of the benchmark harness's own logic. Run: python3 -m pytest perfbench/tests"""
import importlib
import json
from pathlib import Path

import pytest

import run
import worker
from tracer import LAYERS, PER_LAYER, TARGETS, Span, Tracer, layer_metrics, self_times


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("cli.main", None, 0.0, 10.0),
        Span("pipeline.evaluate", 0, 1.0, 4.0),
        Span("optics.forward", 1, 2.0, 3.0),
        Span("pipeline.gradient_of", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_records_nesting_errors_and_annotations():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("geometry.leaf", leaf, annotate=lambda bound, result: {"x": bound["x"]})
    traced_outer = tracer.wrap("mesh.outer", lambda: traced_leaf(3) + traced_leaf(x=4))
    with tracer.span("cli.main"):
        assert traced_outer() == 7
        with pytest.raises(ValueError):
            traced_leaf(-1)

    names = [(s.name, s.parent, s.error, s.attrs) for s in tracer.spans]
    assert names == [
        ("cli.main", None, None, {}),
        ("mesh.outer", 0, None, {}),
        ("geometry.leaf", 1, None, {"x": 3}),
        ("geometry.leaf", 1, None, {"x": 4}),
        ("geometry.leaf", 0, "ValueError", {}),
    ]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_optimizer_counts_classify_evaluations():
    spans = [
        Span("optimizer.optimize", None, 0.0, 20.0),
        Span("pipeline.evaluate", 0, 0.0, 1.0),                      # initial: not a trial
        Span("optimizer.step", 0, 1.0, 10.0),
        Span("optimizer.line_search", 2, 2.0, 8.0),
        Span("pipeline.evaluate", 3, 2.0, 4.0),
        Span("pipeline.evaluate", 3, 4.0, 5.0, error="SelfIntersectionError"),
        Span("mesh.triangulate", 5, 4.0, 5.0, error="SelfIntersectionError"),
        Span("pipeline.evaluate", 2, 8.0, 10.0),                     # re-evaluation by step
    ]
    values = layer_metrics(spans, wall_s=20.0, span_cost=0.0)
    assert values["optimizer.step.calls"] == 1
    assert values["optimizer.evals_per_step"] == 3.0
    assert values["optimizer.infeasible_trials"] == 1
    assert values["optimizer.reevals"] == 1
    assert values["optimizer.feasible_ratio"] == pytest.approx(2 / 3)
    assert values["mesh.triangulate.failures"] == 0          # a crossing is a geometry reject
    assert values["optimizer.step.s_p50"] == values["optimizer.step.s_max"] == 9.0
    assert values["trace.self_sum_s"] == 20.0
    assert set(values) == {name for name, _ in PER_LAYER}


TINY = {
    "grid": {"nx": 8, "ny": 8, "pixel_nm": 50.0, "origin_nm": [-175.0, -175.0]},
    "target_polygons_nm": [run.SQUARE],
    "regions": [{"num_samples": 16, "init_from_target": 0, "num_controls": 6}],
    "optimizer": {"max_iters": 1, "refine_area_tol": 0.2},
}


def test_traced_command_restores_every_wrapped_attribute(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    spec = {"trace": True, "epe_of_setup": False, "config": str(config),
            "argv": ["--quiet", "optimize", "--config", str(config), "--out", str(tmp_path / "out")]}
    result = worker.run_command(spec)
    assert result["rc"] == 0
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"
    layers = result["layers"]
    assert layers["pipeline.evaluate.calls"] >= 2
    assert layers["cli.write.s"] > 0
    assert sum(layers[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(layers["trace.self_sum_s"])
    assert layers["trace.self_sum_s"] <= layers["trace.wall_s"]


def test_seeded_configs_are_deterministic_and_seed_zero_is_canonical():
    assert run.workload_config("twin", 0) == run.WORKLOADS["twin"].config
    first, again = run.workload_config("twin", 7), run.workload_config("twin", 7)
    assert first == again != run.workload_config("twin", 8)
    region = first["regions"][1]
    assert "init_from_target" not in region and len(region["controls_nm"]) == 16
    assert run.workload_config("desk", 7) == run.WORKLOADS["desk"].config


def test_gate_rejects_increasing_objective(tmp_path):
    (tmp_path / "convergence.csv").write_text("iter,J,alpha\n0,0.2,0\n1,0.1,0.5\n2,0.15,0.5\n")
    unit = {"rc": 0}
    assert run.check_unit("full", unit, tmp_path) == "J increased along convergence.csv"
    assert run.check_unit("twin", {"rc": 0, "stdout_tail": ["max mixed error 1e-3 -> FAIL"]},
                          tmp_path).startswith("gradcheck said")
    assert run.check_unit("desk", {"rc": 1}, tmp_path) == "exit code 1"


def test_missing_target_is_listed_not_fatal():
    tracer = Tracer()
    tracer.install([("splinemask.pipeline", "no_such_function", "pipeline.none", None)])
    assert tracer.missing == ["splinemask.pipeline.no_such_function"]
    tracer.restore()


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == ["desk", "twin"]
    assert set(run.WORKLOADS) == {"desk", "full", "twin"}
