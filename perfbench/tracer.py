"""Per-layer spans recorded from outside the package.

The tracer wraps the module attributes that splinemask's own callers look up
(for example ``splinemask.pipeline.forward_amplitude``, which
``pipeline._forward`` calls through its module globals), records one span per
call, and puts the original functions back in ``restore``. Nothing inside
``src/`` is edited. A span's layer is the part of its name before the first
dot; the layers are the package modules.

Self time is a span's duration minus the durations of its direct children.
Calls are strictly nested on one thread, so the self times of all spans add up
to the duration of the root span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("spline", "geometry", "mesh", "optics", "objective", "gradient",
          "pipeline", "optimizer", "cli")

INFEASIBLE_ERRORS = frozenset({"SelfIntersectionError", "MeshError"})


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_evals(bound, result) -> dict:
    """Pixels times quadrature points over all meshes, from the argument sizes."""
    grid, quad = bound["grid"], bound["quad"]
    points = sum(mesh.num_triangles for mesh in bound["meshes"]) * quad.num_points
    return {"kernel_evals": grid.nx * grid.ny * points}


def _triangles(bound, result) -> dict:
    return {"triangles": result.num_triangles}


def _rejected(bound, result) -> dict:
    return {"rejects": int(bool(result))}


# (module, attribute, span name, annotate). Each entry wraps the attribute the
# calling module looks up, so a function imported into several modules is
# wrapped once per caller that matters.
TARGETS = (
    ("splinemask.pipeline", "build_collocation", "spline.collocation", None),
    ("splinemask.mesh", "polyline_self_intersects", "geometry.self_intersect", _rejected),
    ("splinemask.pipeline", "triangulate_region", "mesh.triangulate", None),
    ("splinemask.pipeline", "refine_mesh", "mesh.refine", _triangles),
    ("splinemask.pipeline", "forward_amplitude", "optics.forward", _kernel_evals),
    ("splinemask.pipeline", "objective_value", "objective.value", None),
    ("splinemask.pipeline", "amplitude_gradient", "gradient.amplitude", _kernel_evals),
    ("splinemask.pipeline", "objective_gradient", "gradient.objective", None),
    ("splinemask.pipeline", "evaluate_frozen", "pipeline.evaluate_frozen", None),
    ("splinemask.optimizer", "evaluate", "pipeline.evaluate", None),
    ("splinemask.optimizer", "gradient_of", "pipeline.gradient_of", None),
    ("splinemask.optimizer", "golden_section", "optimizer.line_search", None),
    ("splinemask.optimizer", "step", "optimizer.step", None),
    ("splinemask.cli", "evaluate", "pipeline.evaluate", None),
    ("splinemask.cli", "gradient_of", "pipeline.gradient_of", None),
    ("splinemask.cli", "finite_difference_gradient", "pipeline.fd_gradient", None),
    ("splinemask.cli", "optimize", "optimizer.optimize", None),
    ("splinemask.cli", "load_config", "cli.setup", None),
    ("splinemask.cli", "build_setup", "cli.setup", None),
    ("splinemask.cli", "write_convergence_csv", "cli.write", None),
    ("splinemask.cli", "write_mask_json", "cli.write", None),
    ("splinemask.cli", "write_boundary_svg", "cli.write", None),
    ("splinemask.cli", "_write_field_set", "cli.write", None),
)


class Tracer:
    """Records nested spans in memory; wraps and restores module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, error: str | None = None) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index)

    def wrap(self, name: str, fn, annotate=None):
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, type(exc).__name__)
                raise
            span = self._close(index)
            if annotate is not None:
                span.attrs = annotate(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; one the package no longer has is listed in `missing`."""
        for module_name, attr, name, annotate in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, annotate))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def span_cost_s(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    wrapped = time.perf_counter() - start
    return max(0.0, (wrapped - plain) / repeats)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _nearest(spans: list[Span], span: Span, names: tuple[str, ...]) -> str | None:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


# (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("spline.collocation.calls", "count"), ("spline.collocation.s", "s"),
    ("geometry.self_intersect.calls", "count"), ("geometry.self_intersect.s", "s"),
    ("geometry.self_intersect.rejects", "count"),
    ("mesh.triangulate.calls", "count"), ("mesh.triangulate.s", "s"),
    ("mesh.triangulate.failures", "count"), ("mesh.refine.s", "s"), ("mesh.triangles", "count"),
    ("optics.forward.calls", "count"), ("optics.forward.s", "s"),
    ("optics.forward.kernel_evals", "count"), ("optics.forward.ns_per_kernel_eval", "ns"),
    ("objective.value.calls", "count"), ("objective.value.s", "s"),
    ("gradient.amplitude.calls", "count"), ("gradient.amplitude.s", "s"),
    ("gradient.amplitude.kernel_evals", "count"), ("gradient.amplitude.ns_per_kernel_eval", "ns"),
    ("gradient.objective.s", "s"),
    ("pipeline.evaluate.calls", "count"), ("pipeline.evaluate.s", "s"),
    ("pipeline.evaluate_frozen.calls", "count"), ("pipeline.evaluate_frozen.s", "s"),
    ("pipeline.gradient_of.s", "s"),
    ("optimizer.step.calls", "count"), ("optimizer.step.s_p50", "s"), ("optimizer.step.s_max", "s"),
    ("optimizer.line_search.s", "s"), ("optimizer.evals_per_step", "evals/step"),
    ("optimizer.infeasible_trials", "count"), ("optimizer.feasible_ratio", "ratio"),
    ("optimizer.reevals", "count"),
    ("cli.setup.s", "s"), ("cli.write.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"), ("trace.missing_targets", "count"),
)


def layer_metrics(spans: list[Span], wall_s: float, span_cost: float,
                  missing: int = 0) -> dict[str, float]:
    """Every PER_LAYER metric of one traced command.

    `wall_s` is the command's traced wall time; `span_cost` is the measured
    cost of one span, so the overhead is spans times that cost. `missing`
    counts the targets the package no longer has, whose spans read 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        layer_self[span.name.split(".", 1)[0]] += own
        for key, value in span.attrs.items():
            attrs[f"{span.name}.{key}"] += value
        if span.error is not None:
            errors[span.name, span.error] += 1

    step_evals = infeasible = reevals = 0
    for span in spans:
        if span.name != "pipeline.evaluate":
            continue
        owner = _nearest(spans, span, ("optimizer.line_search", "optimizer.step"))
        if owner is None:
            continue
        step_evals += 1
        infeasible += span.error in INFEASIBLE_ERRORS
        reevals += owner == "optimizer.step"
    steps = [span.duration for span in spans if span.name == "optimizer.step"]

    def ns_per(name: str) -> float:
        evals = attrs[f"{name}.kernel_evals"]
        return self_s[name] / evals * 1e9 if evals else 0.0

    values = {
        "geometry.self_intersect.rejects": int(attrs["geometry.self_intersect.rejects"]),
        "mesh.triangulate.failures": errors["mesh.triangulate", "MeshError"],
        "mesh.triangles": int(attrs["mesh.refine.triangles"]),
        "optics.forward.kernel_evals": int(attrs["optics.forward.kernel_evals"]),
        "optics.forward.ns_per_kernel_eval": ns_per("optics.forward"),
        "gradient.amplitude.kernel_evals": int(attrs["gradient.amplitude.kernel_evals"]),
        "gradient.amplitude.ns_per_kernel_eval": ns_per("gradient.amplitude"),
        "optimizer.step.s_p50": statistics.median(steps) if steps else 0.0,
        "optimizer.step.s_max": max(steps, default=0.0),
        "optimizer.evals_per_step": step_evals / len(steps) if steps else 0.0,
        "optimizer.infeasible_trials": infeasible,
        "optimizer.feasible_ratio": (step_evals - infeasible) / step_evals if step_evals else 0.0,
        "optimizer.reevals": reevals,
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(selfs),
        "trace.overhead_s": len(spans) * span_cost,
        "trace.missing_targets": missing,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = calls[name] if kind == "calls" else self_s[name]
    return values
