"""Steepest descent on control points with golden-section step sizing.

Each trial step rebuilds the full geometry chain (samples, mesh, provenance)
at the displaced controls; trial boundaries that self-intersect or fail to
mesh score +inf so the line search backs away from them. After an accepted
step everything is regenerated from scratch, so the analytic gradient at the
next iterate again sees a consistent frozen topology.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SelfIntersectionError, polygon_perimeter_points, polygon_signed_area
from .mesh import MeshError
from .optics import OpticalConfig
from .pipeline import ImagingProblem, MaskEvaluation, evaluate, gradient_of
from .spline import PeriodicSplineRegion

logger = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest control move per step, in normalized units, when alpha_max is None.
MAX_DISPLACEMENT = 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Loop controls: iteration cap, stopping thresholds, line-search knobs.

    `refine_area_tol` is the largest triangle area, in normalized units, of
    the meshes every step regenerates; it becomes `ImagingProblem.refine_max_area`.
    """

    max_iters: int = 100
    eps: float = 1e-4          # stop when the objective drops below this
    eps_alpha: float = 1e-4    # stop when the accepted step size drops below this
    alpha_max: float | None = None  # line-search bracket; None caps displacement instead
    gs_tol: float = 1e-5
    refine_area_tol: float = 0.02

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        for name in ("eps", "eps_alpha", "gs_tol", "refine_area_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.alpha_max is not None and not 0 < self.alpha_max < math.inf:
            raise ValueError("alpha_max must be positive and finite, or None")


@dataclass
class TraceEntry:
    iteration: int
    objective: float
    alpha: float


@dataclass
class OptimizationState:
    """Mutable loop state: current evaluation and the accepted-step trace."""

    evaluation: MaskEvaluation
    iteration: int = 0
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.evaluation.objective

    @property
    def controls(self) -> list[np.ndarray]:
        return [s.region.controls for s in self.evaluation.systems]


def golden_section(phi, alpha_max: float, tol: float) -> tuple[float, float]:
    """Minimize phi on [0, alpha_max] by golden-section search.

    Returns (alpha, phi(alpha)) for the best interior evaluation once the
    bracket width drops below tol. phi may return +inf for infeasible trials.
    """
    a, b = 0.0, float(alpha_max)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = phi(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _try_evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion]):
    try:
        return evaluate(problem, regions)
    except (SelfIntersectionError, MeshError):
        return None


def step(state: OptimizationState, problem: ImagingProblem,
         opt: OptimizerConfig) -> tuple[OptimizationState, float, bool]:
    """One steepest-descent step with golden-section sizing and full regeneration.

    Returns (state, alpha, accepted). The step is accepted only if the line
    search found a strict objective decrease.
    """
    grads = gradient_of(problem, state.evaluation)
    gmax = max((float(np.max(np.hypot(g[:, 0], g[:, 1]))) for g in grads), default=0.0)
    if gmax < 1e-12:
        return state, 0.0, False
    alpha_max = opt.alpha_max if opt.alpha_max is not None else MAX_DISPLACEMENT / gmax
    regions = [s.region for s in state.evaluation.systems]

    def controls_at(alpha: float):
        return [r.with_controls(r.controls - alpha * g) for r, g in zip(regions, grads)]

    scored: dict[float, MaskEvaluation | None] = {}

    def phi(alpha: float) -> float:
        trial = scored[alpha] = _try_evaluate(problem, controls_at(alpha))
        return trial.objective if trial is not None else math.inf

    alpha, j_alpha = golden_section(phi, alpha_max, opt.gs_tol)
    if not (j_alpha < state.objective):
        return state, 0.0, False

    # golden_section returns one of the alphas phi scored, with its value; a
    # value below the current objective is finite, so that trial was feasible
    new_state = OptimizationState(
        evaluation=scored[alpha],
        iteration=state.iteration + 1,
        trace=state.trace,
    )
    return new_state, alpha, True


@dataclass(frozen=True)
class OptimizationResult:
    state: OptimizationState
    initial: MaskEvaluation

    @property
    def trace(self) -> list[TraceEntry]:
        return self.state.trace

    @property
    def final(self) -> MaskEvaluation:
        return self.state.evaluation


def optimize(regions: list[PeriodicSplineRegion], problem: ImagingProblem,
             opt: OptimizerConfig) -> OptimizationResult:
    """Run the descent loop until the objective or step size drops below tolerance.

    Raises if the initial boundary is self-intersecting. The trace records the
    initial state and every accepted step; objective values along it are
    non-increasing.
    """
    regions = [_ccw_region(r) for r in regions]
    evaluation = evaluate(problem, regions)
    state = OptimizationState(evaluation=evaluation)
    state.trace.append(TraceEntry(0, evaluation.objective, 0.0))
    initial = evaluation

    while state.objective > opt.eps and state.iteration < opt.max_iters:
        candidate, alpha, accepted = step(state, problem, opt)
        if not accepted or alpha < opt.eps_alpha:
            logger.info("stopping: step size %.3g below tolerance", alpha)
            break
        state = candidate
        state.trace.append(TraceEntry(state.iteration, state.objective, alpha))
        logger.info("iter %d  J=%.6g  alpha=%.4g", state.iteration, state.objective, alpha)
    return OptimizationResult(state=state, initial=initial)


def _ccw_region(region: PeriodicSplineRegion) -> PeriodicSplineRegion:
    """Reverse the control loop if it runs clockwise; the curve itself is unchanged."""
    if polygon_signed_area(region.controls) < 0:
        return region.with_controls(region.controls[::-1].copy())
    return region


def init_controls_from_target(polygons, num_controls, num_samples,
                              degree: int = PeriodicSplineRegion.degree,
                              magnification: float = OpticalConfig.magnification,
                              ) -> list[PeriodicSplineRegion]:
    """Initial regions with `num_controls` controls equally spaced along each target polygon.

    Every region gets `num_samples` boundary samples. Target polygons live on
    the image plane; the returned controls are mask-plane coordinates (scaled
    by -1/M so the ideal image lands on the target).
    """
    regions = []
    for poly in polygons:
        controls = polygon_perimeter_points(poly, num_controls) * (-1.0 / magnification)
        regions.append(_ccw_region(PeriodicSplineRegion(controls, num_samples, degree)))
    return regions
