"""Steepest descent on control points with golden-section and parabolic step sizing.

No control moves further than MAX_DISPLACEMENT in one step: the step size is
at most alpha_max = MAX_DISPLACEMENT / max|g|. The line search grows a
bracket from the step before last (from the last step while it is the only
one, and from 1e-3 alpha_max before any), since accepted steps are mostly
far shorter than alpha_max and a bracket over the whole field can settle in
a distant spurious minimum. Steepest descent with exact line searches
settles into a two-step zigzag whose step sizes alternate (Akaike, 1959), so
the step before last is the closer guess. The trials expand while they score
below J and back off otherwise, then hand their lowest, x, and its
neighbours a and b among the scored steps (step 0 scores J) to the zoom
(Nocedal and Wright, *Numerical Optimization*, section 3.5): golden-section
search with parabolic steps through (a, x, b) once both ends are finite, a
convex three-point bracket, so that a parabola through three points of
different dips cannot jump into another one. Each trial step rebuilds the
chain at the displaced controls: boundary samples, then the image of the
curve, so the accepted trial's evaluation is the next iterate's. A trial
whose sample loop crosses itself or encloses no area scores +inf, so the
line search backs away from it. The crossing test is the costly part of
that check, and most trials need none: `step` bounds the distance between
non-adjacent segments of each iterate loop once (`geometry.loop_clearance`),
and a trial loop whose samples all move less than half of it, less a
rounding margin (`mesh.clearance_radius`), is simple too. Such a trial
still takes its area and the area floor; any other runs the full test. The
control loop may run either way round: the image takes the sign of the
sample loop's area.

The iterate is immutable: `step` maps a state to the next one and the step
size, and `optimize` alone keeps the trace and decides every stop. A step the
line search found is always taken; a step below `eps_alpha` is taken and then
ends the run.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import polygon_perimeter_points
from .mesh import MeshError, clearance_radius
from .optics import OpticalConfig
from .pipeline import ImagingProblem, MaskEvaluation, evaluate, gradient_of
from .spline import PeriodicSplineRegion

logger = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest control move per step, in normalized units: alpha_max is this over max|g|.
MAX_DISPLACEMENT = 2.0
# First trial step of an initial iterate, and the smallest trial step, over alpha_max.
FIRST_STEP = 1e-3
SMALLEST_STEP = 1e-12
# The zoom's tolerance is at least this many float spacings of its bracket end.
FLOAT_SPACINGS = 4


@dataclass(frozen=True)
class OptimizerConfig:
    """Loop controls: iteration cap, stopping thresholds, line-search knobs.

    `refine_area_tol` is the largest triangle area, in normalized units, of
    the library's region meshes (`ImagingProblem.refine_max_area`); the
    descent images the spline curves and builds no mesh.
    """

    max_iters: int = 100
    eps: float = 1e-4          # stop when the objective drops below this
    eps_alpha: float = 1e-4    # stop after taking a step shorter than this
    gs_tol: float = 1e-5
    refine_area_tol: float = 0.02

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        for name in ("eps", "eps_alpha", "gs_tol", "refine_area_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float
    alpha: float


@dataclass(frozen=True)
class OptimizationState:
    """One iterate: its evaluation, the number of steps taken to reach it and the last two step sizes.

    `alpha` is the last step and `previous_alpha` the one before it; each is 0
    until taken. The next line search starts from `previous_alpha`, or from
    `alpha` while that is the only step.
    """

    evaluation: MaskEvaluation
    iteration: int = 0
    alpha: float = 0.0
    previous_alpha: float = 0.0

    @property
    def objective(self) -> float:
        return self.evaluation.objective


def golden_section(phi, bracket, tol: float) -> tuple[float, float]:
    """Minimize phi in `grow_bracket`'s bracket by golden-section search with parabolic steps.

    The bracket ((a, fa), (x, fx), (b, fb)) has a < x <= b and fx no higher
    than fa or fb, either of which may be +inf. x is the lowest point scored
    and (a, b) the bracket around it. x moves only on a strict decrease, and
    +inf trials shrink the bracket as in plain golden-section search. While
    both ends are finite, the step goes to the vertex of the parabola through
    (a, x, b), a convex three-point bracket. It does so only if the last two
    steps shrank the bracket to GOLDEN**2 of its width, as two golden-section
    steps would, so that a far end that scores high cannot hold the steps
    creeping toward it, and only if the vertex lands inside (a, b).
    Otherwise a golden-section step divides the larger side of x. A step
    shorter than tol/2 is lengthened to tol/2 toward the middle of the
    bracket. Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) also fits one through the three lowest points
    (v, x, w); in the descent's line searches v and w were the bracket ends
    on every step that parabola decided, so one rule does the work of both.

    Each trial lies strictly inside the bracket, so no step is scored twice.
    The search stops once every point of the bracket lies within tol of x,
    tol floored at FLOAT_SPACINGS float spacings of b, since no bracket
    shrinks below one spacing. Returns (x, phi(x)).
    """
    (a, fa), (x, fx), (b, fb) = bracket
    tol = max(tol, FLOAT_SPACINGS * math.ulp(b))
    widths = (math.inf, math.inf)   # the bracket's width before the step before last and before the last
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if b - a <= GOLDEN ** 2 * widths[0] and max(fa, fb) < math.inf:
            # the vertex of the parabola through (a, x, b) is at x + p / q
            r = (x - b) * (fx - fa)
            q = (x - a) * (fx - fb)
            p = (x - a) * q - (x - b) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            parabolic = q * (a - x) < p < q * (b - x)
        widths = (widths[1], b - a)
        d = p / q if parabolic else (1.0 - GOLDEN) * (a - x if x >= m else b - x)
        u = x + d if abs(d) >= 0.5 * tol else x + math.copysign(0.5 * tol, m - x)
        fu = phi(u)
        if fu < fx:
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            x, fx = u, fu
        elif u < x:
            a, fa = u, fu
        else:
            b, fb = u, fu


def grow_bracket(phi, objective: float, start: float, alpha_max: float):
    """The bracket ((a, fa), (x, fx), (b, fb)) that `golden_section` starts from, or None.

    Trials start at `start` (`step` passes its step before last). While they
    score below `objective` they grow by 1/GOLDEN, up to alpha_max, until one
    does not; otherwise they shrink by GOLDEN**2 until one does. x is the
    lowest trial (the smaller step on a tie), and a and b its neighbours
    among the scored steps, step 0 scoring `objective` with no call; b is x
    when x is alpha_max. Returns None when no trial down to SMALLEST_STEP *
    alpha_max scores below `objective`.
    """
    scored = {0.0: objective}

    def below(alpha: float) -> bool:
        scored[alpha] = phi(alpha)
        return scored[alpha] < objective

    alpha = start
    if below(alpha):
        while alpha < alpha_max:
            alpha = min(alpha / GOLDEN, alpha_max)
            if not below(alpha):
                break
    else:
        while True:
            alpha *= GOLDEN ** 2
            if alpha < SMALLEST_STEP * alpha_max:
                return None
            if below(alpha):
                break
    steps = sorted(scored)
    i = steps.index(min(steps, key=scored.get))
    return tuple((s, scored[s]) for s in (steps[i - 1], steps[i], steps[min(i + 1, len(steps) - 1)]))


def step(state: OptimizationState, problem: ImagingProblem,
         opt: OptimizerConfig) -> tuple[OptimizationState, float]:
    """One steepest-descent step: grown bracket, golden-section and parabolic zoom, regeneration.

    The bracket grows from the state's step before last, else its last step,
    else FIRST_STEP * alpha_max, capped at alpha_max. Returns (next state,
    alpha); the next state carries alpha and the given state's last step.
    When the gradient vanishes or no trial down to SMALLEST_STEP * alpha_max
    scores below J, that is the given state and alpha 0. No trial step is
    evaluated twice, and the step taken is the lowest trial. Each region's
    `mesh.clearance_radius` is taken once, at the iterate, and a trial loop
    whose samples all stay within it skips the crossing test (`check_loop`).
    """
    grads = gradient_of(problem, state.evaluation)
    gmax = max((float(np.max(np.hypot(g[:, 0], g[:, 1]))) for g in grads), default=0.0)
    if gmax < 1e-12:
        return state, 0.0
    alpha_max = MAX_DISPLACEMENT / gmax
    regions = [s.region for s in state.evaluation.systems]
    # each region's iterate loop and clearance radius: a trial loop within it skips the crossing test
    near = [(s.samples, clearance_radius(s.samples)) for s in state.evaluation.systems]
    # each feasible trial's evaluation by its step; an infeasible one scores +inf
    trials: dict[float, MaskEvaluation] = {}

    def phi(alpha: float) -> float:
        moved = [r.with_controls(r.controls - alpha * g) for r, g in zip(regions, grads)]
        try:
            trials[alpha] = evaluate(problem, moved, near)
        except MeshError:
            return math.inf
        return trials[alpha].objective

    carried = state.previous_alpha or state.alpha
    start = min(carried, alpha_max) if carried > 0 else FIRST_STEP * alpha_max
    bracket = grow_bracket(phi, state.objective, start, alpha_max)
    if bracket is None:
        return state, 0.0
    alpha, _ = golden_section(phi, bracket, opt.gs_tol)   # below J, so feasible
    return OptimizationState(trials[alpha], state.iteration + 1, alpha, state.alpha), alpha


@dataclass(frozen=True)
class OptimizationResult:
    """The last iterate, the first evaluation, and the trace from one to the other."""

    state: OptimizationState
    initial: MaskEvaluation
    trace: tuple[TraceEntry, ...]

    @property
    def final(self) -> MaskEvaluation:
        return self.state.evaluation


def optimize(regions: list[PeriodicSplineRegion], problem: ImagingProblem,
             opt: OptimizerConfig) -> OptimizationResult:
    """Run the descent loop until the objective or step size drops below tolerance.

    Stops after `max_iters` steps, once J <= `eps`, when a step finds no
    decrease, or right after taking a step shorter than `eps_alpha`. Raises if
    the initial boundary is self-intersecting. The trace records the initial
    state and every step taken; objective values along it are non-increasing.
    """
    initial = evaluate(problem, regions)
    state = OptimizationState(initial)
    trace = [TraceEntry(0, initial.objective, 0.0)]
    while state.objective > opt.eps and state.iteration < opt.max_iters:
        state_next, alpha = step(state, problem, opt)
        if alpha == 0.0:
            logger.info("stopping: no decrease along the negative gradient")
            break
        state = state_next
        trace.append(TraceEntry(state.iteration, state.objective, alpha))
        logger.info("iter %d  J=%.6g  alpha=%.4g", state.iteration, state.objective, alpha)
        if alpha < opt.eps_alpha:
            logger.info("stopping: step size %.3g below eps_alpha %.3g", alpha, opt.eps_alpha)
            break
    return OptimizationResult(state, initial, tuple(trace))


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
        regions.append(PeriodicSplineRegion(controls, num_samples, degree))
    return regions
