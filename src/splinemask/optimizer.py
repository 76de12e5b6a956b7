"""Steepest descent on control points with golden-section and parabolic step sizing.

No control moves further than MAX_DISPLACEMENT in one step: the step size is
at most alpha_max = MAX_DISPLACEMENT / max|g|. The line search grows its
bracket [0, B] from the step before last (from the last step while it is
the only one, and from 1e-3 alpha_max before any), since accepted steps are
mostly far shorter than alpha_max and a bracket over the whole field can
settle in a distant spurious minimum. Steepest descent with exact line searches settles
into a two-step zigzag whose step sizes alternate (Akaike, 1959), so the step
before last is the closer guess. The search expands while trials score below
J and backs off otherwise, then zooms in on a minimum inside the bracket by
golden-section search with parabolic steps (Brent, 1973). A parabolic step is
taken only through a convex three-point bracket, a point between two that
score no lower, so that a parabola through three points of different dips
cannot jump into another one: Brent's (v, x, w) where they are one, else the
bracket ends (a, x, b), which are one once both are trials. Each trial step
rebuilds the chain at the displaced controls: boundary samples, then the
image of the curve, so the accepted trial's evaluation is the next
iterate's. A trial whose sample loop crosses itself or encloses no area
scores +inf, so the line search backs away from it. The control loop may run
either way round: the image takes the sign of the sample loop's area.

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
from .mesh import MeshError
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
# Trial steps this close, relative, are one trial: the zoom's first two points
# repeat the bracket's last two trials up to rounding.
SAME_STEP_RTOL = 1e-12
# The line search's tolerance is at least this many float spacings of its bracket end.
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


def golden_section(phi, alpha_max: float, tol: float) -> tuple[float, float]:
    """Minimize phi on [0, alpha_max] by golden-section search with parabolic steps.

    Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 5) with the parabola kept to convex triples. x is the lowest
    point scored, w the next lowest and v the one w replaced. The step goes to
    the vertex of the parabola through (v, x, w) when x lies strictly between
    w and v and scores no higher than either, so that the three points bracket
    a local minimum. When they do not, as when every trial on one side of x
    scored above both v and w, the parabola goes through the bracket ends
    (a, x, b) instead, once both are finite trials: x always scores no higher
    than either. It does so only if the last two steps shrank the bracket to
    GOLDEN**2 of its width, as two golden-section steps would, so that a far
    end that scores high cannot hold the steps creeping toward it. Either
    parabolic step is taken only when it is shorter than half the step before
    last and lands inside the bracket (a, b). Otherwise a golden-section step
    divides the larger side of x. A step shorter than tol/2 is lengthened to
    tol/2 toward the middle of the bracket. x moves only on a strict decrease,
    so +inf trials shrink the bracket as in plain golden-section search.

    The search starts from the golden points of [0, alpha_max], x the lower
    (the left on a tie), and stops once every point of the bracket lies within
    tol of x. tol is floored at FLOAT_SPACINGS float spacings of alpha_max,
    since no bracket shrinks below one spacing. Returns (x, phi(x)). phi may
    return +inf for infeasible trials.
    """
    a, b = 0.0, float(alpha_max)
    fa = fb = math.inf   # +inf until the bracket end is a trial
    tol = max(tol, FLOAT_SPACINGS * math.ulp(b))
    x, w = b - GOLDEN * b, GOLDEN * b
    fx, fw = phi(x), phi(w)
    if fw < fx:
        x, fx, w, fw = w, fw, x, fx
    v, fv = w, fw
    d = e = 0.0   # the last step and the step before it (after a golden step, the side it divided)
    widths = (math.inf, math.inf)   # the bracket's width before the step before last and before the last
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol - 0.5 * (b - a):
            return x, fx
        triples = [(v, fv, w, fw)]
        if b - a <= GOLDEN ** 2 * widths[0]:
            triples.append((a, fa, b, fb))
        widths = (widths[1], b - a)
        convex = [(s, fs, t, ft) for s, fs, t, ft in triples
                  if min(s, t) < x < max(s, t) and fx <= min(fs, ft) and max(fs, ft) < math.inf]
        parabolic = False
        if convex:
            # the vertex of the parabola through (s, x, t) is at x + p / q
            s, fs, t, ft = convex[0]
            r = (x - t) * (fx - fs)
            q = (x - s) * (fx - ft)
            p = (x - s) * q - (x - t) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            e, d = d, p / q
        else:
            e = a - x if x >= m else b - x
            d = (1.0 - GOLDEN) * e
        u = x + d if abs(d) >= 0.5 * tol else x + math.copysign(0.5 * tol, m - x)
        fu = phi(u)
        if fu < fx:
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == w:
                v, fv = u, fu


def grow_bracket(phi, objective: float, start: float, alpha_max: float) -> float | None:
    """The end B of a bracket [0, B] that holds a trial scoring below `objective`.

    Trials start at `start` (`step` passes its step before last). While they
    score below `objective` they grow by 1/GOLDEN, up to alpha_max, and B is
    the first that does not (or is infeasible), else alpha_max. Otherwise they
    shrink by GOLDEN**2 until one does, and B is the trial before it. Returns
    None when no trial down to SMALLEST_STEP * alpha_max scores below
    `objective`.
    """
    alpha = start
    if phi(alpha) < objective:
        while alpha < alpha_max:
            alpha = min(alpha / GOLDEN, alpha_max)
            if not phi(alpha) < objective:
                break
        return alpha
    while True:
        end, alpha = alpha, alpha * GOLDEN ** 2
        if alpha < SMALLEST_STEP * alpha_max:
            return None
        if phi(alpha) < objective:
            return end


def step(state: OptimizationState, problem: ImagingProblem,
         opt: OptimizerConfig) -> tuple[OptimizationState, float]:
    """One steepest-descent step: grown bracket, golden-section and parabolic zoom, regeneration.

    The bracket grows from the state's step before last, else its last step,
    else FIRST_STEP * alpha_max, capped at alpha_max. Returns (next state,
    alpha); the next state carries alpha and the given state's last step.
    When the gradient vanishes or no trial down to SMALLEST_STEP * alpha_max
    scores below J, that is the given state and alpha 0. Every distinct trial
    step is evaluated once.
    """
    grads = gradient_of(problem, state.evaluation)
    gmax = max((float(np.max(np.hypot(g[:, 0], g[:, 1]))) for g in grads), default=0.0)
    if gmax < 1e-12:
        return state, 0.0
    alpha_max = MAX_DISPLACEMENT / gmax
    regions = [s.region for s in state.evaluation.systems]
    # (alpha, objective, evaluation) per trial; an infeasible one scores +inf with no evaluation
    trials: list[tuple[float, float, MaskEvaluation | None]] = []

    def scored(alpha: float):
        return next((t for t in trials if abs(alpha - t[0]) <= SAME_STEP_RTOL * t[0]), None)

    def phi(alpha: float) -> float:
        trial = scored(alpha)
        if trial is None:
            moved = [r.with_controls(r.controls - alpha * g) for r, g in zip(regions, grads)]
            try:
                evaluation = evaluate(problem, moved)
            except MeshError:
                trial = (alpha, math.inf, None)
            else:
                trial = (alpha, evaluation.objective, evaluation)
            trials.append(trial)
        return trial[1]

    carried = state.previous_alpha or state.alpha
    start = min(carried, alpha_max) if carried > 0 else FIRST_STEP * alpha_max
    end = grow_bracket(phi, state.objective, start, alpha_max)
    if end is None:
        return state, 0.0
    alpha, _ = golden_section(phi, end, opt.gs_tol)
    # the zoom's trial, unless another scored strictly lower; the bracket
    # holds a trial below J, so this one is below J and feasible
    alpha, _, evaluation = min([scored(alpha), *trials], key=lambda t: t[1])
    return OptimizationState(evaluation, state.iteration + 1, alpha, state.alpha), alpha


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
