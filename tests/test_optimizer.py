import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemask.geometry import polygon_signed_area, polyline_self_intersects
from splinemask.mesh import MeshError, SelfIntersectionError
from splinemask.optimizer import (
    FLOAT_SPACINGS,
    GOLDEN,
    OptimizerConfig,
    golden_section,
    grow_bracket,
    init_controls_from_target,
    optimize,
    step,
)
from splinemask.cli import build_setup, parse_config
from splinemask.pipeline import evaluate, gradient_of, print_report
from splinemask.optimizer import MAX_DISPLACEMENT, OptimizationState, TraceEntry

from conftest import SQUARE_NM, desk_square_problem, square_region


def golden_bracket(phi, end):
    """A bracket in [0, end] for `golden_section` from phi at the golden points of [0, end].

    x is the lower golden point (the left on a tie), and its neighbours are
    the other golden point and the far end, which scores +inf: the bracket a
    golden-section search of [0, end] reaches after its first step.
    """
    left, right = end - GOLDEN * end, GOLDEN * end
    f_left, f_right = phi(left), phi(right)
    if f_right < f_left:
        return (left, f_left), (right, f_right), (end, math.inf)
    return (0.0, math.inf), (left, f_left), (right, f_right)


def golden_search(phi, end, tol):
    """`golden_section` on [0, end], started from `golden_bracket`."""
    return golden_section(phi, golden_bracket(phi, end), tol)


def test_golden_section_quadratic():
    alpha, value = golden_search(lambda a: (a - 1.0) ** 2, 3.0, 1e-6)
    assert alpha == pytest.approx(1.0, abs=1e-5)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_golden_section_monotone_increasing():
    alpha, _ = golden_search(lambda a: 2.0 + a, 5.0, 1e-6)
    assert alpha <= 1e-5


def test_golden_section_handles_inf():
    # infeasible right half: the search must settle in the feasible valley
    def phi(a):
        return float("inf") if a > 1.0 else (a - 0.8) ** 2
    alpha, value = golden_search(phi, 4.0, 1e-7)
    assert alpha == pytest.approx(0.8, abs=1e-5)
    assert np.isfinite(value)


def test_golden_section_matches_dense_scan():
    def phi(a):
        return (a - 0.37) ** 2 + 0.1 * np.sin(10 * a) ** 2
    grid = np.arange(0.0, 1.0, 1e-5)
    dense_argmin = grid[np.argmin([phi(a) for a in grid])]
    alpha, _ = golden_search(phi, 1.0, 1e-6)
    assert alpha == pytest.approx(dense_argmin, abs=1e-4)


@pytest.mark.parametrize("phi, alpha_max, tol, minimizer, most", [
    # golden-section steps alone make 31 calls here, and 37 on the infeasible right half
    (lambda a: (a - 1.0) ** 2, 3.0, 1e-6, 1.0, 10),
    (lambda a: float("inf") if a > 1.0 else (a - 0.8) ** 2, 4.0, 1e-7, 0.8, 15),
], ids=["quadratic", "inf_right_half"])
def test_golden_section_takes_parabolic_steps(phi, alpha_max, tol, minimizer, most):
    calls = []

    def counted_phi(alpha):
        calls.append(alpha)
        return phi(alpha)
    alpha, _ = golden_search(counted_phi, alpha_max, tol)
    assert abs(alpha - minimizer) <= tol
    assert len(calls) <= most


def test_golden_section_returns_when_tol_is_below_float_spacing():
    """No bracket near 2e12 shrinks below one float spacing, 2.4e-4, so a 1e-5 tolerance cannot be met.

    Without a floor on the tolerance the search would never return; `phi`
    gives up after 200 calls instead of a clock.
    """
    calls = []

    def phi(alpha):
        calls.append(alpha)
        if len(calls) > 200:
            raise RuntimeError("golden_section did not return")
        return (alpha - 1e12) ** 2

    alpha, value = golden_search(phi, 2e12, 1e-5)
    assert abs(alpha - 1e12) <= FLOAT_SPACINGS * math.ulp(2e12)
    assert value == phi(alpha)


def test_golden_section_ends_within_tol_of_a_monotone_minimum():
    alpha, value = golden_search(lambda a: 2.0 + a, 5.0, 1e-6)
    assert 0.0 < alpha <= 1e-6
    assert value == 2.0 + alpha


def scanned_minimizer(phi, alpha_max):
    """The minimizer of an array-valued phi on [0, alpha_max]: a scan at spacing 1e-5, then one at 1e-9 around its best point."""
    coarse = np.linspace(0.0, alpha_max, round(alpha_max / 1e-5) + 1)
    best = coarse[np.argmin(phi(coarse))]
    fine = np.linspace(best - 1e-5, best + 1e-5, 20001)
    return fine[np.argmin(phi(fine))]


@pytest.mark.parametrize("phi, alpha_max, most", [
    # Brent's (v, x, w) parabola alone makes 20 calls on the first and 22 on the second
    (lambda a: np.exp(a) - 2.0 * a, 5.0, 15),
    (lambda a: (a - 0.37) ** 2 + 0.1 * np.sin(10.0 * a) ** 2, 1.0, 12),
], ids=["exp", "sin_bumps"])
def test_golden_section_fits_through_the_bracket_ends(phi, alpha_max, most):
    """The parabola through the bracket ends and the lowest trial, (a, x, b), steps instead of golden sections."""
    calls = []

    def counted_phi(alpha):
        calls.append(alpha)
        return phi(alpha)
    alpha, _ = golden_search(counted_phi, alpha_max, 1e-6)
    assert abs(alpha - scanned_minimizer(phi, alpha_max)) <= 1e-6
    assert len(calls) <= most


def golden_steps_only_calls(phi, alpha_max, tol):
    """The number of calls `golden_search` makes on phi with its parabolic steps left out."""
    (a, _), (x, fx), (b, _) = golden_bracket(phi, alpha_max)
    tol = max(tol, FLOAT_SPACINGS * math.ulp(b))
    calls = 2
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol - 0.5 * (b - a):
            return calls
        d = (1.0 - GOLDEN) * (a - x if x >= m else b - x)
        u = x + d if abs(d) >= 0.5 * tol else x + math.copysign(0.5 * tol, m - x)
        fu = phi(u)
        calls += 1
        if fu < fx:
            a, b = (x, b) if u >= x else (a, x)
            x, fx = u, fu
        else:
            a, b = (u, b) if u < x else (a, u)


# unimodal shapes of t with a positive second derivative at their minimum t = 0
SMOOTH_MINIMA = {
    "exp": lambda t: math.expm1(t) - t,
    "hyperbola": lambda t: t * t / (1.0 + math.sqrt(1.0 + t * t)),
    "quartic": lambda t: t * t + t ** 4,
}


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(sorted(SMOOTH_MINIMA)), where=st.floats(0.0, 1.0),
       log_width=st.floats(-3.0, 2.0), mirrored=st.booleans(),
       alpha_max=st.floats(1e-3, 1e3), log_tol=st.floats(-8.0, -3.0))
def test_golden_section_on_smooth_unimodal_phi(shape, where, log_width, mirrored, alpha_max, log_tol):
    """Every trial lies in [0, alpha_max], the result within tol of the minimizer, in about golden steps' calls or fewer.

    phi is a smooth shape with its minimum anywhere in the bracket, stretched
    so that the bracket spans up to 100 of its unit widths. On these, Brent's
    (v, x, w) parabola alone takes up to one call more than golden-section
    steps alone, and this search up to two. Taken without the rule that the
    bracket first shrink as two golden steps would, the bracket-end parabola
    crept toward a high end and took up to 29 more. Minima that are flat
    (t**4) or kinked (|t|) have their own property below.
    """
    minimizer = where * alpha_max
    tol = 10.0 ** log_tol * alpha_max
    stretch = (-1.0 if mirrored else 1.0) * 10.0 ** log_width / alpha_max
    phi = lambda a: SMOOTH_MINIMA[shape](stretch * (a - minimizer))
    trials = []

    def counted_phi(alpha):
        trials.append(alpha)
        return phi(alpha)
    alpha, value = golden_search(counted_phi, alpha_max, tol)
    assert all(0.0 <= t <= alpha_max for t in trials)
    assert abs(alpha - minimizer) <= tol
    assert value == phi(alpha)
    assert len(trials) <= golden_steps_only_calls(phi, alpha_max, tol) + 2


@settings(max_examples=300, deadline=None)
@given(where=st.floats(0.0, 1.0), log_width=st.floats(-3.0, 2.0), power=st.floats(0.3, 4.0),
       log_slopes=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       alpha_max=st.floats(1e-3, 1e3), log_tol=st.floats(-8.0, -3.0))
def test_golden_section_on_flat_or_kinked_minima(where, log_width, power, log_slopes, alpha_max, log_tol):
    """Every trial lies in [0, alpha_max] and the result within tol of the minimizer, at most 12 calls past golden steps'.

    phi is |t|**power with power from 0.3 to 4, a cusp, a kink or a flat
    bottom, and a slope factor from 0.1 to 10 on each side, stretched as in
    the smooth property. Parabolas converge there no faster than golden
    sections. Over 100,000 random draws of these parameters (alpha_max
    log-uniform) this search took at worst 11 calls more than golden-section
    steps alone, and 0.09 more on average.
    """
    minimizer = where * alpha_max
    tol = 10.0 ** log_tol * alpha_max
    stretch = 10.0 ** log_width / alpha_max
    left, right = (10.0 ** s for s in log_slopes)
    phi = lambda a: (left if a < minimizer else right) * abs(stretch * (a - minimizer)) ** power
    trials = []

    def counted_phi(alpha):
        trials.append(alpha)
        return phi(alpha)
    alpha, _ = golden_search(counted_phi, alpha_max, tol)
    assert all(0.0 <= t <= alpha_max for t in trials)
    assert abs(alpha - minimizer) <= tol
    assert len(trials) <= golden_steps_only_calls(phi, alpha_max, tol) + 12


# (start, alpha_max, end, bracket steps (a, x, b)) on phi(a) = a (a - 2), which
# is below 0 on (0, 2) and lowest at 1. `end` is the smallest trial step above
# x that does not score below 0, else alpha_max: where the trials stopped
GROWN_BRACKETS = [
    # grows while below: 0.1 / GOLDEN**6 < 2 <= the next trial
    (0.1, 10.0, 0.1 / GOLDEN ** 7, (0.1 / GOLDEN ** 4, 0.1 / GOLDEN ** 5, 0.1 / GOLDEN ** 6)),
    # every trial below, up to alpha_max
    (0.1, 1.5, 1.5, (0.1 / GOLDEN ** 4, 0.1 / GOLDEN ** 5, 1.5)),
    # backs off: 3 GOLDEN**2 scores below, so the end is 3; step 0 is x's left neighbour
    (3.0, 10.0, 3.0, (0.0, 3.0 * GOLDEN ** 2, 3.0)),
    # backs off twice
    (9.0, 10.0, 9.0 * GOLDEN ** 2, (0.0, 9.0 * GOLDEN ** 4, 9.0 * GOLDEN ** 2)),
    # every trial below and falling, up to alpha_max: x is alpha_max, and so is b
    (0.1, 0.5, 0.5, (0.1 / GOLDEN ** 3, 0.5, 0.5)),
]


@pytest.mark.parametrize("start, alpha_max, end, steps", GROWN_BRACKETS,
                         ids=[f"{start}-{alpha_max}-{end}" for start, alpha_max, end, _ in GROWN_BRACKETS])
def test_grow_bracket_ends(start, alpha_max, end, steps):
    """The bracket is the lowest trial and its neighbours among the scored steps, step 0 scoring the objective."""
    phi = lambda a: a * (a - 2.0)
    trials = []

    def counted_phi(alpha):
        trials.append(alpha)
        return phi(alpha)
    bracket = grow_bracket(counted_phi, 0.0, start, alpha_max)
    assert [s for s, _ in bracket] == pytest.approx(steps, rel=1e-12)
    assert [f for _, f in bracket] == [phi(s) for s, _ in bracket]
    x = bracket[1][0]
    assert min([t for t in trials if t > x and not phi(t) < 0.0], default=alpha_max) == pytest.approx(end, rel=1e-12)


def test_grow_bracket_gives_up_without_a_decrease():
    trials = []

    def phi(a):
        trials.append(a)
        return a
    assert grow_bracket(phi, 0.0, 1.0, 1.0) is None
    assert min(trials) >= 1e-12 > min(trials) * GOLDEN ** 2


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(sorted(SMOOTH_MINIMA) + ["kink"]), where=st.floats(-0.5, 2.0),
       log_width=st.floats(-3.0, 2.0), log_slopes=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       infeasible=st.none() | st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
       objective=st.floats(-0.1, 3.0), log_start=st.floats(-6.0, 0.0),
       alpha_max=st.floats(1e-3, 1e3), log_tol=st.floats(-8.0, -3.0))
def test_the_bracket_hands_its_lowest_trial_and_neighbours_to_the_zoom(
        shape, where, log_width, log_slopes, infeasible, objective, log_start, alpha_max, log_tol):
    """`grow_bracket` brackets its lowest trial; the zoom returns its lowest value and scores no step twice.

    phi is a smooth shape or a kink |t| with a slope factor from 0.1 to 10 on
    each side, with its minimum anywhere from -0.5 to 2 alpha_max, stretched
    as in the smooth property and, when drawn, +inf on a stretch of [0, 2
    alpha_max]. The objective, which step 0 scores, is drawn apart from phi.
    """
    minimizer = where * alpha_max
    stretch = 10.0 ** log_width / alpha_max
    left, right = (10.0 ** s for s in log_slopes)

    def phi(alpha):
        if infeasible is not None and infeasible[0] * alpha_max <= alpha <= infeasible[1] * alpha_max:
            return math.inf
        t = stretch * (alpha - minimizer)
        if shape == "kink":
            return (left if t < 0 else right) * abs(t)
        return SMOOTH_MINIMA[shape](t)

    scored = {}

    def counted_phi(alpha):
        assert alpha not in scored
        scored[alpha] = phi(alpha)
        return scored[alpha]

    bracket = grow_bracket(counted_phi, objective, 10.0 ** log_start * alpha_max, alpha_max)
    if bracket is None:
        assert not min(scored.values()) < objective
        return
    (a, fa), (x, fx), (b, fb) = bracket
    assert a < x <= b and fx < objective and fx <= fa and fx <= fb
    # x is the lowest value phi returned, the smaller step on a tie, and a and
    # b its neighbours among the scored steps, step 0 scoring the objective
    assert fx == min(scored.values()) and x == min(s for s, f in scored.items() if f == fx)
    steps = {0.0: objective, **scored}
    assert (fa, fx, fb) == (steps[a], steps[x], steps[b])
    assert not any(a < s < x or x < s < b for s in steps)
    assert b > x or x == alpha_max == max(steps)

    grown = dict(scored)
    alpha, value = golden_section(counted_phi, bracket, 10.0 ** log_tol * alpha_max)
    searched = {s: f for s, f in scored.items() if s not in grown}
    assert all(a < s < b for s in searched)
    assert value == phi(alpha) == min([fx, *searched.values()])


def test_init_controls_square_spacing():
    square = [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]]
    regions = init_controls_from_target([square], 8, 16)
    controls = regions[0].controls
    assert len(controls) == 8
    assert polygon_signed_area(controls) > 0
    # equal arc-length spacing along the perimeter: consecutive gaps all 50
    gaps = np.hypot(*(np.roll(controls, -1, axis=0) - controls).T)
    np.testing.assert_allclose(gaps, 50.0, atol=1e-9)


def test_init_controls_l_shape_spacing():
    l_shape = [[0.0, 0.0], [200.0, 0.0], [200.0, 100.0], [100.0, 100.0],
               [100.0, 200.0], [0.0, 200.0]]  # perimeter 800
    regions = init_controls_from_target([l_shape], 16, 32)
    controls = regions[0].controls
    # 800 / 16 = 50 nm along the perimeter; corner-straddling gaps are shorter
    # in euclidean length, so check via cumulative perimeter distance instead
    perim_pts = np.asarray(l_shape, dtype=float)
    edges = np.roll(perim_pts, -1, axis=0) - perim_pts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])

    def arc_position(p):
        for i in range(len(perim_pts)):
            d = p - perim_pts[i]
            t = np.dot(d, edges[i]) / np.dot(edges[i], edges[i])
            if -1e-9 <= t <= 1 + 1e-9 and np.hypot(*(perim_pts[i] + t * edges[i] - p)) < 1e-6:
                return cumulative[i] + t * lengths[i]
        raise AssertionError("control not on the polygon boundary")

    positions = sorted(arc_position(p) for p in controls)
    np.testing.assert_allclose(np.diff(positions), 50.0, atol=1e-9)


def test_init_controls_translation_equivariant():
    square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    base = init_controls_from_target([square], 8, 16)[0].controls
    moved = init_controls_from_target([square + [5.0, -3.0]], 8, 16)[0].controls
    np.testing.assert_allclose(moved, base + [5.0, -3.0], atol=1e-12)


def test_init_controls_rejects_too_few():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ValueError):
        init_controls_from_target([square], 4, 8)


def test_init_controls_magnification_scaling():
    square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    flipped = init_controls_from_target([square], 8, 16, magnification=1.0)[0].controls
    base = init_controls_from_target([square], 8, 16, magnification=-1.0)[0].controls
    np.testing.assert_allclose(np.sort(flipped, axis=0), np.sort(-base, axis=0), atol=1e-12)


def test_step_decreases_objective():
    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    new_state, alpha = step(state, problem, OptimizerConfig())
    assert alpha > 0
    assert new_state.objective < state.objective
    mesh = new_state.evaluation.systems[0].mesh
    assert np.abs(mesh.vertices - mesh.provenance @ mesh.boundary).max() < 1e-12
    assert (mesh.areas() > 0).all()


def record_trial_steps(monkeypatch):
    """Make `step` record the step size of each trial it evaluates, recovered from the trial's controls."""
    from splinemask import optimizer

    ray, alphas = {}, []

    def recorded_gradient(problem, evaluation):
        grads = gradient_of(problem, evaluation)
        ray["controls"] = np.concatenate([s.region.controls for s in evaluation.systems])
        ray["g"] = np.concatenate(grads)
        return grads

    def recorded_evaluate(problem, regions, near=None):
        moved = np.concatenate([r.controls for r in regions])
        g = ray["g"]
        alphas.append(float(np.sum((ray["controls"] - moved) * g) / np.sum(g * g)))
        return evaluate(problem, regions, near)

    monkeypatch.setattr(optimizer, "gradient_of", recorded_gradient)
    monkeypatch.setattr(optimizer, "evaluate", recorded_evaluate)
    return alphas


def distinct(alphas, rtol=1e-9):
    """The number of step sizes that differ from each other by more than rtol, relative."""
    ordered = sorted(alphas)
    return 1 + sum(b - a > rtol * b for a, b in zip(ordered, ordered[1:]))


def test_step_evaluates_each_trial_once(monkeypatch):
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    evaluated = record_trial_steps(monkeypatch)
    grown, handed, searched = [], [], []

    def counted_golden_section(phi, bracket, tol):
        grown.extend(evaluated)
        handed.extend(bracket)

        def counted_phi(alpha):
            searched.append(alpha)
            return phi(alpha)
        return golden_section(counted_phi, bracket, tol)

    monkeypatch.setattr(optimizer, "golden_section", counted_golden_section)
    new_state, alpha = step(state, problem, OptimizerConfig())
    assert alpha > 0 and new_state.alpha == alpha
    # every trial of the line search, bracket and zoom alike, was evaluated,
    # and no step size twice
    assert len(evaluated) == distinct(evaluated) == distinct(evaluated + searched)
    assert distinct(evaluated + [alpha]) == len(evaluated)
    # the zoom starts from steps the bracket scored, step 0 scoring J with no
    # evaluation, and scores none of them again
    (a, fa), (x, fx), (b, fb) = handed
    assert a < x <= b and fx < state.objective and fx <= min(fa, fb)
    assert distinct(grown + [s for s in (a, x, b) if s > 0]) == len(grown)
    assert distinct(grown + searched) == len(grown) + len(searched)


def test_step_starts_from_the_carried_step(monkeypatch):
    """The first trial is the step before last, else the last step, else 1e-3 alpha_max; capped at alpha_max.

    The step taken is carried on as the last step, and the last as the one before it.
    """
    cfg, problem = desk_square_problem()
    initial = evaluate(problem, [square_region(cfg=cfg)])
    [g] = gradient_of(problem, initial)
    alpha_max = MAX_DISPLACEMENT / np.max(np.hypot(g[:, 0], g[:, 1]))
    evaluated = record_trial_steps(monkeypatch)
    for steps, first in [((), 1e-3 * alpha_max),
                         ((0.3 * alpha_max,), 0.3 * alpha_max),
                         ((0.05 * alpha_max, 0.3 * alpha_max), 0.05 * alpha_max),
                         ((5.0 * alpha_max, 0.3 * alpha_max), alpha_max)]:
        evaluated.clear()
        last = steps[-1] if steps else 0.0
        before_last = steps[-2] if len(steps) > 1 else 0.0
        new_state, alpha = step(OptimizationState(initial, len(steps), last, before_last), problem,
                                OptimizerConfig())
        assert evaluated[0] == pytest.approx(first, rel=1e-9)
        assert (new_state.alpha, new_state.previous_alpha) == (alpha, last)


def test_step_takes_a_lower_bracket_trial_over_golden_sections(monkeypatch):
    """No trial of the line search, bracket or zoom, scores below the step taken: the lowest trial is taken."""
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    evaluated = record_trial_steps(monkeypatch)
    recorded, scores = optimizer.evaluate, []

    def scored_evaluate(problem, regions, near=None):
        try:
            evaluation = recorded(problem, regions, near)
        except MeshError:
            scores.append(math.inf)
            raise
        scores.append(evaluation.objective)
        return evaluation

    monkeypatch.setattr(optimizer, "evaluate", scored_evaluate)
    for _ in range(3):
        evaluated.clear()
        scores.clear()
        new_state, alpha = step(state, problem, OptimizerConfig())
        assert new_state.objective == min(scores) < state.objective
        assert alpha == pytest.approx(evaluated[scores.index(min(scores))], rel=1e-9)
        state = new_state


def test_step_scores_a_trial_that_cannot_mesh_as_infeasible(monkeypatch):
    """A trial whose evaluation raises MeshError scores +inf; the step taken is a feasible one below J."""
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    _, free = step(state, problem, OptimizerConfig())
    limit = 0.5 * free
    evaluated = record_trial_steps(monkeypatch)
    recorded = optimizer.evaluate

    def bounds_only_short_steps(problem, regions, near=None):
        evaluation = recorded(problem, regions, near)
        if evaluated[-1] > limit:
            raise MeshError("stand-in for a trial loop that bounds no region")
        return evaluation

    monkeypatch.setattr(optimizer, "evaluate", bounds_only_short_steps)
    new_state, alpha = step(state, problem, OptimizerConfig())
    assert any(a > limit for a in evaluated)
    assert 0 < alpha <= limit
    assert new_state.evaluation is not None
    assert new_state.objective < state.objective


def test_step_scores_a_crossing_trial_loop_as_infeasible(monkeypatch):
    """A trial whose loop crosses itself, by the `mesh.polyline_self_intersects` test `evaluate` runs, scores +inf.

    The iterate's clearance is forced to 0, so that no trial skips the test.
    """
    from splinemask import mesh

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    _, free = step(state, problem, OptimizerConfig())
    limit = 0.5 * free
    evaluated = record_trial_steps(monkeypatch)
    monkeypatch.setattr(mesh, "loop_clearance", lambda loop: 0.0)
    crossing = mesh.polyline_self_intersects
    monkeypatch.setattr(mesh, "polyline_self_intersects", lambda samples: evaluated[-1] > limit or crossing(samples))
    new_state, alpha = step(state, problem, OptimizerConfig())
    assert any(a > limit for a in evaluated)
    assert 0 < alpha <= limit
    assert new_state.objective < state.objective


def test_step_scores_a_trial_past_the_pupil_reach_as_infeasible(monkeypatch):
    """A trial whose curve reaches past `optics.MAX_REACH` fails `evaluate` with MeshError and scores +inf.

    The bound is lowered to halfway between the reach of the desk square's
    curve and that of its unconstrained step, which then lies past it.
    """
    from splinemask import optics, optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    free_state, free = step(state, problem, OptimizerConfig())
    near, far = (optics.grid_reach(problem.grid, e.systems[0].curve[0]) for e in (state.evaluation, free_state.evaluation))
    assert near < far
    monkeypatch.setattr(optics, "MAX_REACH", 0.5 * (near + far))
    refused, scored = [], optimizer.evaluate

    def recorded_evaluate(problem, regions, near=None):
        try:
            return scored(problem, regions, near)
        except MeshError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(optimizer, "evaluate", recorded_evaluate)
    new_state, alpha = step(state, problem, OptimizerConfig())
    assert refused and all("pupil rule" in message for message in refused)
    assert 0 < alpha < free
    assert optics.grid_reach(problem.grid, new_state.evaluation.systems[0].curve[0]) <= optics.MAX_REACH
    assert new_state.objective < state.objective


@pytest.mark.parametrize("member", ["desk", "full"])
def test_every_trial_that_skips_the_crossing_test_is_simple(monkeypatch, member):
    """Along the desk and the 100-step full-scale runs, the trials within their iterate's clearance radius are simple.

    They skip the crossing test, and they are more than nine in ten of the
    loops checked.
    """
    from splinemask import mesh, pipeline
    from family import MEMBERS

    skipped, tested = [], []
    check = pipeline.check_loop

    def recorded_check(samples, min_area=mesh.SLIVER_AREA, near=None):
        kept = near is not None and mesh._kept_simple(samples, near)
        (skipped if kept else tested).append(samples)
        return check(samples, min_area, near)

    monkeypatch.setattr(pipeline, "check_loop", recorded_check)
    _, problem, regions, opt, _ = build_setup(parse_config(MEMBERS[member]))
    optimize(regions, problem, opt)
    assert not any(polyline_self_intersects(samples) for samples in skipped)
    assert len(skipped) > 9 * len(tested)


def test_step_builds_no_mesh(monkeypatch):
    """A step images its trial loops and takes its gradient with no mesh, no refinement and no sensitivity."""
    from splinemask import pipeline

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))

    def no_mesh(*args):
        raise AssertionError("mesh built")

    for name in ("triangulate_region", "refine_mesh", "sensitivity"):
        monkeypatch.setattr(pipeline, name, no_mesh)
    _, alpha = step(state, problem, OptimizerConfig())
    assert alpha > 0


def test_step_zero_gradient_no_op(monkeypatch):
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    n = len(state.evaluation.systems[0].region.controls)
    monkeypatch.setattr(optimizer, "gradient_of", lambda problem, evaluation: [np.zeros((n, 2))])
    same_state, alpha = step(state, problem, OptimizerConfig())
    assert alpha == 0.0
    assert same_state is state


def test_optimize_max_iters_one():
    cfg, problem = desk_square_problem()
    result = optimize([square_region(cfg=cfg)], problem, OptimizerConfig(max_iters=1))
    assert result.state.iteration <= 1
    assert len(result.trace) <= 2


def test_optimize_returns_immediately_below_eps():
    cfg, problem = desk_square_problem()
    region = square_region(cfg=cfg)
    j0 = evaluate(problem, [region]).objective
    result = optimize([region], problem, OptimizerConfig(eps=j0 * 2.0))
    assert result.state.iteration == 0
    assert len(result.trace) == 1


def test_optimize_rejects_self_intersecting_initial():
    cfg, problem = desk_square_problem()
    bowtie = cfg.normalize_mask(100 * np.array(
        [[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [0.0, -1.5], [-1.5, 0.0]]))
    from splinemask.spline import PeriodicSplineRegion
    region = PeriodicSplineRegion(bowtie, 24)
    with pytest.raises(SelfIntersectionError):
        optimize([region], problem, OptimizerConfig(max_iters=1))


def test_optimize_descends_on_square():
    cfg, problem = desk_square_problem()
    result = optimize([square_region(cfg=cfg)], problem, OptimizerConfig(max_iters=5))
    js = [entry.objective for entry in result.trace]
    assert all(b <= a for a, b in zip(js, js[1:]))
    assert js[-1] < js[0]
    for system in result.final.systems:
        mesh = system.mesh
        assert np.abs(mesh.vertices - mesh.provenance @ mesh.boundary).max() < 1e-12
        assert (mesh.areas() > 0).all()


def test_optimize_deterministic():
    cfg, problem = desk_square_problem()
    r1 = optimize([square_region(cfg=cfg)], problem, OptimizerConfig(max_iters=3))
    r2 = optimize([square_region(cfg=cfg)], problem, OptimizerConfig(max_iters=3))
    t1 = [(e.iteration, e.objective, e.alpha) for e in r1.trace]
    t2 = [(e.iteration, e.objective, e.alpha) for e in r2.trace]
    assert t1 == t2


def desk_setup(square=SQUARE_NM, shift=(0.0, 0.0), **optimizer):
    """The criterion-9 config moved by `shift` nm: regions placed on the target square; the optimizer keys given."""
    _, problem, regions, opt, _ = build_setup(parse_config({
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 20.0,
                 "origin_nm": (np.array([-190.0, -190.0]) + shift).tolist()},
        "target_polygons_nm": [(square + shift).tolist()],
        "regions": [{"num_samples": 24, "init_from_target": 0, "num_controls": 12}],
        "optimizer": optimizer,
    }))
    return problem, regions, opt


def test_optimize_ignores_the_listing_direction():
    """The target square listed clockwise reaches the counterclockwise result, in 12 steps."""
    finals = []
    for square in (SQUARE_NM, SQUARE_NM[::-1]):
        problem, regions, opt = desk_setup(square, max_iters=12)
        final = optimize(regions, problem, opt).final
        finals.append((final.objective, print_report(problem, final).epe_count))
    (j_ccw, epe_ccw), (j_cw, epe_cw) = finals
    assert epe_cw == epe_ccw
    assert j_cw == pytest.approx(j_ccw, rel=1e-4)


def test_the_moved_desk_problem_ends_alike():
    """The desk problem moved whole (grid origin, target and controls) ends at one J and one EPE in 30 steps.

    Up to rounding the five moved problems are one problem. Imaged through
    refined meshes, whose quadrature error and Delaunay tie choices differ
    between them, they ended at J ratios 0.357 to 0.434 and EPE 6 to 16.
    """
    finals = []
    for shift in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0), (7.0, -3.0)]:
        problem, regions, opt = desk_setup(shift=shift, max_iters=30)
        final = optimize(regions, problem, opt).final
        finals.append((final.objective, print_report(problem, final).epe_count))
    js = [j for j, _ in finals]
    assert max(js) <= 1.01 * min(js), finals
    assert len({epe for _, epe in finals}) == 1, finals


def test_optimize_takes_a_found_step_before_stopping_on_its_size():
    # every step is below eps_alpha, so the run stops after the first one,
    # which the line search found and scored at J 0.110311 (from 0.176352)
    problem, regions, opt = desk_setup(eps_alpha=1e9, max_iters=3)
    result = optimize(regions, problem, opt)
    assert result.state.iteration == 1
    assert [e.iteration for e in result.trace] == [0, 1]
    assert result.trace[1].alpha > 0
    assert result.final.objective == result.trace[1].objective
    assert result.final.objective == pytest.approx(0.110311, rel=1e-4)
    assert result.initial.objective == pytest.approx(0.176352, rel=1e-5)


def evaluate_as_initial():
    """An `evaluate` whose every call returns the first call's evaluation: no trial scores below J."""
    first = []

    def stand_in(problem, regions, near=None):
        if not first:
            first.append(evaluate(problem, regions, near))
        return first[0]
    return stand_in


@pytest.mark.parametrize("target, make_stand_in", [
    ("gradient_of", lambda: lambda problem, evaluation: [np.zeros_like(s.region.controls)
                                                         for s in evaluation.systems]),
    ("evaluate", evaluate_as_initial),
], ids=["zero_gradient", "no_decrease"])
def test_optimize_stops_without_a_step(monkeypatch, caplog, target, make_stand_in):
    from splinemask import optimizer

    monkeypatch.setattr(optimizer, target, make_stand_in())
    problem, regions, opt = desk_setup(max_iters=3)
    with caplog.at_level("INFO", logger=optimizer.__name__):
        result = optimize(regions, problem, opt)
    assert result.state.iteration == 0
    assert result.trace == (TraceEntry(0, result.initial.objective, 0.0),)
    assert result.final is result.initial
    assert "no decrease" in caplog.text
    assert "step size" not in caplog.text


def test_optimize_does_not_stall_on_the_shifted_desk():
    """A whole-pixel shift leaves the target raster unchanged, and the descent goes on.

    A line search over the whole field [0, alpha_max] found a spurious minimum
    4e-2 above J at the third step here and stopped at J 0.1102.
    """
    problem, regions, opt = desk_setup(shift=(20.0, 0.0), max_iters=8)
    result = optimize(regions, problem, opt)
    assert result.state.iteration == 8
    assert result.final.objective < 0.1


def test_optimize_desk_trials_per_step(monkeypatch):
    """The first 8 desk steps take 12.9 `evaluate` calls each, counting the initial evaluation.

    Their bracket starts from the step before last, which the two-step zigzag
    of steepest descent makes the closer guess, the zoom starts from the
    bracket's lowest trial and its neighbours, and it fits its parabolas
    through the bracket ends and the lowest trial. Zooms that started afresh
    from the golden points of [0, B] took 14.1 calls each, and brackets
    started from the last step and zoomed with Brent's (v, x, w) parabolas
    alone took 19.1.
    """
    from splinemask import optimizer

    calls = []

    def counted_evaluate(problem, regions, near=None):
        calls.append(1)
        return evaluate(problem, regions, near)

    monkeypatch.setattr(optimizer, "evaluate", counted_evaluate)
    problem, regions, opt = desk_setup(max_iters=8)
    result = optimize(regions, problem, opt)
    assert result.state.iteration == 8
    assert len(calls) / result.state.iteration <= 14


def test_loop_records_reject_assignment():
    state = OptimizationState(evaluation=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.iteration = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        TraceEntry(0, 1.0, 0.0).alpha = 0.5
