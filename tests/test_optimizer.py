import numpy as np
import pytest

from splinemask.geometry import SelfIntersectionError, polygon_signed_area
from splinemask.optimizer import (
    OptimizerConfig,
    golden_section,
    init_controls_from_target,
    optimize,
    step,
)
from splinemask.pipeline import evaluate, gradient_of
from splinemask.optimizer import OptimizationState

from conftest import desk_square_problem, square_region


def test_golden_section_quadratic():
    alpha, value = golden_section(lambda a: (a - 1.0) ** 2, 3.0, 1e-6)
    assert alpha == pytest.approx(1.0, abs=1e-5)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_golden_section_monotone_increasing():
    alpha, _ = golden_section(lambda a: 2.0 + a, 5.0, 1e-6)
    assert alpha <= 1e-5


def test_golden_section_handles_inf():
    # infeasible right half: the search must settle in the feasible valley
    def phi(a):
        return float("inf") if a > 1.0 else (a - 0.8) ** 2
    alpha, value = golden_section(phi, 4.0, 1e-7)
    assert alpha == pytest.approx(0.8, abs=1e-5)
    assert np.isfinite(value)


def test_golden_section_matches_dense_scan():
    def phi(a):
        return (a - 0.37) ** 2 + 0.1 * np.sin(10 * a) ** 2
    grid = np.arange(0.0, 1.0, 1e-5)
    dense_argmin = grid[np.argmin([phi(a) for a in grid])]
    alpha, _ = golden_section(phi, 1.0, 1e-6)
    assert alpha == pytest.approx(dense_argmin, abs=1e-4)


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
    new_state, alpha, accepted = step(state, problem, OptimizerConfig())
    assert accepted
    assert alpha > 0
    assert new_state.objective < state.objective
    mesh = new_state.evaluation.systems[0].mesh
    assert np.abs(mesh.vertices - mesh.provenance @ mesh.boundary).max() < 1e-12
    assert (mesh.areas() > 0).all()


def test_step_evaluates_each_trial_once(monkeypatch):
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    evaluations, trials = [], []

    def counted_evaluate(*args, **kwargs):
        evaluations.append(1)
        return evaluate(*args, **kwargs)

    def counted_golden_section(phi, alpha_max, tol):
        def counted_phi(alpha):
            trials.append(alpha)
            return phi(alpha)
        return golden_section(counted_phi, alpha_max, tol)

    monkeypatch.setattr(optimizer, "evaluate", counted_evaluate)
    monkeypatch.setattr(optimizer, "golden_section", counted_golden_section)
    new_state, alpha, accepted = step(state, problem, OptimizerConfig())
    assert accepted
    assert alpha in trials
    assert len(evaluations) == len(trials) > 0


def test_step_builds_the_sensitivity_only_for_the_gradient(monkeypatch):
    from splinemask import pipeline

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    calls = []
    build = pipeline.sensitivity

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(pipeline, "sensitivity", counted)
    _, _, accepted = step(state, problem, OptimizerConfig())
    assert accepted
    assert len(calls) == 1


def test_step_zero_gradient_no_op(monkeypatch):
    from splinemask import optimizer

    cfg, problem = desk_square_problem()
    state = OptimizationState(evaluation=evaluate(problem, [square_region(cfg=cfg)]))
    n = len(state.evaluation.systems[0].region.controls)
    monkeypatch.setattr(optimizer, "gradient_of", lambda problem, evaluation: [np.zeros((n, 2))])
    same_state, alpha, accepted = step(state, problem, OptimizerConfig())
    assert not accepted
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
