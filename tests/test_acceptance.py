"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one `[PASS] criterion N` line on success (visible with
pytest -s or in the captured output); a failure reads as the criterion number.
"""
import json

import numpy as np
import pytest
from scipy.special import j1

from splinemask.cli import main
from splinemask.gradient import amplitude_gradient
from splinemask.mesh import (
    TriangleQuadrature,
    TriangleTensor,
    gauss_points,
    polygon_area,
    refine_mesh,
    signed_area,
    triangulate_region,
)
from splinemask.objective import ResistModel, rasterize_target
from splinemask.optics import ImageGrid, bessel_j, forward_amplitude, psf
from splinemask.optimizer import OptimizerConfig, optimize
from splinemask.pipeline import (
    ImagingProblem,
    evaluate,
    finite_difference_gradient,
    gradient_of,
    print_report,
)
from splinemask.spline import PeriodicSplineRegion

from conftest import desk_square_problem, square_region
from test_mesh import triangle_monomial_integral

QUAD = TriangleQuadrature.degree3()


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_quadrature_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        tri = rng.uniform(0.1, 1.1, size=(3, 2))
        while abs(signed_area(*tri)) < 1e-3:
            tri = rng.uniform(0.1, 1.1, size=(3, 2))
        pts = gauss_points(TriangleTensor(tri[None]), QUAD)[0]
        area = abs(signed_area(*tri))
        for i in range(4):
            for j in range(4 - i):
                numeric = float((pts[:, 0] ** i * pts[:, 1] ** j) @ QUAD.weights * area)
                exact = triangle_monomial_integral(tri, i, j)
                worst = max(worst, abs(numeric - exact) / abs(exact))
    assert worst < 1e-12
    report(1, f"degree-3 monomials exact on 100 random triangles (worst rel {worst:.2e})")


def test_criterion_2_polygon_approximation_order():
    r = 0.5
    ratios = []
    for m in (32, 64, 128):
        errs = []
        for count in (m, 2 * m):
            theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
            pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            errs.append(np.pi * r * r - polygon_area(triangulate_region(pts)))
        ratios.append(errs[0] / errs[1])
    for ratio in ratios:
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15
    report(2, f"circle-area error ratios {['%.3f' % r for r in ratios]} are 4 +/- 15%")


def test_criterion_3_provenance_exactness():
    from splinemask.geometry import polygon_perimeter_points
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = triangulate_region(polygon_perimeter_points(corners, 16))
    area_before = polygon_area(mesh)
    # tolerance below initial-max/27 forces at least three full split sweeps
    refined = refine_mesh(mesh, float(mesh.areas().max()) / 28.0)
    residual = np.abs(refined.vertices - refined.provenance @ refined.boundary).max()
    assert residual < 1e-12
    assert abs(polygon_area(refined) - area_before) < 1e-12
    report(3, f"provenance residual {residual:.2e}, area drift "
              f"{abs(polygon_area(refined) - area_before):.2e} after >= 3 sweeps")


def test_criterion_4_forward_imaging_oracle():
    from splinemask.geometry import polygon_perimeter_points
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = refine_mesh(triangulate_region(polygon_perimeter_points(corners, 32)), 0.001)
    grid = ImageGrid(20, 20, 0.1, (-0.45, -0.45))
    quadrature_field = forward_amplitude([mesh], QUAD, grid).values

    sub = (np.arange(512) + 0.5) / 512.0
    cx = np.repeat(sub, 512)
    cy = np.tile(sub, 512)
    cell = (1.0 / 512.0) ** 2
    oracle = np.empty((20, 20))
    for ix, x in enumerate(grid.xs):
        for iy, y in enumerate(grid.ys):
            rho = np.hypot(x - cx, y - cy)
            vals = np.where(rho < 1e-12, np.pi, j1(2 * np.pi * rho) / np.where(rho < 1e-12, 1.0, rho))
            oracle[ix, iy] = vals.sum() * cell
    rel_l2 = np.linalg.norm(quadrature_field - oracle) / np.linalg.norm(oracle)
    assert rel_l2 < 1e-3
    report(4, f"triangle quadrature vs 512x512 Riemann convolution, rel L2 {rel_l2:.2e}")


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(99)
    grid = ImageGrid(20, 20, 0.12, (-1.14, -1.14))
    target = rasterize_target(
        [np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])], grid)
    problem = ImagingProblem(grid, target, ResistModel(), QUAD, refine_max_area=0.03)
    worst = 0.0
    for case in range(5):
        n = int(rng.integers(8, 13))
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        radii = 0.5 + rng.uniform(-0.1, 0.1, n)
        controls = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        region = PeriodicSplineRegion(controls, 2 * n)
        evaluation = evaluate(problem, [region])
        analytic = gradient_of(problem, evaluation)[0]
        numeric = finite_difference_gradient(problem, evaluation, step=1e-6)[0]
        err = float((np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))).max())
        worst = max(worst, err)
        assert err < 1e-4, f"configuration {case} mixed error {err:.3e}"
    report(5, f"5 random configs, curve-image adjoint vs central differences, mixed error worst {worst:.2e}")


def test_criterion_6_bessel_identity():
    xs = np.linspace(0.0, 50.0, 1000)
    h = 1e-6
    fd = (bessel_j(1, xs + h) - bessel_j(1, xs - h)) / (2 * h)
    gap = np.abs(bessel_j(0, xs) - bessel_j(2, xs) - 2 * fd).max()
    assert gap < 1e-7
    root = 3.8317059702075123
    assert abs(bessel_j(1, root)) < 1e-8
    assert abs(psf(0.0, 0.0) - np.pi) < 1e-10
    report(6, f"recursion identity gap {gap:.2e}, |J1(root)| "
              f"{abs(bessel_j(1, root)):.1e}, psf(0) = pi")


def test_criterion_7_square_optimization():
    cfg, problem = desk_square_problem()
    result = optimize([square_region(cfg=cfg)], problem, OptimizerConfig(max_iters=30))
    js = [entry.objective for entry in result.trace]
    assert all(b <= a for a, b in zip(js, js[1:])), "objective must not increase"
    assert result.state.iteration <= 30
    assert js[-1] <= 0.5 * js[0], f"J ratio {js[-1] / js[0]:.3f} above 0.5"
    epe_initial = print_report(problem, result.initial).epe_count
    epe_final = print_report(problem, result.final).epe_count
    assert epe_final < epe_initial
    report(7, f"J {js[0]:.4f} -> {js[-1]:.4f} in {result.state.iteration} iters, "
              f"EPE {epe_initial} -> {epe_final}")


@pytest.mark.blas_threads
def test_criterion_8_multi_region_locality():
    left = np.array([[-1.6, -0.5], [-0.6, -0.5], [-0.6, 0.5], [-1.6, 0.5]])
    right = left + np.array([2.2, 0.0])
    grid = ImageGrid(24, 12, 0.2, (-2.3, -1.1))
    target = rasterize_target([left, right], grid)
    problem = ImagingProblem(grid, target, ResistModel(), QUAD, refine_max_area=0.03)

    def region_for(poly):
        from splinemask.geometry import polygon_perimeter_points
        return PeriodicSplineRegion(polygon_perimeter_points(poly, 10), 20)

    regions = [region_for(left), region_for(right)]
    both = evaluate(problem, regions)
    meshes = [s.mesh for s in both.systems]
    sens = [s.sens for s in both.systems]
    du_both = amplitude_gradient(meshes, QUAD, grid, sens)
    du_left_alone = amplitude_gradient(meshes[:1], QUAD, grid, sens[:1])
    # cross-region coupling is exactly zero: region 2's presence contributes
    # nothing at all to region 1's amplitude derivative
    cross = np.abs(du_both[0] - du_left_alone[0]).max()
    assert cross == 0.0
    u_both = forward_amplitude(meshes, QUAD, grid).values
    u_left = forward_amplitude(meshes[:1], QUAD, grid).values
    assert np.abs(u_both - u_left).max() > 1e-6  # the field itself does change
    assert np.abs(du_both[0] - du_left_alone[0]).max() < 1e-12
    report(8, "cross-region amplitude-gradient coupling exactly 0; "
              "deleting a region leaves the other's gradient unchanged")


@pytest.mark.blas_threads
def test_criterion_9_determinism(tmp_path):
    doc = {
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 20.0, "origin_nm": [-190.0, -190.0]},
        "target_polygons_nm": [[[-100.0, -100.0], [100.0, -100.0],
                                [100.0, 100.0], [-100.0, 100.0]]],
        "regions": [{"num_samples": 24, "init_from_target": 0, "num_controls": 12}],
        "optimizer": {"max_iters": 12},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["--quiet", "optimize", "--config", str(config), "--out", str(out)]) == 0
        outputs.append((out / "convergence.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().strip().splitlines()
    assert len(rows) >= 3  # actually iterated, not a trivial trace
    report(9, f"two optimize runs produced byte-identical convergence.csv ({len(rows) - 1} rows)")
