import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import j1

from splinemask import geometry, gradient, mesh, optics, pipeline
from splinemask.gradient import amplitude_gradient
from splinemask.mesh import (
    TriangleQuadrature,
    assemble_tensor,
    gauss_points,
    polygon_area,
    refine_mesh,
    triangulate_region,
)
from splinemask.optics import (
    AmplitudeField,
    ImageGrid,
    SMALL_RHO,
    OpticalConfig,
    airy_kernel,
    bessel_j,
    forward_amplitude,
    psf,
    pupil_nodes,
)
from splinemask.optimizer import OptimizerConfig, init_controls_from_target, optimize
from splinemask.pipeline import build_region_system, evaluate, gradient_of
from splinemask.spline import PeriodicSplineRegion, curve_rule, evaluate_curve

from direct_sum import (
    airy_kernel_radial_derivative,
    direct_amplitude_gradient,
    direct_curve_amplitude,
    direct_forward_amplitude,
    identity_node_table,
    point_spectrum,
    two_buffer_phasor_sums,
)
from polygon_spectrum import collapsed_gauss_spectrum, polygon_spectrum
from conftest import desk_square_problem, square_region


J1_FIRST_ROOT = 3.8317059702075123  # frozen from the series-oracle bisection below


def oracle_j1_series(x: float, terms: int = 40) -> float:
    """Power series for J1, independent of the library's Bessel backend.

    Converges to machine precision for |x| <= 6, which covers the first root.
    """
    total = 0.0
    term = x / 2.0
    for k in range(terms):
        total += term
        term *= -(x * x / 4.0) / ((k + 1) * (k + 2))
    return total


def test_bessel_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_bessel_rejects_other_orders():
    with pytest.raises(ValueError):
        bessel_j(3, 1.0)


def test_frozen_root_agrees_with_series_oracle():
    # bisect the independent series around the frozen constant
    lo, hi = 3.5, 4.0
    assert oracle_j1_series(lo) > 0 > oracle_j1_series(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_j1_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - J1_FIRST_ROOT) < 1e-12


def test_bessel_j1_vanishes_at_first_root():
    assert abs(bessel_j(1, J1_FIRST_ROOT)) < 1e-8


def test_bessel_matches_series_oracle():
    for x in np.linspace(0.0, 6.0, 25):
        assert bessel_j(1, x) == pytest.approx(oracle_j1_series(x), abs=1e-13)


def test_bessel_recursion_identity_vs_finite_differences():
    h = 1e-6
    xs = np.linspace(0.0, 50.0, 1000)
    fd = (bessel_j(1, xs + h) - bessel_j(1, xs - h)) / (2 * h)
    identity = bessel_j(0, xs) - bessel_j(2, xs)
    assert np.abs(identity - 2 * fd).max() < 1e-7


def test_psf_peak_and_symmetry():
    assert psf(0.0, 0.0) == pytest.approx(np.pi, abs=1e-10)
    assert psf(0.3, -0.1) == psf(-0.3, -0.1)
    assert psf(0.3, -0.1) == pytest.approx(psf(-0.1, 0.3), abs=1e-15)


def test_psf_first_zero():
    rho0 = J1_FIRST_ROOT / (2 * np.pi)
    assert abs(psf(rho0, 0.0)) < 1e-8


def test_psf_series_handoff_continuous():
    eps = 1e-6
    below = airy_kernel(np.nextafter(eps, 0.0))
    above = airy_kernel(np.nextafter(eps, 1.0))
    assert abs(float(below) - float(above)) < 1e-10


def test_kernel_radial_derivative_matches_fd():
    h = 1e-7
    for rho in (0.05, 0.2, 0.61, 1.3, 4.0):
        fd = (airy_kernel(rho + h) - airy_kernel(rho - h)) / (2 * h)
        assert airy_kernel_radial_derivative(rho) == pytest.approx(float(fd), rel=1e-6, abs=1e-8)
    assert airy_kernel_radial_derivative(0.0) == 0.0


def mp_radial_derivative(rho: float) -> float:
    """dH/drho from 40-digit Bessel values; the Bessel form is exact in this precision."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rho)
        if r == 0:
            return 0.0
        z = 2 * mpmath.pi * r
        return float((z * mpmath.besselj(0, z) - 2 * mpmath.besselj(1, z)) / (r * r))


def test_kernel_radial_derivative_matches_mpmath_down_to_the_peak():
    rhos = np.concatenate([[0.0], np.logspace(-9, -1, 161), np.linspace(0.1, 5.0, 491)])
    values = airy_kernel_radial_derivative(rhos)
    exact = np.array([mp_radial_derivative(r) for r in rhos])
    mixed = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
    assert mixed.max() <= 1e-12
    for rho, value in zip(rhos[::37], values[::37]):
        assert float(airy_kernel_radial_derivative(float(rho))) == value


def test_airy_kernel_bit_identical_to_masked_form():
    # the kernel patches its series into the Bessel quotient only where rho is
    # small; that must equal the whole-array np.where form bit for bit
    rng = np.random.default_rng(17)
    for scale in (1e-7, 1e-6, 1e-3, 1.0, 4.0):
        rho = np.abs(rng.normal(size=(64, 37))) * scale
        rho[rng.random(rho.shape) < 0.05] = 0.0
        safe = np.where(rho < SMALL_RHO, 1.0, rho)
        masked = np.where(rho < SMALL_RHO, np.pi - 0.5 * np.pi**3 * rho**2,
                          j1(2.0 * np.pi * safe) / safe)
        assert airy_kernel(rho).tobytes() == masked.tobytes()
    assert float(airy_kernel(0.0)) == np.pi


def test_normalize_examples():
    cfg = OpticalConfig(193.0, 0.93, -1.0)
    assert cfg.normalize_mask(0.0) == 0.0
    assert cfg.normalize_mask(1.0) == pytest.approx(0.93 / 193.0)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 2)) * 100
    np.testing.assert_allclose(cfg.denormalize_mask(cfg.normalize_mask(pts)), pts, atol=1e-12)


def test_optical_config_validation():
    with pytest.raises(ValueError):
        OpticalConfig(wavelength_nm=-1.0)
    with pytest.raises(ValueError):
        OpticalConfig(numerical_aperture=2.0)
    with pytest.raises(ValueError):
        OpticalConfig(magnification=0.0)


def test_grid_basics():
    grid = ImageGrid(4, 3, 0.5, (1.0, -1.0))
    np.testing.assert_allclose(grid.xs, [1.0, 1.5, 2.0, 2.5])
    np.testing.assert_allclose(grid.ys, [-1.0, -0.5, 0.0])
    scaled = grid.scaled(2.0)
    np.testing.assert_allclose(scaled.xs, 2 * grid.xs)
    assert grid.pixel_area == 0.25
    with pytest.raises(ValueError):
        ImageGrid(1, 3, 0.5, (0.0, 0.0))
    desk = ImageGrid(20, 20, 20.0, (-190.0, -190.0)).scaled(OpticalConfig().scale_per_nm)
    for g in (grid, scaled, desk, ImageGrid(37, 5, 0.1, (-0.0, 1e-3)), ImageGrid(2, 9, 1 / 3, (0.7, -2.9))):
        expected = np.array([g.xs[0] + g.xs[-1], g.ys[0] + g.ys[-1]]) / 2.0
        assert g.center.tobytes() == expected.tobytes()
        # formed once per grid, and no caller can move it
        assert g.center is g.center
        with pytest.raises(ValueError, match="read-only"):
            g.center[0] = 0.0
        assert g.center.tobytes() == expected.tobytes()


def test_grid_for_polygons_covers_bbox():
    poly = [np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 4.0], [0.0, 4.0]])]
    grid = ImageGrid.for_polygons(poly, pitch=1.0, margin=0.2)
    assert grid.xs[0] <= -2.0 + 1.0 and grid.xs[-1] >= 12.0 - 1.0
    assert grid.ys[0] <= -0.8 + 1.0 and grid.ys[-1] >= 4.8 - 1.0


def square_mesh(side=1.0, samples=24, max_area=0.01):
    from splinemask.geometry import polygon_perimeter_points
    corners = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return refine_mesh(triangulate_region(polygon_perimeter_points(corners, samples)), max_area)


def test_forward_empty_is_zero():
    grid = ImageGrid(5, 5, 0.2, (0.0, 0.0))
    field = forward_amplitude([], TriangleQuadrature.degree3(), grid)
    assert np.all(field.values == 0.0)
    assert np.all(field.intensity_values == 0.0)


def test_forward_translation_invariance():
    quad = TriangleQuadrature.degree3()
    mesh = square_mesh(max_area=0.05)
    grid = ImageGrid(8, 8, 0.25, (-0.4, -0.4))
    base = forward_amplitude([mesh], quad, grid)
    shift = np.array([1.7, -0.9])
    moved_mesh = mesh.with_boundary(mesh.boundary + shift)
    moved_grid = ImageGrid(8, 8, 0.25, (-0.4 + shift[0], -0.4 + shift[1]))
    moved = forward_amplitude([moved_mesh], quad, moved_grid)
    assert np.abs(moved.values - base.values).max() < 1e-12


def test_forward_superposition():
    quad = TriangleQuadrature.degree3()
    mesh_a = square_mesh(max_area=0.05)
    mesh_b = mesh_a.with_boundary(mesh_a.boundary + np.array([2.0, 0.0]))
    grid = ImageGrid(10, 10, 0.3, (-0.5, -0.5))
    both = forward_amplitude([mesh_a, mesh_b], quad, grid)
    only_a = forward_amplitude([mesh_a], quad, grid)
    only_b = forward_amplitude([mesh_b], quad, grid)
    assert np.abs(both.values - only_a.values - only_b.values).max() < 1e-12


def test_forward_real_valued_and_intensity():
    field = AmplitudeField(np.array([[1.5, -2.0], [0.0, 3.0]]))
    np.testing.assert_allclose(field.intensity_values, [[2.25, 4.0], [0.0, 9.0]])
    mesh = square_mesh(max_area=0.05)
    out = forward_amplitude([mesh], TriangleQuadrature.degree3(), ImageGrid(6, 6, 0.3, (-0.3, -0.3)))
    assert np.isrealobj(out.values)
    assert (out.intensity_values >= 0.0).all()


def test_forward_refinement_consistency():
    # tightening the area tolerance 8x must shrink the field error clearly;
    # centroid splitting does not preserve aspect ratios, so the observed
    # order sits between first and second in the max-edge sense
    quad = TriangleQuadrature.degree3()
    grid = ImageGrid(8, 8, 0.25, (-0.4, -0.4))
    coarse = forward_amplitude([square_mesh(max_area=0.08)], quad, grid)
    fine = forward_amplitude([square_mesh(max_area=0.01)], quad, grid)
    finest = forward_amplitude([square_mesh(max_area=0.00125)], quad, grid)
    err_coarse = np.abs(coarse.values - finest.values).max()
    err_fine = np.abs(fine.values - finest.values).max()
    assert err_coarse / err_fine > 2.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.5, 1.0), two_regions=st.booleans(),
       nx=st.integers(2, 12), ny=st.integers(2, 12), pitch=st.floats(0.02, 0.3),
       origin=st.tuples(st.floats(-1.5, 0.5), st.floats(-1.5, 0.5)))
def test_pupil_integral_matches_direct_sum(desk_square, seed, scale, two_regions, nx, ny, pitch,
                                           origin):
    # perturbed, scaled copies of the desk square on grids whose largest
    # point-to-pixel distance D runs from about 0.4 to 5
    cfg, problem, region = desk_square
    rng = np.random.default_rng(seed)
    regions = [region.with_controls(scale * region.controls
                                    + rng.uniform(-0.05, 0.05, region.controls.shape))]
    if two_regions:
        regions.append(regions[0].with_controls(regions[0].controls + [1.2, 0.3]))
    grid = ImageGrid(nx, ny, pitch, origin)
    systems = [build_region_system(r, problem) for r in regions]
    meshes = [s.mesh for s in systems]
    sens = [s.sens for s in systems]

    u = forward_amplitude(meshes, problem.quad, grid).values
    assert np.abs(u - direct_forward_amplitude(meshes, problem.quad, grid).values).max() <= 1e-12
    fields = amplitude_gradient(meshes, problem.quad, grid, sens)
    for got, want in zip(fields, direct_amplitude_gradient(meshes, problem.quad, grid, sens)):
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_pupil_integral_matches_direct_sum_over_the_rule_reach(desk_square):
    # a quarter-size desk square imaged on 5 x 4 px grids placed beside it,
    # from next to the mask out to the far end of the mesh checks the node
    # rule was fitted on, D from 0.85 to 11
    cfg, problem, region = desk_square
    rng = np.random.default_rng(7)
    moved = region.with_controls(0.25 * region.controls
                                 + rng.uniform(-0.01, 0.01, region.controls.shape))
    system = build_region_system(moved, problem)
    meshes, sens = [system.mesh], [system.sens]
    points = gauss_points(assemble_tensor(system.mesh), problem.quad)
    reaches = []
    for x0 in (0.29, 0.6, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 10.5):
        grid = ImageGrid(5, 4, 0.1, (x0, -0.15))
        reaches.append(optics.grid_reach(grid, points))
        u = forward_amplitude(meshes, problem.quad, grid).values
        assert np.abs(u - direct_forward_amplitude(meshes, problem.quad, grid).values).max() <= 1e-12
        fields = amplitude_gradient(meshes, problem.quad, grid, sens)
        for got, want in zip(fields, direct_amplitude_gradient(meshes, problem.quad, grid, sens)):
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
    assert min(reaches) <= 0.85 and max(reaches) >= 11.0


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(-9.0, 0.0), seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 6),
       ny=st.integers(2, 6))
@example(exponent=0.0, seed=0, nx=6, ny=6)
def test_curve_image_matches_the_direct_boundary_sum_over_every_reach(exponent, seed, nx, ny):
    # D log-uniform over (0, MAX_REACH]: a wavy loop of 12 controls and a
    # small grid beside it, scaled together so that the grid's reach over
    # the loop's Gauss points is D
    reach = optics.MAX_REACH * 10.0 ** exponent
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(12) + rng.uniform(-0.3, 0.3, 12)) / 12
    radii = rng.uniform(0.2, 1.0) * rng.uniform(0.7, 1.3, 12)
    direction = rng.uniform(0.0, 2.0 * np.pi)
    controls = (np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
                + rng.uniform(0.0, 2.0) * np.array([np.cos(direction), np.sin(direction)]))
    rule = curve_rule(PeriodicSplineRegion(controls, 24))
    points, steps = rule.basis @ controls, rule.weights * (controls.T @ rule.slope.T)
    pitch = rng.uniform(0.02, 0.5)
    grid = ImageGrid(nx, ny, pitch, (-0.5 * (nx - 1) * pitch, -0.5 * (ny - 1) * pitch))
    scale = reach / optics.grid_reach(grid, points)
    grid, points, steps = grid.scaled(scale), scale * points, scale * steps
    assert optics.grid_reach(grid, points) == pytest.approx(reach, rel=1e-12)
    got = optics.curve_amplitude([(points, steps, 1.0)], grid)
    assert np.abs(got - direct_curve_amplitude(points, steps, 1.0, grid)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 40), ny=st.integers(2, 40),
       pitch=st.floats(0.01, 0.3), origin=st.tuples(st.floats(-3.0, 1.0), st.floats(-3.0, 1.0)))
def test_vertex_reach_bounds_the_quadrature_points_and_is_the_sample_reach(desk_square, seed, nx, ny,
                                                                          pitch, origin):
    # the distance to a grid corner is convex: over a triangle it peaks at a
    # vertex, over the mesh at a boundary sample, and over the spline's
    # samples at a control (each sample is a convex combination of controls)
    cfg, problem, region = desk_square
    jitter = np.random.default_rng(seed).uniform(-0.03, 0.03, region.controls.shape)
    moved = region.with_controls(region.controls + jitter)
    mesh = build_region_system(moved, problem).mesh
    grid = ImageGrid(nx, ny, pitch, origin)
    vertices = optics.grid_reach(grid, mesh.vertices)
    assert optics.grid_reach(grid, gauss_points(assemble_tensor(mesh), problem.quad)) <= vertices
    assert vertices == pytest.approx(optics.grid_reach(grid, mesh.boundary), rel=1e-12, abs=0)
    assert vertices <= optics.grid_reach(grid, moved.controls)


# desk: the criterion-7 square, 20 x 20 px and 12 controls; full: the
# test_fullscale square, 100 x 100 px, 40 controls and 100 samples
SQUARES = {
    "desk": (dict(), dict()),
    "full": (dict(nx=100, ny=100, pixel_nm=4.0, refine_max_area=0.01, origin_nm=(-198.0, -198.0)),
             dict(num_controls=40, num_samples=100)),
}


def initial_square(name):
    """The problem, the system at the initial controls, and the node table of its mesh."""
    problem_args, region_args = SQUARES[name]
    cfg, problem = desk_square_problem(**problem_args)
    system = build_region_system(square_region(cfg=cfg, **region_args), problem)
    return problem, system, optics.node_table(problem.grid, system.mesh.vertices)


@pytest.mark.parametrize("name", SQUARES)
def test_polygon_spectrum_matches_a_collapsed_gauss_rule_on_the_unrefined_mesh(name):
    # the unrefined triangles tile the sample polygon exactly, either way round
    problem, system, nodes = initial_square(name)
    vertices = system.mesh.vertices - problem.grid.center
    loop = vertices[:len(system.samples)]
    gauss = collapsed_gauss_spectrum(vertices, triangulate_region(system.samples).triangles, nodes.k)
    for exact in (polygon_spectrum(loop, nodes), polygon_spectrum(loop[::-1], nodes)):
        assert np.abs(exact - gauss).max() <= 1e-13 * polygon_area(system.mesh)


def curves(name):
    """The problem and the regions of a named curve case: desk at its initial or final controls, twin, full."""
    if name == "twin":
        # the two-rectangle gradcheck workload: 48 x 36 px at 10 nm, 16 controls and 32 samples each
        cfg, problem = desk_square_problem(nx=48, ny=36, pixel_nm=10.0, origin_nm=(-235.0, -175.0))
        rects = [np.array([[x0, -100.0], [x0 + 120.0, -100.0], [x0 + 120.0, 100.0], [x0, 100.0]])
                 for x0 in (-140.0, 20.0)]
        return problem, [r.with_controls(cfg.normalize_mask(r.controls)) for r in init_controls_from_target(rects, 16, 32)]
    problem_args, region_args = SQUARES["full" if name == "full" else "desk"]
    cfg, problem = desk_square_problem(**problem_args)
    region = square_region(cfg=cfg, **region_args)
    if name == "desk final":
        region = optimize([region], problem, OptimizerConfig(max_iters=30)).final.systems[0].region
    return problem, [region]


def extrapolated_polygon_spectrum(region, nodes, center):
    """The Richardson extrapolation of the 3200- and 6400-gon spectra through the curve: their error is O(m^-2)."""
    s3200, s6400 = (polygon_spectrum(evaluate_curve(region, np.arange(m) / m) - center, nodes) for m in (3200, 6400))
    return (4.0 * s6400 - s3200) / 3.0


@pytest.mark.parametrize("name", ["desk initial", "desk final", "twin", "full"])
def test_curve_spectrum_matches_the_extrapolated_dense_polygons(name):
    # 5 points per span came within 1.2e-8, 1.1e-6, 1.1e-9 and 1.1e-11 of max |S| here
    problem, regions = curves(name)
    for system in evaluate(problem, regions).systems:
        points, steps = system.curve
        nodes = optics.node_table(problem.grid, points)
        got = optics.curve_spectrum(points - problem.grid.center, steps, system.orientation, nodes)
        want = extrapolated_polygon_spectrum(system.region, nodes, problem.grid.center)
        assert np.abs(got - want).max() <= 2e-6 * np.abs(want).max()


# a node table for drawn loops: 13 rings, K = 248; the outer ring's |k| is 6.23
DRAWN_GRID = ImageGrid(8, 8, 0.5, (-1.75, -1.75))
DRAWN_COUNTS = (13, 30)
# |S - Gauss| / max |S| on drawn loops: 600 derandomized draws reached 1.7e-13
DRAWN_LOOP_RTOL = 1e-12


def drawn_loop(kind, length, turn, tilt, side, arc, radii, offset, nodes):
    """A simple loop (m, 2), counterclockwise and star-shaped about the point `apex`; returns (loop, apex).

    Its first edge, d, is of `kind`: "plain" of `length` at angle `tilt`;
    "vertical", d_x = 0, so that k . d = 0 exactly on the nodes with
    k_y = 0; "tiny", 1e-9 `length` long, so |k . d / 4| <= 5e-9;
    "quarter turn", k . d / 4 = (pi / 2)(1 - turn) at the outer node nearest
    `tilt`. `side` picks its sign. The other vertices lie on an arc left of
    d at angles `arc` (in (0, 1) of a half turn) and radii `radii` (of |d|
    / 2, or of 1 for a tiny edge). The loop is moved by `offset`.
    """
    sign = 1.0 if side else -1.0
    if kind == "quarter turn":
        k = nodes.k
        outer = np.flatnonzero(np.isclose(np.hypot(*k), np.hypot(*k).max()))
        j = outer[np.argmin(np.abs(np.arctan2(k[1, outer], k[0, outer]) - tilt % np.pi))]
        d = sign * (2.0 * np.pi * (1.0 - turn)) * k[:, j] / (k[:, j] @ k[:, j])
    elif kind == "vertical":
        d = np.array([0.0, sign * length])
    else:
        d = sign * (length if kind == "plain" else 1e-9 * length) * np.array([np.cos(tilt), np.sin(tilt)])
    half = np.hypot(*d) / 2.0 if kind != "tiny" else 0.5
    base = np.arctan2(d[1], d[0])
    angles = base + np.pi * np.sort(arc)
    arc_points = (half * np.asarray(radii))[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    loop = np.vstack([-d / 2.0, d / 2.0, arc_points]) + offset
    apex = offset + 1e-3 * half * np.array([-np.sin(base), np.cos(base)])
    return loop, apex


def fat_fan(loop, apex):
    """Whether every triangle (apex, loop[i], loop[i + 1]) is counterclockwise, with room to spare, and the loop is fat.

    The first makes the loop star-shaped about the apex, so simple, and the
    fan a triangulation of it. Fat means 4 pi area / perimeter^2 >= 0.2: at
    nodes with |k| small against 1 / perimeter the edge terms cancel to the
    spectrum, and their rounding, about eps perimeter / |k| each, is then
    many times eps max |S| on a sliver.
    """
    a = loop - apex
    b = np.roll(a, -1, axis=0)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    perimeter = np.hypot(*(b - a).T).sum()
    star = (cross > 1e-6 * np.hypot(*a.T) * np.hypot(*(b - a).T)).all()
    return star and 2 * np.pi * cross.sum() >= 0.2 * perimeter**2


@settings(max_examples=40, deadline=None)
@example(kind="vertical", length=1.3, turn=0.0, tilt=0.0, side=True, arc=[0.3, 0.7], radii=[1.0, 1.2],
         offset=(0.0, 0.0))
@example(kind="tiny", length=1.0, turn=0.0, tilt=0.3, side=True, arc=[0.2, 0.6, 0.9], radii=[1.0, 0.8, 1.3],
         offset=(0.4, -0.2))
@example(kind="quarter turn", length=1.0, turn=1e-12, tilt=0.7, side=False, arc=[0.5], radii=[1.5],
         offset=(0.0, 0.0))
@example(kind="quarter turn", length=1.0, turn=0.0, tilt=2.0, side=True, arc=[0.25, 0.75], radii=[1.0, 1.0],
         offset=(-3.1, 2.7))
@given(kind=st.sampled_from(["plain", "vertical", "tiny", "quarter turn"]), length=st.floats(0.2, 3.0),
       turn=st.sampled_from([0.0, 1e-14, 1e-9, 1e-4, -1e-9]), tilt=st.floats(0.0, 2 * np.pi), side=st.booleans(),
       arc=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6, unique=True),
       radii=st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6),
       offset=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_polygon_spectrum_matches_a_collapsed_gauss_rule_on_drawn_loops(kind, length, turn, tilt, side, arc,
                                                                       radii, offset):
    # the oracle on simple loops with an edge at k . d = 0 exactly, a tiny
    # edge, an edge at k . d / 4 near +-pi / 2, where a tangent form of the
    # sinc would be largest, and loops off the grid center, against the fan
    # of triangles from the loop's apex
    nodes = optics.node_table_at(DRAWN_GRID, *DRAWN_COUNTS)
    loop, apex = drawn_loop(kind, length, turn, tilt, side, arc, radii[:len(arc)], np.asarray(offset), nodes)
    assume(fat_fan(loop, apex))
    m = len(loop)
    fan = np.stack([np.full(m, m), np.arange(m), (np.arange(m) + 1) % m], axis=1)
    gauss = collapsed_gauss_spectrum(np.vstack([loop, apex]), fan, nodes.k, order=24)
    exact = polygon_spectrum(loop, nodes)
    assert np.abs(exact - gauss).max() <= DRAWN_LOOP_RTOL * np.abs(gauss).max()


@pytest.mark.parametrize("name, bound", [("desk", 1.95e-3), ("full", 3.26e-3)])
def test_mesh_image_error_against_the_exact_polygon_image_stays_bounded(name, bound):
    # relative L2 error of the refined mesh's image at the initial controls,
    # measured at 1.943e-3 on desk and 3.200e-3 on full
    problem, system, _ = initial_square(name)
    nodes = optics.node_table(problem.grid, system.samples)
    exact = nodes.synthesize(polygon_spectrum(system.samples - problem.grid.center, nodes))
    mesh = forward_amplitude([system.mesh], problem.quad, problem.grid).values
    assert np.linalg.norm(mesh - exact) <= bound * np.linalg.norm(exact)


def test_an_evaluation_and_its_gradient_take_each_loop_area_once(desk_square, monkeypatch):
    # the image and the adjoint take the loop's orientation from the area check_loop found
    areas = []
    shoelace = geometry.polygon_signed_area
    for module in (mesh, pipeline):
        monkeypatch.setattr(module, "polygon_signed_area", lambda loop: areas.append(1) or shoelace(loop))
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, [region])
    gradient_of(problem, evaluation)
    assert len(areas) == 1
    assert evaluation.systems[0].orientation == 1.0


def test_cis_matches_mpmath_up_to_the_largest_reach():
    # cis x = exp(i x) as `point_spectra` forms it, for the point (-1, 0)
    # and wave vectors (x, 0): a grid and random phases over
    # |x| <= 2 pi MAX_REACH, every multiple of pi / 2 there and its float
    # neighbours, and the floats next to +-pi, where tan(x / 2) is largest
    reach = 2.0 * np.pi * optics.MAX_REACH
    quarters = np.arange(-400, 401) * (np.pi / 2.0)
    beside_pi = np.pi + np.spacing(np.pi) * np.arange(-4, 5)
    xs = np.concatenate([np.linspace(-reach, reach, 2001), np.random.default_rng(0).uniform(-reach, reach, 2000),
                         quarters, np.nextafter(quarters, np.inf), np.nextafter(quarters, -np.inf),
                         beside_pi, -beside_pi, np.logspace(-12, 0, 40)])
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.cos(x), mpmath.sin(x)) for x in map(mpmath.mpf, xs)])
    cis = optics.point_spectra(np.array([[-1.0, 0.0]]), np.ones(1), np.stack([xs, np.zeros_like(xs)]))
    assert np.abs(cis - exact).max() <= 4.5e-16


def test_the_edge_kernels_and_cis_evaluate_no_sin_or_cos(desk_square, monkeypatch):
    # the curve kernels that image a region's boundary and its gradient, and
    # `point_spectra`, which forms cis x = exp(i x) for them, use tangents only
    cfg, problem, region = desk_square
    system = evaluate(problem, [region]).systems[0]
    points, steps = system.curve
    nodes = optics.node_table(problem.grid, points)
    rule = curve_rule(system.region)
    weight = np.ones((problem.grid.nx, problem.grid.ny))
    optics.curve_amplitude([(points, steps, system.orientation)], problem.grid)  # fill the node-table cache

    def refuse(*args, **kwargs):
        raise AssertionError("a sin or cos was evaluated")

    monkeypatch.setattr(np, "sin", refuse)
    monkeypatch.setattr(np, "cos", refuse)
    xs = np.linspace(-5.0, 5.0, 11)
    optics.point_spectra(np.array([[-1.0, 0.0]]), np.ones(1), np.stack([xs, np.zeros_like(xs)]))
    optics.curve_spectrum(points - problem.grid.center, steps, system.orientation, nodes)
    gradient.curve_gradient(rule, points - problem.grid.center, steps, system.orientation, nodes, nodes.adjoint(weight))


def test_the_tangent_forms_hold_with_scalar_libm_tan():
    # numpy evaluates tan with a SIMD loop on AVX-512 and with libm without
    # it; the two round differently, and both must meet the tolerances
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [feature for feature in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
              if feature in __cpu_dispatch__ and __cpu_features__.get(feature)]
    if not avx512:
        pytest.skip("numpy dispatches no AVX-512 feature here")
    tree = str(Path(optics.__file__).parents[1])  # the source tree under test
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(avx512),
               PYTHONPATH=os.pathsep.join(filter(None, [tree, os.environ.get("PYTHONPATH")])))
    tests = [f"{Path(__file__).name}::{name}" for name in (
        "test_cis_matches_mpmath_up_to_the_largest_reach", "test_curve_spectrum_matches_the_extrapolated_dense_polygons",
        "test_curve_image_matches_the_direct_boundary_sum_over_every_reach")]
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                         cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "6 passed" in run.stdout


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 12), ny=st.integers(2, 12), reach=st.floats(0.3, 6.0))
def test_node_table_adjoint_is_the_transpose_of_synthesis(seed, nx, ny, reach):
    # sum W U = Re sum_k L_k S_k for the image U of any spectrum S
    rng = np.random.default_rng(seed)
    grid = ImageGrid(nx, ny, 0.1, (-0.3, 0.2))
    nodes = optics.node_table_at(grid, *optics.pupil_node_counts(reach))
    k = nodes.k.shape[1]
    spectrum = rng.normal(size=k) + 1j * rng.normal(size=k)
    weight = rng.normal(size=(nx, ny))
    got = np.real(nodes.adjoint(weight) @ spectrum)
    want = np.sum(weight * nodes.synthesize(spectrum))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(weight).sum() * np.abs(spectrum).sum())


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 39), ny=st.integers(2, 39), pitch=st.floats(1e-3, 1.0), centered=st.booleans(),
       origin=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), exponent=st.floats(-7.0, 2.0))
@example(nx=39, ny=39, pitch=1.0, centered=True, origin=(0.0, 0.0), exponent=2.0)
def test_node_table_is_bitwise_the_identity_contraction(nx, ny, pitch, centered, origin, exponent):
    # the grid-side exponentials formed straight from `phasors` are bit for
    # bit the point spectra of the grid lines with identity coefficient rows,
    # for reaches from 1e-7 to MAX_REACH, and a fresh table forms no point
    # spectrum
    if centered:
        origin = (-(nx - 1) * pitch / 2.0, -(ny - 1) * pitch / 2.0)
    grid = ImageGrid(nx, ny, pitch, origin)
    counts = optics.pupil_node_counts(10.0 ** exponent)
    kernel, calls = optics.point_spectra, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics, "point_spectra", lambda *args: calls.append(args) or kernel(*args))
        patch.setattr(optics, "_node_tables", {})
        got = optics.node_table_at(grid, *counts)
    assert not calls
    want = identity_node_table(grid, *counts)
    for name in ("k", "edge_factor", "wex", "ey"):
        table, reference = getattr(got, name), getattr(want, name)
        assert table.shape == reference.shape and table.tobytes() == reference.tobytes()
    assert got.ey.flags.c_contiguous


def mp_legendre_rule(n: int) -> tuple[list, list]:
    """Gauss-Legendre nodes and weights on [-1, 1] to 40 digits, in increasing order.

    Two Newton steps on P_n from each float node of `optics.leggauss`, with
    P_n and P_n' from the three-term recurrence, and w = 2 / ((1 - x^2) P_n'^2).
    The rule is symmetric, so only the nodes up to 0 are refined.
    """
    with mpmath.workdps(40):
        low = []
        for start in optics.leggauss(n)[0][: (n + 1) // 2]:
            x = mpmath.mpf(float(start))
            for _ in range(2):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                slope = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / slope
            low.append((x, 2 / ((1 - x * x) * slope * slope)))
        high = [(-x, w) for x, w in reversed(low[: n // 2])]
        nodes, weights = zip(*low, *high)
    return list(nodes), list(weights)


@pytest.mark.parametrize("n", [optics.MIN_RINGS, 8, 9, 16, 33, 64, 79, 128,
                               optics.pupil_node_counts(optics.MAX_REACH)[0], 200])
def test_radial_rule_matches_mpmath(n):
    # n from the smallest radial count, MIN_RINGS, up to the largest,
    # pupil_node_counts(MAX_REACH)[0], and past it; numpy's rule and scipy's
    # roots_legendre both came within 1.9e-14 on every n in 8..276
    t, w = optics.leggauss(n)
    nodes, weights = mp_legendre_rule(n)
    assert all(a < b for a, b in zip(nodes, nodes[1:]))  # n distinct roots of P_n, so all of them
    assert max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(t, nodes)) <= 2.3e-16
    assert max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(w, weights)) <= 5e-14
    # the rings of pupil_nodes are this rule moved to [0, 1]
    freqs, _ = pupil_nodes(n, 1)
    assert freqs[0][freqs[1] == 0.0].tolist() == (0.5 * (t + 1.0)).tolist()


@pytest.mark.parametrize("reach", [0.3, 1.0, 2.4, 5.0, 11.0, 40.0])
def test_pupil_nodes_give_each_ring_the_angular_rule_at_its_radius(reach):
    n_r, n_theta = optics.pupil_node_counts(reach)
    freqs, weights = pupil_nodes(n_r, n_theta)
    fx, fy = freqs
    # each ring starts at theta = 0, the only node of the ring with fy = 0
    starts = np.flatnonzero(fy == 0.0)
    counts = np.diff([*starts, len(fy)])
    radii = fx[starts]
    assert len(starts) == n_r
    assert n_theta == np.ceil(optics.ring_count(reach))
    assert (counts >= np.ceil(optics.ring_count(radii * reach))).all()
    assert (counts <= n_theta).all()
    assert len(weights) == counts.sum() < n_r * n_theta
    for start, n, r in zip(starts, counts, radii):
        ring = slice(start, start + n)
        np.testing.assert_allclose(np.hypot(fx[ring], fy[ring]), r, rtol=1e-15)
        np.testing.assert_allclose(np.arctan2(fy[ring], fx[ring]), np.arange(n) * np.pi / n,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights[ring], weights[start])
    # twice the half-disk integrals of 1, |f| ** 2 and fx ** 2, exact for this rule
    np.testing.assert_allclose(weights.sum(), np.pi, rtol=1e-14)
    np.testing.assert_allclose(weights @ (fx * fx + fy * fy), np.pi / 2, rtol=1e-14)
    np.testing.assert_allclose(weights @ (fx * fx), np.pi / 4, rtol=1e-14)
    for table in (freqs, weights):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@settings(max_examples=200, deadline=None)
@given(exponents=st.tuples(st.floats(-9.0, 0.0), st.floats(-9.0, 0.0)))
@example(exponents=(-9.0, 0.0))
def test_pupil_node_counts_never_fall_as_the_reach_grows(exponents):
    # D log-uniform over (0, MAX_REACH]: both counts and K grow with D
    near, far = sorted(optics.MAX_REACH * 10.0 ** e for e in exponents)
    counts = [optics.pupil_node_counts(reach) for reach in (near, far)]
    assert counts[0][0] <= counts[1][0] and counts[0][1] <= counts[1][1]
    assert len(pupil_nodes(*counts[0])[1]) <= len(pupil_nodes(*counts[1])[1])


def test_pupil_node_counts_refuse_a_reach_past_the_bound():
    # the Gauss points of a curve within MAX_REACH can round a few ulps past
    # it (4e-16 relative in the reach test above); a reach farther, or not a
    # number, is a MeshError
    assert optics.pupil_node_counts(optics.MAX_REACH * (1 + 4e-16)) == optics.pupil_node_counts(optics.MAX_REACH)
    for reach in (optics.MAX_REACH * (1 + 1e-9), 101.0, math.inf, math.nan):
        with pytest.raises(mesh.MeshError, match="pupil rule"):
            optics.pupil_node_counts(reach)


def test_forward_and_gradient_form_phasors_in_one_place(desk_square, monkeypatch):
    # the chain's image and gradient and the mesh image and its gradient each
    # form their phasors in `point_spectra`, and with their node tables built
    # none of them evaluates a sin or a cos, or an exp of a complex phase;
    # the resist sigmoid takes exp of real values
    cfg, problem, region = desk_square
    system = build_region_system(region, problem)
    mesh, sens = system.mesh, system.sens
    steps = {
        "evaluate": lambda: evaluate(problem, [region]),
        "gradient_of": lambda: gradient_of(problem, evaluate(problem, [region])),
        "forward_amplitude": lambda: forward_amplitude([mesh], problem.quad, problem.grid),
        "amplitude_gradient": lambda: amplitude_gradient([mesh], problem.quad, problem.grid, [sens]),
    }
    for step in steps.values():
        step()  # fill the node-table and rule caches
    assert gradient.point_spectra is optics.point_spectra
    kernel, calls = optics.point_spectra, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    def refuse(name, real_ok):
        ufunc = getattr(np, name)

        def call(x, *args, **kwargs):
            if not (real_ok and np.isrealobj(x)):
                raise AssertionError(f"{name} evaluated on a phase")
            return ufunc(x, *args, **kwargs)
        return call

    monkeypatch.setattr(optics, "point_spectra", counted)
    monkeypatch.setattr(gradient, "point_spectra", counted)
    for name, real_ok in (("sin", False), ("cos", False), ("exp", True)):
        monkeypatch.setattr(np, name, refuse(name, real_ok))
    for name, step in steps.items():
        calls.clear()
        step()
        assert calls, f"{name} formed its phasors elsewhere"


def test_degree3_rule_is_bytewise_the_float_literals(desk_square):
    # 5/15, 9/15 and 3/15 round to the same doubles as 1/3, 0.6 and 0.2
    third = 1.0 / 3.0
    literal = np.array([[third, 0.6, 0.2, 0.2], [third, 0.2, 0.6, 0.2], [third, 0.2, 0.2, 0.6]])
    quad = TriangleQuadrature.degree3()
    assert quad.barycentric.tobytes() == literal.tobytes()
    cfg, problem, region = desk_square
    tensor = assemble_tensor(build_region_system(region, problem).mesh)
    want = np.einsum("tjc,jq->tqc", tensor.coords, literal)
    assert gauss_points(tensor, quad).tobytes() == want.tobytes()


def dense_desk_system(problem, region):
    """The desk square grown 1.3x and refined to 882 triangles, the size of a large line-search trial."""
    grown = region.with_controls(1.3 * region.controls)
    system = build_region_system(grown, replace(problem, refine_max_area=0.003))
    assert 850 <= system.mesh.num_triangles <= 900
    return system


def assert_spectra_match_point_oracle(mesh, quad, grid, coef, slot_coef):
    # per-triangle coefficients (..., T) stand for coef_t w_q at the points,
    # per-slot ones (..., 3, T) for sum_j slot_coef_jt w_q L_jq
    nodes = optics.node_table(grid, mesh.vertices)
    points = gauss_points(assemble_tensor(mesh), quad).reshape(-1, 2) - grid.center
    at_points = (coef[..., None] * quad.weights).reshape(*coef.shape[:-1], -1)
    slot_at_points = np.einsum("...jt,jq->...tq", slot_coef, quad.weights * quad.barycentric)
    for point_coef in (at_points, slot_at_points.reshape(*slot_coef.shape[:-2], -1)):
        got = optics.point_spectra(points, point_coef, nodes.k)
        want = point_spectrum(points, nodes.k, point_coef)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert (np.abs(got - want) <= 1e-14 * scale).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.5, 1.3), block=st.sampled_from([1, 300, None]))
def test_point_spectra_match_point_oracle(desk_square, seed, scale, block):
    # random perturbations of the desk square; a small block forces several
    # point blocks down to one point per block, and 300 leaves a short last
    # block. The forward (area) coefficients come first, then random
    # per-triangle and per-slot ones
    cfg, problem, region = desk_square
    rng = np.random.default_rng(seed)
    moved = region.with_controls(scale * region.controls
                                 + rng.uniform(-0.05, 0.05, region.controls.shape))
    mesh = build_region_system(moved, problem).mesh
    nt = mesh.num_triangles
    coef = np.concatenate([mesh.areas()[None], rng.normal(size=(3, nt))])
    slot_coef = rng.normal(size=(2, 3, nt))
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(optics, "POINT_BLOCK", block)
        assert_spectra_match_point_oracle(mesh, problem.quad, problem.grid, coef, slot_coef)


@pytest.mark.blas_threads
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 3), max_size=2),
       block=st.sampled_from([1, 7, 64, optics.POINT_BLOCK]), num_blocks=st.integers(1, 3),
       short=st.integers(0, optics.POINT_BLOCK - 1), num_nodes=st.integers(1, 40))
@example(seed=0, lead=[3], block=optics.POINT_BLOCK, num_blocks=1, short=0, num_nodes=40)
@example(seed=1, lead=[2, 3], block=optics.POINT_BLOCK, num_blocks=3, short=0, num_nodes=40)
@example(seed=2, lead=[], block=optics.POINT_BLOCK, num_blocks=3, short=300, num_nodes=40)
def test_phasor_sums_match_the_two_buffer_contraction(seed, lead, block, num_blocks, short, num_nodes):
    # block sums added straight into one complex result, its imaginary part
    # doubled once, are bit for bit real sums copied into it, over coefficient
    # stacks of any shape and magnitude and over one block, several and a
    # short last block
    num_points = num_blocks * block - short % block
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(*lead, num_points)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(*lead, 1))
    table = rng.uniform(-1.0, 1.0, size=(2, num_points, num_nodes))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics, "POINT_BLOCK", block)
        blocks = [table[:, start:start + block] for start in range(0, num_points, block)]
        got = optics.phasor_sums(coef, iter(blocks), num_nodes)
        want = two_buffer_phasor_sums(coef, iter(blocks), num_nodes)
    assert got.shape == want.shape == (*lead, num_nodes)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 300, optics.POINT_BLOCK])
def test_point_spectra_match_point_oracle_on_a_dense_mesh(desk_square, monkeypatch, block):
    cfg, problem, region = desk_square
    system = dense_desk_system(problem, region)
    mesh = system.mesh
    # 882 triangles, 3528 points: a multiple of none of the blocks but 1
    num_points = mesh.num_triangles * problem.quad.num_points
    assert num_points % 300 and num_points % optics.POINT_BLOCK
    monkeypatch.setattr(optics, "POINT_BLOCK", block)
    # the forward's area coefficients and the gradient's slot coefficients of control 0
    slot_coef = (mesh.areas()[:, None] * system.sens[mesh.triangles, 0]).T
    assert_spectra_match_point_oracle(mesh, problem.quad, problem.grid, mesh.areas(), slot_coef)


def test_mesh_image_takes_any_rule(desk_square):
    # the mesh image sums the points of whatever rule it is given: under the
    # one-point centroid rule it matches the plain kernel sums as the
    # degree-3 rule does
    cfg, problem, region = desk_square
    system = build_region_system(region, problem)
    centroid = TriangleQuadrature(np.full((3, 1), 1.0 / 3.0), np.array([1.0]))
    grid = problem.grid
    u = forward_amplitude([system.mesh], centroid, grid).values
    assert np.abs(u - direct_forward_amplitude([system.mesh], centroid, grid).values).max() <= 1e-12
    (d_got,) = amplitude_gradient([system.mesh], centroid, grid, [system.sens])
    (d_want,) = direct_amplitude_gradient([system.mesh], centroid, grid, [system.sens])
    assert np.abs(d_got - d_want).max() <= 1e-11 * np.abs(d_want).max()


def traced_peak(fn) -> int:
    fn()  # fill the node and grid-table caches first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_and_gradient_memory_stays_bounded_on_a_dense_mesh(desk_square):
    # The bounds are the peaks of the per-point spectrum this replaced (one
    # cos/sin per point, 512 points per block) on this mesh. Forming all
    # Q x K point phasors in one block instead peaked at 51 MB here.
    cfg, problem, region = desk_square
    system = dense_desk_system(problem, region)
    mesh, sens = system.mesh, system.sens
    forward = traced_peak(lambda: forward_amplitude([mesh], problem.quad, problem.grid))
    grad = traced_peak(lambda: amplitude_gradient([mesh], problem.quad, problem.grid, [sens]))
    assert forward <= 3.63e6
    assert grad <= 5.33e6


def test_synthesis_of_a_strided_view_matches_its_contiguous_copy():
    # 40 controls' x and y derivative spectra on the full-scale 100 x 100 px
    # grid, laid out control-major and viewed axis-swapped: bit for bit the
    # image of the contiguous copy, at no higher traced peak
    cfg, problem = desk_square_problem(**SQUARES["full"][0])
    nodes = optics.node_table_at(problem.grid, *optics.pupil_node_counts(2.0))
    rng = np.random.default_rng(4)
    k = nodes.k.shape[1]
    view = (rng.normal(size=(40, 2, k)) + 1j * rng.normal(size=(40, 2, k))).swapaxes(0, 1)
    copy = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous
    assert nodes.synthesize(view).tobytes() == nodes.synthesize(copy).tobytes()
    assert traced_peak(lambda: nodes.synthesize(view)) <= traced_peak(lambda: nodes.synthesize(copy))


def test_warm_adjoint_holds_one_grid_side_array():
    # the y-side sums are conjugated and multiplied by wex in place, so one
    # warm call on the full-scale grid holds one (nx, K) complex array
    problem, system, _ = initial_square("full")
    nodes = optics.node_table(problem.grid, system.curve[0])
    weight = np.random.default_rng(5).normal(size=(problem.grid.nx, problem.grid.ny))
    assert traced_peak(lambda: nodes.adjoint(weight)) <= 1.25 * 16 * problem.grid.nx * nodes.k.shape[1]


def test_node_table_build_holds_the_table_and_one_block_of_lines():
    # a 1024-sample grid side, two blocks of lines: the grid lines' phasors
    # are formed POINT_BLOCK lines at a time, in one (3, POINT_BLOCK, K)
    # work array and one (POINT_BLOCK, K) complex array, 40 bytes a line and
    # node, and written straight into wex and ey, so a build peaks at the
    # table, one block and numpy's casting buffers; forming all lines at
    # once took 48.7 bytes a line and node here, and the tables stay bit for
    # bit the identity contraction
    grid = ImageGrid(1024, 1024, 2e-3, (-1.023, -1.023))
    counts = optics.pupil_node_counts(5.0)
    optics._form_node_table(grid, *counts)  # warm the Legendre rule
    tracemalloc.start()
    try:
        nodes = optics._form_node_table(grid, *counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nodes.nbytes + 40 * optics.POINT_BLOCK * nodes.k.shape[1] + 2**19
    want = identity_node_table(grid, *counts)
    for name in ("k", "edge_factor", "wex", "ey"):
        assert getattr(nodes, name).tobytes() == getattr(want, name).tobytes()


def test_node_and_grid_tables_are_cached_read_only(desk_square):
    cfg, problem, region = desk_square
    region_mesh = build_region_system(region, problem).mesh
    mesh_nodes = optics.node_table(problem.grid, region_mesh.vertices)
    # the mesh image takes its table from the one node-table cache
    assert optics.node_table(problem.grid, region_mesh.vertices) is mesh_nodes
    n_r, n_theta = optics.pupil_node_counts(1.0)
    nodes = optics.node_table_at(problem.grid, n_r, n_theta)
    assert optics.node_table_at(problem.grid, n_r, n_theta) is nodes
    tables = [nodes.k, nodes.edge_factor, nodes.wex, nodes.ey,
              mesh_nodes.k, mesh_nodes.edge_factor, mesh_nodes.wex, mesh_nodes.ey,
              *pupil_nodes(n_r, n_theta)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.floats(0.01, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_node_table_of_point_sets_is_the_table_of_their_union(nx, ny, pitch, x0, y0, shapes, seed):
    # the reach of a union of point sets is exactly the largest of their
    # reaches, so no caller concatenates its sets: point sets of any shape
    # (..., 2) give the cached table of all their points as one set
    grid = ImageGrid(nx, ny, pitch, (x0, y0))
    rng = np.random.default_rng(seed)
    sets = [rng.uniform(-5.0, 5.0, size=(*shape, 2)) for shape in shapes]
    union = np.concatenate([points.reshape(-1, 2) for points in sets])
    assert optics.node_counts(grid, *sets) == optics.pupil_node_counts(optics.grid_reach(grid, union))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics, "_node_tables", {})
        assert optics.node_table(grid, *sets) is optics.node_table(grid, union)


def test_tables_at_one_ring_count_share_its_legendre_rule(monkeypatch):
    # a desk run forms tables at (13, 18), (13, 19), (14, 19) and (14, 20):
    # the rule of a ring count is formed once, kept read-only, and bit for
    # bit the rule leggauss gives
    grids = [ImageGrid(20, 20, 0.1, (-1.0, -1.0)), ImageGrid(48, 36, 0.05, (-1.2, -0.9))]
    leggauss, calls = optics.leggauss, []
    monkeypatch.setattr(optics, "leggauss", lambda n: calls.append(n) or leggauss(n))
    optics._ring_rule.cache_clear()
    for grid, n_theta in zip(grids, (18, 19)):
        optics._form_node_table(grid, 13, n_theta)
    assert calls == [13]
    r, w = optics._ring_rule(13)
    assert optics._ring_rule(13)[0] is r and optics._ring_rule(13)[1] is w
    assert not r.flags.writeable and not w.flags.writeable
    t, want = leggauss(13)
    assert r.tobytes() == (0.5 * (t + 1.0)).tobytes() and w.tobytes() == want.tobytes()


def test_node_table_cache_keeps_its_byte_budget_and_the_newest_table(monkeypatch):
    # with room for just over one table of the twin workload's grid, each
    # new table drops the others; one formed again after it was dropped is
    # bit for bit the first, and a lookup returns the kept table itself
    grid = ImageGrid(48, 36, 10.0, (-235.0, -175.0)).scaled(OpticalConfig().scale_per_nm)
    counts = [optics.pupil_node_counts(reach) for reach in (2.0, 2.5, 3.0)]
    monkeypatch.setattr(optics, "_node_tables", {})
    sizes = [optics._form_node_table(grid, *c).nbytes for c in counts]
    budget = max(sizes) + 1
    assert min(a + b for i, a in enumerate(sizes) for b in sizes[i + 1:]) > budget
    monkeypatch.setattr(optics, "NODE_TABLE_BYTES", budget)
    tables = [optics.node_table_at(grid, *c) for c in counts]
    assert list(optics._node_tables) == [(grid, *counts[-1])]
    assert sum(table.nbytes for table in optics._node_tables.values()) <= budget
    assert optics.node_table_at(grid, *counts[-1]) is tables[-1]
    again = optics.node_table_at(grid, *counts[0])
    assert again is not tables[0] and list(optics._node_tables) == [(grid, *counts[0])]
    for name in ("k", "edge_factor", "wex", "ey"):
        assert getattr(again, name).tobytes() == getattr(tables[0], name).tobytes()
    # with room for the first and last tables only, a lookup of the first
    # makes the second the least recently used, and the last drops it
    monkeypatch.setattr(optics, "_node_tables", {})
    monkeypatch.setattr(optics, "NODE_TABLE_BYTES", sizes[0] + sizes[2])
    for c in (counts[0], counts[1], counts[0], counts[2]):
        optics.node_table_at(grid, *c)
    assert list(optics._node_tables) == [(grid, *counts[0]), (grid, *counts[2])]


def test_warm_forward_builds_no_grid_sample_array(desk_square, monkeypatch):
    cfg, problem, region = desk_square
    mesh = build_region_system(region, problem).mesh
    warm = forward_amplitude([mesh], problem.quad, problem.grid).values

    def no_samples(grid):
        raise AssertionError("grid sample array built")

    monkeypatch.setattr(ImageGrid, "xs", property(no_samples))
    monkeypatch.setattr(ImageGrid, "ys", property(no_samples))
    again = forward_amplitude([mesh], problem.quad, problem.grid).values
    assert again.tobytes() == warm.tobytes()
