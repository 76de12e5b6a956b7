import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemask.geometry import polygon_perimeter_points
from splinemask.gradient import (
    amplitude_gradient,
    area_gradient,
    objective_gradient,
    sensitivity,
)
from splinemask.mesh import (
    ProvenancedMesh,
    TriangleQuadrature,
    assemble_tensor,
    gauss_points,
    refine_mesh,
    triangulate_region,
)
from splinemask.objective import ResistModel, rasterize_target
from splinemask.optics import SMALL_RHO, ImageGrid, airy_kernel, forward_amplitude
from splinemask.pipeline import (
    evaluate,
    evaluate_frozen,
    finite_difference_gradient,
    gradient_of,
)
from splinemask.spline import PeriodicSplineRegion, build_collocation

from direct_sum import airy_kernel_radial_derivative

QUAD = TriangleQuadrature.degree3()


def kernel_gradient(gauss_xy, sample_xy, tri_index: int, gauss_index: int,
                    sens: np.ndarray, quad: TriangleQuadrature,
                    triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference for one (quadrature point, image sample) pair: dH/dP for all controls.

    Returns (dH/dPx, dH/dPy), each shape (n,). At the kernel peak (rho below
    the series switch) both are zero: the radial kernel has a smooth extremum
    there.
    """
    gx, gy = float(gauss_xy[0]), float(gauss_xy[1])
    sx, sy = float(sample_xy[0]), float(sample_xy[1])
    rho = float(np.hypot(gx - sx, gy - sy))
    n = sens.shape[1]
    if rho < SMALL_RHO:
        return np.zeros(n), np.zeros(n)
    chain = quad.barycentric[:, gauss_index] @ sens[triangles[tri_index]]
    dh = float(airy_kernel_radial_derivative(rho))
    return dh * (gx - sx) / rho * chain, dh * (gy - sy) / rho * chain


def blob_region(seed: int, n: int = 8, m: int = 16, radius: float = 0.5,
                noise: float = 0.08) -> PeriodicSplineRegion:
    rng = np.random.default_rng(seed)
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    controls = (radius + rng.uniform(-noise, noise, n))[:, None] \
        * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return PeriodicSplineRegion(controls, m)


def region_system(region, max_area=0.03):
    colloc = build_collocation(region)
    mesh = refine_mesh(triangulate_region(colloc @ region.controls), max_area)
    return colloc, mesh, sensitivity(mesh, colloc)


def test_sensitivity_is_collocation_when_unrefined():
    region = blob_region(0)
    colloc = build_collocation(region)
    mesh = triangulate_region(colloc @ region.controls)
    np.testing.assert_array_equal(sensitivity(mesh, colloc), colloc)


def test_sensitivity_centroid_row_is_parent_mean():
    region = blob_region(1)
    colloc = build_collocation(region)
    mesh = triangulate_region(colloc @ region.controls)
    areas = mesh.areas()
    biggest = float(areas.max())
    refined = refine_mesh(mesh, biggest * 0.999)  # split exactly the largest triangle(s)
    parent = mesh.triangles[int(areas.argmax())]
    t = sensitivity(refined, colloc)
    expected = colloc[parent].mean(axis=0)
    # the first inserted vertex is the centroid of the largest triangle only if
    # it is the sole one above tolerance; guard the setup
    if (areas > biggest * 0.999).sum() == 1:
        np.testing.assert_allclose(t[len(colloc)], expected, atol=1e-14)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_sensitivity_rows_sum_to_one_after_heavy_refinement():
    region = blob_region(2)
    _, mesh, sens = region_system(region, max_area=0.002)
    np.testing.assert_allclose(sens.sum(axis=1), 1.0, atol=1e-12)


def test_sensitivity_dimension_mismatch():
    region = blob_region(3)
    colloc = build_collocation(region)
    mesh = triangulate_region(colloc @ region.controls)
    with pytest.raises(ValueError):
        sensitivity(mesh, colloc[:-1])


def test_area_gradient_translation_sums_to_zero():
    region = blob_region(4)
    _, mesh, sens = region_system(region)
    tensor = assemble_tensor(mesh)
    dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
    # shifting every control by (1, 0) keeps every area fixed: row sums vanish
    np.testing.assert_allclose(dsx.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(dsy.sum(axis=1), 0.0, atol=1e-12)


def test_area_gradient_local_support():
    region = blob_region(5)
    _, mesh, sens = region_system(region)
    tensor = assemble_tensor(mesh)
    dsx, _ = area_gradient(tensor, sens, mesh.triangles)
    for p in range(mesh.num_triangles):
        dead = sens[mesh.triangles[p]].sum(axis=0) == 0.0
        assert np.all(dsx[p][dead] == 0.0)


def test_area_gradient_matches_fd():
    region = blob_region(6)
    colloc, mesh, sens = region_system(region)
    tensor = assemble_tensor(mesh)
    dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
    h = 1e-6
    rng = np.random.default_rng(0)
    for k in rng.choice(region.n, size=4, replace=False):
        for c, grad in ((0, dsx), (1, dsy)):
            bump = region.controls.copy()
            bump[k, c] += h
            areas_plus = assemble_tensor(mesh.with_boundary(colloc @ bump)).areas()
            bump[k, c] -= 2 * h
            areas_minus = assemble_tensor(mesh.with_boundary(colloc @ bump)).areas()
            fd = (areas_plus - areas_minus) / (2 * h)
            err = np.abs(grad[:, k] - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() < 1e-6


def test_kernel_gradient_zero_at_peak():
    region = blob_region(7)
    _, mesh, sens = region_system(region)
    pts = gauss_points(assemble_tensor(mesh), QUAD)
    g = pts[0, 1]
    dhx, dhy = kernel_gradient(g, g, 0, 1, sens, QUAD, mesh.triangles)
    assert np.all(dhx == 0.0)
    assert np.all(dhy == 0.0)


def test_kernel_gradient_matches_fd():
    region = blob_region(8)
    colloc, mesh, sens = region_system(region)
    pts = gauss_points(assemble_tensor(mesh), QUAD)
    sample = np.array([0.9, -0.2])
    h = 1e-6
    for tri, gq in ((0, 0), (1, 3), (min(4, mesh.num_triangles - 1), 2)):
        dhx, dhy = kernel_gradient(pts[tri, gq], sample, tri, gq, sens, QUAD, mesh.triangles)
        for k in range(region.n):
            for c, analytic in ((0, dhx[k]), (1, dhy[k])):
                bump = region.controls.copy()
                bump[k, c] += h
                g_plus = gauss_points(assemble_tensor(mesh.with_boundary(colloc @ bump)), QUAD)[tri, gq]
                bump[k, c] -= 2 * h
                g_minus = gauss_points(assemble_tensor(mesh.with_boundary(colloc @ bump)), QUAD)[tri, gq]
                h_plus = airy_kernel(np.hypot(*(g_plus - sample)))
                h_minus = airy_kernel(np.hypot(*(g_minus - sample)))
                fd = (h_plus - h_minus) / (2 * h)
                assert analytic == pytest.approx(float(fd), rel=1e-5, abs=1e-9)


def small_grid():
    return ImageGrid(8, 8, 0.25, (-0.9, -0.9))


def test_amplitude_gradient_empty():
    grid = small_grid()
    assert amplitude_gradient([], QUAD, grid, []) == []


def test_amplitude_gradient_matches_fd():
    region = blob_region(9)
    colloc, mesh, sens = region_system(region)
    grid = small_grid()
    fields = amplitude_gradient([mesh], QUAD, grid, [sens])[0]
    h = 1e-6
    rng = np.random.default_rng(1)
    for k in rng.choice(region.n, size=3, replace=False):
        for c in (0, 1):
            bump = region.controls.copy()
            bump[k, c] += h
            u_plus = forward_amplitude([mesh.with_boundary(colloc @ bump)], QUAD, grid).values
            bump[k, c] -= 2 * h
            u_minus = forward_amplitude([mesh.with_boundary(colloc @ bump)], QUAD, grid).values
            fd = (u_plus - u_minus) / (2 * h)
            err = np.abs(fields[k, c] - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() < 1e-5


def test_amplitude_gradient_region_locality():
    region_a = blob_region(10)
    region_b = blob_region(11)
    ca, mesh_a, sens_a = region_system(region_a)
    _, mesh_b, sens_b = region_system(region_b)
    mesh_b = mesh_b.with_boundary(mesh_b.boundary + np.array([2.5, 0.0]))
    grid = ImageGrid(10, 8, 0.4, (-1.0, -1.2))
    both = amplitude_gradient([mesh_a, mesh_b], QUAD, grid, [sens_a, sens_b])
    alone = amplitude_gradient([mesh_a], QUAD, grid, [sens_a])
    # deleting region b leaves region a's amplitude derivative bit-identical,
    # while the total field does change
    np.testing.assert_array_equal(both[0], alone[0])
    u_both = forward_amplitude([mesh_a, mesh_b], QUAD, grid).values
    u_alone = forward_amplitude([mesh_a], QUAD, grid).values
    assert np.abs(u_both - u_alone).max() > 1e-6


def symmetric_fan_problem():
    """Mask, mesh, grid and target all mirror-symmetric about the y-axis.

    Delaunay tie-breaking on symmetric point sets is not symmetric, so the
    mesh is built as an explicit fan around the sample centroid (a legal
    provenance row with weight 1/m on every sample).
    """
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    controls = polygon_perimeter_points(square, 12)
    region = PeriodicSplineRegion(controls, 24)
    colloc = build_collocation(region)
    samples = colloc @ region.controls
    m = len(samples)
    center = samples.mean(axis=0)
    vertices = np.vstack([samples, center])
    provenance = np.vstack([np.eye(m), np.full((1, m), 1.0 / m)])
    triangles = np.array([[i, (i + 1) % m, m] for i in range(m)], dtype=np.int64)
    mesh = ProvenancedMesh(vertices, triangles, provenance, samples)
    sens = sensitivity(mesh, colloc)
    grid = ImageGrid(10, 10, 0.35, (-0.35 * 4.5, -0.35 * 4.5))
    target = rasterize_target([square * 0.9], grid)
    model = ResistModel(steepness=20.0, threshold=0.3)
    return region, mesh, sens, grid, target, model


def test_objective_gradient_symmetry():
    region, mesh, sens, grid, target, model = symmetric_fan_problem()
    # mirror maps control k to (3 - k) mod 12 for this square loop
    sigma = [(3 - k) % 12 for k in range(12)]
    assert np.allclose(region.controls * [-1, 1], region.controls[sigma])
    field = forward_amplitude([mesh], QUAD, grid)
    grads = amplitude_gradient([mesh], QUAD, grid, [sens])
    g = objective_gradient(field, target, model, grid, grads)[0]
    np.testing.assert_allclose(g[:, 0], -g[sigma, 0], atol=1e-8)
    np.testing.assert_allclose(g[:, 1], g[sigma, 1], atol=1e-8)


def test_objective_gradient_vanishes_when_saturated_match():
    # intensity far from threshold everywhere and print == target: residual and
    # sigmoid slope both collapse, so the gradient is numerically zero. The
    # grid sits deep inside a large blob so no pixel straddles the transition.
    region = blob_region(12, radius=0.9, noise=0.05)
    _, mesh, sens = region_system(region, max_area=0.05)
    grid = ImageGrid(4, 4, 0.2, (-0.3, -0.3))
    field = forward_amplitude([mesh], QUAD, grid)
    target = (field.intensity_values >= 0.3).astype(np.uint8)
    model = ResistModel(steepness=90.0, threshold=0.3)
    ok = np.abs(field.intensity_values - 0.3) > 0.3
    assert ok.all(), "setup must keep intensities away from the threshold"
    grads = amplitude_gradient([mesh], QUAD, grid, [sens])
    g = objective_gradient(field, target, model, grid, grads)[0]
    assert np.abs(g).max() < 1e-8


def assert_gradient_matches_fd(problem, region):
    evaluation = evaluate(problem, [region])
    analytic = gradient_of(problem, evaluation)[0]
    numeric = finite_difference_gradient(problem, evaluation)[0]
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert err.max() < 1e-4


def test_end_to_end_gradient_square(desk_square):
    cfg, problem, region = desk_square
    assert_gradient_matches_fd(problem, region)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_end_to_end_gradient_matches_fd_under_random_control_perturbations(desk_square, seed):
    # up to 0.05 normalized units (about 10 nm on the mask) per control coordinate
    cfg, problem, region = desk_square
    jitter = np.random.default_rng(seed).uniform(-0.05, 0.05, region.controls.shape)
    assert_gradient_matches_fd(problem, region.with_controls(region.controls + jitter))


def test_frozen_evaluation_matches_fresh_at_same_controls(desk_square):
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, [region])
    frozen = evaluate_frozen(problem, evaluation.systems, [region.controls])
    assert frozen.objective == pytest.approx(evaluation.objective, abs=1e-14)


def test_rho_chain_matches_fd():
    # d(rho)/dP through the quadrature-point chain, checked against FD of rho
    region = blob_region(13)
    colloc, mesh, sens = region_system(region)
    pts = gauss_points(assemble_tensor(mesh), QUAD)
    sample = np.array([1.1, 0.4])
    tri, gq = 0, 2
    g = pts[tri, gq]
    rho = np.hypot(*(g - sample))
    chain = QUAD.barycentric[:, gq] @ sens[mesh.triangles[tri]]
    drho_dpx = (g[0] - sample[0]) / rho * chain
    h = 1e-6
    for k in range(region.n):
        bump = region.controls.copy()
        bump[k, 0] += h
        gp = gauss_points(assemble_tensor(mesh.with_boundary(colloc @ bump)), QUAD)[tri, gq]
        bump[k, 0] -= 2 * h
        gm = gauss_points(assemble_tensor(mesh.with_boundary(colloc @ bump)), QUAD)[tri, gq]
        fd = (np.hypot(*(gp - sample)) - np.hypot(*(gm - sample))) / (2 * h)
        assert drho_dpx[k] == pytest.approx(float(fd), abs=1e-7)
