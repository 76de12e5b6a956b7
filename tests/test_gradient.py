import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinemask.geometry import polygon_perimeter_points
from splinemask import gradient, optics, pipeline
from splinemask.gradient import amplitude_gradient, area_gradient, sensitivity
from splinemask.mesh import (
    MeshError,
    ProvenancedMesh,
    TriangleQuadrature,
    assemble_tensor,
    gauss_points,
    refine_mesh,
    triangulate_region,
)
from splinemask.objective import ResistModel, objective_gradient, objective_value, pixel_weight, rasterize_target
from splinemask.optics import SMALL_RHO, ImageGrid, airy_kernel, forward_amplitude
from splinemask.pipeline import (
    build_region_system,
    evaluate,
    evaluate_frozen,
    finite_difference_gradient,
    frozen_gradient_of,
    gradient_of,
)
from splinemask.spline import PeriodicSplineRegion, build_collocation, curve_rule

from conftest import desk_square_problem, square_region
from direct_sum import airy_kernel_radial_derivative, direct_curve_amplitude, forward_curve_gradient

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


def test_gradient_of_a_mask_of_no_regions_is_empty(desk_square):
    cfg, problem, _ = desk_square
    evaluation = evaluate(problem, [])
    assert not evaluation.field.values.any()
    assert gradient_of(problem, evaluation) == []


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
    mesh = ProvenancedMesh(vertices, triangles, provenance)
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


def full_difference_gradient(problem, evaluation, step=1e-6):
    """Central differences that evaluate every region afresh per bump; the reference for finite_difference_gradient."""
    regions = [s.region for s in evaluation.systems]
    out = []
    for r, region in enumerate(regions):
        grad = np.zeros_like(region.controls)
        for k in range(region.n):
            for c in range(2):
                bumped = region.controls.copy()
                moved = regions.copy()
                bumped[k, c] += step
                moved[r] = region.with_controls(bumped.copy())
                j_plus = evaluate(problem, moved).objective
                bumped[k, c] -= 2 * step
                moved[r] = region.with_controls(bumped.copy())
                j_minus = evaluate(problem, moved).objective
                grad[k, c] = (j_plus - j_minus) / (2 * step)
        out.append(grad)
    return out


@pytest.mark.blas_threads
def test_finite_differences_match_full_reimaging_bitwise(desk_square):
    # two regions, so each bump leaves one region's image as it was
    cfg, problem, region = desk_square
    left = region.with_controls(0.5 * region.controls - [0.25, 0.0])
    right = region.with_controls(0.4 * region.controls + [0.3, 0.1])
    evaluation = evaluate(problem, [left, right])
    got = finite_difference_gradient(problem, evaluation)
    want = full_difference_gradient(problem, evaluation)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def two_regions(region, jitter=0.0):
    """The desk square shrunk into two regions side by side, each control moved by `jitter`."""
    return [region.with_controls(0.5 * region.controls - [0.25, 0.0] + jitter),
            region.with_controls(0.4 * region.controls + [0.3, 0.1] - jitter)]


@pytest.mark.blas_threads
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finite_differences_match_full_reimaging_bitwise_under_jitter(desk_square, seed):
    # up to 0.03 normalized units per control coordinate, mirrored in the second region
    cfg, problem, region = desk_square
    jitter = np.random.default_rng(seed).uniform(-0.03, 0.03, region.controls.shape)
    evaluation = evaluate(problem, two_regions(region, jitter))
    got = finite_difference_gradient(problem, evaluation)
    want = full_difference_gradient(problem, evaluation)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_finite_differences_run_no_crossing_test_on_bumps_within_the_clearance(desk_square, monkeypatch):
    # every 1e-6 bump keeps its loop within the base loop's clearance radius
    from splinemask import mesh

    cfg, problem, region = desk_square
    evaluation = evaluate(problem, two_regions(region))
    want = finite_difference_gradient(problem, evaluation)

    def no_test(points):
        raise AssertionError("crossing test run")

    monkeypatch.setattr(mesh, "polyline_self_intersects", no_test)
    got = finite_difference_gradient(problem, evaluation)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("step", [0.6, 1.2])
def test_finite_differences_refuse_a_bump_whose_loop_bounds_no_region(desk_square, step):
    # a bump this long drags a control across the square, and its sample loop
    # crosses itself: evaluate refuses that bump, and so does the twin
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, [region])
    with pytest.raises(MeshError):
        full_difference_gradient(problem, evaluation, step=step)
    with pytest.raises(MeshError):
        finite_difference_gradient(problem, evaluation, step=step)


def ring_region(n, radius, num_samples, degree=3):
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return PeriodicSplineRegion(radius * np.stack([np.cos(theta), np.sin(theta)], axis=1), num_samples, degree)


def far_ring_problem(shift, radius):
    """A 2 x 2 grid, and a ring of 12 controls of `radius` centred `shift` units beside it."""
    grid = ImageGrid(2, 2, 0.5, (-0.25, -0.25))
    problem = pipeline.ImagingProblem(grid, np.zeros((2, 2)), ResistModel(), QUAD, 0.02)
    region = ring_region(12, radius, 24)
    return problem, region.with_controls(region.controls + [shift, 0.0])


def test_evaluate_refuses_a_curve_past_the_reach_of_the_pupil_rule():
    # a small ring about 102 units from the grid, past optics.MAX_REACH
    problem, far = far_ring_problem(101.5, 0.3)
    assert optics.grid_reach(problem.grid, far.controls) > 102.0
    with pytest.raises(MeshError, match="reach of 102"):
        evaluate(problem, [far])


def test_finite_differences_refuse_a_bump_past_the_reach_of_the_pupil_rule():
    # a ring whose curve reaches 99.5 units: bumps of one unit move its curve
    # by up to 2/3 of that, so those of its outermost controls pass
    # optics.MAX_REACH, and evaluate and the twin both refuse them
    problem, region = far_ring_problem(97.34, 2.0)
    assert 99.4 < optics.grid_reach(problem.grid, curve_rule(region).basis @ region.controls) < 99.6
    evaluation = evaluate(problem, [region])
    with pytest.raises(MeshError, match="past the 100"):
        full_difference_gradient(problem, evaluation, step=1.0)
    with pytest.raises(MeshError, match="past the 100"):
        finite_difference_gradient(problem, evaluation, step=1.0)


def node_count_changes(problem, evaluation, step):
    """How many central-difference bumps of `step` move a curve's Gauss points to other pupil node counts."""
    changes = 0
    for system in evaluation.systems:
        basis = curve_rule(system.region).basis
        counts = optics.pupil_node_counts(optics.grid_reach(problem.grid, basis @ system.region.controls))
        for k in range(system.region.n):
            for c in range(2):
                bumped = system.region.controls.copy()
                for delta in (step, -2 * step):
                    bumped[k, c] += delta
                    changes += optics.pupil_node_counts(optics.grid_reach(problem.grid, basis @ bumped)) != counts
    return changes


def recorded_phasors(monkeypatch):
    """Record each `phasors` call, its caller's module name, points and wave vectors, where `optics` and `pipeline` call it."""
    calls = []
    for module in (optics, pipeline):
        def recorded(points, k, work, kernel=module.phasors, name=module.__name__.rsplit(".", 1)[1]):
            calls.append((name, points.copy(), k))
            return kernel(points, k, work)

        monkeypatch.setattr(module, "phasors", recorded)
    return calls


def assert_phasors_formed_only_at_moved_rows(problem, evaluation, calls):
    """The twin's phasor work, with its node tables cached: each node-count group forms every region's base curve once, and nothing else but moved rows.

    A group of region r's bumps forms region r's phasor table in `pipeline`,
    all Q Gauss points at once, and each other region's base curve in
    `optics`, for its spectrum, in blocks of at most `optics.POINT_BLOCK`
    points, all at the group's own wave vectors. Every other call forms only
    the rows its bumps move: s = `CurveRule.support` rows a bump, 4n bumps a
    region.
    """
    systems = evaluation.systems
    base = [s.curve[0] - problem.grid.center for s in systems]

    def base_region(points, whole):
        """The region whose whole base curve, or one block of it, `points` are; None for moved rows."""
        for r, curve in enumerate(base):
            step = len(curve) if whole else optics.POINT_BLOCK
            if any(np.array_equal(points, curve[i:i + step]) for i in range(0, len(curve), step)):
                return r
        return None

    tables, rows, moved = [], {}, 0
    for name, points, k in calls:
        region = base_region(points, name == "pipeline")
        if name == "pipeline":
            assert region is not None
            tables.append((region, id(k)))
        elif region is None:
            moved += len(points)
        else:
            rows[region, id(k)] = rows.get((region, id(k)), 0) + len(points)
    assert len(set(tables)) == len(tables) and {r for r, _ in tables} == set(range(len(systems)))
    want = {}
    for r, k in tables:
        for other in set(range(len(systems))) - {r}:
            want[other, k] = want.get((other, k), 0) + len(base[other])
    assert rows == want
    assert moved == sum(4 * s.region.n * curve_rule(s.region).support.shape[1] for s in systems)


@pytest.mark.blas_threads
def test_finite_differences_match_full_reimaging_bitwise_when_a_bump_changes_the_node_count(desk_square):
    # bumps of 0.2 units move a few of the 96 curves across a pupil node count
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, two_regions(region))
    assert node_count_changes(problem, evaluation, 0.2) > 0
    got = finite_difference_gradient(problem, evaluation, step=0.2)
    want = full_difference_gradient(problem, evaluation, step=0.2)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.blas_threads
def test_finite_differences_take_no_full_kernel_when_a_bump_changes_the_node_count(desk_square, monkeypatch):
    # every node-count group forms the base curve's phasors at its own wave
    # vectors, so a bump that crosses a node count still forms phasors only
    # at its moved Gauss points
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, two_regions(region))
    assert node_count_changes(problem, evaluation, 0.2) > 0
    want = full_difference_gradient(problem, evaluation, step=0.2)  # also caches every node table
    calls = recorded_phasors(monkeypatch)
    got = finite_difference_gradient(problem, evaluation, step=0.2)
    assert_phasors_formed_only_at_moved_rows(problem, evaluation, calls)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.blas_threads
@pytest.mark.parametrize("num_controls", [60, 120])
def test_finite_differences_patch_tables_over_the_byte_budget(monkeypatch, num_controls):
    # the desk config with many controls: each group's phasor table, 1.08 and
    # 2.17 MiB here, exceeds FD_BYTES and is formed all the same, and every
    # bump forms phasors only at the Gauss points its control moves
    cfg, problem = desk_square_problem()
    evaluation = evaluate(problem, [square_region(num_controls, 2 * num_controls, cfg)])
    curve = evaluation.systems[0].curve[0]
    assert 24 * len(curve) * optics.node_table(problem.grid, curve).k.shape[1] > pipeline.FD_BYTES
    want = full_difference_gradient(problem, evaluation)  # also caches every node table
    calls = recorded_phasors(monkeypatch)
    got = finite_difference_gradient(problem, evaluation)
    assert_phasors_formed_only_at_moved_rows(problem, evaluation, calls)
    assert got[0].tobytes() == want[0].tobytes()


def three_regions(data):
    """Three jittered rings of controls on the desk grid, of distinct control counts 6-20 and degrees 1-3."""
    counts = data.draw(st.lists(st.integers(6, 20), min_size=3, max_size=3, unique=True), label="n")
    degrees = data.draw(st.permutations([1, 2, 3]), label="degree")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    regions = []
    for n, degree, center in zip(counts, degrees, [(-0.45, -0.3), (0.45, -0.3), (0.0, 0.45)]):
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        radius = rng.uniform(0.28, 0.34) + rng.uniform(-0.02, 0.02, n)
        controls = np.add(center, radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1))
        regions.append(PeriodicSplineRegion(controls, 2 * n, degree))
    return regions


@pytest.mark.blas_threads
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_stacked_finite_differences_match_full_reimaging_bitwise(desk_square, data):
    # three regions of different shapes, imaged in chunks that divide no
    # region's bump count, at the default step and at a step that moves
    # some bumps to other pupil node counts
    cfg, problem, _ = desk_square
    evaluation = evaluate(problem, three_regions(data))
    bumps = [4 * s.region.n for s in evaluation.systems]
    chunk = data.draw(st.sampled_from([3, 7, 11, 13, 17, 19, 23]).filter(lambda c: all(b % c for b in bumps)),
                      label="chunk")
    # a chunk of `chunk` bumps for the region of the most bytes a bump at its
    # base node count (`pipeline.FD_BYTES`); at the smaller chunks a region's
    # phasor table (24 Q K bytes) can exceed the budget, and its bumps still
    # take their spectra from it
    nx, ny = problem.grid.nx, problem.grid.ny
    per_bump = 0
    for s in evaluation.systems:
        size = optics.node_table(problem.grid, s.curve[0]).k.shape[1]
        span = curve_rule(s.region).support.shape[1]
        per_bump = max(per_bump, 16 * nx * size, 24 * span * size, 32 * nx * ny)
    budget = chunk * per_bump
    moving = next((step for step in (0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.15)
                   if node_count_changes(problem, evaluation, step) > 0), None)
    assume(moving is not None)
    with mock.patch.object(pipeline, "FD_BYTES", budget):
        for step in (1e-6, moving):
            try:
                want = full_difference_gradient(problem, evaluation, step=step)
            except MeshError:
                # a bump of this step folded a sample loop, which evaluate
                # refuses, and so does the twin
                with pytest.raises(MeshError):
                    finite_difference_gradient(problem, evaluation, step=step)
                continue
            got = finite_difference_gradient(problem, evaluation, step=step)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def three_reach_regions():
    """Three rings on and beside the desk grid: at its center, near a corner and past an edge, of degrees 3, 2 and 1."""
    rings = [(8, 0.2, 3, (0.0, 0.0)), (10, 0.15, 2, (0.7, -0.65)), (12, 0.25, 1, (-1.9, 1.2))]
    return [ring_region(n, radius, 2 * n, degree).with_controls(ring_region(n, radius, 2 * n).controls + center)
            for n, radius, degree, center in rings]


def test_one_node_table_images_and_differentiates_the_whole_mask(desk_square, monkeypatch):
    # the mask's node table follows from all three curves, so it is larger
    # than the central ring's own; evaluate synthesizes once on it and
    # gradient_of forms one adjoint there, and the image and gradient agree
    # with each region's direct boundary sum and forward-mode gradient
    cfg, problem, _ = desk_square
    grid = problem.grid
    synthesized, adjoints = [], []
    synthesize, adjoint = optics.NodeTable.synthesize, optics.NodeTable.adjoint
    monkeypatch.setattr(optics.NodeTable, "synthesize", lambda self, s: synthesized.append(self) or synthesize(self, s))
    monkeypatch.setattr(optics.NodeTable, "adjoint", lambda self, w: adjoints.append(self) or adjoint(self, w))
    evaluation = evaluate(problem, three_reach_regions())
    got = gradient_of(problem, evaluation)
    assert len(synthesized) == 1 and adjoints == synthesized
    own = [optics.node_table(grid, s.curve[0]).k.shape[1] for s in evaluation.systems]
    assert synthesized[0].k.shape[1] == max(own) > min(own)
    u = evaluation.field.values
    direct = sum(direct_curve_amplitude(*s.curve, s.orientation, grid) for s in evaluation.systems)
    assert np.abs(u - direct).max() <= 1e-12 * np.abs(u).max()
    weight = pixel_weight(evaluation.field, problem.target, problem.model, grid)
    for g, s in zip(got, evaluation.systems, strict=True):
        want = forward_curve_gradient(curve_rule(s.region), *s.curve, s.orientation, grid, weight)
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.blas_threads
@pytest.mark.parametrize("step", [1e-6, 0.1])
def test_finite_differences_match_full_reimaging_bitwise_across_reaches(desk_square, monkeypatch, step):
    # each bump's node counts follow from the larger of its own reach and the
    # other regions', so the central ring's bumps are imaged on the far
    # ring's table; at 0.1 some bumps of the far ring change it
    cfg, problem, _ = desk_square
    evaluation = evaluate(problem, three_reach_regions())
    assert (step == 0.1) == (node_count_changes(problem, evaluation, step) > 0)
    want = full_difference_gradient(problem, evaluation, step=step)  # also caches every node table
    calls = recorded_phasors(monkeypatch)
    got = finite_difference_gradient(problem, evaluation, step=step)
    assert_phasors_formed_only_at_moved_rows(problem, evaluation, calls)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("side, region", [
    (2, ring_region(64, 0.6, 128, degree=60)),  # the moved rows: 305 Gauss points a bump at K 92
    (512, ring_region(12, 0.002, 24)),  # the image stacks: 8 MiB a bump at K 8
], ids=["degree_60", "grid_512"])
def test_finite_differences_stay_within_their_byte_budget(side, region):
    # every per-chunk array of the twin is bounded by FD_BYTES, so a warm
    # call peaks at a small multiple of it; chunks sized by the synthesis
    # product alone peaked at 181 and 136 MB here
    pitch = 0.5 if side == 2 else 2e-5
    grid = ImageGrid(side, side, pitch, (-(side - 1) * pitch / 2.0,) * 2)
    problem = pipeline.ImagingProblem(grid, np.zeros((side, side)), ResistModel(), QUAD, 0.02)
    evaluation = evaluate(problem, [region])
    finite_difference_gradient(problem, evaluation)  # fill the rule and node-table caches
    tracemalloc.start()
    try:
        finite_difference_gradient(problem, evaluation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * pipeline.FD_BYTES


@pytest.mark.blas_threads
def test_loop_kernels_share_no_state_across_threads(desk_square):
    # two threads image the desk curve and take its gradient at once, each
    # bit for bit what one thread alone gives
    cfg, problem, region = desk_square
    grid = problem.grid
    system = build_region_system(region, problem)
    weight = np.random.default_rng(3).normal(size=(grid.nx, grid.ny))

    def run():
        points, steps = system.curve
        nodes = optics.node_table(grid, points)
        return (optics.curve_amplitude([(points, steps, system.orientation)], grid).tobytes(),
                gradient.curve_gradient(curve_rule(region), points - grid.center, steps, system.orientation, nodes,
                                        nodes.adjoint(weight)).tobytes())

    want = run()
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(lambda: [run() for _ in range(20)]) for _ in range(2)]
        results = [result for future in runs for result in future.result(timeout=120)]
    assert len(results) == 40
    assert all(got == want for got in results)


def curve_case(region, kind):
    """The desk region as is, clockwise, as a degree-1 curve with vertical spans, or with a span 3e-6 long."""
    controls = region.controls.copy()
    if kind == "clockwise":
        return region.with_controls(controls[::-1].copy())
    if kind == "vertical span":
        # degree 1: the curve is the control polygon, whose sides at x = +-100 nm run with x' = 0 up to rounding
        return PeriodicSplineRegion(controls, region.num_samples, degree=1)
    if kind == "short span":
        controls[1] = controls[0] + [3e-6, -1e-6]
    return region.with_controls(controls)


@pytest.mark.parametrize("kind", ["desk", "clockwise", "vertical span", "short span"])
def test_curve_gradient_matches_central_differences_of_the_spectrum_pairing(desk_square, kind):
    # dJ = Re sum_k L_k dS_k per control coordinate, on the node table of the
    # unmoved curve; each came within 7e-11 of max |dJ/dP| at this step
    cfg, problem, region = desk_square
    grid = problem.grid
    system = build_region_system(curve_case(region, kind), problem)
    rule = curve_rule(system.region)
    nodes = optics.node_table(grid, system.curve[0])
    weight = np.random.default_rng(11).normal(size=(grid.nx, grid.ny))
    pairing = nodes.adjoint(weight)

    def value(controls):
        points, steps = rule.basis @ controls, rule.weights * (controls.T @ rule.slope.T)
        return np.real(pairing @ optics.curve_spectrum(points - grid.center, steps, system.orientation, nodes))

    step = 1e-6
    controls = system.region.controls
    want = np.empty_like(controls)
    for i, c in np.ndindex(*controls.shape):
        bumped = [controls.copy(), controls.copy()]
        bumped[0][i, c] += step
        bumped[1][i, c] -= step
        want[i, c] = (value(bumped[0]) - value(bumped[1])) / (2 * step)
    got = gradient.curve_gradient(rule, system.curve[0] - grid.center, system.curve[1], system.orientation, nodes,
                                  pairing)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_curve_gradient_matches_the_forward_derivative_spectra(data):
    # a jittered ring of controls of degree 1-5 on a grid of drawn size,
    # pitch and origin, in normalized units; the reverse-mode gradient
    # against the forward form's (n, 3, K) derivative spectra
    degree = data.draw(st.integers(1, 5), label="degree")
    n = data.draw(st.integers(degree + 2, 24), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    nx, ny = data.draw(st.integers(2, 24), label="nx"), data.draw(st.integers(2, 24), label="ny")
    pitch = data.draw(st.floats(0.01, 0.2), label="pitch")
    offset = data.draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), label="origin offset")
    sign = data.draw(st.sampled_from([1.0, -1.0]), label="sign")
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    radius = rng.uniform(0.1, 1.0) * (1.0 + rng.uniform(-0.2, 0.2, n))
    controls = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1) + rng.uniform(-0.02, 0.02, (n, 2))
    grid = ImageGrid(nx, ny, pitch, (offset[0] - 0.5 * (nx - 1) * pitch, offset[1] - 0.5 * (ny - 1) * pitch))
    rule = curve_rule(PeriodicSplineRegion(controls, 2 * n, degree))
    weight = rng.normal(size=(nx, ny))
    points, steps = rule.curve(controls)
    nodes = optics.node_table(grid, points)
    got = gradient.curve_gradient(rule, points - grid.center, steps, sign, nodes, nodes.adjoint(weight))
    want = forward_curve_gradient(rule, points, steps, sign, grid, weight)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_frozen_evaluation_matches_fresh_at_same_controls(desk_square):
    # at the same controls the frozen system's mesh is the fresh system's mesh, up to rounding
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, [region])
    frozen = evaluate_frozen(problem, evaluation.systems, [region.controls])
    mesh = forward_amplitude([evaluation.systems[0].mesh], QUAD, problem.grid)
    fresh = objective_value(mesh.intensity_values, problem.target, problem.model, problem.grid)
    assert frozen.objective == pytest.approx(fresh, abs=1e-14)


def test_mesh_image_lists_must_pair_up(desk_square):
    # one list per system or mesh; a shorter one must not cut the other down
    cfg, problem, region = desk_square
    system = evaluate(problem, [region]).systems[0]
    for controls in ([], [region.controls, region.controls]):
        with pytest.raises(ValueError):
            evaluate_frozen(problem, [system], controls)
    with pytest.raises(ValueError):
        amplitude_gradient([system.mesh], QUAD, problem.grid, [])


@pytest.mark.parametrize("two", [False, True], ids=["one_region", "two_regions"])
def test_frozen_gradient_matches_central_differences_of_the_frozen_mesh_image(desk_square, two):
    cfg, problem, region = desk_square
    regions = two_regions(region) if two else [region]
    systems = evaluate(problem, regions).systems
    controls = [r.controls for r in regions]
    analytic = frozen_gradient_of(problem, evaluate_frozen(problem, systems, controls))
    h = 1e-6
    for r, grad in enumerate(analytic):
        for k in range(regions[r].n):
            for c in range(2):
                bumped = [ctrl.copy() for ctrl in controls]
                bumped[r][k, c] += h
                j_plus = evaluate_frozen(problem, systems, bumped).objective
                bumped[r][k, c] -= 2 * h
                j_minus = evaluate_frozen(problem, systems, bumped).objective
                fd = (j_plus - j_minus) / (2 * h)
                assert abs(grad[k, c] - fd) <= 1e-6 * max(1.0, abs(fd))


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
