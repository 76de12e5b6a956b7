import tracemalloc
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splinemask import geometry
from splinemask.geometry import (
    loop_clearance,
    points_in_polygon,
    polygon_signed_area,
    polyline_self_intersects,
)
from splinemask.mesh import (
    MAX_PROVENANCE_SIZE,
    SLIVER_AREA,
    MeshError,
    ProvenancedMesh,
    SelfIntersectionError,
    TriangleQuadrature,
    TriangleTensor,
    assemble_tensor,
    check_loop,
    clearance_radius,
    gauss_points,
    polygon_area,
    refine_mesh,
    signed_area,
    triangulate_region,
)
from splinemask.pipeline import build_region_system, evaluate, finite_difference_gradient, gradient_of
from splinemask.spline import PeriodicSplineRegion, sample_boundary

from conftest import desk_square_problem, square_region
from refine_loop import depth_first_refine


# -- independent oracle: analytic monomial integral over a triangle ---------------

def _poly_mul(a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), c in np.ndenumerate(a):
        if c:
            out[i:i + b.shape[0], j:j + b.shape[1]] += c * b
    return out


def _poly_pow(a, n):
    out = np.zeros((1, 1))
    out[0, 0] = 1.0
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def triangle_monomial_integral(tri, i, j):
    """Exact integral of x^i y^j over a triangle via the affine map to the
    reference triangle and the factorial formula for reference monomials."""
    a, b, c = np.asarray(tri, dtype=float)
    # x(u, v) = a_x + (b_x - a_x) u + (c_x - a_x) v, same for y; coeff[r][s] ~ u^r v^s
    px = np.array([[a[0], c[0] - a[0]], [b[0] - a[0], 0.0]])
    py = np.array([[a[1], c[1] - a[1]], [b[1] - a[1], 0.0]])
    poly = _poly_mul(_poly_pow(px, i), _poly_pow(py, j))
    jac = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    total = 0.0
    for (r, s), coeff in np.ndenumerate(poly):
        if coeff:
            total += coeff * factorial(r) * factorial(s) / factorial(r + s + 2)
    return jac * total


def square_samples(m, side=1.0):
    corners = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    from splinemask.geometry import polygon_perimeter_points
    return polygon_perimeter_points(corners, m)


def test_signed_area_examples():
    assert signed_area((0, 0), (1, 0), (0, 1)) == 0.5
    assert signed_area((0, 0), (0, 1), (1, 0)) == -0.5
    assert signed_area((0, 0), (1, 1), (2, 2)) == 0.0


def test_triangulate_unit_square_corners():
    mesh = triangulate_region(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert mesh.num_triangles == 2
    assert polygon_area(mesh) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(mesh.provenance, np.eye(4))
    assert (mesh.areas() > 0).all()


def test_triangulate_convex_polygon():
    m = 14
    theta = np.linspace(0, 2 * np.pi, m, endpoint=False)
    pts = np.stack([np.cos(theta), 0.8 * np.sin(theta)], axis=1)
    mesh = triangulate_region(pts)
    assert mesh.num_triangles == m - 2
    assert polygon_area(mesh) == pytest.approx(abs(polygon_signed_area(pts)), rel=1e-12)


def test_triangulate_l_shape_matches_shoelace():
    l_shape = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    mesh = triangulate_region(l_shape)
    assert polygon_area(mesh) == pytest.approx(abs(polygon_signed_area(l_shape)), rel=1e-12)
    assert polygon_area(mesh) == pytest.approx(3.0, rel=1e-12)


def test_triangles_come_in_canonical_order():
    # each row led by its smallest index, rows sorted, orientation kept
    mesh = triangulate_region(square_samples(16))
    assert (mesh.triangles[:, 0] < mesh.triangles[:, 1:].min(axis=1)).all()
    assert np.array_equal(mesh.triangles, sorted(mesh.triangles.tolist()))
    assert (mesh.areas() > 0).all()


def test_triangulate_rejects_bowtie():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SelfIntersectionError):
        triangulate_region(bowtie)
    # one type for a loop that cannot be meshed, whatever the reason
    assert issubclass(SelfIntersectionError, MeshError)


# its edge (0.91, -0.25)-(0.23, -0.04) is no Delaunay edge, so no set of Delaunay triangles tiles it
NON_DELAUNAY_LOOP = [[0.5, 0.68], [0.1, 0.93], [-0.41, 0.05], [0.28, -0.57], [0.43, -0.35],
                     [0.91, -0.25], [0.23, -0.04], [0.78, -0.09]]


def test_triangulate_rejects_degenerate():
    # one row per failure branch of triangulate_region other than the crossing test
    rows = [
        ([[0.0, 0.0], [1.0, 0.0]], "at least 3 planar boundary samples"),
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "Delaunay triangulation failed"),
        (NON_DELAUNAY_LOOP, "does not cover"),
        (square_samples(4, side=1e-8), "no interior triangles"),
    ]
    for samples, message in rows:
        with pytest.raises(MeshError, match=message):
            triangulate_region(np.array(samples))


def test_check_loop_passes_exactly_the_loops_that_bound_a_region():
    square = square_samples(8)
    assert check_loop(square) == polygon_signed_area(square) > 0
    assert check_loop(square[::-1]) == polygon_signed_area(square[::-1]) < 0
    with pytest.raises(SelfIntersectionError):
        check_loop(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    for samples in ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], square_samples(4, side=1e-8)):
        with pytest.raises(MeshError, match="no finite area"):
            check_loop(np.array(samples))


# loops that cross themselves once, with a nonzero signed area, so only the crossing test rejects them
SKEW_BOWTIE = np.array([[-1.0, -0.5], [1.0, 1.5], [1.0, -0.5], [-1.0, 0.5]])
# thin: scaled by 10^153.9 to 10^154.1 its area is finite and its orientations are not
THIN_BOWTIE = np.array([[-1.0, -1.0], [1.0, 1.1], [1.0, 1.0], [-1.0, -0.98]])


@st.composite
def star_loops(draw):
    """A simple loop star-shaped about an offset center, counterclockwise, with at most 24 vertices.

    Every angular gap is under pi, so the loop winds once round its center.
    """
    gaps = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=3, max_size=24)))
    angles = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    radii = np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=len(gaps), max_size=len(gaps))))
    center = np.array(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    return center + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@settings(max_examples=300, deadline=None)
@given(star_loops(), st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0),
       st.sampled_from([SLIVER_AREA, 0.0]))
@example(square_samples(4) - 0.5, 1.0, 153.9, SLIVER_AREA)  # a product of orientations overflows, the area not
@example(square_samples(4) - 0.5, -1.0, 154.1, 0.0)  # the thin bowtie's orientations overflow, its area not
@example(square_samples(4) - 0.5, -1.0, -300.0, 0.0)  # the area underflows to 0
def test_check_loop_gives_a_verdict_at_any_scale_and_never_warns(loop, sign, exponent, min_area):
    # pytest turns every warning into an error, so an overflow in the area or
    # the crossing test fails here; a loop either bounds a region, with the
    # area's sign its orientation, or raises MeshError
    scale = 10.0 ** exponent
    loop = loop if sign > 0 else loop[::-1]
    try:
        area = check_loop(loop * scale, min_area=min_area)
    except MeshError:
        pass
    else:
        assert np.sign(area) == sign and abs(area) > min_area
    for bowtie in (SKEW_BOWTIE * scale, THIN_BOWTIE * scale):
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(polygon_signed_area(bowtie))
        with pytest.raises(SelfIntersectionError if finite else MeshError):
            check_loop(bowtie, min_area=min_area)


def segment_distance(p, q, r, s):
    """The distance between segments pq and rs: 0 when they cross, else the least distance from an end to the other."""
    def side(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    if side(p, q, r) * side(p, q, s) < 0 and side(r, s, p) * side(r, s, q) < 0:
        return 0.0

    def to_segment(c, a, b):
        t = np.clip(np.dot(c - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
        return np.hypot(*(a + t * (b - a) - c))

    return min(to_segment(p, r, s), to_segment(q, r, s), to_segment(r, p, q), to_segment(s, p, q))


@settings(max_examples=100, deadline=None)
@given(star_loops())
def test_loop_clearance_bounds_the_distance_between_non_adjacent_segments(loop):
    m = len(loop)
    ends = np.roll(loop, -1, axis=0)
    distances = [segment_distance(loop[i], ends[i], loop[j], ends[j])
                 for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1)]
    c = loop_clearance(loop)
    if m == 3:
        assert c == np.inf
    else:
        assert c <= min(distances) + 1e-12
        # a positive clearance proves the loop simple
        assert c <= 0 or not polyline_self_intersects(loop)


@st.composite
def petal_loops(draw):
    """A loop r = 1 + a cos(k theta) sampled at m = 4 k j angles: its k petals meet within 1 - a of the center.

    1 - a runs from 1e-14 to about 0.3, so the loop's non-adjacent segments
    come as near as a few float spacings of its largest coordinate, or keep
    well apart.
    """
    k = draw(st.integers(2, 3))
    m = 4 * k * draw(st.integers(1, 6))
    a = 1.0 - 10.0 ** draw(st.floats(-14.0, -0.5))
    theta = 2 * np.pi * np.arange(m) / m
    radius = 1.0 + a * np.cos(k * theta)
    return radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(star_loops(), petal_loops(), st.sampled_from([SKEW_BOWTIE, THIN_BOWTIE])),
       st.floats(-150.0, 153.9), st.floats(0.0, 1.05), st.integers(0, 2**32 - 1),
       st.sampled_from([SLIVER_AREA, 0.0]))
@example(square_samples(8) - 0.5, 0.0, 0.999, 0, SLIVER_AREA)
@example(square_samples(8) - 0.5, 0.0, 1.0, 0, SLIVER_AREA)
def test_the_clearance_skip_never_changes_a_verdict(loop, exponent, reach, seed, min_area):
    # every sample of the trial moves `reach` times the loop's clearance radius,
    # from 0 to just past it, each its own way; a loop whose radius proves
    # nothing moves up to a thousandth of its size. check_loop with the loop
    # as `near` gives the trial the same area, or raises the same error, as
    # check_loop alone
    loop = loop * 10.0 ** exponent
    radius = clearance_radius(loop)
    step = radius if 0 < radius < np.inf else 1e-3 * np.abs(loop).max()
    angle = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, len(loop))
    trial = loop + reach * step * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    def verdict(near):
        try:
            return check_loop(trial, min_area=min_area, near=near)
        except MeshError as exc:
            return type(exc)

    assert verdict((loop, radius)) == verdict(None)


def test_a_triangle_or_a_loop_of_no_clearance_runs_the_crossing_test(monkeypatch):
    from splinemask import mesh

    tested = []
    crossing = mesh.polyline_self_intersects
    monkeypatch.setattr(mesh, "polyline_self_intersects", lambda points: tested.append(1) or crossing(points))
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    square = square_samples(8)
    for loop in (triangle, square, SKEW_BOWTIE):
        radius = clearance_radius(loop)
        tested.clear()
        try:
            check_loop(loop, near=(loop, radius))
        except SelfIntersectionError:
            pass
        assert tested == ([] if loop is square else [1])
    assert clearance_radius(triangle) == np.inf and clearance_radius(SKEW_BOWTIE) < 0 < clearance_radius(square)


def test_check_loop_checks_each_loop_of_a_stack():
    square = square_samples(8)
    stack = np.stack([square, square[::-1], 2 * square])
    np.testing.assert_array_equal(check_loop(stack), polygon_signed_area(stack))
    near = (square, clearance_radius(square))
    np.testing.assert_array_equal(check_loop(stack[:2], near=near), polygon_signed_area(stack[:2]))
    folded = square.copy()
    folded[[2, 5]] = folded[[5, 2]]
    with pytest.raises(SelfIntersectionError):
        check_loop(np.stack([square, folded]), near=near)
    with pytest.raises(MeshError, match="no finite area above 1e-14: 1e-16"):
        check_loop(np.stack([square, 1e-8 * square]), near=near)


def test_a_loop_no_delaunay_triangles_tile_is_imaged_without_a_mesh():
    # degree 1 with one sample per control: the samples are NON_DELAUNAY_LOOP itself
    cfg, problem = desk_square_problem()
    region = PeriodicSplineRegion(np.array(NON_DELAUNAY_LOOP), 8, degree=1)
    with pytest.raises(MeshError, match="does not cover"):
        triangulate_region(sample_boundary(region))
    evaluation = evaluate(problem, [region])
    analytic = gradient_of(problem, evaluation)[0]
    numeric = finite_difference_gradient(problem, evaluation)[0]
    assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()


def test_refine_single_triangle_once():
    mesh = triangulate_region(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    area = polygon_area(mesh)
    refined = refine_mesh(mesh, area * 0.9)  # exactly one split pass
    assert len(refined.vertices) == 4
    assert refined.num_triangles == 3
    np.testing.assert_allclose(refined.provenance[-1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert polygon_area(refined) == pytest.approx(area, abs=1e-14)


def test_refinement_preserves_area_and_provenance():
    mesh = triangulate_region(square_samples(16))
    refined = refine_mesh(mesh, 0.004)
    assert polygon_area(refined) == pytest.approx(polygon_area(mesh), abs=1e-12)
    reconstructed = refined.provenance @ refined.boundary
    assert np.abs(refined.vertices - reconstructed).max() < 1e-12
    np.testing.assert_allclose(refined.provenance.sum(axis=1), 1.0, atol=1e-12)
    assert refined.provenance.min() >= 0.0
    assert refined.provenance.max() <= 1.0
    np.testing.assert_array_equal(refined.provenance[:16], np.eye(16))
    assert (refined.areas() > 0).all()
    assert refined.areas().max() <= 0.004


@pytest.mark.parametrize("max_area", [0.0, -0.01, float("nan"), float("inf")])
def test_refine_rejects_bad_tolerance(max_area):
    # a NaN bound would split every triangle on every sweep, without end
    mesh = triangulate_region(square_samples(8))
    with pytest.raises(ValueError, match="max_area"):
        refine_mesh(mesh, max_area)


def test_refine_stops_at_the_provenance_bound_before_allocating():
    # one triangle over 128 samples, laid many times: a single sweep at half
    # its area appends one vertex per copy, so 8064 copies reach exactly
    # 8192 x 128 = MAX_PROVENANCE_SIZE entries and one more copy passes it
    theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    samples = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    area = signed_area(samples[0], samples[43], samples[86])
    mesh = ProvenancedMesh(samples, np.array([[0, 43, 86]] * 8064), np.eye(128))
    assert (128 + 8064) * 128 == MAX_PROVENANCE_SIZE
    assert refine_mesh(mesh, area / 2).provenance.shape == (128 + 8064, 128)
    # the sweep past the bound would make 8065 more rows of 130 floats; the
    # raise comes before it, with a quarter of the bound's bytes at most in use
    mesh = replace(mesh, triangles=np.array([[0, 43, 86]] * 8065))
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match="MAX_PROVENANCE_SIZE"):
            refine_mesh(mesh, area / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * MAX_PROVENANCE_SIZE / 4
    # a tolerance far below every area raises too, after the sweeps that fit
    with pytest.raises(MeshError, match="MAX_PROVENANCE_SIZE"):
        refine_mesh(triangulate_region(square_samples(24)), 1e-300)


def test_moved_mesh_keeps_provenance_exact():
    mesh = refine_mesh(triangulate_region(square_samples(12)), 0.01)
    shifted = mesh.with_boundary(mesh.boundary + np.array([0.3, -0.1]))
    assert np.abs(shifted.vertices - shifted.provenance @ shifted.boundary).max() == 0.0


@pytest.mark.parametrize("samples", [square_samples(13), square_samples(12).T, square_samples(12)[:, :1]],
                         ids=["more samples", "transposed", "one coordinate"])
def test_moved_mesh_needs_boundary_of_the_same_shape(samples):
    mesh = refine_mesh(triangulate_region(square_samples(12)), 0.01)
    with pytest.raises(ValueError, match="rebuild the mesh"):
        mesh.with_boundary(samples)


def test_assemble_tensor_matches_indexing():
    mesh = refine_mesh(triangulate_region(square_samples(10)), 0.02)
    tensor = assemble_tensor(mesh)
    for p in range(mesh.num_triangles):
        for j in range(3):
            np.testing.assert_array_equal(tensor.coords[p, j], mesh.vertices[mesh.triangles[p, j]])
    assert (tensor.areas() > 0).all()


def test_tensor_area_invariant_to_cyclic_relabeling():
    mesh = triangulate_region(square_samples(8))
    rolled = mesh.triangles[:, [1, 2, 0]]  # cyclic permutation keeps orientation
    t1 = TriangleTensor(mesh.vertices[mesh.triangles])
    t2 = TriangleTensor(mesh.vertices[rolled])
    np.testing.assert_allclose(np.sort(t1.areas()), np.sort(t2.areas()), atol=1e-15)


def test_quadrature_centroid_point():
    quad = TriangleQuadrature.degree3()
    tensor = TriangleTensor(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))
    pts = gauss_points(tensor, quad)
    np.testing.assert_allclose(pts[0, 0], [1 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(quad.barycentric.sum(axis=0), 1.0, atol=1e-15)
    assert quad.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_quadrature_weights_integrate_constants():
    rng = np.random.default_rng(21)
    quad = TriangleQuadrature.degree3()
    for _ in range(50):
        tri = rng.normal(size=(3, 2))
        area = abs(signed_area(*tri))
        # constant integrand: rule result is the area itself
        assert quad.weights.sum() * area == pytest.approx(area, abs=1e-13)


def test_quadrature_reference_monomials():
    quad = TriangleQuadrature.degree3()
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tensor = TriangleTensor(tri[None])
    pts = gauss_points(tensor, quad)[0]
    area = 0.5
    x3 = float((pts[:, 0] ** 3) @ quad.weights * area)
    x1 = float(pts[:, 0] @ quad.weights * area)
    assert x3 == pytest.approx(1.0 / 20.0, abs=1e-15)
    assert x1 == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_quadrature_exact_for_cubics_random_triangles():
    quad = TriangleQuadrature.degree3()
    rng = np.random.default_rng(42)
    for _ in range(100):
        tri = rng.uniform(0.1, 1.1, size=(3, 2))
        while abs(signed_area(*tri)) < 1e-3:
            tri = rng.uniform(0.1, 1.1, size=(3, 2))
        tensor = TriangleTensor(tri[None])
        pts = gauss_points(tensor, quad)[0]
        area = abs(signed_area(*tri))
        for i in range(4):
            for j in range(4 - i):
                numeric = float((pts[:, 0] ** i * pts[:, 1] ** j) @ quad.weights * area)
                exact = triangle_monomial_integral(tri, i, j)
                assert abs(numeric - exact) <= 1e-12 * abs(exact)


def test_gauss_points_inside_triangle():
    quad = TriangleQuadrature.degree3()
    rng = np.random.default_rng(4)
    tri = rng.normal(size=(3, 2))
    pts = gauss_points(TriangleTensor(tri[None]), quad)[0]
    # all barycentric coordinates of this rule are positive, so points are interior
    for pt in pts:
        s0 = signed_area(tri[0], tri[1], pt)
        s1 = signed_area(tri[1], tri[2], pt)
        s2 = signed_area(tri[2], tri[0], pt)
        assert min(s0, s1, s2) * max(s0, s1, s2) > 0  # same side of every edge


def test_polygon_area_circle_convergence_order():
    # inscribed-polygon area error should drop ~4x per sample doubling
    r = 0.5
    for m in (32, 64, 128):
        errors = []
        for count in (m, 2 * m):
            theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
            pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            errors.append(np.pi * r * r - polygon_area(triangulate_region(pts)))
        ratio = errors[0] / errors[1]
        assert 3.4 <= ratio <= 4.6


def test_polygon_area_unchanged_by_refinement():
    mesh = triangulate_region(square_samples(12))
    refined = refine_mesh(mesh, 0.005)
    assert polygon_area(refined) == pytest.approx(polygon_area(mesh), abs=1e-12)


# -- loop references for the vectorized polygon tests and refinement -----------

def loop_points_in_polygon(px, py, polygon):
    """Edge-by-edge even-odd test; the reference for points_in_polygon."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    inside = np.zeros(px.shape, dtype=bool)
    m = len(poly)
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        crosses = ((y1 <= py) & (py < y2)) | ((y2 <= py) & (py < y1))
        if not crosses.any():
            continue
        t = (py - y1) / (y2 - y1)
        x_int = x1 + t * (x2 - x1)
        inside ^= crosses & (px < x_int)
    return inside


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_box(p, a, b):
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def segments_meet(a, b, c, d):
    """The closed segments ab and cd share a point: each straddles the other, or an end of one lies on the other."""
    d1, d2 = _orient(*c, *d, *a), _orient(*c, *d, *b)
    d3, d4 = _orient(*a, *b, *c), _orient(*a, *b, *d)
    if (d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3):
        return True
    return ((d1 == 0 and _in_box(a, c, d)) or (d2 == 0 and _in_box(b, c, d))
            or (d3 == 0 and _in_box(c, a, b)) or (d4 == 0 and _in_box(d, a, b)))


def loop_polyline_self_intersects(points):
    """Pair-by-pair crossing test in Python floats; the reference for polyline_self_intersects.

    A repeated vertex counts, and so does every pair of non-adjacent segments
    that meet; segment i runs from vertex i to vertex i + 1 around the loop.
    """
    pts = [(float(x), float(y)) for x, y in np.asarray(points, dtype=float).reshape(-1, 2)]
    m = len(pts)
    if m < 3:
        return False
    if len(set(pts)) < m:
        return True
    segments = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
    return any(segments_meet(*segments[i], *segments[j])
               for i in range(m) for j in range(i + 2, m - (i == 0)))


def loop_refine_mesh(mesh, max_area):
    """Triangle-by-triangle centroid refinement; the reference for refine_mesh."""
    vertices = [row for row in mesh.vertices]
    prov = [row for row in mesh.provenance]
    triangles = [tuple(t) for t in mesh.triangles]
    while True:
        split_any = False
        new_triangles = []
        for (i, j, k) in triangles:
            area = signed_area(vertices[i], vertices[j], vertices[k])
            if area <= max_area:
                new_triangles.append((i, j, k))
                continue
            split_any = True
            centroid = (vertices[i] + vertices[j] + vertices[k]) / 3.0
            prov.append((prov[i] + prov[j] + prov[k]) / 3.0)
            vertices.append(centroid)
            g = len(vertices) - 1
            new_triangles.extend([(i, j, g), (j, k, g), (k, i, g)])
        triangles = new_triangles
        if not split_any:
            break
    return np.asarray(vertices), np.asarray(triangles, dtype=np.int64), np.asarray(prov)


# Small integer lattices make repeated vertices, collinear touching segments,
# shared endpoints and closing-edge contacts common; the scale keeps the
# orientation products inexact for non-integer coordinates.
lattice_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
lattice_loops = st.tuples(
    st.one_of(st.lists(lattice_points, min_size=3, max_size=14, unique=True),
              st.lists(lattice_points, max_size=14)),
    st.sampled_from([1.0, 0.1, 1.0 / 3.0, 1e-7]),
)


@settings(max_examples=400, deadline=None)
@given(lattice_loops)
@example(([(0, 0), (2, 0), (2, 2), (0, 2)], 1.0))                 # square
@example(([(0, 0), (2, 0), (1, 0), (1, 2)], 1.0))                 # segments fold back
@example(([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], 1.0))         # closing vertex repeated
@example(([(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)], 1.0))         # vertex on an edge
@example(([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (0, 1)], 1.0))  # collinear neighbours
@example(([(0, 0), (2, 2), (2, 0), (0, 2)], 1.0))                 # bowtie
@example(([(0, 0), (3, 0), (3, 1), (1, 1), (1, -1)], 1.0))        # last edge crosses the first
@example(([(0, 0), (2, 0), (0, 0)], 1.0))                         # triangle with a repeat
@example(([(0, 0), (0, 0), (2, 0), (1, 2)], 1.0))                 # consecutive repeat
@example(([(0, 0), (2, 0), (0, 0), (1, 2)], 1.0))                 # repeat two apart
@example(([(0, 0), (2, 0), (2, 2), (0, 0), (0, 2)], 1.0))         # repeat three apart
@example(([(0, 0), (2, 0), (2, 2), (0, 2), (0, 2)], 1e-7))        # last two repeat
@example(([(0, 0), (1, 0), (2, -1), (2, 0), (1, 2), (-1, 1)], 1.0))  # vertex on an edge's line, beyond it
def test_polyline_self_intersects_matches_loop_reference(case):
    points, scale = case
    pts = np.array(points, dtype=float).reshape(-1, 2) * scale
    assert polyline_self_intersects(pts) == loop_polyline_self_intersects(pts)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.tuples(st.integers(0, 39), st.integers(1, 39))))
def test_polyline_self_intersects_matches_loop_reference_on_float_loops(m, wobble, seed, repeat):
    # star-shaped loops are simple; a large radial wobble makes some cross.
    # `repeat` = (i, gap) inserts a copy of vertex i that many places after
    # it: gap 1 repeats it consecutively, a larger gap elsewhere in the loop
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0, 2 * np.pi, m))
    radius = 1.0 + wobble * rng.uniform(-1, 1, m)
    pts = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if rng.random() < 0.5:
        pts = pts[rng.permutation(m)]
    if repeat is not None:
        i, gap = repeat[0] % m, repeat[1] % m + 1
        pts = np.insert(pts, min(i + gap, m), pts[i], axis=0)
    assert polyline_self_intersects(pts) == loop_polyline_self_intersects(pts)


def drawn_loop(kind: str, m: int, seed: int) -> np.ndarray:
    """An m-vertex loop of one kind: random, snapped to a grid, collinear, or random with repeated vertices."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (m, 2))
    if kind == "snapped":
        pts = np.round(3.0 * pts) / rng.choice([1.0, 3.0])  # a 7 x 7 lattice of ones or thirds
    elif kind == "collinear":
        # integer steps along (2, 1) keep every orientation exactly 0; a
        # scale of 1/3 rounds some of them away, one vertex off the line
        # makes a loop that can bound area
        pts = rng.integers(-4, 5, m)[:, None] * np.array([2.0, 1.0]) / rng.choice([1.0, 3.0])
        if rng.random() < 0.5:
            pts[rng.integers(m)] += [0.0, 1.0]
    elif kind == "repeated":
        copies = rng.integers(m, size=rng.integers(1, 4))
        pts = np.insert(pts, rng.integers(m + 1, size=len(copies)), pts[copies], axis=0)
    return pts


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["random", "snapped", "collinear", "repeated"]), st.integers(3, 12),
       st.integers(0, 2**32 - 1))
def test_polyline_self_intersects_matches_the_pairwise_reference_on_drawn_loops(kind, m, seed):
    pts = drawn_loop(kind, m, seed)
    assert polyline_self_intersects(pts) == loop_polyline_self_intersects(pts)


@settings(max_examples=300, deadline=None)
@given(st.lists(lattice_points, max_size=14), st.sampled_from([1.0, 0.1, 1.0 / 3.0]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 7, geometry.PAIR_BLOCK]))
@example([(0, 0), (2, 0), (2, 2), (0, 2)], 1.0, 0, geometry.PAIR_BLOCK)  # queries on edges and corners
def test_points_in_polygon_matches_loop_reference(points, scale, seed, block):
    # lattice loops and half-lattice queries put points on vertices, on
    # horizontal edges and on the crossing rays; a small block budget splits
    # the queries into many blocks
    rng = np.random.default_rng(seed)
    poly = np.array(points, dtype=float).reshape(-1, 2) * scale
    px = np.concatenate([rng.integers(-8, 9, 40) / 2.0, rng.uniform(-4, 4, 40)]) * scale
    py = np.concatenate([rng.integers(-8, 9, 40) / 2.0, rng.uniform(-4, 4, 40)]) * scale
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "PAIR_BLOCK", block)
        got = points_in_polygon(px.reshape(8, 10), py.reshape(8, 10), poly)
    assert got.shape == (8, 10)
    assert np.array_equal(got, loop_points_in_polygon(px, py, poly).reshape(8, 10))


def rectangle_loop(lo, hi, start, reverse):
    """The boundary of the lattice rectangle [lo, hi] as a loop of its corners and edge midpoints."""
    (x0, y0), (x1, y1) = lo, hi
    xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
    loop = np.array([(x0, y0), (xm, y0), (x1, y0), (x1, ym), (x1, y1), (xm, y1), (x0, y1), (x0, ym)])
    return np.roll(loop[::-1] if reverse else loop, start, axis=0)


corners = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(np.array)


@settings(max_examples=300, deadline=None)
@given(corners, st.tuples(st.integers(1, 6), st.integers(1, 6)), corners,
       st.tuples(st.integers(1, 6), st.integers(1, 6)), st.integers(0, 7), st.booleans(), st.booleans(),
       st.integers(-1030, 1000))
@example(np.array([0, 0]), (2, 2), np.array([2, 0]), (2, 2), 0, False, False, 0)  # a shared edge
@example(np.array([0, 0]), (2, 2), np.array([2, 2]), (2, 2), 0, False, False, 0)  # a shared corner
@example(np.array([0, 0]), (6, 6), np.array([2, 2]), (2, 2), 3, True, False, 1000)  # nested, at 1e301
def test_loops_overlap_exactly_when_their_rectangles_share_a_point(lo, size, other_lo, other_size, start,
                                                                   reverse, other_reverse, exponent):
    # lattice rectangles share a point exactly when their closed intervals
    # meet along both axes: they cross, touch at an edge or corner, nest or
    # coincide. Scaling both by one power of two changes no verdict
    hi, other_hi = lo + size, other_lo + other_size
    first = np.ldexp(rectangle_loop(lo, hi, start, reverse), exponent)
    second = np.ldexp(rectangle_loop(other_lo, other_hi, 0, other_reverse), exponent)
    meet = bool((np.maximum(lo, other_lo) <= np.minimum(hi, other_hi)).all())
    assert geometry.loops_overlap(first, second) == meet
    assert geometry.loops_overlap(second, first) == meet


def test_loops_overlap_looks_past_overlapping_bounding_boxes():
    # an L and a square in its notch: their boxes overlap, their loops do not
    # meet, and neither lies inside the other, until the square moves into
    # the L's arm or the L's notch closes over it
    l_shape = np.array([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)], dtype=float)
    square = rectangle_loop(np.array([1.5, 1.5]), np.array([2.5, 2.5]), 0, False)
    assert not geometry.loops_overlap(l_shape, square)
    assert geometry.loops_overlap(l_shape, square - 1.0)
    assert geometry.loops_overlap(rectangle_loop(np.array([0, 0]), np.array([3, 3]), 0, True), square)


@st.composite
def random_meshes(draw):
    """Arbitrary vertex clouds and index triples: orientation and degeneracy vary freely."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 8))
    extra = draw(st.integers(0, 6))
    vertices = rng.normal(size=(m + extra, 2)) * draw(st.sampled_from([1.0, 1e-3, 50.0]))
    triangles = rng.integers(0, m + extra, size=(draw(st.integers(1, 10)), 3))
    provenance = rng.dirichlet(np.ones(m), size=m + extra)
    mesh = ProvenancedMesh(vertices, triangles, provenance)
    largest = max(float(np.abs(mesh.areas()).max()), 1e-300)
    return mesh, largest * draw(st.floats(0.01, 2.0))


def assert_refines_as_depth_first(mesh, max_area):
    """refine_mesh and the depth-first oracle give the same triangles, bit for bit.

    Gathering coordinates and provenance rows through the triangles ignores
    how the inserted vertices are numbered; the given vertices keep theirs.
    """
    refined = refine_mesh(mesh, max_area)
    vertices, triangles, provenance = depth_first_refine(mesh, max_area)
    assert np.array_equal(refined.vertices[refined.triangles], vertices[triangles])
    assert np.array_equal(refined.provenance[refined.triangles], provenance[triangles])
    given = len(mesh.vertices)
    assert np.array_equal(refined.vertices[:given], vertices[:given])
    assert np.array_equal(refined.provenance[:given], provenance[:given])
    assert len(refined.vertices) == len(vertices)


@settings(max_examples=150, deadline=None)
@given(random_meshes())
def test_refine_mesh_matches_loop_reference(case):
    mesh, max_area = case
    refined = refine_mesh(mesh, max_area)
    vertices, triangles, provenance = loop_refine_mesh(mesh, max_area)
    assert np.array_equal(refined.vertices, vertices)
    assert np.array_equal(refined.triangles, triangles)
    assert np.array_equal(refined.provenance, provenance)
    assert refined.triangles.dtype == np.int64
    assert np.array_equal(refined.boundary, mesh.boundary)
    assert_refines_as_depth_first(mesh, max_area)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.floats(0.0, 0.5), st.floats(0.002, 0.5), st.integers(0, 2**32 - 1))
def test_refine_mesh_matches_loop_reference_on_region_meshes(m, wobble, fraction, seed):
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0, 2 * np.pi, m))
    radius = 1.0 + wobble * rng.uniform(-1, 1, m)
    pts = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    try:
        mesh = triangulate_region(pts)
    except MeshError:
        return
    max_area = fraction * polygon_area(mesh)
    refined = refine_mesh(mesh, max_area)
    vertices, triangles, provenance = loop_refine_mesh(mesh, max_area)
    assert np.array_equal(refined.vertices, vertices)
    assert np.array_equal(refined.triangles, triangles)
    assert np.array_equal(refined.provenance, provenance)
    assert_refines_as_depth_first(mesh, max_area)


@pytest.mark.parametrize("num_controls, num_samples, max_area", [(12, 24, 0.02), (40, 100, 0.01)],
                         ids=["desk", "full"])
def test_refine_mesh_matches_depth_first_on_initial_meshes(num_controls, num_samples, max_area):
    region = square_region(num_controls, num_samples)
    assert_refines_as_depth_first(triangulate_region(sample_boundary(region)), max_area)


# -- the whole geometry chain: spline -> samples -> Delaunay -> refinement ------

@settings(max_examples=60, deadline=None)
@given(st.integers(12, 48), arrays(np.float64, (12, 2), elements=st.floats(-0.3, 0.3)))
@example(24, np.zeros((12, 2)))
def test_region_system_keeps_provenance_exact_and_area(num_samples, noise):
    # the desk square's 12 controls (spacing ~0.32 in normalized units), each
    # moved by at most 0.3 per coordinate; draws that fold the loop are skipped
    cfg, problem = desk_square_problem()
    region = square_region(num_samples=num_samples, cfg=cfg)
    region = region.with_controls(region.controls + noise)
    try:
        mesh = build_region_system(region, problem).mesh
    except MeshError:
        return
    samples = sample_boundary(region)
    assert np.array_equal(mesh.boundary, samples)
    # Qhull's counterclockwise simplices keep their orientation in canonical order, and refinement keeps it
    assert (mesh.areas() > 0).all()
    assert np.abs(mesh.vertices - mesh.provenance @ mesh.boundary).max() < 1e-12
    assert abs(polygon_area(mesh) - abs(polygon_signed_area(samples))) < 1e-12
