from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinemask.geometry import SelfIntersectionError, polygon_signed_area, polyline_self_intersects
from splinemask.mesh import (
    MeshError,
    ProvenancedMesh,
    TriangleQuadrature,
    TriangleTensor,
    assemble_tensor,
    gauss_points,
    polygon_area,
    refine_mesh,
    signed_area,
    triangulate_region,
)


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


def test_triangulate_rejects_bowtie():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SelfIntersectionError):
        triangulate_region(bowtie)


def test_triangulate_rejects_degenerate():
    with pytest.raises(MeshError):
        triangulate_region(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_refine_single_triangle_once():
    mesh = triangulate_region(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    area = polygon_area(mesh)
    refined = refine_mesh(mesh, area * 0.9)  # exactly one split pass
    assert refined.num_vertices == 4
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


def test_refine_rejects_bad_tolerance():
    mesh = triangulate_region(square_samples(8))
    with pytest.raises(ValueError):
        refine_mesh(mesh, 0.0)


def test_moved_mesh_keeps_provenance_exact():
    mesh = refine_mesh(triangulate_region(square_samples(12)), 0.01)
    shifted = mesh.with_boundary(mesh.boundary + np.array([0.3, -0.1]))
    assert np.abs(shifted.vertices - shifted.provenance @ shifted.boundary).max() == 0.0


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


# -- loop references for the vectorized polyline test and refinement ------------

def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def loop_polyline_self_intersects(points):
    """Segment-by-segment crossing test; the reference for polyline_self_intersects."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 3:
        return False
    if len(np.unique(pts, axis=0)) < m:
        return True
    a = pts
    b = np.roll(pts, -1, axis=0)
    for i in range(m - 2):
        # candidate partners: non-adjacent segments after i
        j0 = i + 2
        j1 = m if i > 0 else m - 1  # segment (m-1, 0) is adjacent to segment 0
        if j0 >= j1:
            continue
        ax, ay = a[i]
        bx, by = b[i]
        cx, cy = a[j0:j1, 0], a[j0:j1, 1]
        dx, dy = b[j0:j1, 0], b[j0:j1, 1]
        d1 = _orient(ax, ay, bx, by, cx, cy)
        d2 = _orient(ax, ay, bx, by, dx, dy)
        d3 = _orient(cx, cy, dx, dy, ax, ay)
        d4 = _orient(cx, cy, dx, dy, bx, by)
        proper = (d1 * d2 < 0) & (d3 * d4 < 0)
        if proper.any():
            return True
        touch = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
        if touch.any():
            lo_x = np.maximum(min(ax, bx), np.minimum(cx, dx))
            hi_x = np.minimum(max(ax, bx), np.maximum(cx, dx))
            lo_y = np.maximum(min(ay, by), np.minimum(cy, dy))
            hi_y = np.minimum(max(ay, by), np.maximum(cy, dy))
            if (touch & (lo_x <= hi_x) & (lo_y <= hi_y)).any():
                return True
    return False


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
def test_polyline_self_intersects_matches_loop_reference(case):
    points, scale = case
    pts = np.array(points, dtype=float).reshape(-1, 2) * scale
    assert polyline_self_intersects(pts) == loop_polyline_self_intersects(pts)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_polyline_self_intersects_matches_loop_reference_on_float_loops(m, wobble, seed):
    # star-shaped loops are simple; a large radial wobble makes some cross
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0, 2 * np.pi, m))
    radius = 1.0 + wobble * rng.uniform(-1, 1, m)
    pts = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if rng.random() < 0.5:
        pts = pts[rng.permutation(m)]
    assert polyline_self_intersects(pts) == loop_polyline_self_intersects(pts)


@st.composite
def random_meshes(draw):
    """Arbitrary vertex clouds and index triples: orientation and degeneracy vary freely."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 8))
    extra = draw(st.integers(0, 6))
    vertices = rng.normal(size=(m + extra, 2)) * draw(st.sampled_from([1.0, 1e-3, 50.0]))
    triangles = rng.integers(0, m + extra, size=(draw(st.integers(1, 10)), 3))
    provenance = rng.dirichlet(np.ones(m), size=m + extra)
    mesh = ProvenancedMesh(vertices, triangles, provenance, vertices[:m].copy())
    largest = max(float(np.abs(mesh.areas()).max()), 1e-300)
    return mesh, largest * draw(st.floats(0.01, 2.0))


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
    assert refined.boundary is mesh.boundary


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.floats(0.0, 0.5), st.floats(0.002, 0.5), st.integers(0, 2**32 - 1))
def test_refine_mesh_matches_loop_reference_on_region_meshes(m, wobble, fraction, seed):
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0, 2 * np.pi, m))
    radius = 1.0 + wobble * rng.uniform(-1, 1, m)
    pts = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    try:
        mesh = triangulate_region(pts)
    except (MeshError, SelfIntersectionError):
        return
    max_area = fraction * polygon_area(mesh)
    refined = refine_mesh(mesh, max_area)
    vertices, triangles, provenance = loop_refine_mesh(mesh, max_area)
    assert np.array_equal(refined.vertices, vertices)
    assert np.array_equal(refined.triangles, triangles)
    assert np.array_equal(refined.provenance, provenance)
