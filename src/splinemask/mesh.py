"""Triangle meshes over spline-bounded regions with vertex provenance.

Every mesh vertex is a convex combination of the region's boundary samples Q.
The combination weights live in the provenance matrix W (K x m, first m rows
the identity), so vertices = W @ Q holds exactly through any number of
centroid-insertion refinements, and Q itself is the first m vertices. That
linearity is what makes the shape gradient a plain matrix chain later on.

`check_loop` tells whether a sample loop bounds a region at all. The chain
runs it on every evaluation and images the loop without a mesh; the meshes
here are the library's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    incircle,
    orient,
    points_in_polygon,
    polygon_signed_area,
    polyline_self_intersects,
)

SLIVER_AREA = 1e-14
# A sample is inside a circle through three others when their incircle
# determinant exceeds this times the fourth power of the loop's extent; the
# rounding error of the determinant is far below it.
TIE_RTOL = 1e-12
# The most provenance entries, vertices x boundary samples, a region's mesh may
# hold (8 MiB of float64): refinement stops short of it, and a config whose
# num_samples squared or refined initial mesh passes it is rejected.
MAX_PROVENANCE_SIZE = 2**20


class MeshError(ValueError):
    """Raised when a boundary loop bounds no region or cannot be triangulated into a covering mesh."""


class SelfIntersectionError(MeshError):
    """Raised when the boundary loop crosses itself, so it encloses no simple region."""


def check_loop(samples: np.ndarray) -> float:
    """The shoelace area of a sample loop that bounds a region; MeshError if it bounds none.

    The loop must not cross itself (SelfIntersectionError) and must enclose
    a finite area above SLIVER_AREA, either way round. Any such loop is
    imaged exactly; no mesh is needed.
    """
    if polyline_self_intersects(samples):
        raise SelfIntersectionError("boundary polyline intersects itself")
    with np.errstate(over="ignore", invalid="ignore"):
        area = polygon_signed_area(samples)
    if not SLIVER_AREA < abs(area) < math.inf:
        raise MeshError(f"boundary loop encloses no finite area above SLIVER_AREA = {SLIVER_AREA:g}: {area:g}")
    return area


def signed_area(v1, v2, v3) -> float:
    """Signed triangle area; positive iff the vertices run counterclockwise."""
    (ax, ay), (bx, by), (cx, cy) = v1, v2, v3
    return 0.5 * orient(ax, ay, bx, by, cx, cy)


@dataclass(frozen=True)
class ProvenancedMesh:
    """Triangulation of one region plus the boundary-sample provenance of every vertex.

    vertices:   (K, 2) coordinates, first m rows are the boundary samples
    triangles:  (N_T, 3) vertex indices, counterclockwise
    provenance: (K, m) weights with vertices = provenance @ boundary
    """

    vertices: np.ndarray
    triangles: np.ndarray
    provenance: np.ndarray

    @property
    def boundary(self) -> np.ndarray:
        """The (m, 2) samples Q the mesh was built from: its first m vertices."""
        return self.vertices[: self.provenance.shape[1]]

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        return TriangleTensor(self.vertices[self.triangles]).areas()

    def with_boundary(self, boundary: np.ndarray) -> "ProvenancedMesh":
        """Move the mesh to new boundary samples, keeping topology and provenance."""
        boundary = np.asarray(boundary, dtype=float)
        if boundary.shape != self.boundary.shape:
            raise ValueError("boundary shape changed; rebuild the mesh instead")
        return replace(self, vertices=self.provenance @ boundary)


def triangulate_region(samples: np.ndarray, start: np.ndarray | None = None) -> ProvenancedMesh:
    """Delaunay-triangulate a closed sample loop; the triangles that tile it, in canonical order.

    The samples must form a simple polygon in order. From scratch, Qhull
    triangulates the samples (its 2-D simplices come counterclockwise),
    exterior triangles are removed with a centroid-in-polygon test and
    slivers by their signed area, and the rest must reproduce the shoelace
    area of the loop, or the loop raises MeshError.

    `start` is a triangulation of the same loop at other sample positions,
    such as the iterate's unrefined triangles when a line-search trial moves
    its samples. While every start triangle keeps an area above SLIVER_AREA
    it still tiles the loop, and Lawson flips of its interior edges reach the
    constrained Delaunay triangulation (de Berg et al., *Computational
    Geometry*, ch. 9). That is Qhull's filtered set whenever some Delaunay
    triangles tile the loop, and when none do, a triangle's circumcircle
    holds another sample, which raises MeshError as the coverage check
    would. Where four samples are cocircular, up to rounding, the start's
    diagonal stays, as Qhull's own choice there is arbitrary. A start
    triangle at or below SLIVER_AREA, or a flip that would make one, leaves
    the loop to Qhull.

    Each triangle is rotated so that its smallest index leads, keeping its
    orientation, and the rows are sorted, so both ways give the same array.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise MeshError("need at least 3 planar boundary samples")
    if polyline_self_intersects(pts):
        raise SelfIntersectionError("boundary polyline intersects itself")
    simplices = None if start is None else _flipped(pts, start)
    if simplices is None:
        simplices = _delaunay_tiling(pts)
    lead = simplices.argmin(axis=1)
    simplices = simplices[np.arange(len(simplices))[:, None], (lead[:, None] + np.arange(3)) % 3]
    simplices = simplices[np.lexsort((simplices[:, 2], simplices[:, 1], simplices[:, 0]))]
    return ProvenancedMesh(vertices=pts.copy(), triangles=simplices, provenance=np.eye(len(pts)))


def _delaunay_tiling(pts: np.ndarray) -> np.ndarray:
    """Qhull's Delaunay triangles of the samples that tile the loop, checked by area."""
    from scipy.spatial import Delaunay, QhullError  # only the library's mesh needs Qhull

    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
    simplices = np.asarray(tri.simplices, dtype=np.int64)

    centroids = pts[simplices].mean(axis=1)
    keep = points_in_polygon(centroids[:, 0], centroids[:, 1], pts)
    simplices = simplices[keep]

    areas = TriangleTensor(pts[simplices]).areas()
    kept = areas > SLIVER_AREA
    simplices = simplices[kept]
    covered = float(areas[kept].sum())
    target = abs(polygon_signed_area(pts))
    if abs(covered - target) > 1e-9 * max(1.0, target):
        raise MeshError("triangulation does not cover the sampled region")
    if len(simplices) == 0:
        raise MeshError("no interior triangles left after filtering")
    return simplices


def _flipped(pts: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """Lawson flips from a triangulation of the loop to its Delaunay tiling; None to ask Qhull.

    An interior edge flips only when the far vertex lies inside the
    circumcircle of the triangle across it by more than rounding (TIE_RTOL),
    so a cocircular quad keeps the diagonal it came with. The loop's own
    edges bound one triangle each and never flip. In exact arithmetic no edge comes back once flipped away, so
    more flips than sample pairs means rounding has misled the test, and the
    loop goes to Qhull, as it does when a triangle would not keep an area
    above SLIVER_AREA.
    """
    triangles = np.asarray(start, dtype=np.int64)
    if not (TriangleTensor(pts[triangles]).areas() > SLIVER_AREA).all():
        return None
    tie = TIE_RTOL * float(np.ptp(pts, axis=0).max()) ** 4
    holding = _circles_holding_samples(pts, triangles, tie)
    if not holding.any():
        return triangles
    xy = pts.tolist()
    triangles = triangles.tolist()

    def apex(t: int, a: int) -> int:
        """The vertex of triangle t across from its edge that starts at a."""
        tri = triangles[t]
        return tri[(tri.index(a) + 2) % 3]

    # owner[a, b] is the triangle whose counterclockwise boundary runs from a to b
    owner = {}
    for t, (a, b, c) in enumerate(triangles):
        owner[a, b] = owner[b, c] = owner[c, a] = t
    # an edge whose far vertex lies inside the circle across it borders a holding triangle
    edges = [(a, b) for t in np.flatnonzero(holding).tolist()
             for a, b in zip(triangles[t], triangles[t][1:] + triangles[t][:1]) if (b, a) in owner]
    budget = len(xy) * (len(xy) - 1) // 2
    while edges:
        a, b = edges.pop()
        t, s = owner.get((a, b)), owner.get((b, a))
        if t is None or s is None:
            continue
        c, d = apex(t, a), apex(s, b)
        if not incircle(*xy[a], *xy[b], *xy[c], *xy[d]) > tie:
            continue
        # triangles (a, b, c) and (b, a, d) become (c, a, d) and (d, b, c)
        if budget == 0 or not (0.5 * orient(*xy[c], *xy[a], *xy[d]) > SLIVER_AREA
                               and 0.5 * orient(*xy[d], *xy[b], *xy[c]) > SLIVER_AREA):
            return None
        budget -= 1
        triangles[t], triangles[s] = [c, a, d], [d, b, c]
        del owner[a, b], owner[b, a]
        owner[c, a] = owner[a, d] = owner[d, c] = t
        owner[d, b] = owner[b, c] = owner[c, d] = s
        edges.extend([(c, a), (a, d), (d, b), (b, c)])

    tiling = np.array(triangles, dtype=np.int64)
    if _circles_holding_samples(pts, tiling, tie).any():
        raise MeshError("a boundary edge is no Delaunay edge, so no Delaunay triangles tile the region")
    return tiling


def _circles_holding_samples(pts: np.ndarray, triangles: np.ndarray, tie: float) -> np.ndarray:
    """Per triangle, whether some sample's incircle determinant against it exceeds `tie`.

    A triangle's own corners lie on its circle, so theirs is zero up to rounding.
    """
    ax, ay, bx, by, cx, cy = pts[triangles].reshape(-1, 6).T[:, :, None]
    return (incircle(ax, ay, bx, by, cx, cy, pts[:, 0], pts[:, 1]) > tie).any(axis=1)


def refine_mesh(mesh: ProvenancedMesh, max_area: float) -> ProvenancedMesh:
    """Split every triangle larger than max_area at its centroid, repeatedly.

    Each vertex is one row [x, y | provenance row], and an inserted vertex is
    the mean of its parents' rows, so vertices = W @ Q is preserved exactly.
    A sweep appends the centroids of the triangles it splits, in order, and
    puts each parent's children (i, j, g), (j, k, g), (k, i, g), each a third
    of its area, in its place. A sweep that would grow the provenance past
    MAX_PROVENANCE_SIZE entries raises MeshError before it runs.
    """
    if not 0 < max_area < math.inf:
        raise ValueError("max_area must be positive and finite")
    m = mesh.provenance.shape[1]
    rows = np.concatenate([mesh.vertices, mesh.provenance], axis=1, dtype=float)
    triangles = np.array(mesh.triangles, dtype=np.int64)

    while True:
        split = ~(TriangleTensor(rows[triangles, :2]).areas() <= max_area)
        if not split.any():
            break
        i, j, k = triangles[split].T
        size = (len(rows) + len(i)) * m
        if size > MAX_PROVENANCE_SIZE:
            raise MeshError(f"refining to area {max_area:g} would hold {size} provenance entries, "
                            f"more than MAX_PROVENANCE_SIZE = {MAX_PROVENANCE_SIZE}")
        g = len(rows) + np.arange(len(i))
        rows = np.concatenate([rows, (rows[i] + rows[j] + rows[k]) / 3.0])
        width = np.where(split, 3, 1)
        triangles = np.repeat(triangles, width, axis=0)
        triangles[np.repeat(split, width)] = np.stack([i, j, g, j, k, g, k, i, g], axis=1).reshape(-1, 3)

    return ProvenancedMesh(vertices=rows[:, :2].copy(), triangles=triangles, provenance=rows[:, 2:].copy())


@dataclass(frozen=True)
class TriangleTensor:
    """Per-triangle vertex coordinates, shape (N_T, 3, 2), counterclockwise."""

    coords: np.ndarray

    def areas(self) -> np.ndarray:
        a, b, c = self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]
        return 0.5 * orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])


def assemble_tensor(mesh: ProvenancedMesh) -> TriangleTensor:
    """Gather vertex coordinates triangle by triangle: coords[p, j] = vertices[C[p, j]]."""
    return TriangleTensor(mesh.vertices[mesh.triangles])


@dataclass(frozen=True)
class TriangleQuadrature:
    """Quadrature rule in barycentric form: integral ~ sum_q w_q f(V @ L[:, q]) * |S|.

    The barycentric coordinates are integers over one denominator,
    L = numerators / denominator, 3 x N_G with unit column sums; `weights`
    sum to 1. For `degree3`, the rule the optics image with, the integer form
    makes each point's phasor a product of integer powers of its triangle's
    vertex phasors (`optics.PupilBasis.triangle_sums`).
    """

    numerators: np.ndarray
    denominator: int
    weights: np.ndarray

    @classmethod
    def degree3(cls) -> "TriangleQuadrature":
        """The symmetric 4-point rule exact for all bivariate cubics.

        Centroid (5, 5, 5) / 15 plus the three points weighted 3/5 toward
        each vertex, (9, 3, 3) / 15 and its permutations; the centroid carries
        the classic negative weight -27/48.
        """
        numerators = np.array([
            [5, 9, 3, 3],
            [5, 3, 9, 3],
            [5, 3, 3, 9],
        ])
        weights = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0
        return cls(numerators, 15, weights)

    @property
    def barycentric(self) -> np.ndarray:
        """L, 3 x N_G; for degree3 5/15, 9/15 and 3/15 round to 1/3, 0.6 and 0.2 exactly."""
        return self.numerators / self.denominator

    @property
    def num_points(self) -> int:
        return len(self.weights)


def gauss_points(tensor: TriangleTensor, quad: TriangleQuadrature) -> np.ndarray:
    """Physical quadrature points, shape (N_T, N_G, 2): vertices contracted with L."""
    return np.einsum("tjc,jq->tqc", tensor.coords, quad.barycentric)


def polygon_area(mesh: ProvenancedMesh) -> float:
    """Total triangle area of the mesh."""
    return float(np.abs(mesh.areas()).sum())
