"""Triangle meshes over spline-bounded regions with vertex provenance.

Every mesh vertex is a convex combination of the region's boundary samples Q.
The combination weights live in the provenance matrix W (K x m, first m rows
the identity), so vertices = W @ Q holds exactly through any number of
centroid-insertion refinements, and Q itself is the first m vertices. That
linearity is what makes the shape gradient a plain matrix chain later on.

`check_loop` tells whether a loop, a region's samples or a target polygon,
bounds a region at all; a loop that stays within another loop's
`clearance_radius` of it is simple and skips the crossing test. The chain
images each region's curve without a mesh, and the meshes here are the
library's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import loop_clearance, orient, points_in_polygon, polygon_signed_area, polyline_self_intersects

SLIVER_AREA = 1e-14
# The rounding margin of a clearance radius, relative to its loop's largest
# |coordinate| (`clearance_radius`): 2**-40, 8192 float spacings at 1. The
# clearance and the sample moves each round within a few spacings, and a
# loop that skips the crossing test keeps its non-adjacent segments at least
# twice the margin apart, far past the few spacings within which one of the
# test's orientations can take the wrong sign.
CLEARANCE_MARGIN = 2.0**-40
# The most provenance entries, vertices x boundary samples, a region's mesh may
# hold (8 MiB of float64): refinement stops short of it, and `cli` rejects a
# region whose num_samples squared, or 3 SPAN_POINTS n^2 for n controls (the
# curve rule's tables and the twin's bumped curves), passes it.
MAX_PROVENANCE_SIZE = 2**20


class MeshError(ValueError):
    """Raised when a boundary loop bounds no region or cannot be triangulated into a covering mesh.

    Also raised when a curve or mesh reaches farther from the image grid than
    `optics.MAX_REACH`, the reach the pupil rule is sized for
    (`optics.pupil_node_counts`).
    """


class SelfIntersectionError(MeshError):
    """Raised when the boundary loop crosses itself, so it encloses no simple region."""


def check_loop(samples: np.ndarray, min_area: float = SLIVER_AREA,
               near: tuple[np.ndarray, float] | None = None) -> float | np.ndarray:
    """The shoelace area of a loop that bounds a region, or of each loop of a stack (..., m, 2); MeshError if one bounds none.

    For sample loops and target polygons alike, in an order that cannot warn
    at any scale: the area; if it is finite, the crossing test
    (SelfIntersectionError); then the area must be finite and above
    `min_area` either way round. Sample loops take SLIVER_AREA; targets pass
    0, since a tiny simple target is valid and the region placed on it takes
    the blame. The chain images the curve with the sign of this area.

    `near` is another loop of m samples with its `clearance_radius` r, such
    as the line search's iterate. A loop whose samples each lie less than r
    from the same sample of that loop is simple, so it skips the crossing
    test; it still takes the area and its floor. Any other loop, and every
    loop when r is not finite, runs the test.
    """
    loops = np.asarray(samples, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        area = polygon_signed_area(loops)
        if loops.ndim == 2:  # one loop, in Python scalars: each line-search trial checks one
            crosses = math.isfinite(area) and not _kept_simple(loops, near) and polyline_self_intersects(loops)
            unbounded = [] if min_area < abs(area) < math.inf else [area]
        else:
            crosses = any(map(polyline_self_intersects, loops[np.isfinite(area) & ~_kept_simple(loops, near)]))
            size = np.abs(area)
            unbounded = area[~((min_area < size) & (size < math.inf))]
    if crosses:
        raise SelfIntersectionError("boundary polyline intersects itself")
    if len(unbounded):
        raise MeshError(f"boundary loop encloses no finite area above {min_area:g}: {unbounded[0]:g}")
    return area


def clearance_radius(loop: np.ndarray) -> float:
    """How far each sample of a loop may move with the loop kept simple: half its clearance, less a margin.

    Each point of a segment is a convex combination of its ends, so when no
    sample moves r or more, no point of any segment does, and non-adjacent
    segments at least c apart (`geometry.loop_clearance`) stay more than
    c - 2r apart. r is c / 2 less CLEARANCE_MARGIN times the loop's largest
    |coordinate|. Not positive when c does not prove the loop simple, and
    NaN or +inf when c is (`check_loop` then runs the crossing test).
    """
    loop = np.asarray(loop, dtype=float)
    return 0.5 * loop_clearance(loop) - CLEARANCE_MARGIN * float(np.abs(loop).max())


def _kept_simple(loops: np.ndarray, near: tuple[np.ndarray, float] | None) -> bool | np.ndarray:
    """Whether the samples of a loop, or of each loop of a stack, all lie less than `near`'s finite radius from its loop's."""
    if near is None or not near[1] < math.inf:
        return np.False_
    loop, radius = near
    moves = np.hypot(loops[..., 0] - loop[:, 0], loops[..., 1] - loop[:, 1])
    return moves.max(axis=-1) < radius


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


def triangulate_region(samples: np.ndarray) -> ProvenancedMesh:
    """Delaunay-triangulate a closed sample loop; the triangles that tile it, in canonical order.

    The samples must form a simple polygon in order. Qhull triangulates the
    samples (its 2-D simplices come counterclockwise), exterior triangles
    are removed with a centroid-in-polygon test and slivers by their signed
    area, and the rest must reproduce the shoelace area of the loop, or the
    loop raises MeshError.

    Each triangle is rotated so that its smallest index leads, keeping its
    orientation, and the rows are sorted.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise MeshError("need at least 3 planar boundary samples")
    if polyline_self_intersects(pts):
        raise SelfIntersectionError("boundary polyline intersects itself")
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

    lead = simplices.argmin(axis=1)
    simplices = simplices[np.arange(len(simplices))[:, None], (lead[:, None] + np.arange(3)) % 3]
    simplices = simplices[np.lexsort((simplices[:, 2], simplices[:, 1], simplices[:, 0]))]
    return ProvenancedMesh(vertices=pts.copy(), triangles=simplices, provenance=np.eye(len(pts)))


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

    `barycentric` is L, 3 x N_G with unit column sums, and `weights` sum to 1.
    """

    barycentric: np.ndarray
    weights: np.ndarray

    @classmethod
    def degree3(cls) -> "TriangleQuadrature":
        """The symmetric 4-point rule exact for all bivariate cubics.

        Centroid (5, 5, 5) / 15 plus the three points weighted 3/5 toward
        each vertex, (9, 3, 3) / 15 and its permutations; the centroid carries
        the classic negative weight -27/48. 5/15, 9/15 and 3/15 round to the
        doubles 1/3, 0.6 and 0.2.
        """
        barycentric = np.array([
            [5, 9, 3, 3],
            [5, 3, 9, 3],
            [5, 3, 3, 9],
        ]) / 15
        weights = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0
        return cls(barycentric, weights)

    @property
    def num_points(self) -> int:
        return len(self.weights)


def gauss_points(tensor: TriangleTensor, quad: TriangleQuadrature) -> np.ndarray:
    """Physical quadrature points, shape (N_T, N_G, 2): vertices contracted with L."""
    return np.einsum("tjc,jq->tqc", tensor.coords, quad.barycentric)


def polygon_area(mesh: ProvenancedMesh) -> float:
    """Total triangle area of the mesh."""
    return float(np.abs(mesh.areas()).sum())
