"""Triangle meshes over spline-bounded regions with vertex provenance.

Every mesh vertex is a convex combination of the region's boundary samples Q.
The combination weights live in the provenance matrix W (K x m, first m rows
the identity), so vertices = W @ Q holds exactly through any number of
centroid-insertion refinements. That linearity is what makes the shape
gradient a plain matrix chain later on.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .geometry import orient, points_in_polygon, polygon_signed_area, polyline_self_intersects
from .geometry import SelfIntersectionError

SLIVER_AREA = 1e-14


class MeshError(ValueError):
    """Raised when triangulation cannot produce a consistent covering mesh."""


def signed_area(v1, v2, v3) -> float:
    """Signed triangle area; positive iff the vertices run counterclockwise."""
    (ax, ay), (bx, by), (cx, cy) = v1, v2, v3
    return 0.5 * orient(ax, ay, bx, by, cx, cy)


def _triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = (vertices[corner] for corner in triangles.T)
    return 0.5 * orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])


@dataclass(frozen=True)
class ProvenancedMesh:
    """Triangulation of one region plus the boundary-sample provenance of every vertex.

    vertices:   (K, 2) coordinates, first m rows are the boundary samples
    triangles:  (N_T, 3) vertex indices, counterclockwise
    provenance: (K, m) weights with vertices = provenance @ boundary
    boundary:   (m, 2) the samples Q the mesh was built from
    """

    vertices: np.ndarray
    triangles: np.ndarray
    provenance: np.ndarray
    boundary: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        return _triangle_areas(self.vertices, self.triangles)

    def with_boundary(self, boundary: np.ndarray) -> "ProvenancedMesh":
        """Move the mesh to new boundary samples, keeping topology and provenance."""
        boundary = np.asarray(boundary, dtype=float)
        if boundary.shape != self.boundary.shape:
            raise ValueError("boundary shape changed; rebuild the mesh instead")
        return replace(self, vertices=self.provenance @ boundary, boundary=boundary)


def triangulate_region(samples: np.ndarray) -> ProvenancedMesh:
    """Delaunay-triangulate a closed sample loop and drop exterior triangles.

    The samples must form a simple polygon in order. Exterior triangles are
    removed with a centroid-in-polygon test; remaining triangles are oriented
    counterclockwise and their total area must reproduce the shoelace area of
    the loop (a mismatch means the triangulation failed to cover the region).
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise MeshError("need at least 3 planar boundary samples")
    if polyline_self_intersects(pts):
        raise SelfIntersectionError("boundary polyline intersects itself")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
    simplices = np.asarray(tri.simplices, dtype=np.int64)

    centroids = pts[simplices].mean(axis=1)
    keep = points_in_polygon(centroids[:, 0], centroids[:, 1], pts)
    simplices = simplices[keep]

    areas = _triangle_areas(pts, simplices)
    flip = areas < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    areas = np.abs(areas)
    simplices = simplices[areas > SLIVER_AREA]

    covered = float(np.abs(areas[areas > SLIVER_AREA]).sum())
    target = abs(polygon_signed_area(pts))
    if abs(covered - target) > 1e-9 * max(1.0, target):
        raise MeshError("triangulation does not cover the sampled region")
    if len(simplices) == 0:
        raise MeshError("no interior triangles left after filtering")

    m = len(pts)
    return ProvenancedMesh(
        vertices=pts.copy(),
        triangles=simplices,
        provenance=np.eye(m),
        boundary=pts.copy(),
    )


def refine_mesh(mesh: ProvenancedMesh, max_area: float) -> ProvenancedMesh:
    """Split every triangle larger than max_area at its centroid, repeatedly.

    Each insertion appends one vertex whose provenance row is the mean of the
    parent rows, and replaces the parent with its three children (each a third
    of the parent's area), so the sweep count is bounded and vertices = W @ Q
    is preserved exactly.
    """
    if max_area <= 0.0:
        raise ValueError("max_area must be positive")
    vertices = np.array(mesh.vertices, dtype=float)
    prov = np.array(mesh.provenance, dtype=float)
    triangles = np.array(mesh.triangles, dtype=np.int64)

    while True:
        # one sweep: every triangle larger than max_area splits, in order
        split = ~(_triangle_areas(vertices, triangles) <= max_area)
        if not split.any():
            break
        parents = triangles[split]
        i, j, k = parents.T
        g = len(vertices) + np.arange(len(parents))
        vertices = np.concatenate([vertices, (vertices[i] + vertices[j] + vertices[k]) / 3.0])
        prov = np.concatenate([prov, (prov[i] + prov[j] + prov[k]) / 3.0])
        # a kept triangle stays in place; a split parent gives way to its
        # three children (i, j, g), (j, k, g), (k, i, g)
        width = np.where(split, 3, 1)
        start = np.cumsum(width) - width
        out = np.empty((int(width.sum()), 3), dtype=np.int64)
        out[start[~split]] = triangles[~split]
        first = start[split]
        out[first] = np.stack([i, j, g], axis=1)
        out[first + 1] = np.stack([j, k, g], axis=1)
        out[first + 2] = np.stack([k, i, g], axis=1)
        triangles = out

    return ProvenancedMesh(
        vertices=vertices,
        triangles=triangles,
        provenance=prov,
        boundary=mesh.boundary,
    )


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

    `barycentric` is 3 x N_G with unit column sums; `weights` sum to 1.
    """

    barycentric: np.ndarray
    weights: np.ndarray

    @classmethod
    def degree3(cls) -> "TriangleQuadrature":
        """The symmetric 4-point rule exact for all bivariate cubics.

        Centroid plus the three points weighted 3/5 toward each vertex; the
        centroid carries the classic negative weight -27/48.
        """
        third = 1.0 / 3.0
        bary = np.array([
            [third, 0.6, 0.2, 0.2],
            [third, 0.2, 0.6, 0.2],
            [third, 0.2, 0.2, 0.6],
        ])
        weights = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0
        return cls(bary, weights)

    @property
    def num_points(self) -> int:
        return len(self.weights)


def gauss_points(tensor: TriangleTensor, quad: TriangleQuadrature) -> np.ndarray:
    """Physical quadrature points, shape (N_T, N_G, 2): vertices contracted with L."""
    return np.einsum("tjc,jq->tqc", tensor.coords, quad.barycentric)


def polygon_area(mesh: ProvenancedMesh) -> float:
    """Total triangle area of the mesh."""
    return float(np.abs(mesh.areas()).sum())
