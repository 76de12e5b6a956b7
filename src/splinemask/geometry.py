"""Planar polygon predicates shared by the meshing, rasterization and line-search code.

The crossing test of a closed polyline orients every segment against the
start of every other segment once, as one (m, m) matrix; the orientations
against the ends are its columns in successor order, and the reverse
orientations of each segment pair are the transposes. The clearance of a
loop, a lower bound on the distance between its non-adjacent segments, is
an (m, m) matrix of the same pairs.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# Edge-point pairs per block of points_in_polygon.
POINT_BLOCK = 2**16


def polygon_signed_area(points: np.ndarray) -> float | np.ndarray:
    """Shoelace signed area of a closed polygon given as an (m, 2) vertex loop, a float; of each loop of a stack (..., m, 2), an array.

    Positive for counterclockwise orientation. The closing edge from the last
    vertex back to the first is implied.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    # each vertex's successor: np.roll(-1) without its overhead, which dominated on short loops
    x_next = np.concatenate((x[..., 1:], x[..., :1]), axis=-1)
    y_next = np.concatenate((y[..., 1:], y[..., :1]), axis=-1)
    area = 0.5 * np.sum(x * y_next - x_next * y, axis=-1)
    return float(area) if area.ndim == 0 else area


def points_in_polygon(px: np.ndarray, py: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd (crossing number) point-in-polygon test, vectorized over points and edges.

    A point is inside when a ray from it toward +x crosses an odd number of
    edges. Points exactly on a horizontal edge follow the half-open crossing
    rule; results on the boundary are convention-dependent, as usual for
    rasterizers. The edges are tested against POINT_BLOCK / m points at a
    time, so the work arrays stay small for any polygon and grid.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    nxt = np.roll(poly, -1, axis=0)
    x1, y1, x2, y2 = poly[:, 0, None], poly[:, 1, None], nxt[:, 0, None], nxt[:, 1, None]
    qx, qy = px.ravel(), py.ravel()
    inside = np.empty(qx.shape, dtype=bool)
    step = max(1, POINT_BLOCK // max(1, len(poly)))
    for start in range(0, len(qx), step):
        bx, by = qx[start:start + step], qy[start:start + step]
        crosses = ((y1 <= by) & (by < y2)) | ((y2 <= by) & (by < y1))  # (m, points)
        with np.errstate(divide="ignore", invalid="ignore"):  # horizontal edges never cross
            x_int = x1 + (by - y1) / (y2 - y1) * (x2 - x1)
        inside[start:start + step] = (crosses & (bx < x_int)).sum(axis=0) % 2 == 1
    return inside.reshape(px.shape)


def orient(ax, ay, bx, by, cx, cy):
    """Cross product (b - a) x (c - a): twice the signed area of triangle abc.

    Positive iff a, b, c run counterclockwise, zero iff they are collinear.
    Works elementwise on arrays.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def polyline_self_intersects(points: np.ndarray) -> bool:
    """True if the closed polyline through `points` has any crossing edge pair.

    Adjacent segments (sharing an endpoint, including the wrap-around pair)
    are not counted. Repeated vertices count as an intersection. All
    non-adjacent segment pairs are tested at once: a proper crossing by the
    orientation signs, or an end of one segment on the other, collinear with
    it and inside its bounding box.
    From m = 4 on, a repeated vertex needs no check of its own: the segments
    that start at two copies, or the two neighbours of a zero-length
    segment, are non-adjacent and touch. A triangle has no non-adjacent
    pair, so only there are repeats looked for.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 3:
        return False
    if m == 3:
        return len(np.unique(pts, axis=0)) < m
    # orientations multiply coordinate differences, so they overflow on a loop
    # about 1e154 across; scaled by a power of two, which is exact, the largest
    # |coordinate| lies in [0.5, 1) (a loop with one that is not finite stays)
    pts = np.ldexp(pts, -math.frexp(np.abs(pts).max())[1])
    # segment s runs from a[s] to b[s] = a[s + 1 mod m]; o1[i, j] and o2[i, j]
    # orient the start and end of segment j against segment i, so segment j's
    # orientations against segment i are the transposes. The end of segment j
    # is the start of segment j + 1, so o2 is o1 with its columns taken in
    # successor order, by a cached index: the two np.roll calls it replaces took
    # about a quarter of a desk-sized call
    successor = _successor(m)
    a, b = pts, pts[successor]
    o1 = orient(a[:, 0, None], a[:, 1, None], b[:, 0, None], b[:, 1, None], a[:, 0], a[:, 1])
    o2 = o1[:, successor]
    apart = _non_adjacent(m)
    # o2 times o1's sign is exact, where o1 * o2 underflows to 0 on a loop
    # under about 1e-81 across, hiding its crossings, and overflows over 1e77
    straddle = np.sign(o1) * o2 < 0
    if (apart & straddle & straddle.T).any():
        return True
    # an end of one segment on the other: a zero orientation whose end lies
    # in the segment's bounding box. Overlapping boxes alone are not enough:
    # an end on the segment's line beyond it touches nothing
    start_on, end_on = o1 == 0, o2 == 0
    touch = start_on | end_on
    if not (apart & (touch | touch.T)).any():
        return False
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # boxed[i, j]: the start of segment j lies in segment i's bounding box
    boxed = ((lo[:, 0, None] <= a[:, 0]) & (a[:, 0] <= hi[:, 0, None])
             & (lo[:, 1, None] <= a[:, 1]) & (a[:, 1] <= hi[:, 1, None]))
    on = (start_on & boxed) | (end_on & boxed[:, successor])
    return bool((apart & (on | on.T)).any())


def loop_clearance(loop: np.ndarray) -> float:
    """A lower bound c on the distance between any two non-adjacent segments of a closed polyline.

    Segment s lies within half its length of its midpoint, so segments i and
    j lie at least |mid_i - mid_j| - (len_i + len_j) / 2 apart; c is the least
    of these over the non-adjacent pairs (`_non_adjacent`), in the crossing
    test's (m, m) style. A positive c proves the loop simple. It is +inf for
    a triangle, which has no such pair, and NaN when a coordinate is not
    finite. The distances are hypotenuses, so no square over- or underflows
    at any scale.
    """
    pts = np.asarray(loop, dtype=float)
    m = len(pts)
    if m < 4:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        ends = pts[_successor(m)]
        mid = 0.5 * (pts + ends)
        half = 0.5 * np.hypot(ends[:, 0] - pts[:, 0], ends[:, 1] - pts[:, 1])
        gap = np.hypot(mid[:, 0, None] - mid[:, 0], mid[:, 1, None] - mid[:, 1]) - (half[:, None] + half)
    return float(gap[_non_adjacent(m)].min())


@lru_cache(maxsize=64)
def _non_adjacent(m: int) -> np.ndarray:
    """Read-only (m, m) mask of the non-adjacent segment pairs of an m-loop.

    Segments i and j are non-adjacent when their index gap is 2..m-2 either
    way round the loop, which also leaves out the wrap-around pair (0, m-1).
    """
    gap = np.abs(np.arange(m)[:, None] - np.arange(m))
    apart = (gap >= 2) & (gap <= m - 2)
    apart.setflags(write=False)
    return apart


@lru_cache(maxsize=64)
def _successor(m: int) -> np.ndarray:
    """Read-only index of each vertex's successor around an m-loop: 1, 2, ..., m - 1, 0."""
    successor = np.roll(np.arange(m), -1)
    successor.setflags(write=False)
    return successor


def polygon_perimeter_points(polygon: np.ndarray, count: int) -> np.ndarray:
    """Place `count` points at equal arc-length spacing along a closed polygon.

    The first point coincides with vertex 0; spacing is perimeter / count.
    A count below 1 places no points.
    """
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    edges = np.roll(poly, -1, axis=0) - poly
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    perimeter = float(lengths.sum())
    if perimeter <= 0.0:
        raise ValueError("degenerate polygon with zero perimeter")
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.arange(count) * perimeter / count
    i = np.minimum(np.searchsorted(cumulative, targets, side="right") - 1, len(poly) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(lengths[i] > 0, (targets - cumulative[i]) / lengths[i], 0.0)
    return poly[i] + frac[:, None] * edges[i]
