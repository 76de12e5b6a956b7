"""Planar polygon predicates shared by the meshing, rasterization and line-search code.

The crossing test of a closed polyline orients every segment against the
start of every other segment once, as one (m, m) matrix; the orientations
against the ends are its columns in successor order, and the reverse
orientations of each segment pair are the transposes. The overlap test of
two loops takes the same pair test across them, one matrix each way. The
clearance of a loop, a lower bound on the distance between its
non-adjacent segments, is an (m, m) matrix of the same pairs.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# Edge-point pairs per block of points_in_polygon.
PAIR_BLOCK = 2**16


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
    rasterizers. The edges are tested against PAIR_BLOCK / m points at a
    time, so the work arrays stay small for any polygon and grid.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    nxt = np.roll(poly, -1, axis=0)
    x1, y1, x2, y2 = poly[:, 0, None], poly[:, 1, None], nxt[:, 0, None], nxt[:, 1, None]
    qx, qy = px.ravel(), py.ravel()
    inside = np.empty(qx.shape, dtype=bool)
    step = max(1, PAIR_BLOCK // max(1, len(poly)))
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
    (pts,) = _unit_scaled(pts)
    # segment s runs from a[s] to b[s] = a[s + 1 mod m]; segment j's
    # orientations against segment i are the transposes of segment i's against j
    successor = _successor(m)
    a, b = pts, pts[successor]
    o1, o2, straddle = _orientations(a, b, a, successor)
    apart = _non_adjacent(m)
    if (apart & straddle & straddle.T).any():
        return True
    touch = (o1 == 0) | (o2 == 0)
    if not (apart & (touch | touch.T)).any():
        return False
    on = _ends_on(a, b, a, successor, o1, o2)
    return bool((apart & (on | on.T)).any())


def loops_overlap(first: np.ndarray, second: np.ndarray) -> bool:
    """True if two simple closed polylines share a point: their segments cross or touch, or one lies inside the other.

    Loops whose bounding boxes are apart are apart. Otherwise every segment
    pair is tested as `polyline_self_intersects` tests the pairs of one loop.
    Loops whose segments do not meet either nest or are apart, and one
    vertex of each, tested against the other (`points_in_polygon`), tells
    which.
    """
    p, r = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    if (p.max(axis=0) < r.min(axis=0)).any() or (r.max(axis=0) < p.min(axis=0)).any():
        return False
    p, r = _unit_scaled(p, r)
    p_next, r_next = _successor(len(p)), _successor(len(r))
    p_ends, r_ends = p[p_next], r[r_next]
    o1, o2, straddle = _orientations(p, p_ends, r, r_next)  # r's segments against p's, (len(p), len(r))
    q1, q2, straddle_r = _orientations(r, r_ends, p, p_next)
    if (straddle & straddle_r.T).any():
        return True
    if (_ends_on(p, p_ends, r, r_next, o1, o2) | _ends_on(r, r_ends, p, p_next, q1, q2).T).any():
        return True
    return bool(points_in_polygon(r[:1, 0], r[:1, 1], p)[0] or points_in_polygon(p[:1, 0], p[:1, 1], r)[0])


def _unit_scaled(*loops: np.ndarray) -> tuple[np.ndarray, ...]:
    """The loops scaled by one power of two, which is exact, so that their largest |coordinate| lies in [0.5, 1).

    Orientations multiply coordinate differences, so they overflow on a loop
    about 1e154 across. One loop with a coordinate that is not finite stays
    as it is.
    """
    exponent = math.frexp(max(np.abs(loop).max() for loop in loops))[1]
    return tuple(np.ldexp(loop, -exponent) for loop in loops)


def _orientations(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  successor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """o1, o2 and straddle, (len(a), len(c)): a loop's segment j, c[j] to c[successor[j]], against segment i, a[i] to b[i].

    o1[i, j] and o2[i, j] orient the start and the end of segment j against
    segment i, and straddle[i, j] says that they lie strictly on either side
    of its line. The end of segment j is the start of segment j + 1, so o2
    is o1 with its columns taken in successor order, by a cached index. o2
    times o1's sign is exact, where o1 * o2 underflows to 0 on a loop under
    about 1e-81 across, hiding its crossings, and overflows over 1e77.
    """
    o1 = orient(a[:, 0, None], a[:, 1, None], b[:, 0, None], b[:, 1, None], c[:, 0], c[:, 1])
    o2 = o1[:, successor]
    return o1, o2, np.sign(o1) * o2 < 0


def _ends_on(a: np.ndarray, b: np.ndarray, c: np.ndarray, successor: np.ndarray, o1: np.ndarray,
             o2: np.ndarray) -> np.ndarray:
    """Whether an end of segment j lies on segment i, (len(a), len(c)), given the `_orientations` o1 and o2 of the pairs.

    An end lies on the segment when its orientation is zero and it lies in
    the segment's bounding box. Overlapping boxes alone are not enough: an
    end on the segment's line beyond it touches nothing.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # boxed[i, j]: the start of segment j lies in segment i's bounding box
    boxed = ((lo[:, 0, None] <= c[:, 0]) & (c[:, 0] <= hi[:, 0, None])
             & (lo[:, 1, None] <= c[:, 1]) & (c[:, 1] <= hi[:, 1, None]))
    return ((o1 == 0) & boxed) | ((o2 == 0) & boxed[:, successor])


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
