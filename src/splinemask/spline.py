"""Periodic B-spline boundaries: basis recursion, extended partitions, collocation.

A closed mask region is a degree-p periodic B-spline loop on [0, 1] with n
independent control points and one uniform knot span per control. The p basis
functions nearest the seam are wrapped (each is a plain basis function plus
its period-shifted copy), which closes the loop with C^{p-1} continuity for
any control positions and keeps the shape derivative with respect to the n
points well defined. Sampling is a plain matrix product Q = N P.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def basis_value(knots: np.ndarray, degree: int, index: int, xi: float) -> float:
    """B-spline basis N_{index,degree}(xi) by the de Boor-Cox recursion.

    `index` is 0-based into `knots`; divisions 0/0 are taken as 0. Support is
    the half-open span [knots[index], knots[index+degree+1]), except that the
    very last knot of the vector is treated as inside its final interval so
    evaluation at the right end of the domain stays meaningful.
    """
    if degree == 0:
        left, right = knots[index], knots[index + 1]
        if left <= xi < right:
            return 1.0
        if xi == knots[-1] and left < right == knots[-1]:
            return 1.0
        return 0.0
    value = 0.0
    den = knots[index + degree] - knots[index]
    if den > 0.0:
        value += (xi - knots[index]) / den * basis_value(knots, degree - 1, index, xi)
    den = knots[index + degree + 1] - knots[index + 1]
    if den > 0.0:
        value += (knots[index + degree + 1] - xi) / den * basis_value(knots, degree - 1, index + 1, xi)
    return value


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing knots on [a, b] carrying n = len - degree - 1 basis functions."""

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if len(knots) < self.degree + 2:
            raise ValueError("knot vector too short for its degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])


def uniform_knots(n: int, degree: int) -> KnotVector:
    """Uniform knot vector on [0, 1] with n basis functions of the given degree."""
    if n < 1:
        raise ValueError("need at least one basis function")
    return KnotVector(np.linspace(0.0, 1.0, n + degree + 1), degree)


def basis_eval(kv: KnotVector, index: int, xi: float) -> float:
    """Evaluate the index-th (0-based) basis function of `kv` at xi in [a, b]."""
    if not 0 <= index < kv.n:
        raise IndexError(f"basis index {index} out of range [0, {kv.n})")
    if not kv.a <= xi <= kv.b:
        raise ValueError(f"parameter {xi} outside knot span [{kv.a}, {kv.b}]")
    return basis_value(kv.knots, kv.degree, index, xi)


@dataclass(frozen=True)
class ExtendedPartition:
    """Knot vector extended by p period-shifted knots on each side.

    The extension turns the b-side of the interval into interior territory so
    wrap-around basis functions exist; `knots` has n + 3p + 1 entries.
    """

    base: KnotVector
    knots: np.ndarray = field(init=False)

    def __post_init__(self):
        b = self.base.knots
        p = self.base.degree
        n = self.base.n
        L = self.base.b - self.base.a
        if p == 0:
            ext = b.copy()
        else:
            ext = np.concatenate([b[n : n + p] - L, b, b[1 : p + 1] + L])
        object.__setattr__(self, "knots", ext)

    @property
    def degree(self) -> int:
        return self.base.degree

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def period(self) -> float:
        return self.base.b - self.base.a


def extend_partition(kv: KnotVector) -> ExtendedPartition:
    return ExtendedPartition(kv)


def periodic_basis_eval(ext: ExtendedPartition, index: int, xi: float) -> float:
    """Periodic basis value for index in [0, n+p): the plain basis plus its wrap image.

    Indices at or beyond n pick up the copy of the basis function shifted by
    one period, which is what makes the family periodic on [a, b].
    """
    n, p = ext.n, ext.degree
    if not 0 <= index < n + p:
        raise IndexError(f"periodic basis index {index} out of range [0, {n + p})")
    if not ext.base.a <= xi <= ext.base.b:
        raise ValueError(f"parameter {xi} outside [{ext.base.a}, {ext.base.b}]")
    value = basis_value(ext.knots, p, index + p, xi)
    if index >= n:
        value += basis_value(ext.knots, p, index - n, xi)
    return value


@dataclass(frozen=True)
class PeriodicSplineRegion:
    """One closed mask region: degree, n independent control points, m sample parameters.

    The parameter interval [0, 1] is split into n uniform knot spans, one per
    control point, so the n periodic basis functions (p of which wrap across
    the seam) pair one-to-one with the controls and the loop traverses them
    in order with C^{p-1} continuity.

    Control points live in whatever length unit the caller is working in
    (mask-plane nm before normalization, dimensionless after). The sample
    parameters are the uniform set k/m for k = 0..m-1; t = 1 is excluded
    since the closed curve repeats there.
    """

    controls: np.ndarray
    num_samples: int
    degree: int = 3

    def __post_init__(self):
        controls = np.asarray(self.controls, dtype=float)
        object.__setattr__(self, "controls", controls)
        if controls.ndim != 2 or controls.shape[1] != 2 or not np.isfinite(controls).all():
            raise ValueError("controls must be an (n, 2) array of finite numbers")
        if not self.degree >= 1:
            raise ValueError("degree must be at least 1 for a curve")
        if len(controls) < self.degree + 2:
            raise ValueError(f"controls must number at least degree + 2 = {self.degree + 2}")
        if not self.num_samples >= 3:
            raise ValueError("num_samples must be at least 3")

    @property
    def n(self) -> int:
        return len(self.controls)

    def params(self) -> np.ndarray:
        return np.arange(self.num_samples) / self.num_samples

    def knot_vector(self) -> KnotVector:
        # n + 1 uniform knots: the knot-span period equals the control count,
        # which is what makes the basis-to-control pairing cyclic.
        return uniform_knots(self.n - self.degree, self.degree)

    def with_controls(self, controls: np.ndarray) -> "PeriodicSplineRegion":
        return PeriodicSplineRegion(controls, self.num_samples, self.degree)


def build_collocation(region: PeriodicSplineRegion) -> np.ndarray:
    """Collocation matrix N of periodic basis values, shape (m, n), read-only.

    Row i holds the n periodic basis values at t_i; the p wrapped functions
    (whose plain-basis tails cross the seam) land on the last p columns, so
    Q = N @ controls uses exactly the n independent points. Every row sums
    to 1 and has at most degree + 1 nonzero entries.

    N depends only on the region's shape, not on its control positions, so
    it is built once per (n, degree, num_samples) and the same read-only
    array is returned for every region of that shape.
    """
    return _collocation(region.n, region.degree, region.num_samples)


@lru_cache(maxsize=64)
def _collocation(n: int, degree: int, num_samples: int) -> np.ndarray:
    shape = PeriodicSplineRegion(np.zeros((n, 2)), num_samples, degree)
    matrix = _basis_rows(shape, shape.params())
    matrix.setflags(write=False)
    return matrix


def _basis_rows(region: PeriodicSplineRegion, t: np.ndarray) -> np.ndarray:
    """Periodic basis values of the region's n controls at parameters t, shape (len(t), n)."""
    ext = extend_partition(region.knot_vector())
    rows = np.zeros((len(t), region.n))
    for i, ti in enumerate(t):
        for k in range(region.n):
            rows[i, k] = periodic_basis_eval(ext, k, float(ti))
    return rows


def sample_boundary(region: PeriodicSplineRegion) -> np.ndarray:
    """Boundary samples Q = N @ P in curve order, shape (m, 2)."""
    return build_collocation(region) @ region.controls


def evaluate_curve(region: PeriodicSplineRegion, t: float | np.ndarray) -> np.ndarray:
    """Pointwise curve evaluation at parameter(s) t in [0, 1] via the periodic basis sum."""
    out = _basis_rows(region, np.atleast_1d(np.asarray(t, dtype=float))) @ region.controls
    return out[0] if np.ndim(t) == 0 else out
