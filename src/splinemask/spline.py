"""Periodic B-spline boundaries: one vectorised periodic basis, collocation, sampling, curve rule.

A closed mask region is a degree-p periodic B-spline loop on [0, 1] with n
independent control points and one uniform knot span per control. The p basis
functions nearest the seam are wrapped (each is a plain basis function plus
its period-shifted copy), which closes the loop with C^{p-1} continuity for
any control positions and keeps the shape derivative with respect to the n
points well defined. Sampling is a plain matrix product Q = N P, with N built
once per region shape (n, degree, num_samples) and cached read-only.

The chain integrates along the curve itself, with SPAN_POINTS Gauss-Legendre
points per knot span: points r_q = N_q P, tangents r'_q = N'_q P and weights
w_q, with the basis values N_q and their slopes N'_q from one Cox-de Boor
table. That rule depends on the region's shape alone and is cached
read-only per (n, degree) (`curve_rule`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

# Gauss-Legendre points per knot span of the curve rule (`curve_rule`). A
# constant, not a count sized from the controls: a count that changed with
# them would make J jump whenever a finite-difference bump crossed a count
# boundary.
SPAN_POINTS = 5


def _basis_and_slope(n: int, degree: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and t-derivatives of the n periodic basis functions at parameters t in [0, 1], each (len(t), n).

    The uniform partition of [0, 1] into n spans is extended by `degree`
    period-shifted knots on each side, and the Cox-de Boor table is filled
    bottom-up for all t at once: the degree-0 functions are the indicators of
    the half-open spans, and each degree d follows from d - 1 by
    (t - k_i)/(k_{i+d} - k_i) B_i + (k_{i+d+1} - t)/(k_{i+d+1} - k_{i+1}) B_{i+1}.
    The slopes come from the same table at degree p - 1, as
    p (B_i/(k_{i+p} - k_i) - B_{i+1}/(k_{i+p+1} - k_{i+1})).
    The extended knots strictly increase, so no span is empty and the 0/0 = 0
    rule of repeated knots never applies. Plain function k + p pairs with
    control k, and each of the last p controls also adds plain function
    k - (n - p), the period image of its tail across the seam, which closes
    the loop. Requires n >= degree + 2, as PeriodicSplineRegion does.
    """
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("spline parameters must lie in [0, 1]")
    p = degree
    base = np.linspace(0.0, 1.0, n + 1)
    knots = np.concatenate([base[n - p : n] - 1.0, base, base[1 : p + 1] + 1.0])
    x = t[:, None]
    table = ((knots[:-1] <= x) & (x < knots[1:])).astype(float)
    for d in range(1, p):
        lo, hi = knots[: -d - 1], knots[d + 1 :]
        table = ((x - lo) / (knots[d:-1] - lo) * table[:, :-1]
                 + (hi - x) / (hi - knots[1:-d]) * table[:, 1:])
    lo, hi = knots[: -p - 1], knots[p + 1 :]
    below, above = knots[p:-1] - lo, hi - knots[1:-p]
    values = (x - lo) / below * table[:, :-1] + (hi - x) / above * table[:, 1:]
    slopes = p * (table[:, :-1] / below - table[:, 1:] / above)
    for plain in (values, slopes):
        plain[:, n:] += plain[:, :p]
    return np.ascontiguousarray(values[:, p:]), np.ascontiguousarray(slopes[:, p:])


def periodic_basis(n: int, degree: int, t: np.ndarray) -> np.ndarray:
    """Values of the n periodic basis functions at parameters t in [0, 1], shape (len(t), n)."""
    return _basis_and_slope(n, degree, t)[0]


def periodic_basis_slope(n: int, degree: int, t: np.ndarray) -> np.ndarray:
    """Derivatives in t of the n periodic basis functions at parameters t in [0, 1], shape (len(t), n)."""
    return _basis_and_slope(n, degree, t)[1]


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
    matrix = periodic_basis(n, degree, shape.params())
    matrix.setflags(write=False)
    return matrix


class CurveRule(NamedTuple):
    """A region shape's Gauss rule on its curve, each table read-only.

    For controls P the points are r_q = basis @ P and their tangents
    r'_q = slope @ P, both (n SPAN_POINTS, 2), span by span, and
    sum_q weights_q f(t_q) integrates f over [0, 1].
    """

    basis: np.ndarray
    slope: np.ndarray
    weights: np.ndarray


def curve_rule(region: PeriodicSplineRegion) -> CurveRule:
    """The cached Gauss rule on the curve of every region of this (n, degree).

    Span j takes the SPAN_POINTS Gauss-Legendre nodes moved to
    [j / n, (j + 1) / n], each with its weight over 2 n. On a span the curve
    is a polynomial of degree p in t, so the rule is exact there for any
    polynomial integrand of degree up to 2 SPAN_POINTS - 1.
    """
    return _curve_rule(region.n, region.degree)


@lru_cache(maxsize=64)
def _curve_rule(n: int, degree: int) -> CurveRule:
    nodes, weights = leggauss(SPAN_POINTS)
    t = ((np.arange(n)[:, None] + 0.5 * (nodes + 1.0)) / n).ravel()
    rule = CurveRule(*_basis_and_slope(n, degree, t), np.tile(weights / (2 * n), n))
    for table in rule:
        table.setflags(write=False)
    return rule


def sample_boundary(region: PeriodicSplineRegion) -> np.ndarray:
    """Boundary samples Q = N @ P in curve order, shape (m, 2)."""
    return build_collocation(region) @ region.controls


def evaluate_curve(region: PeriodicSplineRegion, t: float | np.ndarray) -> np.ndarray:
    """Pointwise curve evaluation at parameter(s) t in [0, 1] via the periodic basis sum."""
    out = periodic_basis(region.n, region.degree, np.atleast_1d(t)) @ region.controls
    return out[0] if np.ndim(t) == 0 else out
