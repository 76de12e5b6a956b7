"""Test oracles for the exact polygon spectrum.

The package images a region's sample polygon through its closed-form
spectrum, a sum over its edges (`splinemask.optics.polygon_spectrum`). Any
triangulation of the polygon integrates the same indicator, and a tensor
Gauss rule on each triangle, collapsed onto it, integrates the smooth
exponential to rounding at a high enough order. The same rule checks the
mesh image's quadrature error.

The package forms the edge terms and their derivatives in place, with
`out=`, in one work array per kernel call: the edge projections as one
matrix product, then each term from the tangents t = tan q and w = tan phi
as one real quotient. The `plain_` functions write the same float
operations as plain expressions, the same matrix products in the same
shapes, every temporary fresh, and the two must agree bit for bit.
"""
import numpy as np
from scipy.special import roots_legendre


def collapsed_gauss_spectrum(vertices: np.ndarray, triangles: np.ndarray, freqs: np.ndarray,
                             order: int = 30) -> np.ndarray:
    """sum_t int_t exp(-2 pi i f_k . x) dx by an order x order collapsed Gauss rule per triangle, (K,).

    Triangle (a, b, c) is the image of the unit square under
    x = a + u ((1 - v)(b - a) + v (c - a)), with Jacobian 2 |A| u.
    """
    t, w = roots_legendre(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    u, v = (x.ravel() for x in np.meshgrid(t, t, indexing="ij"))
    weights = np.outer(w, w).ravel() * u
    out = np.zeros(freqs.shape[1], dtype=complex)
    for a, b, c in vertices[triangles]:
        ab, ac = b - a, c - a
        twice_area = abs(ab[0] * ac[1] - ab[1] * ac[0])
        points = a + u[:, None] * ((1.0 - v)[:, None] * ab + v[:, None] * ac)
        out += (twice_area * weights) @ np.exp(-2j * np.pi * (points @ freqs))
    return out


def plain_edge_products(loop: np.ndarray, k: np.ndarray) -> np.ndarray:
    """c = k_x d_y - k_y d_x, q = k . d / 4 and phi = -k . m / 2 per edge and node, (3, m, K), by one matrix product."""
    b = np.roll(loop, -1, axis=0)
    d = b - loop
    coef = np.concatenate([np.stack([d[:, 1], -d[:, 0]], axis=1), 0.25 * d, -0.25 * (loop + b)])
    return (coef @ k).reshape(3, len(loop), -1)


def plain_tangent_ratio(quarter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = tan q and t / q, the latter 1 where q = 0."""
    t = np.tan(quarter)
    with np.errstate(invalid="ignore"):
        ratio = t / quarter
    ratio[quarter == 0] = 1.0
    return t, ratio


def plain_sinc_slope(x: np.ndarray, s: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """sinc' x = (cos x - sinc x) / x, with the series of `optics.sinc_slope` near 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (cos_x - s) / x
    small = np.abs(x) < 0.05
    t = x[small]
    t2 = t * t
    slope[small] = t * (-1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (-1.0 / 840.0 + t2 / 45360.0)))
    return slope


def plain_edge_terms(loop: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Re T and Im T of `optics.edge_terms`, (2, m, K), as plain expressions: the reference its in-place form matches.

    R = c (t / q) / ((1 + t^2)(1 + w^2)), Re T = R (1 - w^2), Im T = R (2 w).
    """
    cross, quarter, phase = plain_edge_products(loop, k)
    t, ratio = plain_tangent_ratio(quarter)
    w = np.tan(phase)
    r = cross * ratio / ((t * t + 1.0) * (w * w + 1.0))
    return np.stack([r * (1.0 - w * w), r * (w + w)])


def plain_edge_gradient(loop: np.ndarray, k: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient.edge_gradient` as plain expressions: the reference its in-place form matches.

    With Y = 1 + w^2, Y p = (a (1 - w^2) - b 2 w) + i (b (1 - w^2) + a 2 w)
    for coef = a + i b, and s and sinc' are divided by Y.
    """
    cross, quarter, phase = plain_edge_products(loop, k)
    t, ratio = plain_tangent_ratio(quarter)
    big_t = t * t + 1.0
    s = ratio / big_t
    slope = plain_sinc_slope(quarter + quarter, s, (1.0 - t * t) / big_t)
    w = np.tan(phase)
    big_w = w * w + 1.0
    a, b = coef.real, coef.imag
    real = a * (1.0 - w * w) - b * (w + w)
    imag = (1.0 - w * w) * b + (w + w) * a
    s, slope = s / big_w, slope / big_w
    slope_sum, flat, moved = np.stack([real * (slope * cross), real * s, imag * (s * cross)]) @ k.T
    return 0.5 * slope_sum + flat[:, ::-1] * [-1.0, 1.0], moved
