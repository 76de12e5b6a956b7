"""Test oracles for the exact polygon spectrum.

The package images a region's sample polygon through its closed-form
spectrum, a sum over its edges (`splinemask.optics.polygon_spectrum`). Any
triangulation of the polygon integrates the same indicator, and a tensor
Gauss rule on each triangle, collapsed onto it, integrates the smooth
exponential to rounding at a high enough order. The same rule checks the
mesh image's quadrature error.

The package forms the edge terms and their derivatives in reused work
arrays, with `out=` (`splinemask.optics.edge_scratch`), from the tangents of
the half angles. The `plain_` functions write the same float operations as
plain expressions, every temporary fresh, and the two must agree bit for bit.
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


def plain_edge_products(loop: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """k_x d_y - k_y d_x, k . d / 4 and -k . m / 2 per edge and node, (m, K) each, every temporary fresh."""
    b = np.roll(loop, -1, axis=0)
    d = b - loop
    (dx, dy), (qx, qy), (px, py) = (v.T[:, :, None] for v in (d, 0.25 * d, -0.25 * (loop + b)))
    kx, ky = k
    return dy * kx - dx * ky, qx * kx + qy * ky, px * kx + py * ky


def plain_phasor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos x = (1 - u^2) / (1 + u^2) and sin x = 2 u / (1 + u^2) for u = tan(x / 2)."""
    uu = u * u
    big_u = uu + 1.0
    return (1.0 - uu) / big_u, (u + u) / big_u


def plain_sinc(quarter: np.ndarray) -> np.ndarray:
    """sinc(2 quarter) = (u / quarter) / (1 + u^2) with u = tan(quarter), 1 at 0."""
    u = np.tan(quarter)
    with np.errstate(invalid="ignore"):
        ratio = u / quarter
    ratio[quarter == 0] = 1.0
    return ratio / (u * u + 1.0)


def plain_sinc_slope(x: np.ndarray, s: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """sinc' x = (cos x - sinc x) / x, with the series of `optics.sinc_slope` near 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (cos_x - s) / x
    small = np.abs(x) < 0.05
    t = x[small]
    t2 = t * t
    slope[small] = t * (-1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (-1.0 / 840.0 + t2 / 45360.0)))
    return slope


def plain_phasors(half_phase: np.ndarray) -> np.ndarray:
    """exp(2 i half_phase) from w = tan(half_phase), by `plain_phasor`."""
    out = np.empty(half_phase.shape, dtype=complex)
    out.real, out.imag = plain_phasor(np.tan(half_phase))
    return out


def plain_edge_terms(loop: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The edge terms of `optics.edge_terms` as plain expressions: the reference its scratch form matches."""
    cross, quarter, phase = plain_edge_products(loop, k)
    scaled = cross * plain_sinc(quarter)
    e = plain_phasors(phase)
    out = np.empty(e.shape, dtype=complex)
    out.real, out.imag = scaled * e.real, scaled * e.imag
    return out


def plain_edge_gradient(loop: np.ndarray, k: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient.edge_gradient` as plain expressions: the reference its scratch form matches."""
    cross, quarter, phase = plain_edge_products(loop, k)
    s = plain_sinc(quarter)
    slope = plain_sinc_slope(quarter + quarter, s, plain_phasor(np.tan(quarter))[0])
    p = coef * plain_phasors(phase)
    along, flat, moved = np.stack([p.real * (0.5 * cross * slope), p.real * s, p.imag * (cross * s)]) @ k.T
    return along + flat[:, ::-1] * [-1.0, 1.0], moved
