"""Test oracles for the exact polygon spectrum.

The package images a region's sample polygon through its closed-form
spectrum, a sum over its edges (`splinemask.optics.polygon_spectrum`). Any
triangulation of the polygon integrates the same indicator, and a tensor
Gauss rule on each triangle, collapsed onto it, integrates the smooth
exponential to rounding at a high enough order. The same rule checks the
mesh image's quadrature error.

The package forms the edge terms and their derivatives in reused work
arrays, with `out=` (`splinemask.optics.edge_scratch`). The `plain_`
functions write the same float operations as plain expressions, every
temporary fresh, and the two must agree bit for bit.
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


def plain_sinc(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(x) / x and its derivative, with the series of `optics.sinc` and `optics.sinc_derivative` near 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(x) / x
        slope = (x * np.cos(x) - np.sin(x)) / (x * x)
    small = np.abs(x) < 1e-4
    s[small] = 1.0 - x[small] ** 2 / 6.0
    small = np.abs(x) < 0.05
    t = x[small]
    t2 = t * t
    slope[small] = t * (-1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (-1.0 / 840.0 + t2 / 45360.0)))
    return s, slope


def plain_edge_products(loop: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """k_x d_y - k_y d_x, k . d / 2 and k . m per edge and node, (m, K) each, every temporary fresh."""
    b = np.roll(loop, -1, axis=0)
    (dx, dy), (mx, my) = (b - loop).T[:, :, None], (0.5 * (loop + b)).T[:, :, None]
    kx, ky = k
    return dy * kx - dx * ky, 0.5 * (dx * kx + dy * ky), mx * kx + my * ky


def plain_phasors(phase: np.ndarray) -> np.ndarray:
    """exp(-i phase) with cos and sin as its parts."""
    out = np.empty(phase.shape, dtype=complex)
    out.real, out.imag = np.cos(-phase), np.sin(-phase)
    return out


def plain_edge_terms(loop: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The edge terms of `optics.edge_terms` as plain expressions: the reference its scratch form matches."""
    cross, half, phase = plain_edge_products(loop, k)
    return cross * plain_sinc(half)[0] * plain_phasors(phase)


def plain_edge_gradient(loop: np.ndarray, k: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient.edge_gradient` as plain expressions: the reference its scratch form matches."""
    cross, half, phase = plain_edge_products(loop, k)
    s, slope = plain_sinc(half)
    p = coef * plain_phasors(phase)
    along, flat, moved = np.stack([p.real * (0.5 * cross * slope), p.real * s, p.imag * (cross * s)]) @ k.T
    return along + flat[:, ::-1] * [-1.0, 1.0], moved
