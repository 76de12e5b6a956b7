"""A collapsed Gauss rule on triangles: the test oracle for the exact polygon spectrum.

The package images a region's sample polygon through its closed-form
spectrum, a sum over its edges (`splinemask.optics.polygon_spectrum`). Any
triangulation of the polygon integrates the same indicator, and a tensor
Gauss rule on each triangle, collapsed onto it, integrates the smooth
exponential to rounding at a high enough order. The same rule checks the
mesh image's quadrature error.
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
