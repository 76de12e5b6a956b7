"""Test oracles for the region spectra.

The package images a region's spline curve through Gauss points on it
(`splinemask.optics.curve_spectrum`). The exact spectrum of a polygon, a
closed-form sum over its edges (`polygon_spectrum`), is the oracle: the
polygons through ever more points of the curve converge on the curve's
spectrum. Any triangulation of a polygon integrates the same indicator, and
a tensor Gauss rule on each triangle, collapsed onto it, integrates the
smooth exponential to rounding at a high enough order
(`collapsed_gauss_spectrum`); the same rule checks the mesh image's
quadrature error.
"""
import numpy as np
from scipy.special import roots_legendre


def collapsed_gauss_spectrum(vertices: np.ndarray, triangles: np.ndarray, k: np.ndarray,
                             order: int = 30) -> np.ndarray:
    """sum_t int_t exp(-i k . x) dx at the wave vectors k (2, K) by an order x order collapsed Gauss rule per triangle, (K,).

    Triangle (a, b, c) is the image of the unit square under
    x = a + u ((1 - v)(b - a) + v (c - a)), with Jacobian 2 |A| u.
    """
    t, w = roots_legendre(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    u, v = (x.ravel() for x in np.meshgrid(t, t, indexing="ij"))
    weights = np.outer(w, w).ravel() * u
    out = np.zeros(k.shape[1], dtype=complex)
    for a, b, c in vertices[triangles]:
        ab, ac = b - a, c - a
        twice_area = abs(ab[0] * ac[1] - ab[1] * ac[0])
        points = a + u[:, None] * ((1.0 - v)[:, None] * ab + v[:, None] * ac)
        out += (twice_area * weights) @ np.exp(-1j * (points @ k))
    return out


def polygon_spectrum(loop: np.ndarray, nodes, sign: float | None = None) -> np.ndarray:
    """S_k = int_P exp(-2 pi i f_k . x) dx for the simple polygon `loop` (m, 2) at the nodes' wave vectors `k`, (K,) complex.

    With k = 2 pi f, by the divergence theorem (Lee and Mittra, IEEE TAP
    31(1), 1983; Wuttke, arXiv:1703.00255),
    S = sign (i / |k|^2) sum_e (k_x d_y - k_y d_x) sinc(k . d / 2) exp(-i k . m)
    over the edges from a = loop[e] to b = loop[e + 1], with d = b - a and
    midpoint m = (a + b) / 2, exact up to rounding. `loop` lists the
    vertices in order, either way round, without repeating the first; `sign`
    is its orientation, found from its shoelace area when not given.
    """
    b = np.roll(loop, -1, axis=0)
    d = b - loop
    if sign is None:
        sign = np.sign(np.sum(loop[:, 0] * b[:, 1] - b[:, 0] * loop[:, 1]))
    k = nodes.k
    cross = d[:, 1, None] * k[0] - d[:, 0, None] * k[1]
    terms = cross * np.sinc((d @ k) / (2.0 * np.pi)) * np.exp(-0.5j * ((loop + b) @ k))
    return sign * 1j / (k * k).sum(axis=0) * terms.sum(axis=0)
