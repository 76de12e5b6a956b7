"""Exact spectrum of a polygon: the test oracle for the mesh image's quadrature error.

The package images a region through the quadrature points of its refined
mesh. The region it stands for is the polygon of its boundary samples, whose
indicator has a closed-form spectrum as a sum over its edges a -> b. With
k = 2 pi f, d = b - a and m = (a + b) / 2, for a counterclockwise loop

    S(f) = int_P exp(-2 pi i f.x) dx
         = (i / |k|^2) sum_e (k_x d_y - k_y d_x) sinc(k.d / 2) exp(-i k.m),

by the divergence theorem (Lee and Mittra, IEEE TAP 31(1), 1983; Wuttke,
arXiv:1703.00255). A clockwise loop flips the sign. Every pupil node has
|f| > 0, so 1 / |k|^2 is finite there.
"""
import numpy as np
from scipy.special import roots_legendre

# Below this |x| sinc takes 1 - x^2 / 6, whose first omitted term x^4 / 120
# is below 1e-17 there; sin(x) / x would divide 0 by 0 at x = 0.
SINC_SERIES = 1e-4


def sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, 1 at x = 0."""
    small = np.abs(x) < SINC_SERIES
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def polygon_spectrum(loop: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """S_k = int_P exp(-2 pi i f_k . x) dx for the polygon `loop` (m, 2) at `freqs` (2, K), (K,) complex.

    `loop` lists the vertices in order, either way round, without repeating
    the first; a `PupilBasis`'s `freqs` and coordinates relative to the grid
    center give the spectrum `PupilBasis.spectrum` approximates.
    """
    a = np.asarray(loop, dtype=float)
    b = np.roll(a, -1, axis=0)
    d, mid = b - a, 0.5 * (a + b)
    k = 2.0 * np.pi * freqs
    cross = np.outer(d[:, 1], k[0]) - np.outer(d[:, 0], k[1])  # (m, K)
    total = (cross * sinc(0.5 * (d @ k)) * np.exp(-1j * (mid @ k))).sum(axis=0)
    orientation = np.sign(np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))
    return orientation * 1j * total / (k * k).sum(axis=0)


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
