"""Coherent imaging through the Airy point-spread function.

All optical computation happens in dimensionless coordinates where lengths
are measured in units of wavelength / NA (with the extra -M factor on the
mask side). In those units the point-spread function of the circular pupil
is H(rho) = J1(2 pi rho) / rho, which is real, so the image amplitude is a
real scalar field and the intensity is its pointwise square.

H is the Fourier transform of the unit pupil disk, so the triangle-quadrature
convolution U(x) = sum_q c_q H(x - g_q) equals the pupil integral
U(x) = int_{|f| <= 1} S(f) exp(2 pi i f.x) df with the mask spectrum
S(f) = sum_q c_q exp(-2 pi i f.g_q). The integral is evaluated on a polar node
table (Gauss-Legendre in r, trapezoid in theta over half the disk, then
2 Re), whose size follows from the largest point-to-pixel distance; on the
tensor pixel grid the synthesis is one real matrix product and no Bessel
function is evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import j0, j1, jv, roots_legendre

from .mesh import ProvenancedMesh, TriangleQuadrature, assemble_tensor, gauss_points

# Below this radius the kernel switches to its series form, which keeps the
# 0/0 at the kernel peak out of the values.
SMALL_RHO = 1e-6

# Source points per block of pupil exponentials in PupilBasis.spectrum.
POINT_CHUNK = 512



@dataclass(frozen=True)
class OpticalConfig:
    """Imaging-system constants: wavelength (nm), numerical aperture, magnification."""

    wavelength_nm: float = 193.0
    numerical_aperture: float = 0.93
    magnification: float = -1.0

    def __post_init__(self):
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be positive and finite")
        if not 0 < self.numerical_aperture < 1.5:
            raise ValueError("numerical_aperture must be in (0, 1.5)")
        if not (math.isfinite(self.magnification) and self.magnification != 0):
            raise ValueError("magnification must be finite and nonzero")

    @property
    def scale_per_nm(self) -> float:
        """Normalized units per nm on the image side: NA / wavelength."""
        return self.numerical_aperture / self.wavelength_nm

    def normalize_mask(self, points_nm):
        """Mask-plane nm -> normalized: multiply by -M * NA / wavelength."""
        return np.asarray(points_nm, dtype=float) * (-self.magnification * self.scale_per_nm)

    def denormalize_mask(self, points):
        return np.asarray(points, dtype=float) / (-self.magnification * self.scale_per_nm)

    def normalize_image(self, points_nm):
        """Image-plane nm -> normalized: multiply by NA / wavelength."""
        return np.asarray(points_nm, dtype=float) * self.scale_per_nm

    def denormalize_image(self, points):
        return np.asarray(points, dtype=float) / self.scale_per_nm


@dataclass(frozen=True)
class ImageGrid:
    """Equidistant image-plane sampling lattice, unit-agnostic.

    Sample i along x sits at origin[0] + i * pitch; same along y. The same
    structure serves nm and normalized coordinates via `scaled`.
    """

    nx: int
    ny: int
    pitch: float
    origin: tuple[float, float]

    def __post_init__(self):
        if not self.nx >= 2:
            raise ValueError("nx must be at least 2")
        if not self.ny >= 2:
            raise ValueError("ny must be at least 2")
        if not 0 < self.pitch < math.inf:
            raise ValueError("pitch must be positive and finite")
        origin = tuple(float(v) for v in self.origin)
        if len(origin) != 2 or not all(map(math.isfinite, origin)):
            raise ValueError("origin must be a finite (x, y) pair")
        object.__setattr__(self, "origin", origin)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.pitch

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.ny) * self.pitch

    @property
    def pixel_area(self) -> float:
        return self.pitch * self.pitch

    def scaled(self, factor: float) -> "ImageGrid":
        return replace(self, pitch=self.pitch * factor,
                       origin=(self.origin[0] * factor, self.origin[1] * factor))

    def flat_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """All sample coordinates flattened with index ix * ny + iy."""
        gx = np.repeat(self.xs, self.ny)
        gy = np.tile(self.ys, self.nx)
        return gx, gy

    @classmethod
    def for_polygons(cls, polygons, pitch: float, margin: float = 0.2,
                     nx: int | None = None, ny: int | None = None,
                     origin: tuple[float, float] | None = None) -> "ImageGrid":
        """Grid covering the polygons' bounding box grown by `margin` per side.

        Given values of nx, ny and origin are kept and the missing ones are
        fitted to the box, so without polygons all three must be given.
        """
        if not 0 <= margin < math.inf:
            raise ValueError("margin must be non-negative and finite")
        # check the given values before any of them sizes the lattice
        grid = cls(2 if nx is None else nx, 2 if ny is None else ny, pitch,
                   (0.0, 0.0) if origin is None else origin)
        missing = [name for name, value in (("origin", origin), ("nx", nx), ("ny", ny)) if value is None]
        if not missing:
            return grid
        if not len(polygons):
            raise ValueError(f"{missing[0]} is required when there are no polygons")
        pts = np.concatenate([np.asarray(p, dtype=float) for p in polygons])
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = hi - lo
        lo = lo - margin * span
        hi = hi + margin * span
        if nx is None:
            nx = max(2, int(np.ceil((hi[0] - lo[0]) / pitch)) + 1)
        if ny is None:
            ny = max(2, int(np.ceil((hi[1] - lo[1]) / pitch)) + 1)
        if origin is None:
            # center the lattice on the grown box
            cx, cy = (lo + hi) / 2.0
            origin = (cx - (nx - 1) * pitch / 2.0, cy - (ny - 1) * pitch / 2.0)
        return cls(nx, ny, pitch, origin)


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order for order 0, 1 or 2."""
    if order == 0:
        return j0(x)
    if order == 1:
        return j1(x)
    if order == 2:
        return jv(2, x)
    raise ValueError("only orders 0, 1, 2 are supported")


def airy_kernel(rho):
    """H(rho) = J1(2 pi rho) / rho with the removable singularity H(0) = pi."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(j1(2.0 * np.pi * rho) / rho)
    small = rho < SMALL_RHO
    if small.any():
        out[small] = np.pi - 0.5 * np.pi**3 * rho[small] ** 2
    return out


def psf(dx, dy):
    """Point-spread function at a normalized offset; radially symmetric."""
    return airy_kernel(np.hypot(dx, dy))


@dataclass(frozen=True)
class AmplitudeField:
    """Real amplitude samples U on an (nx, ny) grid; intensity is U squared."""

    values: np.ndarray

    @property
    def intensity_values(self) -> np.ndarray:
        return self.values * self.values


@lru_cache(maxsize=None)
def pupil_nodes(n_r: int, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (2, K) as rows fx, fy and weights (K,) of the half-disk rule, read-only.

    K = n_r * n_theta nodes: Gauss-Legendre in r on [0, 1] with the weight
    r dr, times the trapezoid rule on theta in [0, pi) with weight
    pi / n_theta. The weights carry the factor 2 of the 2 Re that adds the
    other half of the disk, so for any F with F(-f) = conj(F(f)),
    int_{|f| <= 1} F df ~ Re sum_k w_k F(f_k).
    """
    t, w = roots_legendre(n_r)
    r = 0.5 * (t + 1.0)
    theta = np.arange(n_theta) * (np.pi / n_theta)
    freqs = np.stack([np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()])
    weights = np.repeat(w * r * (np.pi / n_theta), n_theta)
    for table in (freqs, weights):
        table.setflags(write=False)
    return freqs, weights


def pupil_node_counts(distance: float) -> tuple[int, int]:
    """Radial and angular node counts that resolve point-to-pixel offsets up to `distance`.

    Over the pupil the exponentials turn through pi D radians along the
    radius and 2 pi D around the circle. The Gauss-Legendre error falls off
    past about (e/4) pi D nodes and the trapezoid error past (e/2) pi D.
    Against the direct kernel sum, the smallest counts that met 1e-12 on the
    image were 0.85 pi D + 3.0 to 7.3 in r and 1.36 pi D + 4.3 to 8.8 in
    theta, for D from 0.85 to 11; the margins below clear the largest.
    """
    k = math.pi * distance
    return math.ceil(0.85 * k) + 8, math.ceil(1.36 * k) + 10


def cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real phase, as cos and sin written into one complex array.

    np.exp(1j * phase) first builds the complex argument and then spends an
    exp on its zero real part; on the desk forward pass this form took half
    the time.
    """
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@dataclass(frozen=True)
class PupilBasis:
    """Pupil-node exponentials of one set of source points on one image grid.

    Coordinates are taken relative to the grid center. `points` holds the
    source points (Q, 2) and `freqs` the node frequencies f_k as rows fx, fy,
    (2, K). `wex` is w_k exp(2 pi i f_k,x x_i), (nx, K); `ey` is
    conj(exp(2 pi i f_k,y y_j)) seen as reals, (ny, 2K), real and imaginary
    parts interleaved like a complex array's memory.
    """

    points: np.ndarray
    freqs: np.ndarray
    wex: np.ndarray
    ey: np.ndarray

    def spectrum(self, coef: np.ndarray) -> np.ndarray:
        """S_k = sum_q coef[..., q] exp(-2 pi i f_k . g_q), (..., Q) real -> (..., K) complex.

        The exponentials are formed POINT_CHUNK points at a time, so a large
        trial mesh does not hold all Q x K of them at once.
        """
        out = np.zeros((*coef.shape[:-1], self.freqs.shape[1]), dtype=complex)
        for start in range(0, len(self.points), POINT_CHUNK):
            stop = start + POINT_CHUNK
            out += coef[..., start:stop] @ cis((-2.0 * np.pi) * (self.points[start:stop] @ self.freqs))
        return out

    def synthesize(self, spectra: np.ndarray) -> np.ndarray:
        """Pupil integral of each spectrum, (..., K) complex -> (..., nx, ny) real.

        U[i, j] = Re sum_k w_k S_k exp(2 pi i (f_k,x x_i + f_k,y y_j)) for every
        leading index. Re(a b) = Re a Re b + Im a Im(conj b), so reading the
        x-side products as interleaved reals makes this one real matrix
        product against `ey`.
        """
        nx, k = self.wex.shape
        a = spectra[..., None, :] * self.wex
        out = a.view(np.float64).reshape(-1, 2 * k) @ self.ey.T
        return out.reshape(*spectra.shape[:-1], nx, len(self.ey))


def pupil_basis(points: np.ndarray, grid: ImageGrid) -> PupilBasis:
    """Node table and grid exponentials for source points (Q, 2) imaged on `grid`.

    The node count follows from D, the largest distance between a point and
    a grid sample (reached at a grid corner), so it depends on the grid and
    these points alone.
    """
    xs, ys = grid.xs, grid.ys
    center = np.array([xs[0] + xs[-1], ys[0] + ys[-1]]) / 2.0
    rel = points - center
    half = center - (xs[0], ys[0])
    reach = math.sqrt(((np.abs(rel) + half) ** 2).sum(axis=1).max())
    freqs, weights = pupil_nodes(*pupil_node_counts(reach))
    return PupilBasis(
        points=rel,
        freqs=freqs,
        wex=weights * cis((2.0 * np.pi) * np.outer(xs - center[0], freqs[0])),
        ey=cis((-2.0 * np.pi) * np.outer(ys - center[1], freqs[1])).view(np.float64),
    )


def forward_amplitude(meshes: list[ProvenancedMesh], quad: TriangleQuadrature,
                      grid: ImageGrid) -> AmplitudeField:
    """Aerial amplitude: triangle-quadrature convolution of all regions with the kernel.

    U(x) = sum over regions, triangles p, quadrature points q of
    w_q * H(x - g_pq) * |S_p|, evaluated per region as the pupil integral of
    the region's spectrum. Meshes and grid must already be in normalized
    coordinates. Summation order is fixed for reproducibility.
    """
    u = np.zeros((grid.nx, grid.ny))
    for mesh in meshes:
        tensor = assemble_tensor(mesh)
        pts = gauss_points(tensor, quad).reshape(-1, 2)
        coef = (tensor.areas()[:, None] * quad.weights[None, :]).ravel()
        basis = pupil_basis(pts, grid)
        u += basis.synthesize(basis.spectrum(coef))
    return AmplitudeField(u)
