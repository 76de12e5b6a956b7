"""Coherent imaging through the Airy point-spread function.

All optical computation happens in dimensionless coordinates where lengths
are measured in units of wavelength / NA (with the extra -M factor on the
mask side). In those units the point-spread function of the circular pupil
is H(rho) = J1(2 pi rho) / rho, which is real, so the image amplitude is a
real scalar field and the intensity is its pointwise square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import j0, j1, jv

from .mesh import ProvenancedMesh, TriangleQuadrature, assemble_tensor, gauss_points

# Below this radius the kernel switches to its series form and the gradient
# drops the radial direction; keeps the 0/0 at the kernel peak from polluting
# gradients.
SMALL_RHO = 1e-6

# Below this radius the kernel's radial derivative uses its Maclaurin series:
# the Bessel form cancels toward the peak and would lose digits there.
SERIES_RHO = 1e-2

PIXEL_CHUNK = 4096


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


def airy_kernel_radial_derivative(rho):
    """dH/drho = (z J0(z) - 2 J1(z)) / rho^2 with z = 2 pi rho, zero at the peak.

    The numerator is pi (J0 - J2)(z) rho - J1(z) rewritten with J0 - J2 = 2 J1',
    so no J2 is evaluated. It cancels toward rho = 0, so below SERIES_RHO the
    Maclaurin series -pi^3 rho (1 - x/3 + x^2/24 - x^3/360), x = (pi rho)^2,
    takes over; its first omitted term is below 1e-16 relative there.
    """
    rho = np.asarray(rho, dtype=float)
    z = 2.0 * np.pi * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((z * j0(z) - 2.0 * j1(z)) / (rho * rho))
    small = rho < SERIES_RHO
    if small.any():
        r = rho[small]
        x = (np.pi * r) ** 2
        out[small] = -np.pi**3 * r * (1.0 - x / 3.0 * (1.0 - x / 8.0 * (1.0 - x / 15.0)))
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


def forward_amplitude(meshes: list[ProvenancedMesh], quad: TriangleQuadrature,
                      grid: ImageGrid) -> AmplitudeField:
    """Aerial amplitude: triangle-quadrature convolution of all regions with the kernel.

    U(x) = sum over regions, triangles p, quadrature points q of
    w_q * H(x - g_pq) * |S_p|. Meshes and grid must already be in normalized
    coordinates. Summation order is fixed for reproducibility.
    """
    gx, gy = grid.flat_coords()
    u = np.zeros(grid.nx * grid.ny)
    for mesh in meshes:
        tensor = assemble_tensor(mesh)
        areas = tensor.areas()
        pts = gauss_points(tensor, quad).reshape(-1, 2)
        coef = (areas[:, None] * quad.weights[None, :]).ravel()
        for start in range(0, len(u), PIXEL_CHUNK):
            stop = min(start + PIXEL_CHUNK, len(u))
            dx = gx[start:stop, None] - pts[None, :, 0]
            dy = gy[start:stop, None] - pts[None, :, 1]
            u[start:stop] += airy_kernel(np.hypot(dx, dy)) @ coef
    return AmplitudeField(u.reshape(grid.nx, grid.ny))
