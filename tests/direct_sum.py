"""Direct sums: the test oracles for the pupil-integral evaluation.

U(x) = sum over triangles p and quadrature points q of w_q |S_p| H(x - g_pq),
one Bessel evaluation per image sample and quadrature point, and its control
derivatives through the kernel's radial derivative. The package evaluates the
same sums as integrals over the pupil disk; these are the plain forms. So is
`point_spectrum`, the mask spectrum with one libm cos/sin pair per quadrature
point and pupil node, which the package forms from half-angle tangents
(`optics.point_spectra`), and `direct_curve_amplitude`, the image of a region
as a sum over the Gauss points of its boundary curve, one Bessel evaluation
per image sample and point.
"""
import numpy as np
from scipy.special import j0, j1

from splinemask.gradient import area_gradient
from splinemask.mesh import assemble_tensor, gauss_points
from splinemask.optics import SMALL_RHO, AmplitudeField, airy_kernel

# Below this radius the kernel's radial derivative uses its Maclaurin series:
# the Bessel form cancels toward the peak and would lose digits there.
SERIES_RHO = 1e-2

# Below this z = 2 pi |y| the boundary kernel uses its series (pi / 2)(1 - z^2 / 16):
# there 1 - J0(z) cancels to about 1.1e-16 / z absolute in V, and the
# series' first omitted term is about z^5 / 2304; both are under 1.5e-14.
SERIES_Z = 8e-3

PIXEL_CHUNK = 4096


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


def quad_point_sensitivity(sens, quad, triangles) -> np.ndarray:
    """Derivative of each quadrature point coordinate w.r.t. each control, (N_T, N_G, n).

    The same array serves x and y: moving control k in x moves the point in x
    by this amount and leaves y alone, and vice versa.
    """
    return np.einsum("jq,pjn->pqn", quad.barycentric, sens[triangles])


def direct_forward_amplitude(meshes, quad, grid) -> AmplitudeField:
    """Aerial amplitude as the plain kernel sum, one image-pixel chunk at a time."""
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


def direct_amplitude_gradient(meshes, quad, grid, sensitivities) -> list[np.ndarray]:
    """Fields dU/dP as kernel-derivative sums, one (n, 2, nx, ny) array per region."""
    gx, gy = grid.flat_coords()
    npix = len(gx)
    out = []
    for mesh, sens in zip(meshes, sensitivities):
        n = sens.shape[1]
        tensor = assemble_tensor(mesh)
        areas = tensor.areas()
        pts = gauss_points(tensor, quad).reshape(-1, 2)
        nt, ng = mesh.num_triangles, quad.num_points

        dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
        dpt = quad_point_sensitivity(sens, quad, mesh.triangles).reshape(nt * ng, n)

        # right factors: kernel term carries w_q |S_p|, area term carries w_q
        kern_fac = (areas[:, None] * quad.weights[None, :]).reshape(-1, 1) * dpt
        area_fac_x = np.repeat(quad.weights[None, :], nt, axis=0).reshape(-1, 1) \
            * np.repeat(dsx, ng, axis=0)
        area_fac_y = np.repeat(quad.weights[None, :], nt, axis=0).reshape(-1, 1) \
            * np.repeat(dsy, ng, axis=0)

        dux = np.zeros((npix, n))
        duy = np.zeros((npix, n))
        for start in range(0, npix, PIXEL_CHUNK):
            stop = min(start + PIXEL_CHUNK, npix)
            ddx = pts[None, :, 0] - gx[start:stop, None]
            ddy = pts[None, :, 1] - gy[start:stop, None]
            rho = np.hypot(ddx, ddy)
            h = airy_kernel(rho)
            with np.errstate(divide="ignore", invalid="ignore"):
                radial = airy_kernel_radial_derivative(rho) / rho
            radial[rho < SMALL_RHO] = 0.0
            dux[start:stop] = (radial * ddx) @ kern_fac + h @ area_fac_x
            duy[start:stop] = (radial * ddy) @ kern_fac + h @ area_fac_y
        fields = np.stack([dux.T, duy.T], axis=1)  # (n, 2, npix)
        out.append(fields.reshape(n, 2, grid.nx, grid.ny))
    return out


def point_spectrum(points, k, coef):
    """S_k = sum_q coef[..., q] exp(-i k . g_q) for points (Q, 2) and wave vectors k (2, K).

    The phasors are libm's cos and sin, not the half-angle tangents of the
    package's `optics.point_spectra`, so that this oracle shares no code
    with the phasors it checks.
    """
    phase = points @ k
    return coef @ (np.cos(phase) - 1j * np.sin(phase))


def direct_curve_amplitude(points, steps, sign, grid) -> np.ndarray:
    """Aerial amplitude (nx, ny) of the region a closed curve bounds, as a sum over its Gauss points.

    U(x) = sign sum_q (V_x dy_q - V_y dx_q) with y = r_q - x, for the points
    r_q (Q, 2) and their steps dr_q (2, Q) in normalized coordinates, where
    V(y) = y (1 - J0(2 pi |y|)) / (2 pi |y|^2) is the field whose divergence
    is the Airy kernel H(|y|) (divergence theorem). Below SERIES_Z of
    z = 2 pi |y| it is y (pi / 2)(1 - z^2 / 16).
    """
    gx, gy = grid.flat_coords()
    u = np.zeros(grid.nx * grid.ny)
    dx, dy = steps
    for start in range(0, len(u), PIXEL_CHUNK):
        stop = min(start + PIXEL_CHUNK, len(u))
        yx = points[None, :, 0] - gx[start:stop, None]
        yy = points[None, :, 1] - gy[start:stop, None]
        rho2 = yx * yx + yy * yy
        z = 2.0 * np.pi * np.sqrt(rho2)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = (1.0 - j0(z)) / (2.0 * np.pi * rho2)
        small = z < SERIES_Z
        factor[small] = 0.5 * np.pi * (1.0 - z[small] ** 2 / 16.0)
        u[start:stop] = (factor * yx) @ dy - (factor * yy) @ dx
    return sign * u.reshape(grid.nx, grid.ny)
