"""Direct Airy-kernel sums: the test oracle for the pupil-integral evaluation.

U(x) = sum over triangles p and quadrature points q of w_q |S_p| H(x - g_pq),
one Bessel evaluation per image sample and quadrature point, and its control
derivatives through the kernel's radial derivative. The package evaluates the
same sums as integrals over the pupil disk; these are the plain forms.
"""
import numpy as np
from scipy.special import j0, j1

from splinemask.gradient import area_gradient, quad_point_sensitivity
from splinemask.mesh import assemble_tensor, gauss_points
from splinemask.optics import SMALL_RHO, AmplitudeField, airy_kernel

# Below this radius the kernel's radial derivative uses its Maclaurin series:
# the Bessel form cancels toward the peak and would lose digits there.
SERIES_RHO = 1e-2

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
