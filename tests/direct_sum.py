"""Direct sums: the test oracles for the pupil-integral evaluation.

U(x) = sum over triangles p and quadrature points q of w_q |S_p| H(x - g_pq),
one Bessel evaluation per image sample and quadrature point, and its control
derivatives through the kernel's radial derivative. The package evaluates the
same sums as integrals over the pupil disk; these are the plain forms. So is
`point_spectrum`, the mask spectrum with one libm cos/sin pair per quadrature
point and pupil node, which the package forms from half-angle tangents
(`optics.point_spectra`), and `direct_curve_amplitude`, the image of a region
as a sum over the Gauss points of its boundary curve, one Bessel evaluation
per image sample and point. `forward_curve_gradient` is the curve gradient in
forward mode, through the derivative spectra of every control, which the
package's reverse-mode `gradient.curve_gradient` replaces. `identity_node_table`
forms a node table's grid-side exponentials as point spectra with identity
coefficient rows, the contraction that `optics.node_table_at` skips.
`two_buffer_phasor_sums` contracts phasor blocks into separate real and
imaginary sums and assembles the complex result from them, the two copies
that `optics.phasor_sums` skips.
"""
import numpy as np
from scipy.special import j0, j1

from splinemask import optics
from splinemask.gradient import area_gradient
from splinemask.mesh import assemble_tensor, gauss_points
from splinemask.optics import SMALL_RHO, AmplitudeField, NodeTable, airy_kernel, node_table, point_spectra, pupil_nodes

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


def forward_curve_gradient(rule, points, steps, sign, grid, weight) -> np.ndarray:
    """dJ/dP (n, 2) of one region's curve image, as `gradient.curve_gradient` takes it, in forward mode.

    With S = F (k_x A_y - k_y A_x), F = sign i / |k|^2 and
    A = sum_q dr_q exp(-i k . g_q), g = r - center, control j moves the
    steps of its own axis by w_q N'_qj and every point along that axis by
    N_qj, which turns each phasor by -i k_axis. With the point spectra C_j
    of w_q N'_qj and B_j of N_qj dr_q (two rows, one per axis), and
    v = (-k_y, k_x), dS/dP_ja = F (v_a C_j - i k_a (v . B_j)): three
    coefficient rows per control and (n, 3, K) derivative spectra, each
    paired with the adjoint L of the weight, dJ/dP_ja = Re sum_k L_k dS_k.
    """
    nodes = node_table(grid, points)
    basis = rule.basis.T  # (n, Q)
    coef = np.empty((len(basis), 3, basis.shape[1]))
    np.multiply(rule.slope.T, rule.weights, out=coef[:, 0])
    np.multiply(basis, steps[0], out=coef[:, 1])
    np.multiply(basis, steps[1], out=coef[:, 2])
    spectra = point_spectra(points - grid.center, coef, nodes.k)  # (n, 3, K)
    kx, ky = nodes.k
    turned = np.stack([-ky, kx])
    factors = np.concatenate([turned[None], -1j * turned[:, None] * nodes.k])  # (3, axis, K)
    factors *= sign * nodes.edge_factor * nodes.adjoint(weight)
    return np.real(spectra.reshape(len(coef), -1) @ factors.transpose(0, 2, 1).reshape(-1, 2))


def identity_node_table(grid, n_r, n_theta) -> NodeTable:
    """The NodeTable of `grid` at these node counts, each grid line's exponentials the point spectrum of one point.

    Grid line i is the point (c_x - x_i, 0), or (0, y_j - c_y) along y, for
    the grid center c, with coefficient 1 on its own row of an identity
    matrix and 0 on every other: nx^2 K multiply-adds of zeros that
    `optics.node_table_at` does not do.
    """
    freqs, weights = pupil_nodes(n_r, n_theta)
    k = 2.0 * np.pi * freqs
    edge_factor = 1j / (k * k).sum(axis=0)
    center = grid.center
    columns = np.stack([center[0] - grid.xs, np.zeros(grid.nx)], axis=1)
    rows = np.stack([np.zeros(grid.ny), grid.ys - center[1]], axis=1)
    wex = weights * point_spectra(columns, np.eye(grid.nx), k)
    ey = np.ascontiguousarray(point_spectra(rows, np.eye(grid.ny), k).view(np.float64).T)
    return NodeTable(k, edge_factor, wex, ey)


def two_buffer_phasor_sums(coef, tables, num_nodes):
    """`optics.phasor_sums` through one (2, R, K) real buffer of sums, copied into the complex result at the end.

    Block by block the cosine and half-sine products of the coefficient rows
    are added into zeroed real sums in block order, `optics.POINT_BLOCK`
    points a block; the half-sine sums are doubled in place, and both are
    copied into the real and imaginary parts of the result.
    """
    rows = coef.reshape(-1, coef.shape[-1])
    sums = np.zeros((2, len(rows), num_nodes))
    for start, (cos, sin) in zip(range(0, rows.shape[1], optics.POINT_BLOCK), tables):
        block = slice(start, start + optics.POINT_BLOCK)
        sums[0] += rows[:, block] @ cos
        sums[1] += rows[:, block] @ sin
    out = np.empty((*coef.shape[:-1], num_nodes), dtype=complex)
    out.real = sums[0].reshape(out.shape)
    out.imag = np.multiply(sums[1], 2.0, out=sums[1]).reshape(out.shape)
    return out
