"""Analytic shape gradient of the image-fidelity objective.

For fixed mesh topology every vertex is linear in the control points through
T = W @ N, so the gradient of the objective decomposes into a kernel term
(quadrature points move) and an area term (triangle measures change). Both
gathers end in a single T^T contraction over mesh vertices, which keeps the
cost at one kernel sweep per image-pixel chunk. Topology (W, C, L) is treated
as constant: it is rebuilt between optimizer steps, never differentiated.
"""
from __future__ import annotations

import numpy as np

from .mesh import ProvenancedMesh, TriangleQuadrature, TriangleTensor, assemble_tensor, gauss_points
from .objective import ResistModel, sigmoid, sigmoid_derivative
from .optics import (
    PIXEL_CHUNK,
    SMALL_RHO,
    AmplitudeField,
    ImageGrid,
    airy_kernel,
    airy_kernel_radial_derivative,
)


def sensitivity(mesh: ProvenancedMesh, colloc: np.ndarray) -> np.ndarray:
    """Vertex-to-control sensitivity T = W @ N, shape (K, n); rows sum to 1.

    T[v, k] is the derivative of vertex v's x (equally y) coordinate with
    respect to control k's x (equally y) coordinate.
    """
    colloc = np.asarray(colloc, dtype=float)
    if mesh.provenance.shape[1] != colloc.shape[0]:
        raise ValueError("provenance and collocation dimensions do not match")
    return mesh.provenance @ colloc


def area_gradient(tensor: TriangleTensor, sens: np.ndarray,
                  triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of every triangle area w.r.t. every control coordinate.

    Returns (dSx, dSy), each (N_T, n). Assumes counterclockwise triangles so
    the areas carry no absolute value.
    """
    ta = sens[triangles[:, 0]]
    tb = sens[triangles[:, 1]]
    tc = sens[triangles[:, 2]]
    a, b, c = tensor.coords[:, 0], tensor.coords[:, 1], tensor.coords[:, 2]
    dsx = 0.5 * ((tb - ta) * (c[:, 1] - a[:, 1])[:, None]
                 - (b[:, 1] - a[:, 1])[:, None] * (tc - ta))
    dsy = 0.5 * ((b[:, 0] - a[:, 0])[:, None] * (tc - ta)
                 - (tb - ta) * (c[:, 0] - a[:, 0])[:, None])
    return dsx, dsy


def quad_point_sensitivity(sens: np.ndarray, quad: TriangleQuadrature,
                           triangles: np.ndarray) -> np.ndarray:
    """Derivative of each quadrature point coordinate w.r.t. each control, (N_T, N_G, n).

    The same array serves x and y: moving control k in x moves the point in x
    by this amount and leaves y alone, and vice versa.
    """
    return np.einsum("jq,pjn->pqn", quad.barycentric, sens[triangles])


def amplitude_gradient(meshes: list[ProvenancedMesh], quad: TriangleQuadrature,
                       grid: ImageGrid, sensitivities: list[np.ndarray]) -> list[np.ndarray]:
    """Fields dU/dP for every control coordinate of every region.

    Returns one (n, 2, nx, ny) array per region ([:, 0] for x, [:, 1] for y).
    A control only moves its own region's mesh, so each region's entry is
    independent of the other meshes.
    """
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


def objective_gradient(field: AmplitudeField, target: np.ndarray, model: ResistModel,
                       grid: ImageGrid, amplitude_grads: list[np.ndarray]) -> list[np.ndarray]:
    """Gradient of J w.r.t. all control coordinates, one (n, 2) array per region.

    Contracts the amplitude-derivative fields with the per-pixel weight
    2 (sig(I) - target) sig'(I) * 2U * dx dy; the 2U factor is the collapse of
    the conjugate pair for the real kernel.
    """
    u = field.values
    i_vals = u * u
    residual = sigmoid(i_vals, model) - np.asarray(target, dtype=float)
    weight = 4.0 * residual * sigmoid_derivative(i_vals, model) * u * grid.pixel_area
    return [np.einsum("xy,ncxy->nc", weight, fields) for fields in amplitude_grads]
