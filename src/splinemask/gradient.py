"""Analytic shape gradient of the image-fidelity objective.

For fixed mesh topology every vertex is linear in the control points through
T = W @ N, so the gradient of the objective decomposes into a point term
(quadrature points move) and an area term (triangle measures change). Both
act on the region's pupil spectrum, so every control derivative of the image
comes from the same node table as the forward image: a few products against
its point exponentials, then one synthesis of all derivative spectra.
Topology (W, C, L) is treated as constant: it is rebuilt between optimizer
steps, never differentiated.
"""
from __future__ import annotations

import numpy as np

from .mesh import ProvenancedMesh, TriangleQuadrature, TriangleTensor, assemble_tensor, gauss_points
from .objective import ResistModel, sigmoid, sigmoid_derivative
from .optics import AmplitudeField, ImageGrid, pupil_basis


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
    With E = exp(-2 pi i f.g) on the region's pupil nodes, the spectrum
    S = E^T c moves as dS/dP = E^T dc/dP - 2 pi i f * E^T (c * dg/dP): the
    area term through `area_gradient`, the point term through
    `quad_point_sensitivity`. The 2n derivative spectra are synthesized
    together. A control only moves its own region's mesh, and the node table
    depends on the grid and that mesh alone, so each region's entry is
    independent of the other meshes.
    """
    out = []
    for mesh, sens in zip(meshes, sensitivities):
        n = sens.shape[1]
        tensor = assemble_tensor(mesh)
        pts = gauss_points(tensor, quad).reshape(-1, 2)
        nt, ng = mesh.num_triangles, quad.num_points
        coef = (tensor.areas()[:, None] * quad.weights[None, :]).ravel()

        dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
        dpt = quad_point_sensitivity(sens, quad, mesh.triangles).reshape(nt * ng, n)
        weights = np.tile(quad.weights, nt)[:, None]  # dc/dP = w_q dS_p/dP
        rows = np.concatenate([(weights * np.repeat(dsx, ng, axis=0)).T,
                               (weights * np.repeat(dsy, ng, axis=0)).T,
                               (coef[:, None] * dpt).T])

        basis = pupil_basis(pts, grid)
        area_x, area_y, moved = np.split(basis.spectrum(rows), 3)  # each (n, K)
        moved *= -2j * np.pi
        fx, fy = basis.freqs
        spectra = np.stack([area_x + moved * fx, area_y + moved * fy], axis=1)
        out.append(basis.synthesize(spectra))  # (n, 2, nx, ny)
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
