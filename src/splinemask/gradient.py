"""Analytic derivatives dU/dP of the image amplitude w.r.t. the control points.

For fixed mesh topology every vertex is linear in the control points through
T = W @ N, so dU/dP decomposes into an area term (triangle measures change)
and a point term (quadrature points move with their triangle's vertices).
Both act on the region's pupil spectrum S = sum_t A_t H_t: the area term
against the triangle phasor sums H_t, the point term against the slot sums
G_tj, which weight triangle t's phasors by the barycentric coordinate of its
vertex slot j. Both come from the blocks `PupilBasis.phasor_blocks` makes for
the forward image, and all derivative spectra are synthesized at once;
`objective.objective_gradient` contracts them to dJ/dP.
Topology (W, C, L) is treated as constant: it is rebuilt between optimizer
steps, never differentiated.
"""
from __future__ import annotations

import numpy as np

from .mesh import ProvenancedMesh, TriangleQuadrature, TriangleTensor, assemble_tensor
from .optics import ImageGrid, pupil_basis


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


def amplitude_gradient(meshes: list[ProvenancedMesh], quad: TriangleQuadrature,
                       grid: ImageGrid, sensitivities: list[np.ndarray]) -> list[np.ndarray]:
    """Fields dU/dP for every control coordinate of every region.

    Returns one (n, 2, nx, ny) array per region ([:, 0] for x, [:, 1] for y).
    With E_tq = exp(-2 pi i f.g_tq) on the region's pupil nodes, the
    spectrum S = sum_tq A_t w_q E_tq moves as
    dS/dP = sum_t dA_t/dP H_t - 2 pi i f sum_tj A_t T[t_j, :] G_tj:
    point q of triangle t moves by sum_j (n_jq / d) T[t_j, :], and
    G_tj = sum_q w_q (n_jq / d) E_tq collects those weights per vertex slot.
    The area derivatives come from `area_gradient`. The 2n derivative spectra
    are synthesized together. A control only moves its own region's mesh, and
    the node table depends on the grid and that mesh alone, so each region's
    entry is independent of the other meshes.
    """
    out = []
    for mesh, sens in zip(meshes, sensitivities):
        tensor = assemble_tensor(mesh)
        dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
        # slot j of triangle t moves with its vertex: A_t T[t_j, :], laid out (n, 3, T)
        slots = (tensor.areas()[:, None, None] * sens[mesh.triangles]).T

        basis = pupil_basis(mesh, quad, grid)
        area, moved = basis.slot_spectra(np.concatenate([dsx.T, dsy.T]), slots)
        area_x, area_y = np.split(area, 2)  # each (n, K)
        moved *= -2j * np.pi
        fx, fy = basis.freqs
        spectra = np.stack([area_x + moved * fx, area_y + moved * fy], axis=1)
        out.append(basis.synthesize(spectra))  # (n, 2, nx, ny)
    return out
