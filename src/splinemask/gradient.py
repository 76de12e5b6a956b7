"""Analytic derivatives of the image with respect to the control points.

The chain images each region's spline curve through its Gauss points r_q
and steps dr_q = w_q r'_q (`optics.curve_spectrum`), and takes J's gradient
as an adjoint (`curve_gradient`). With the pixel weight W = dJ/dU, J moves
as Re sum_k L_k dS_k for L = `NodeTable.adjoint(W)`. In reverse mode the
adjoint is paired with the phasors first: one `optics.point_spectra` call,
with the pupil nodes as its points and the Gauss points as its wave
vectors, gives dJ/dr_q and dJ/d(dr_q) at every Gauss point, and the rule's
basis values and slopes, in which the points and steps are linear, carry
them to dJ/dP. No derivative spectrum or field is formed.

The library's mesh image has the fields dU/dP themselves
(`amplitude_gradient`). For fixed mesh topology every vertex is linear in
the control points through T = W @ N, so dU/dP decomposes into an area term
(triangle measures change) and a point term (quadrature points move with
their triangle's vertices). Both act on the region's pupil spectrum
S = sum_tq A_t w_q exp(-i k.g_tq), each as a point spectrum with its own
coefficients, and all of them come from one `optics.point_spectra` call;
the point term then takes the factor -i k of the moved phasor. All
derivative spectra are synthesized at once, and
`objective.objective_gradient` contracts them to dJ/dP.
Topology (W, C, L) is treated as constant: the mesh gradient is that of the
mesh moved with its topology fixed (`pipeline.evaluate_frozen`), and the
topology is never differentiated.
"""
from __future__ import annotations

import numpy as np

from .mesh import ProvenancedMesh, TriangleQuadrature, TriangleTensor, assemble_tensor, gauss_points
from .optics import ImageGrid, node_table, point_spectra
from .spline import CurveRule


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
    With E_tq = exp(-i k.g_tq) on the region's pupil nodes, k = 2 pi f, the
    spectrum S = sum_tq A_t w_q E_tq moves as
    dS/dP = sum_tq (dA_t/dP w_q - i k A_t w_q dg_tq/dP) E_tq, and point q of
    triangle t moves by dg_tq/dP = sum_j L_jq T[t_j, :] along the axis of
    the control coordinate. The area derivatives come from `area_gradient`. The
    three coefficient sets (dA/dPx w, dA/dPy w and A w dg/dP) fill one
    array for one `point_spectra` call, and the 2n derivative spectra are
    synthesized together. A control only moves its own region's mesh, and
    the node table depends on the grid and that mesh alone, so each region's
    entry is independent of the other meshes.
    """
    out = []
    for mesh, sens in zip(meshes, sensitivities, strict=True):
        tensor = assemble_tensor(mesh)
        dsx, dsy = area_gradient(tensor, sens, mesh.triangles)
        n, nt, ng = sens.shape[1], mesh.num_triangles, quad.num_points
        coef = np.empty((n, 3, nt, ng))
        np.multiply(dsx.T[:, :, None], quad.weights, out=coef[:, 0])
        np.multiply(dsy.T[:, :, None], quad.weights, out=coef[:, 1])
        # point q of triangle t moves with its vertices: A_t w_q sum_j L_jq T[t_j, :]
        np.einsum("jq,tjn->ntq", quad.weights * quad.barycentric,
                  tensor.areas()[:, None, None] * sens[mesh.triangles], out=coef[:, 2])
        nodes = node_table(grid, mesh.vertices)
        points = gauss_points(tensor, quad).reshape(-1, 2) - grid.center
        spectra = point_spectra(points, coef.reshape(n, 3, -1), nodes.k)
        spectra[:, :2] -= 1j * nodes.k * spectra[:, 2:]
        out.append(nodes.synthesize(spectra[:, :2]))  # (n, 2, nx, ny)
    return out


def curve_gradient(rule: CurveRule, points: np.ndarray, steps: np.ndarray, sign: float,
                   grid: ImageGrid, weight: np.ndarray) -> np.ndarray:
    """dJ/dP (n, 2) for one region's curve imaged on `grid`, given the pixel weight dJ/dU (nx, ny).

    The curve is imaged as `optics.curve_amplitude` images it: on the node
    table of its Gauss points r_q = N_q P (`points`, (Q, 2)), with steps
    dr_q = w_q N'_q P (`steps`, rows dx and dy), spectrum
    S = F sum_q E_qk (v . dr_q) for F = sign i / |k|^2, E_qk = exp(-i k . g_q),
    g = r - center and k turned a quarter on, v = (-k_y, k_x). With z = F L
    for L the adjoint of the weight, in reverse mode (Griewank and Walther,
    Evaluating Derivatives, 2nd ed., ch. 3) dJ/d(dr_qa) = Re sum_k E_qk z v_a
    and dJ/dg_qa = sum_b dr_qb Re sum_k E_qk z v_b (-i k_a). These six node
    sums per point are one `point_spectra` call with the nodes as its points
    and the Gauss points as its wave vectors, on the real and imaginary parts
    of the node factors as coefficient rows. Then
    dJ/dP = N^T dJ/dg + N'^T (w dJ/d(dr)).
    """
    nodes = node_table(grid, points)
    kx, ky = nodes.k
    turned = np.stack([-ky, kx])
    factors = np.concatenate([turned[None], -1j * turned[:, None] * nodes.k])  # (3, axis, K)
    factors *= sign * nodes.edge_factor * nodes.adjoint(weight)
    sums = point_spectra(nodes.k.T, np.stack([factors.real, factors.imag]), (points - grid.center).T)
    sums = sums[0].real - sums[1].imag  # (3, axis, Q): dJ/d(dr), then dJ/dg's factors of dx and of dy
    moved = steps[0] * sums[1] + steps[1] * sums[2]  # dJ/dg (axis, Q)
    return rule.basis.T @ moved.T + rule.slope.T @ (rule.weights * sums[0]).T
