"""Analytic derivatives of the image with respect to the control points.

The chain images each region's spline curve through its Gauss points r_q
and steps dr_q = w_q r'_q (`optics.curve_spectrum`), and takes J's gradient
as an adjoint (`curve_gradient`). With the pixel weight W = dJ/dU, J moves
as Re sum_k L_k dS_k for L = `NodeTable.adjoint(W)`. The points and the
steps are linear in the controls through the rule's basis values and
slopes, so dS/dP is a set of point spectra with per-control coefficient
rows, which `optics.point_spectra` forms in one call; the pairing with L
then gives dJ/dP. No derivative field is synthesized.

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
    S = F (k_x A_y - k_y A_x) for F = sign i / |k|^2 and
    A = sum_q dr_q exp(-i k . g_q), g = r - center. Control j moves
    the steps of its own axis by w_q N'_qj and every point along that axis by
    N_qj, which turns each phasor by -i k_axis. With the point spectra
    C_j of w_q N'_qj and B_j of N_qj dr_q (two rows, one per axis), and k
    turned a quarter on, v = (-k_y, k_x),
    dS/dP_ja = F (v_a C_j - i k_a (v . B_j)). So with z = F L for L the
    adjoint of the weight, dJ/dP_ja = Re sum_k L_k dS_k is
    Re sum_k (C_jk v_a z_k - i sum_b B_jbk v_b k_a z_k): the three
    coefficient rows per control are one `point_spectra` call, paired with
    the (3, K) node factors of each axis in one matrix product.
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
