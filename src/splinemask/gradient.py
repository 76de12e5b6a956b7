"""Analytic derivatives of the image with respect to the control points.

The chain images each region's boundary loop Q = N P exactly, and takes J's
gradient as an adjoint (`loop_gradient`). With the pixel weight W = dJ/dU,
J moves as Re sum_k L_k dS_k for L = `NodeTable.adjoint(W)`, and the
spectrum S is a sum of edge terms, so dJ/dQ collects each sample's share of
the derivatives of its two edges' terms (`edge_gradient`), and
dJ/dP = N^T dJ/dQ. No derivative field is synthesized.

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
from .optics import ImageGrid, edge_products, node_table, point_spectra, sinc_slope, tangent_ratio


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
        spectra = point_spectra(points, coef.reshape(n, 3, -1), nodes)
        spectra[:, :2] -= 1j * nodes.k * spectra[:, 2:]
        out.append(nodes.synthesize(spectra[:, :2]))  # (n, 2, nx, ny)
    return out


def edge_gradient(loop: np.ndarray, k: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re sum_k coef_k dT_ek/dd_e and Re sum_k coef_k dT_ek/dm_e for every edge e of the loop, each (m, 2).

    T_ek = c s E is `optics.edge_terms` with c = k_x d_y - k_y d_x,
    s = sinc(2 q) and E = exp(2 i phi) for q = k . d / 4 and
    phi = -k . m / 2, edge vector d and midpoint m (`optics.edge_products`).
    Then dT/dd = ((-k_y, k_x) s + k c sinc'(2 q) / 2) E, whose factor before
    E is real, and dT/dm = -i k T, so with p = coef E
    Re coef dT/dd = (-k_y, k_x) p.real s + k p.real c sinc'(2 q) / 2 and
    Re coef dT/dm = k p.imag c s. As in the image, t = tan q and w = tan phi
    give E = ((1 - w^2) + 2 i w) / (1 + w^2), s = (t / q) / (1 + t^2) and
    cos 2 q = (1 - t^2) / (1 + t^2), which gives sinc' (`optics.sinc_slope`).
    The factor 1 / (1 + w^2) of p is taken into s and sinc', so p is formed
    as Y p = (a (1 - w^2) - b 2 w) + i (b (1 - w^2) + a 2 w) for coef = a + i b
    and Y = 1 + w^2.
    The three sums over the nodes are one matrix product against k. The
    steps run in place in one (7, m, K) work array of this call.
    """
    work = np.empty((7, len(loop), k.shape[1]))
    edge_products(loop, k, work[:3])
    cross, quarter, phase, t, s, slope, real = work
    a, b = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
    tangent_ratio(quarter, np.tan(quarter, out=t), s)
    x = np.add(quarter, quarter, out=quarter)
    tt = np.multiply(t, t, out=t)
    big_t = np.add(tt, 1.0, out=slope)
    cos_x = np.divide(np.subtract(1.0, tt, out=t), big_t, out=t)
    np.divide(s, big_t, out=s)
    sinc_slope(x, s, cos_x, slope)
    # rows 1 to 3 take 1 + w^2, 2 w and 1 - w^2; s and sinc' are divided by 1 + w^2
    w = np.tan(phase, out=phase)
    ww = np.multiply(w, w, out=quarter)
    one_minus = np.subtract(1.0, ww, out=t)
    big_w = np.add(ww, 1.0, out=quarter)
    np.divide(s, big_w, out=s)
    np.divide(slope, big_w, out=slope)
    twice_w = np.add(w, w, out=w)
    np.subtract(np.multiply(a, one_minus, out=real), np.multiply(b, twice_w, out=quarter), out=real)
    imag = np.add(np.multiply(one_minus, b, out=t), np.multiply(twice_w, a, out=phase), out=t)
    # rows 0 to 2 take p.real (c sinc'), p.real s and p.imag (c s) as each dies
    np.multiply(real, s, out=quarter)
    np.multiply(imag, np.multiply(s, cross, out=s), out=phase)
    np.multiply(real, np.multiply(slope, cross, out=slope), out=cross)
    slope_sum, flat, moved = work[:3] @ k.T
    return 0.5 * slope_sum + flat[:, ::-1] * [-1.0, 1.0], moved


def loop_gradient(loop: np.ndarray, sign: float, grid: ImageGrid, weight: np.ndarray) -> np.ndarray:
    """dJ/dQ for one region's loop Q (m, 2) imaged on `grid`, given the pixel weight dJ/dU (nx, ny).

    The loop is imaged on the node table of its samples, as
    `optics.loop_amplitude` images it, with spectrum S = F sum_e T_e for
    F = sign i / |k|^2, the nodes' `edge_factor` times `sign`, the loop's
    `optics.orientation`. So dJ = Re sum_k L_k F_k sum_e dT_ek,
    with L the adjoint of the weight, and sample i takes the derivative of
    edge i at its start a = m - d / 2 and of edge i - 1 at its end
    b = m + d / 2.
    """
    nodes = node_table(grid, loop)
    rel = loop - grid.center
    along, mid = edge_gradient(rel, nodes.k, sign * nodes.edge_factor * nodes.adjoint(weight))
    return 0.5 * mid - along + np.roll(0.5 * mid + along, 1, axis=0)
