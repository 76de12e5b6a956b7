"""Depth-first centroid refinement: the test oracle for `mesh.refine_mesh`.

One triangle at a time: a triangle larger than the bound splits at its
centroid into (i, j, g), (j, k, g), (k, i, g), and each child is refined in
full before the next one starts. Every vertex is one row [x, y | provenance],
and a centroid row is the mean of its three parents' rows, so the package's
sweep-by-sweep version must give the same triangles in the same order with
the same floats. Only the numbering of the inserted vertices differs: here a
centroid is numbered when its triangle is reached, there when its sweep is.
"""
import numpy as np

from splinemask.mesh import ProvenancedMesh, signed_area


def depth_first_refine(mesh: ProvenancedMesh, max_area: float):
    """(vertices, triangles, provenance) of the refined mesh, inserted vertices in depth-first order."""
    rows = [row for row in np.hstack([mesh.vertices, mesh.provenance])]
    triangles = []
    pending = [tuple(t) for t in reversed(mesh.triangles.tolist())]
    while pending:
        i, j, k = pending.pop()
        if signed_area(rows[i][:2], rows[j][:2], rows[k][:2]) <= max_area:
            triangles.append((i, j, k))
            continue
        rows.append((rows[i] + rows[j] + rows[k]) / 3.0)
        g = len(rows) - 1
        pending.extend([(k, i, g), (j, k, g), (i, j, g)])  # (i, j, g) is refined first
    rows = np.array(rows)
    return rows[:, :2], np.array(triangles, dtype=np.int64).reshape(-1, 3), rows[:, 2:]
