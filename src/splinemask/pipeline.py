"""Assembly of the full forward chain and its frozen-topology re-evaluation.

One RegionSystem bundles a region's control points with the refined mesh
built from its boundary samples and that mesh's unrefined triangles, from
which a line-search trial re-meshes its own samples by edge flips; the
vertex-to-control sensitivity is derived from the region and the mesh only
when the gradient needs it. The frozen variants recompute the chain for new
controls while keeping the provenance and connectivity of an existing
system, which is exactly the setting in which the analytic gradient is
defined (and which finite differences must share to be comparable).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import amplitude_gradient, sensitivity
from .mesh import ProvenancedMesh, TriangleQuadrature, refine_mesh, triangulate_region
from .objective import ResistModel, objective_gradient, objective_value, print_and_epe
from .optics import AmplitudeField, ImageGrid, PhasorCache, forward_amplitude
from .spline import PeriodicSplineRegion, build_collocation


@dataclass(frozen=True)
class RegionSystem:
    """Geometry chain of one region at its current control points."""

    region: PeriodicSplineRegion
    mesh: ProvenancedMesh
    base_triangles: np.ndarray  # the unrefined triangles over the boundary samples

    @property
    def sens(self) -> np.ndarray:
        """Vertex-to-control sensitivity T = W @ N of the mesh, shape (K, n)."""
        return sensitivity(self.mesh, build_collocation(self.region))

    def moved(self, controls: np.ndarray) -> "RegionSystem":
        """Re-evaluate the chain at new controls with frozen topology."""
        region = self.region.with_controls(controls)
        samples = build_collocation(region) @ region.controls
        return RegionSystem(region, self.mesh.with_boundary(samples), self.base_triangles)


@dataclass(frozen=True)
class ImagingProblem:
    """Static problem data in normalized coordinates."""

    grid: ImageGrid
    target: np.ndarray
    model: ResistModel
    quad: TriangleQuadrature
    refine_max_area: float


@dataclass(frozen=True)
class MaskEvaluation:
    """Forward state of the whole mask at one iterate."""

    systems: list[RegionSystem]
    field: AmplitudeField
    objective: float


def build_region_system(region: PeriodicSplineRegion, problem: ImagingProblem,
                        start: RegionSystem | None = None) -> RegionSystem:
    """Mesh a region's boundary samples and refine the mesh.

    `start`, a system of the same region at other controls, hands its
    unrefined triangles to `triangulate_region`, which flips them into the
    mesh it would build from scratch.
    """
    samples = build_collocation(region) @ region.controls
    base = triangulate_region(samples, None if start is None else start.base_triangles)
    return RegionSystem(region, refine_mesh(base, problem.refine_max_area), base.triangles)


def _forward(problem: ImagingProblem, systems: list[RegionSystem]) -> MaskEvaluation:
    field = forward_amplitude([s.mesh for s in systems], problem.quad, problem.grid)
    j = objective_value(field.intensity_values, problem.target, problem.model, problem.grid)
    return MaskEvaluation(systems, field, j)


def evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion],
             starts: list[RegionSystem] | None = None) -> MaskEvaluation:
    """Full evaluation with fresh meshes, the same from scratch or from `starts`.

    `starts` are the systems of the same regions at other controls, one per
    region; their triangles are where re-meshing begins (`build_region_system`).
    """
    starts = starts if starts is not None else [None] * len(regions)
    systems = [build_region_system(r, problem, s) for r, s in zip(regions, starts, strict=True)]
    return _forward(problem, systems)


def evaluate_frozen(problem: ImagingProblem, systems: list[RegionSystem],
                    controls: list[np.ndarray]) -> MaskEvaluation:
    """Re-evaluate at new controls without re-meshing; topology stays fixed."""
    moved = [s.moved(c) for s, c in zip(systems, controls)]
    return _forward(problem, moved)


def gradient_of(problem: ImagingProblem, evaluation: MaskEvaluation) -> list[np.ndarray]:
    """Analytic objective gradient at an evaluated state, one (n, 2) array per region."""
    grads = amplitude_gradient([s.mesh for s in evaluation.systems], problem.quad,
                               problem.grid, [s.sens for s in evaluation.systems])
    return objective_gradient(evaluation.field, problem.target, problem.model,
                              problem.grid, grads)


def finite_difference_gradient(problem: ImagingProblem, evaluation: MaskEvaluation,
                               step: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of J at frozen topology; the oracle twin of gradient_of.

    A bump of region r moves only region r's mesh, so each region is imaged
    once at the base controls, through a `PhasorCache`, and each bump
    re-images region r alone. Within it, a bump moves only the vertices whose
    provenance reaches the bumped control's samples: the cache forms phasors
    for those vertices and triangle sums for the triangles that touch them,
    and takes the rest from the base image. The region fields are added from
    zeros in region order, as `forward_amplitude` adds them, so every J is
    bitwise the one `evaluate_frozen` gives for the same controls.
    """
    systems = evaluation.systems
    controls = [s.region.controls.copy() for s in systems]
    caches = [PhasorCache() for _ in systems]

    def image(r: int, region_controls: np.ndarray) -> np.ndarray:
        return forward_amplitude([systems[r].moved(region_controls).mesh],
                                 problem.quad, problem.grid, [caches[r]]).values

    alone = [image(r, c) for r, c in enumerate(controls)]

    def objective(r: int, bumped: np.ndarray) -> float:
        fields = alone.copy()
        fields[r] = image(r, bumped)
        u = np.zeros((problem.grid.nx, problem.grid.ny))
        for field in fields:
            u += field
        return objective_value(AmplitudeField(u).intensity_values, problem.target,
                               problem.model, problem.grid)

    out = []
    for r, base in enumerate(controls):
        grad = np.zeros_like(base)
        for k in range(base.shape[0]):
            for c in range(2):
                bumped = base.copy()
                bumped[k, c] += step
                j_plus = objective(r, bumped)
                bumped[k, c] -= 2 * step
                j_minus = objective(r, bumped)
                grad[k, c] = (j_plus - j_minus) / (2 * step)
        out.append(grad)
    return out


def print_report(problem: ImagingProblem, evaluation: MaskEvaluation):
    """Threshold print raster and EPE of an evaluated state."""
    return print_and_epe(evaluation.field.intensity_values, problem.target, problem.model)
