"""Assembly of the full forward chain and its frozen-topology re-evaluation.

One RegionSystem bundles everything derived from a region's control points at
fixed topology: collocation, boundary samples, refined mesh and sensitivity.
The frozen variants recompute the chain for new controls while keeping the
provenance and connectivity of an existing system, which is exactly the
setting in which the analytic gradient is defined (and which finite
differences must share to be comparable).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gradient import amplitude_gradient, objective_gradient, sensitivity
from .mesh import ProvenancedMesh, TriangleQuadrature, refine_mesh, triangulate_region
from .objective import ResistModel, objective_value, print_and_epe
from .optics import AmplitudeField, ImageGrid, forward_amplitude
from .spline import PeriodicSplineRegion, build_collocation


@dataclass(frozen=True)
class RegionSystem:
    """Geometry chain of one region at its current control points."""

    region: PeriodicSplineRegion
    colloc: np.ndarray
    samples: np.ndarray
    mesh: ProvenancedMesh
    sens: np.ndarray

    def moved(self, controls: np.ndarray) -> "RegionSystem":
        """Re-evaluate the chain at new controls with frozen topology."""
        region = self.region.with_controls(controls)
        samples = self.colloc @ region.controls
        return replace(self, region=region, samples=samples,
                       mesh=self.mesh.with_boundary(samples))


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

    @property
    def intensity(self) -> np.ndarray:
        return self.field.intensity_values


def build_region_system(region: PeriodicSplineRegion, problem: ImagingProblem,
                        region_id: int = 0) -> RegionSystem:
    colloc = build_collocation(region)
    samples = colloc @ region.controls
    mesh = refine_mesh(triangulate_region(samples, region_id), problem.refine_max_area)
    return RegionSystem(region, colloc, samples, mesh, sensitivity(mesh, colloc))


def _forward(problem: ImagingProblem, systems: list[RegionSystem]) -> MaskEvaluation:
    field = forward_amplitude([s.mesh for s in systems], problem.quad, problem.grid)
    j = objective_value(field.intensity_values, problem.target, problem.model, problem.grid)
    return MaskEvaluation(systems, field, j)


def evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion]) -> MaskEvaluation:
    """Full evaluation with fresh meshes (topology regenerated from scratch)."""
    systems = [build_region_system(r, problem, i) for i, r in enumerate(regions)]
    return _forward(problem, systems)


def evaluate_frozen(problem: ImagingProblem, systems: list[RegionSystem],
                    controls: list[np.ndarray]) -> MaskEvaluation:
    """Re-evaluate at new controls without re-meshing; topology stays fixed."""
    moved = [s.moved(c) for s, c in zip(systems, controls)]
    return _forward(problem, moved)


def gradient_of(problem: ImagingProblem, evaluation: MaskEvaluation,
                kernel_scale: float = 1.0) -> list[np.ndarray]:
    """Analytic objective gradient at an evaluated state, one (n, 2) array per region."""
    grads = amplitude_gradient([s.mesh for s in evaluation.systems], problem.quad,
                               problem.grid, [s.sens for s in evaluation.systems],
                               kernel_scale=kernel_scale)
    return objective_gradient(evaluation.field, problem.target, problem.model,
                              problem.grid, grads)


def finite_difference_gradient(problem: ImagingProblem, evaluation: MaskEvaluation,
                               step: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of J at frozen topology; the oracle twin of gradient_of."""
    controls = [s.region.controls.copy() for s in evaluation.systems]
    out = []
    for r, base in enumerate(controls):
        grad = np.zeros_like(base)
        for k in range(base.shape[0]):
            for c in range(2):
                bumped = [ctrl.copy() for ctrl in controls]
                bumped[r][k, c] += step
                j_plus = evaluate_frozen(problem, evaluation.systems, bumped).objective
                bumped[r][k, c] -= 2 * step
                j_minus = evaluate_frozen(problem, evaluation.systems, bumped).objective
                grad[k, c] = (j_plus - j_minus) / (2 * step)
        out.append(grad)
    return out


def print_report(problem: ImagingProblem, evaluation: MaskEvaluation):
    """Threshold print raster and EPE of an evaluated state."""
    return print_and_epe(evaluation.intensity, problem.target, problem.model)
