"""Assembly of the forward chain, its gradient and its finite-difference twin.

One RegionSystem bundles a region's control points with its boundary loop,
the samples Q = N P, and with its curve at the Gauss points of
`spline.curve_rule`. `evaluate` checks that each sample loop bounds a region
and takes the curve's orientation from it, images each curve
(`optics.curve_amplitude`) and scores the image; `gradient_of` takes J's
gradient as an adjoint of that image (`gradient.curve_gradient`), and
`finite_difference_gradient` is its oracle twin, which re-images each bumped
region through the same `curve_amplitude` call. None of them builds a mesh.

The paper's mesh chain stays a library path beside them. A system's `mesh`
is the Delaunay mesh of its loop refined to `ImagingProblem.refine_max_area`,
built on first use, and `sens` its vertex-to-control sensitivity.
`evaluate_frozen` re-images systems at new controls through their meshes
with frozen topology, and `frozen_gradient_of` is the analytic gradient of
that mesh image, the setting in which the mesh gradient is defined.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gradient import amplitude_gradient, curve_gradient, sensitivity
from .mesh import ProvenancedMesh, TriangleQuadrature, check_loop, refine_mesh, triangulate_region
from .objective import ResistModel, objective_gradient, objective_value, pixel_weight, print_and_epe
from .optics import AmplitudeField, ImageGrid, curve_amplitude, forward_amplitude, orientation
from .spline import PeriodicSplineRegion, build_collocation, curve_rule


@dataclass(frozen=True)
class RegionSystem:
    """Geometry chain of one region at its current control points.

    `samples` is the boundary loop Q = N P, and `orientation` the sign of its
    shoelace area (`optics.orientation`), which the curve takes as its own.
    `topology`, when given, is a mesh of this region at other controls whose
    triangles and provenance `mesh` keeps; without it `mesh` meshes the loop
    afresh.
    """

    region: PeriodicSplineRegion
    samples: np.ndarray
    orientation: float
    refine_max_area: float
    topology: ProvenancedMesh | None = None

    @cached_property
    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """The curve's Gauss points r_q = N_q P (Q, 2) and steps w_q N'_q P as rows dx, dy (2, Q), formed once."""
        rule = curve_rule(self.region)
        controls = self.region.controls
        return rule.basis @ controls, rule.weights * (controls.T @ rule.slope.T)

    def amplitude(self, grid: ImageGrid) -> np.ndarray:
        """The image (nx, ny) of the region's curve on `grid` (`optics.curve_amplitude`)."""
        return curve_amplitude(*self.curve, self.orientation, grid)

    @cached_property
    def mesh(self) -> ProvenancedMesh:
        """The loop's refined mesh, built on first use: the topology's moved to the samples, or a fresh one."""
        if self.topology is not None:
            return self.topology.with_boundary(self.samples)
        return refine_mesh(triangulate_region(self.samples), self.refine_max_area)

    @property
    def sens(self) -> np.ndarray:
        """Vertex-to-control sensitivity T = W @ N of the mesh, shape (K, n)."""
        return sensitivity(self.mesh, build_collocation(self.region))

    def moved(self, controls: np.ndarray) -> "RegionSystem":
        """The system at new controls, its mesh of frozen topology."""
        region = self.region.with_controls(controls)
        samples = build_collocation(region) @ region.controls
        return RegionSystem(region, samples, orientation(samples), self.refine_max_area, self.mesh)


@dataclass(frozen=True)
class ImagingProblem:
    """Static problem data in normalized coordinates.

    `quad` and `refine_max_area` are the quadrature rule and largest triangle
    area of the library's mesh image; the chain's curve image needs neither.
    """

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


def build_region_system(region: PeriodicSplineRegion, problem: ImagingProblem) -> RegionSystem:
    """A region's system at its controls; MeshError when its loop bounds no region (`check_loop`)."""
    samples = build_collocation(region) @ region.controls
    return RegionSystem(region, samples, np.sign(check_loop(samples)), problem.refine_max_area)


def _summed(fields: list[np.ndarray], grid: ImageGrid) -> AmplitudeField:
    """The region images added from zeros in region order."""
    u = np.zeros((grid.nx, grid.ny))
    for field in fields:
        u += field
    return AmplitudeField(u)


def _scored(problem: ImagingProblem, systems: list[RegionSystem], field: AmplitudeField) -> MaskEvaluation:
    j = objective_value(field.intensity_values, problem.target, problem.model, problem.grid)
    return MaskEvaluation(systems, field, j)


def evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion]) -> MaskEvaluation:
    """The image of the regions' curves, scored.

    Raises MeshError, or its subclass SelfIntersectionError, when a sample
    loop crosses itself or encloses no area.
    """
    systems = [build_region_system(r, problem) for r in regions]
    return _scored(problem, systems, _summed([s.amplitude(problem.grid) for s in systems], problem.grid))


def evaluate_frozen(problem: ImagingProblem, systems: list[RegionSystem],
                    controls: list[np.ndarray]) -> MaskEvaluation:
    """The mesh image at new controls, each system's mesh moved with its topology fixed."""
    moved = [s.moved(c) for s, c in zip(systems, controls, strict=True)]
    return _scored(problem, moved, forward_amplitude([s.mesh for s in moved], problem.quad, problem.grid))


def gradient_of(problem: ImagingProblem, evaluation: MaskEvaluation) -> list[np.ndarray]:
    """Analytic gradient of `evaluate`'s J at an evaluated state, one (n, 2) array per region.

    Each region's dJ/dP is the adjoint of its curve image against the pixel
    weight dJ/dU (`gradient.curve_gradient`).
    """
    weight = pixel_weight(evaluation.field, problem.target, problem.model, problem.grid)
    return [curve_gradient(curve_rule(s.region), *s.curve, s.orientation, problem.grid, weight)
            for s in evaluation.systems]


def frozen_gradient_of(problem: ImagingProblem, evaluation: MaskEvaluation) -> list[np.ndarray]:
    """Analytic gradient of the mesh image's J at an `evaluate_frozen` state, one (n, 2) array per region.

    The amplitude-derivative fields of each region's mesh, contracted with
    the pixel weight of the mesh image.
    """
    grads = amplitude_gradient([s.mesh for s in evaluation.systems], problem.quad,
                               problem.grid, [s.sens for s in evaluation.systems])
    return objective_gradient(evaluation.field, problem.target, problem.model, problem.grid, grads)


def finite_difference_gradient(problem: ImagingProblem, evaluation: MaskEvaluation,
                               step: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of `evaluate`'s J; the oracle twin of gradient_of.

    A bump of region r moves only region r's curve, so each region is imaged
    once at the base controls and each bump re-images region r alone, with
    the `RegionSystem.amplitude` call `evaluate` makes. The region fields are
    added from zeros in region order, as `evaluate` adds them, so every J is
    bitwise the one `evaluate` gives at the bumped controls.
    """
    grid = problem.grid
    systems = evaluation.systems
    alone = [s.amplitude(grid) for s in systems]

    def objective(r: int, bumped: np.ndarray) -> float:
        region = systems[r].region.with_controls(bumped)
        samples = build_collocation(region) @ region.controls
        fields = alone.copy()
        fields[r] = RegionSystem(region, samples, orientation(samples), problem.refine_max_area).amplitude(grid)
        return objective_value(_summed(fields, grid).intensity_values, problem.target, problem.model, grid)

    out = []
    for r, system in enumerate(systems):
        base = system.region.controls
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
