"""Assembly of the forward chain, its gradient and its finite-difference twin.

One RegionSystem bundles a region's control points with its boundary loop,
the samples Q = N P, and with its curve at the Gauss points of
`spline.curve_rule`. `evaluate` checks that each sample loop bounds a region
and takes the curve's orientation from it, images each curve
(`optics.curve_amplitude`) and scores the image; `gradient_of` takes J's
gradient as an adjoint of that image (`gradient.curve_gradient`), and
`finite_difference_gradient` is its oracle twin. The twin images each region
once at its base controls and then forms all central-difference bumps of a
region as stacks: their loop checks, curves, orientations and node counts
at once, their images a chunk of bumps per `NodeTable.synthesize` call, and
their J values a chunk at a time. A bump moves one control, so it forms
phasors anew only at the Gauss points of that control's spans and takes the
others from the base curve; every J is still bit for bit a full
`evaluate`'s. None of them builds a mesh.

The paper's mesh chain stays a library path beside them. A system's `mesh`
is the Delaunay mesh of its loop refined to `ImagingProblem.refine_max_area`,
built on first use, and `sens` its vertex-to-control sensitivity.
`evaluate_frozen` re-images systems at new controls through their meshes
with frozen topology, and `frozen_gradient_of` is the analytic gradient of
that mesh image, the setting in which the mesh gradient is defined.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gradient import amplitude_gradient, curve_gradient, sensitivity
from .mesh import ProvenancedMesh, TriangleQuadrature, check_loop, clearance_radius, refine_mesh, triangulate_region
from .objective import (ResistModel, objective_gradient, objective_value, objective_values, pixel_weight,
                        print_and_epe)
from .optics import (AmplitudeField, ImageGrid, boundary_spectrum, curve_amplitude, forward_amplitude,
                     grid_reaches, moved_point_spectra, node_counts, node_table_at, orientation, phasors,
                     point_spectra, pupil_node_counts)
from .spline import PeriodicSplineRegion, build_collocation, curve_rule

# Bytes of the work arrays of `finite_difference_gradient`. A chunk holds the
# most bumps whose synthesis product, 16 nx K bytes a bump, fits, and at least
# one; the base curve's phasor table, 24 Q K bytes, is kept only when it fits.
# On the benchmark's twin (nx 48, K 179, Q 80) this budget takes 7 bumps a
# chunk. A gradcheck process runs the differences once, and there, at one BLAS
# thread, they took a median 19 ms at this budget, 20 ms at half of it, and 30
# to 32 ms at two to eight times it, where each run page-faulted 2,900 to 5,800
# times against 640 here: larger chunks need fresh pages that malloc then
# returns and asks for again. At `optics.MAX_GRID_SIDE` and `MAX_REACH` one
# bump's product is 16 x 1024 x 35,991 bytes, 590 MB, so each chunk holds one
# bump, and no table fits (13 MB already at the fewest Gauss points, 15): every
# bump takes the full kernel, whose work array of at most 442 MB
# (`optics.POINT_BLOCK`) is freed before the synthesis. The peak is then one
# bump's 590 MB product.
FD_BYTES = 2**20


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
    # the curve's Gauss points r_q = N_q P (Q, 2) and steps w_q N'_q P as rows dx, dy (2, Q)
    curve: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # formed with the system: every system of the chain is imaged, and a
        # cached_property takes a lock on the first read of each new system
        object.__setattr__(self, "curve", curve_rule(self.region).curve(self.region.controls))

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

    `target` is kept as a read-only float raster, made once: the objective
    subtracts it from every image. `quad` and `refine_max_area` are the
    quadrature rule and largest triangle area of the library's mesh image;
    the chain's curve image needs neither.
    """

    grid: ImageGrid
    target: np.ndarray
    model: ResistModel
    quad: TriangleQuadrature
    refine_max_area: float

    def __post_init__(self):
        target = np.array(self.target, dtype=float)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class MaskEvaluation:
    """Forward state of the whole mask at one iterate."""

    systems: list[RegionSystem]
    field: AmplitudeField
    objective: float


def build_region_system(region: PeriodicSplineRegion, problem: ImagingProblem,
                        near: tuple[np.ndarray, float] | None = None) -> RegionSystem:
    """A region's system at its controls; MeshError when its loop bounds no region (`check_loop`, given `near`)."""
    samples = build_collocation(region) @ region.controls
    return RegionSystem(region, samples, np.sign(check_loop(samples, near=near)), problem.refine_max_area)


def _summed(fields: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The region images added from zeros of `shape` in region order: (nx, ny), or a stack of sums."""
    u = np.zeros(shape)
    for field in fields:
        u += field
    return u


def _scored(problem: ImagingProblem, systems: list[RegionSystem], field: AmplitudeField) -> MaskEvaluation:
    j = objective_value(field.intensity_values, problem.target, problem.model, problem.grid)
    return MaskEvaluation(systems, field, j)


def evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion],
             near: list[tuple[np.ndarray, float]] | None = None) -> MaskEvaluation:
    """The image of the regions' curves, scored.

    Raises MeshError, or its subclass SelfIntersectionError, when a sample
    loop crosses itself or encloses no area. `near`, one loop and its
    `mesh.clearance_radius` per region, such as the line search's iterate,
    lets each loop that stays within its radius skip the crossing test
    (`check_loop`).
    """
    near = near or [None] * len(regions)
    systems = [build_region_system(r, problem, n) for r, n in zip(regions, near, strict=True)]
    fields = [s.amplitude(problem.grid) for s in systems]
    return _scored(problem, systems, AmplitudeField(_summed(fields, (problem.grid.nx, problem.grid.ny))))


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
    once at the base controls, and the bumps of region r re-image region r
    alone. Its 4n bumped control sets are formed at once with the float
    operations of a bump made one at a time (+ step, then - 2 step from the
    plus bump), and so are their Gauss points, steps, orientations and node
    counts. The bumps that share node counts are imaged a chunk at a time,
    through one `NodeTable.synthesize` call per chunk whose product fits
    FD_BYTES, and each chunk's images are added to the other regions' from
    zeros in region order and scored (`objective.objective_values`) as
    `evaluate` adds and scores them. Moving control k moves only the Gauss
    points of its spans (`CurveRule.support`), so a bump with the base
    curve's node counts forms phasors anew only there and takes the rest
    from the base curve's table (`optics.moved_point_spectra`); any other
    bump, or every bump when the table exceeds FD_BYTES, takes the full
    kernel (`optics.point_spectra`). Every J is bit for bit the one
    `evaluate` gives at the bumped controls. Each bumped sample loop goes
    through `check_loop` with its base loop's `clearance_radius`, so a
    bump that bounds no region raises MeshError, as `evaluate` would, and a
    bump within the radius runs no crossing test.
    """
    alone = [s.amplitude(problem.grid) for s in evaluation.systems]
    out = []
    for r, system in enumerate(evaluation.systems):
        j = _bumped_objectives(problem, system, alone[:r], alone[r + 1:], step)
        out.append((j[:, :, 0] - j[:, :, 1]) / (2 * step))
    return out


def _bumped_objectives(problem: ImagingProblem, system: RegionSystem, before: list[np.ndarray],
                       after: list[np.ndarray], step: float) -> np.ndarray:
    """J (n, 2, 2) at each central-difference bump of one region: control k, coordinate c, plus then minus.

    `before` and `after` are the images of the regions before and after it,
    at their base controls (`finite_difference_gradient`).
    """
    grid = problem.grid
    region = system.region
    n = region.n
    rule = curve_rule(region)
    k, c = np.arange(n)[:, None], np.arange(2)
    plus = np.broadcast_to(region.controls, (n, 2, n, 2)).copy()
    plus[k, c, k, c] += step
    minus = plus.copy()
    minus[k, c, k, c] -= 2 * step
    controls = np.stack([plus, minus], axis=2).reshape(-1, n, 2)  # bump (k, c, sign) at 4k + 2c + sign
    points, steps = rule.curve(controls)
    # each bumped loop must bound a region, as in `evaluate`; one within the
    # base loop's clearance radius skips the crossing test
    base_loop = system.samples
    signs = np.sign(check_loop(build_collocation(region) @ controls, near=(base_loop, clearance_radius(base_loop))))
    groups: dict[tuple[int, int], list[int]] = {}
    for b, reach in enumerate(grid_reaches(grid, points)):
        groups.setdefault(pupil_node_counts(reach), []).append(b)
    points = points - grid.center
    base, base_counts = system.curve[0] - grid.center, node_counts(grid, system.curve[0])
    j = np.empty(len(controls))
    for counts, bumps in groups.items():
        nodes = node_table_at(grid, *counts)
        size = nodes.k.shape[1]
        table = None
        if counts == base_counts and 24 * len(base) * size <= FD_BYTES:
            table = phasors(base, -0.5 * nodes.k, np.empty((3, len(base), size)))
        chunk = max(1, FD_BYTES // (16 * grid.nx * size))
        for start in range(0, len(bumps), chunk):
            members = np.array(bumps[start:start + chunk])
            if table is None:
                spectra = np.stack([point_spectra(points[b], steps[b], nodes.k) for b in members])
            else:
                rows = rule.support[members // 4]
                spectra = moved_point_spectra(table, rows, points[members[:, None], rows], steps[members], nodes.k)
            fields = nodes.synthesize(boundary_spectrum(spectra, signs[members], nodes))
            field = AmplitudeField(_summed([*before, fields, *after], fields.shape))
            j[members] = objective_values(field.intensity_values, problem.target, problem.model, grid)
    return j.reshape(n, 2, 2)


def print_report(problem: ImagingProblem, evaluation: MaskEvaluation):
    """Threshold print raster and EPE of an evaluated state."""
    return print_and_epe(evaluation.field.intensity_values, problem.target, problem.model)
