"""Assembly of the forward chain, its gradient and its finite-difference twin.

One RegionSystem bundles a region's control points with its boundary loop,
the samples Q = N P, and with its curve at the Gauss points of
`spline.curve_rule`, which the curve kernels of `optics` and `gradient` take
as the system holds them. `evaluate` checks that each sample loop bounds a
region and takes the curve's orientation from it, images the mask the curves
bound with one synthesis (`optics.curve_amplitude`) and scores the image;
`gradient_of` pairs one adjoint of that image with each curve
(`gradient.curve_gradient`), and `finite_difference_gradient` is its oracle
twin, which takes a region's bumps as stacks and each J bit for bit a full
`evaluate`'s. None of them builds a mesh.

The paper's mesh chain stays a library path beside them. A system's `mesh`
is the Delaunay mesh of its loop refined to `ImagingProblem.refine_max_area`,
built on first use, and `sens` its vertex-to-control sensitivity.
`evaluate_frozen` re-images systems at new controls through their meshes
with frozen topology, each moved loop taking its orientation from its
shoelace area, and `frozen_gradient_of` is the analytic gradient of
that mesh image, the setting in which the mesh gradient is defined.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import polygon_signed_area
from .gradient import amplitude_gradient, curve_gradient, sensitivity
from .mesh import ProvenancedMesh, TriangleQuadrature, check_loop, clearance_radius, refine_mesh, triangulate_region
from .objective import (ResistModel, objective_gradient, objective_value, objective_values, pixel_weight,
                        print_and_epe)
from .optics import (AmplitudeField, ImageGrid, bumped_curve_spectra, curve_amplitude, curve_phasors, curve_spectrum,
                     forward_amplitude, mask_spectrum, node_table, node_table_groups)
from .spline import PeriodicSplineRegion, build_collocation, curve_rule

# Bytes of the per-chunk work arrays of `finite_difference_gradient`. A chunk
# holds the most bumps for which each of its arrays fits, and at least one. A
# bump adds to three arrays of a chunk: its synthesis product, 16 nx K bytes;
# the phasors of the s = `SPAN_POINTS` (degree + 1) Gauss points its control
# moves, 24 s K bytes; and its share of the chunk's image stacks, about four
# (nx, ny) float arrays, 32 nx ny bytes. Beside its chunks a node-count group
# holds the bumped curve's phasor table (`optics.curve_phasors`), 24 Q K bytes
# for Q Gauss points, and the other regions' spectra, 16 K bytes each.
# On the benchmark's twin (nx 48, ny 36, K 179, Q 80, s 20) the product
# dominates and this budget takes 7 bumps a chunk. A gradcheck process runs
# the differences once, and there, at one BLAS thread, they took a median
# 19 ms at this budget, 20 ms at half of it, and 30 to 32 ms at two to eight
# times it, where each run page-faulted 2,900 to 5,800 times against 640
# here: larger chunks need fresh pages that malloc then returns and asks for
# again. At `optics.MAX_GRID_SIDE` and `MAX_REACH` (K 35,991) one bump's
# product is 16 x 1024 x K bytes, 590 MB, so each chunk holds one bump, and
# at the most controls a config may ask for, 264 (Q 1,320), the table is
# 1.14 GB. The peak is then the table and one bump's product, about 1.8 GB at
# degree 3. At the largest degree a control moves nearly every Gauss point
# (s 1,315), and its moved rows' phasors, with the copy of the table rows they
# replace (40 s K bytes, 1.9 GB), take the product's place: about 3.1 GB.
FD_BYTES = 2**20


@dataclass(frozen=True)
class RegionSystem:
    """Geometry chain of one region at its current control points.

    `samples` is the boundary loop Q = N P, and `orientation` the sign of its
    shoelace area (`geometry.polygon_signed_area`, as `check_loop` finds it),
    which the curve takes as its own.
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
        return RegionSystem(region, samples, np.sign(polygon_signed_area(samples)), self.refine_max_area, self.mesh)


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


def _scored(problem: ImagingProblem, systems: list[RegionSystem], field: AmplitudeField) -> MaskEvaluation:
    j = objective_value(field.intensity_values, problem.target, problem.model, problem.grid)
    return MaskEvaluation(systems, field, j)


def evaluate(problem: ImagingProblem, regions: list[PeriodicSplineRegion],
             near: list[tuple[np.ndarray, float]] | None = None) -> MaskEvaluation:
    """The image of the mask the regions' curves bound (`optics.curve_amplitude`), scored.

    Raises MeshError, or its subclass SelfIntersectionError, when a sample
    loop crosses itself or encloses no area. `near`, one loop and its
    `mesh.clearance_radius` per region, such as the line search's iterate,
    lets each loop that stays within its radius skip the crossing test
    (`check_loop`). It raises MeshError too when a curve reaches farther from
    the grid than `optics.MAX_REACH` (`optics.pupil_node_counts`), as a
    line-search trial can where the config's controls stay within it; the
    line search scores such a trial +inf.
    """
    near = near or [None] * len(regions)
    systems = [build_region_system(r, problem, n) for r, n in zip(regions, near, strict=True)]
    u = curve_amplitude([(*s.curve, s.orientation) for s in systems], problem.grid)
    return _scored(problem, systems, AmplitudeField(u))


def evaluate_frozen(problem: ImagingProblem, systems: list[RegionSystem],
                    controls: list[np.ndarray]) -> MaskEvaluation:
    """The mesh image at new controls, each system's mesh moved with its topology fixed."""
    moved = [s.moved(c) for s, c in zip(systems, controls, strict=True)]
    return _scored(problem, moved, forward_amplitude([s.mesh for s in moved], problem.quad, problem.grid))


def gradient_of(problem: ImagingProblem, evaluation: MaskEvaluation) -> list[np.ndarray]:
    """Analytic gradient of `evaluate`'s J at an evaluated state, one (n, 2) array per region.

    The pixel weight dJ/dU has one adjoint on the node table that imaged the
    mask (`NodeTable.adjoint`), and each region's dJ/dP pairs it with that
    region's curve (`gradient.curve_gradient`).
    """
    if not evaluation.systems:
        return []
    nodes = node_table(problem.grid, *(s.curve[0] for s in evaluation.systems))
    adjoint = nodes.adjoint(pixel_weight(evaluation.field, problem.target, problem.model, problem.grid))
    return [curve_gradient(curve_rule(s.region), *s.curve, s.orientation, nodes, adjoint) for s in evaluation.systems]


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

    A bump of region r moves only region r's curve. Its 4n bumped control
    sets are formed at once with the float operations of a bump made one at
    a time (+ step, then - 2 step from the plus bump), and so are their Gauss
    points, steps and orientations. Each group of bumps that `evaluate` would
    image on one node table (`optics.node_table_groups`) forms the other
    regions' `curve_spectrum`s and the bumped curve's `curve_phasors` once,
    and each bump forms phasors anew only at the Gauss points of its
    control's spans (`CurveRule.support`, `optics.bumped_curve_spectra`). A
    chunk of bumps whose arrays each fit FD_BYTES adds each bump's spectrum
    among the others' (`optics.mask_spectrum`), is synthesized in one call
    and scored, so every J is bit for bit `evaluate`'s at the bumped
    controls. Each bumped loop goes through `check_loop` with its base loop's
    `clearance_radius`, and a bump that bounds no region, or whose curve
    reaches past `optics.MAX_REACH`, raises MeshError as `evaluate` would.
    """
    grid = problem.grid
    systems = evaluation.systems
    out = []
    for r, system in enumerate(systems):
        others = systems[:r] + systems[r + 1:]
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
        # each bumped loop must bound a region, as in `evaluate`; one within
        # the base loop's clearance radius skips the crossing test
        loop = system.samples
        signs = np.sign(check_loop(build_collocation(region) @ controls, near=(loop, clearance_radius(loop))))
        j = np.empty(len(controls))
        for nodes, bumps in node_table_groups(grid, points, *(s.curve[0] for s in others)):
            size = nodes.k.shape[1]
            fixed = [curve_spectrum(*s.curve, s.orientation, nodes) for s in others]
            table = curve_phasors(system.curve[0], nodes)
            per_bump = max(16 * grid.nx * size, 24 * rule.support.shape[1] * size, 32 * grid.nx * grid.ny)
            chunk = max(1, FD_BYTES // per_bump)
            for start in range(0, len(bumps), chunk):
                members = bumps[start:start + chunk]
                rows = rule.support[members // 4]
                bumped = bumped_curve_spectra(table, rows, points[members[:, None], rows], steps[members],
                                              signs[members], nodes)
                field = AmplitudeField(nodes.synthesize(mask_spectrum([*fixed[:r], bumped, *fixed[r:]])))
                j[members] = objective_values(field.intensity_values, problem.target, problem.model, grid)
        out.append((j[0::2] - j[1::2]).reshape(n, 2) / (2 * step))
    return out


def print_report(problem: ImagingProblem, evaluation: MaskEvaluation):
    """Threshold print raster and EPE of an evaluated state."""
    return print_and_epe(evaluation.field.intensity_values, problem.target, problem.model)
