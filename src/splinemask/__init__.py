"""Curvilinear photomask optimization with periodic B-spline boundaries.

Mask regions are closed periodic B-spline loops; imaging is coherent, with
the Airy kernel, and evaluated as an integral of each region's spectrum over
the pupil disk. The chain images each region's spline curve, its spectrum
a boundary integral over Gauss points on the curve; the objective gradient
with respect to the spline control points is an adjoint of that image,
descended with a golden-section line search. The library keeps the
triangle-quadrature mesh image, with its provenance-chain gradient, beside
it.
"""
from .mesh import (
    MeshError,
    ProvenancedMesh,
    SelfIntersectionError,
    TriangleQuadrature,
    TriangleTensor,
    assemble_tensor,
    gauss_points,
    polygon_area,
    refine_mesh,
    signed_area,
    triangulate_region,
)
from .objective import (ResistModel, objective_gradient, objective_value, print_and_epe,
                        rasterize_target, sigmoid, sigmoid_derivative)
from .optics import (
    AmplitudeField,
    ImageGrid,
    OpticalConfig,
    bessel_j,
    forward_amplitude,
    psf,
)
from .optimizer import (
    OptimizationState,
    OptimizerConfig,
    golden_section,
    init_controls_from_target,
    optimize,
    step,
)
from .gradient import amplitude_gradient, area_gradient, sensitivity
from .pipeline import ImagingProblem, MaskEvaluation, evaluate, evaluate_frozen, frozen_gradient_of, gradient_of
from .spline import (PeriodicSplineRegion, build_collocation, evaluate_curve, periodic_basis, periodic_basis_slope,
                     sample_boundary)

__version__ = "0.1.0"
