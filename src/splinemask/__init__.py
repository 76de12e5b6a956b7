"""Curvilinear photomask optimization with periodic B-spline boundaries.

Mask regions are closed periodic B-spline loops; imaging is a coherent
triangle-quadrature convolution with the Airy kernel, evaluated as an
integral of each region's spectrum over the pupil disk; the objective
gradient with respect to the spline control points is assembled analytically
through the mesh provenance chain and the same pupil nodes, and descended
with a golden-section line search.
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
from .pipeline import ImagingProblem, MaskEvaluation, evaluate, evaluate_frozen, gradient_of
from .spline import PeriodicSplineRegion, build_collocation, evaluate_curve, periodic_basis, sample_boundary

__version__ = "0.1.0"
