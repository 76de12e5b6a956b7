"""Full-resolution square run: 100 x 100 pixels, 40 controls, 100 descent steps."""
import numpy as np

from splinemask import ImageGrid, OpticalConfig, ResistModel, TriangleQuadrature, rasterize_target
from splinemask.geometry import polygon_perimeter_points
from splinemask.optimizer import OptimizerConfig, optimize
from splinemask.pipeline import ImagingProblem, print_report
from splinemask.spline import PeriodicSplineRegion


def test_fullscale_square():
    # 100 x 100 pixels at 4 nm/pixel, 40 controls, 100 boundary samples
    cfg = OpticalConfig()
    square = np.array([[-100.0, -100.0], [100.0, -100.0], [100.0, 100.0], [-100.0, 100.0]])
    controls = cfg.normalize_mask(polygon_perimeter_points(square, 40))
    region = PeriodicSplineRegion(controls, 100)
    grid = ImageGrid(100, 100, 4.0, (-198.0, -198.0)).scaled(cfg.scale_per_nm)
    target = rasterize_target([cfg.normalize_image(square)], grid)
    problem = ImagingProblem(grid, target, ResistModel(), TriangleQuadrature.degree3(),
                             refine_max_area=0.01)
    result = optimize([region], problem, OptimizerConfig(max_iters=100))
    js = [entry.objective for entry in result.trace]
    assert all(b <= a for a, b in zip(js, js[1:]))
    assert js[-1] <= 0.5 * js[0]
    assert print_report(problem, result.final).epe_count \
        < print_report(problem, result.initial).epe_count
