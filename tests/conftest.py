import numpy as np
import pytest

from splinemask import (
    ImageGrid,
    OpticalConfig,
    PeriodicSplineRegion,
    ResistModel,
    TriangleQuadrature,
    rasterize_target,
)
from splinemask.geometry import polygon_perimeter_points
from splinemask.pipeline import ImagingProblem

SQUARE_NM = np.array([[-100.0, -100.0], [100.0, -100.0], [100.0, 100.0], [-100.0, 100.0]])


def desk_square_problem(nx: int = 20, ny: int = 20, pixel_nm: float = 20.0,
                        refine_max_area: float = 0.02, origin_nm: tuple[float, float] = (-190.0, -190.0)):
    """Normalized imaging problem for the 200 nm square target on a 400 nm field."""
    cfg = OpticalConfig()
    grid = ImageGrid(nx, ny, pixel_nm, origin_nm).scaled(cfg.scale_per_nm)
    target = rasterize_target([cfg.normalize_image(SQUARE_NM)], grid)
    return cfg, ImagingProblem(
        grid=grid,
        target=target,
        model=ResistModel(),
        quad=TriangleQuadrature.degree3(),
        refine_max_area=refine_max_area,
    )


def square_region(num_controls: int = 12, num_samples: int = 24,
                  cfg: OpticalConfig | None = None) -> PeriodicSplineRegion:
    """Region with controls on the square target boundary, in normalized units."""
    cfg = cfg or OpticalConfig()
    controls = cfg.normalize_mask(polygon_perimeter_points(SQUARE_NM, num_controls))
    return PeriodicSplineRegion(controls, num_samples)


@pytest.fixture(scope="session")
def desk_square():
    cfg, problem = desk_square_problem()
    return cfg, problem, square_region(cfg=cfg)
