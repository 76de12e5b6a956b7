"""Desk-scale end-to-end runs on the non-square example patterns."""
import json

import numpy as np

from splinemask import ImageGrid, OpticalConfig, ResistModel, TriangleQuadrature, rasterize_target
from splinemask.cli import main
from splinemask.optimizer import OptimizerConfig, init_controls_from_target, optimize
from splinemask.pipeline import ImagingProblem, print_report

L_SHAPE = [[-150.0, -150.0], [150.0, -150.0], [150.0, 0.0],
           [0.0, 0.0], [0.0, 150.0], [-150.0, 150.0]]


def test_l_shape_optimization_reduces_epe(tmp_path):
    doc = {
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 25.0, "origin_nm": [-237.5, -237.5]},
        "target_polygons_nm": [L_SHAPE],
        "regions": [{"num_samples": 32, "init_from_target": 0, "num_controls": 16}],
        "optimizer": {"max_iters": 6, "gs_tol": 1e-4},
    }
    config = tmp_path / "lshape.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--quiet", "optimize", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["J"] < summary["initial"]["J"]
    assert summary["final"]["epe_count"] <= summary["initial"]["epe_count"]
    rows = (out / "convergence.csv").read_text().strip().splitlines()[1:]
    js = [float(r.split(",")[1]) for r in rows]
    assert all(b <= a for a, b in zip(js, js[1:]))


def test_two_rectangles_optimization():
    cfg = OpticalConfig()
    rect_left = [[-140.0, -100.0], [-20.0, -100.0], [-20.0, 100.0], [-140.0, 100.0]]
    rect_right = [[20.0, -100.0], [140.0, -100.0], [140.0, 100.0], [20.0, 100.0]]
    regions = init_controls_from_target([rect_left, rect_right], 10, 20)
    regions = [r.with_controls(cfg.normalize_mask(r.controls)) for r in regions]
    grid = ImageGrid(24, 18, 20.0, (-230.0, -170.0)).scaled(cfg.scale_per_nm)
    target = rasterize_target(
        [cfg.normalize_image(np.asarray(p)) for p in (rect_left, rect_right)], grid)
    problem = ImagingProblem(grid, target, ResistModel(), TriangleQuadrature.degree3(),
                             refine_max_area=0.02)
    result = optimize(regions, problem, OptimizerConfig(max_iters=6))
    assert result.state.iteration == 6
    assert result.final.objective < result.initial.objective
    assert print_report(problem, result.final).epe_count \
        < print_report(problem, result.initial).epe_count
    assert len(result.final.systems) == 2
    for system in result.final.systems:
        assert (system.mesh.areas() > 0).all()
