"""The robustness family: the optimize runs a change to the descent reports.

    python tests/family.py [member ...]

runs the named members (all of them by default) through
`splinemask.cli.main(["--quiet", "optimize", ...])`, with the package
importable (installed, or `PYTHONPATH=src`), and prints one line per member:
its steps, its `evaluate` calls (the initial one included), the chain's final
over initial J and its final EPE, and the same two figures for the written
`mask_final.json` controls imaged as POLYGON_VERTICES-gons through the exact
polygon spectrum (`tests/polygon_spectrum.py`). Both ratios divide by the
chain's initial J, so they differ only by how the final mask is imaged. The
last column counts the pairs of final regions whose POLYGON_VERTICES-gons
meet (`geometry.loops_overlap`): the chain adds region spectra, so a mask
whose regions overlap images their shared area twice.

The members: the desk problem (the criterion-9 square) and four copies of it
moved whole, grid origin and target; an L-shape; the two-rectangle `gradcheck`
config of the benchmark run as `optimize`; four rectangles side by side; and
the full-scale square at 100 steps. The last bits of a run, and so its
trajectory, depend on the BLAS thread count and on the `tan` numpy
dispatches, so the figures are comparable only at one setting of both (the
README's determinism paragraph).
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from splinemask import cli, optimizer
from splinemask.geometry import loops_overlap
from splinemask.objective import objective_value, print_and_epe
from splinemask.optics import AmplitudeField, node_table
from splinemask.spline import PeriodicSplineRegion, evaluate_curve

from polygon_spectrum import polygon_spectrum

POLYGON_VERTICES = 1600


def rectangle(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


def placed(count: int, num_samples: int, num_controls: int) -> list[dict]:
    """Regions placed on the first `count` target polygons."""
    return [{"num_samples": num_samples, "init_from_target": i, "num_controls": num_controls}
            for i in range(count)]


def desk(dx: float = 0.0, dy: float = 0.0) -> dict:
    """The criterion-9 desk config, 30 steps, with grid origin and target moved by (dx, dy) nm."""
    return {
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 20.0, "origin_nm": [-190.0 + dx, -190.0 + dy]},
        "target_polygons_nm": [rectangle(-100.0 + dx, -100.0 + dy, 100.0 + dx, 100.0 + dy)],
        "regions": placed(1, 24, 12),
        "optimizer": {"max_iters": 30},
    }


L_SHAPE = [[-120.0, -120.0], [120.0, -120.0], [120.0, 0.0], [0.0, 0.0], [0.0, 120.0], [-120.0, 120.0]]
RECTANGLES = [rectangle(x0, -100.0, x0 + 120.0, 100.0) for x0 in (-300.0, -140.0, 20.0, 180.0)]

MEMBERS = {
    "desk": desk(),
    "desk_20_0": desk(20.0, 0.0),
    "desk_0_20": desk(0.0, 20.0),
    "desk_20_20": desk(20.0, 20.0),
    "desk_7_-3": desk(7.0, -3.0),
    "l_shape": {
        "grid": {"nx": 24, "ny": 24, "pixel_nm": 15.0, "origin_nm": [-172.5, -172.5]},
        "target_polygons_nm": [L_SHAPE],
        "regions": placed(1, 32, 16),
        "optimizer": {"max_iters": 30, "gs_tol": 1e-4},
    },
    "twin": {
        "grid": {"nx": 48, "ny": 36, "pixel_nm": 10.0, "origin_nm": [-235.0, -175.0]},
        "target_polygons_nm": RECTANGLES[1:3],
        "regions": placed(2, 32, 16),
        "optimizer": {"max_iters": 30},
    },
    "rectangles": {
        "grid": {"nx": 100, "ny": 100, "pixel_nm": 8.0, "origin_nm": [-396.0, -396.0]},
        "target_polygons_nm": RECTANGLES,
        "regions": placed(4, 32, 16),
        "optimizer": {"max_iters": 30},
    },
    "full": {
        "grid": {"nx": 100, "ny": 100, "pixel_nm": 4.0, "origin_nm": [-198.0, -198.0]},
        "target_polygons_nm": [rectangle(-100.0, -100.0, 100.0, 100.0)],
        "regions": placed(1, 100, 40),
        "optimizer": {"max_iters": 100},
    },
}

FIELDS = ("steps", "evaluations", "J_ratio", "EPE", "J_ratio_1600", "EPE_1600", "overlaps")


def polygon_scored(config: Path, mask: Path) -> tuple[float, int, int]:
    """J and EPE of the written mask's controls, each region imaged as its POLYGON_VERTICES-gon, and how many pairs of those meet."""
    optical, problem, _, _, _ = cli.build_setup(cli.load_config(config))
    grid = problem.grid
    u = np.zeros((grid.nx, grid.ny))
    loops = []
    for spec in json.loads(mask.read_text())["regions"]:
        controls = optical.normalize_mask(np.array(spec["controls_nm"]))
        region = PeriodicSplineRegion(controls, spec["num_samples"], spec["degree"])
        loop = evaluate_curve(region, np.arange(POLYGON_VERTICES) / POLYGON_VERTICES)
        nodes = node_table(grid, loop)
        u += nodes.synthesize(polygon_spectrum(loop - grid.center, nodes))
        loops.append(loop)
    intensity = AmplitudeField(u).intensity_values
    overlaps = sum(loops_overlap(loops[i], later) for i in range(len(loops)) for later in loops[i + 1:])
    return (objective_value(intensity, problem.target, problem.model, grid),
            print_and_epe(intensity, problem.target, problem.model).epe_count, overlaps)


def run_member(name: str, work: Path) -> dict:
    """One member's optimize run, scored by the chain and by its final mask's polygons."""
    config, out = work / f"{name}.json", work / name
    config.write_text(json.dumps(MEMBERS[name]))
    evaluate, calls = optimizer.evaluate, []

    def counted(problem, regions, near=None):
        calls.append(1)
        return evaluate(problem, regions, near)

    optimizer.evaluate = counted
    try:
        code = cli.main(["--quiet", "optimize", "--config", str(config), "--out", str(out)])
    finally:
        optimizer.evaluate = evaluate
    if code != 0:
        raise RuntimeError(f"{name}: optimize exited {code}")
    summary = json.loads((out / "summary.json").read_text())
    initial = summary["initial"]["J"]
    j_polygon, epe_polygon, overlaps = polygon_scored(config, out / "mask_final.json")
    return {"steps": summary["iterations"], "evaluations": len(calls),
            "J_ratio": summary["final"]["J"] / initial, "EPE": summary["final"]["epe_count"],
            "J_ratio_1600": j_polygon / initial, "EPE_1600": epe_polygon, "overlaps": overlaps}


def main(argv: list[str] | None = None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(MEMBERS)
    unknown = [name for name in names if name not in MEMBERS]
    if unknown:
        print(f"unknown member(s) {', '.join(unknown)}; members: {', '.join(MEMBERS)}", file=sys.stderr)
        return 2
    print(f"{'member':<12}" + "".join(f"{field:>14}" for field in FIELDS))
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            row = run_member(name, Path(work))
            print(f"{name:<12}{row['steps']:>14d}{row['evaluations']:>14d}{row['J_ratio']:>14.6f}"
                  f"{row['EPE']:>14d}{row['J_ratio_1600']:>14.6f}{row['EPE_1600']:>14d}{row['overlaps']:>14d}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
