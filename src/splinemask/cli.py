"""Command-line front end: simulate, gradcheck and optimize runs from a JSON config.

All physical inputs carry nm units in their field names; the CLI owns the
normalization boundary and every file format (PGM images, CSV trace, JSON
geometry, SVG boundary preview). Exit codes: 0 success, 1 runtime failure,
2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import loops_overlap
from .mesh import MAX_PROVENANCE_SIZE, TriangleQuadrature, check_loop
from .objective import ResistModel, check_target_polygon, rasterize_checked
from .optics import MAX_GRID_SIDE, MAX_REACH, ImageGrid, OpticalConfig, grid_reach
from .optimizer import OptimizerConfig, init_controls_from_target, optimize
from .pipeline import (
    ImagingProblem,
    evaluate,
    finite_difference_gradient,
    gradient_of,
    print_report,
)
from .spline import SPAN_POINTS, PeriodicSplineRegion, build_collocation, evaluate_curve

logger = logging.getLogger(__name__)

PGM_MAXVAL = 65535
SVG_SAMPLES_PER_REGION = 512  # curve points per region in the boundary preview
GRADCHECK_TOLERANCE = 1e-4  # gradcheck passes when its max mixed error is below this


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    """A validated run: the nm-side domain objects the JSON document describes."""

    optical: OpticalConfig
    resist: ResistModel
    grid: ImageGrid  # image plane, nm
    target_polygons_nm: list
    regions: list[PeriodicSplineRegion]  # mask plane, nm
    optimizer: OptimizerConfig


# JSON key -> constructor argument of the domain class that owns the value.
OPTICAL_KEYS = {"lambda0_nm": "wavelength_nm", "na": "numerical_aperture", "magnification": "magnification"}
RESIST_KEYS = {"a": "steepness", "tr": "threshold"}
OPTIMIZER_KEYS = {f.name: f.name for f in fields(OptimizerConfig)}
REGION_KEYS = {"num_samples", "degree", "controls_nm", "init_from_target", "num_controls"}
GRID_KEYS = {"pixel_nm": "pitch", "nx": "nx", "ny": "ny", "origin_nm": "origin", "margin": "margin"}
INTEGER_KEYS = {"max_iters", "nx", "ny", "num_samples", "degree", "init_from_target", "num_controls"}


def _args(section: dict, keys: dict) -> dict:
    return {keys[key]: value for key, value in section.items()}


def _build(where: str, keys: dict, make):
    """Call a domain constructor; its ValueError becomes a ConfigError on the JSON key.

    The domain classes start each ValueError message with the name of the
    argument at fault, which `keys` maps back to its JSON key.
    """
    try:
        return make()
    except ValueError as exc:
        arg, _, rest = str(exc).partition(" ")
        key = next((k for k, a in keys.items() if a == arg), None)
        if key is None:
            raise ConfigError(where, str(exc)) from None
        raise ConfigError(f"{where}.{key}", rest) from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _points(value, where: str) -> list:
    """A JSON list of [x, y] number pairs."""
    if not (isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in value)):
        raise ConfigError(where, "must be a list of [x, y] number pairs")
    return value


def _object(value, where: str, keys) -> dict:
    """A JSON object with only the given keys, null members dropped, members type-checked."""
    if not isinstance(value, dict):
        raise ConfigError(where, "must be an object")
    out = {}
    for key, item in value.items():
        path = f"{where}.{key}"
        if key not in keys:
            raise ConfigError(path, "unknown field")
        if item is None:
            continue
        if key == "origin_nm":
            _points([item], path)
        elif key == "controls_nm":
            _points(item, path)
        elif key in INTEGER_KEYS:
            if not (isinstance(item, int) and not isinstance(item, bool)):
                raise ConfigError(path, f"expected an integer, got {type(item).__name__}")
        elif not _is_number(item):
            raise ConfigError(path, f"expected a number, got {type(item).__name__}")
        out[key] = item
    return out


def _scalars(document: dict, name: str, cls, keys: dict):
    """The `cls` one scalar section builds; absent keys take `cls`'s own defaults."""
    given = _object(document.get(name, {}), name, keys)
    return _build(name, keys, lambda: cls(**_args(given, keys)))


def _region(raw: dict, where: str, targets: list, optical: OpticalConfig, loops: list) -> PeriodicSplineRegion:
    """One region in mask-plane nm, from explicit controls or placed on its target.

    Its sample loop must bound a region, as `evaluate` checks it: a loop that
    crosses itself or encloses no area is blamed on `controls_nm`, or on the
    region when it was placed on a target. The mask is binary, and the sum
    of region spectra is the spectrum of their union only when the regions
    are disjoint, so a loop that crosses, touches, encloses or lies inside
    the loop of an earlier region, one of the normalized sample `loops`
    (`geometry.loops_overlap`), is blamed the same way; its own loop is then
    added to them. Its work must stay within MAX_PROVENANCE_SIZE entries:
    the m x m of its samples' crossing test, which also bounds the m x m'
    pairs it tests against a loop of m' samples, and
    3 SPAN_POINTS n x n for n controls, which bounds the curve rule's two
    (SPAN_POINTS n, n) tables and, within a factor 16 / 3, the Gauss points
    and steps of the 4n bumped curves of its finite differences; both are
    checked before the region is built. Its m x n collocation matrix is then
    smaller than both. These bound the arrays whose size follows from the
    region alone.
    """
    raw = _object(raw, where, REGION_KEYS)
    if "num_samples" not in raw:
        raise ConfigError(f"{where}.num_samples", "missing required field")
    source = raw.get("init_from_target")
    if ("controls_nm" in raw) == (source is not None):
        raise ConfigError(where, "needs exactly one of controls_nm and init_from_target")
    m = raw["num_samples"]
    if m > math.isqrt(MAX_PROVENANCE_SIZE):
        raise ConfigError(f"{where}.num_samples", f"{m} samples squared is more than "
                          f"MAX_PROVENANCE_SIZE = {MAX_PROVENANCE_SIZE} provenance entries")
    count_key = "controls_nm" if source is None else "num_controls"
    count = len(raw["controls_nm"]) if source is None else raw.get("num_controls", 0)
    if count > 0 and 3 * SPAN_POINTS * count * count > MAX_PROVENANCE_SIZE:
        raise ConfigError(f"{where}.{count_key}", f"{count} controls squared times 3 SPAN_POINTS = "
                          f"{3 * SPAN_POINTS} is more than MAX_PROVENANCE_SIZE = {MAX_PROVENANCE_SIZE}, "
                          "which bounds its curve rule and its finite differences' bumped curves")
    shape = {key: raw[key] for key in ("num_samples", "degree") if key in raw}
    keys = {"num_samples": "num_samples", "degree": "degree"}
    if source is None:
        if "num_controls" in raw:
            raise ConfigError(f"{where}.num_controls", "only allowed with init_from_target")
        keys["controls_nm"] = "controls"
        region = _build(where, keys, lambda: PeriodicSplineRegion(raw["controls_nm"], **shape))
        blame = f"{where}.controls_nm"
    else:
        if not 0 <= source < len(targets):
            raise ConfigError(f"{where}.init_from_target", "no such target polygon")
        if "num_controls" not in raw:
            raise ConfigError(f"{where}.num_controls", "required with init_from_target")
        keys["num_controls"] = "controls"
        region = _build(where, keys, lambda: init_controls_from_target(
            [targets[source]], raw["num_controls"], magnification=optical.magnification, **shape)[0])
        blame = where
    loop = build_collocation(region) @ optical.normalize_mask(region.controls)
    _build(blame, {}, lambda: check_loop(loop))
    for i, other in enumerate(loops):
        if loops_overlap(loop, other):
            raise ConfigError(blame, f"its sample loop crosses, touches, encloses or lies inside that of regions[{i}]")
    loops.append(loop)
    return region


def _check_reach(grid: ImageGrid, origin_given: bool, regions: list, optical: OpticalConfig) -> None:
    """Each region must lie within MAX_REACH of every grid sample, the reach the pupil rule is sized for.

    A grid that spans too much is blamed on its pitch. A grid too far from a
    region is blamed on its origin, or on the region when the origin was
    fitted to the targets. Reaches too large for a float count as too far.
    """
    scaled = _build("grid", GRID_KEYS, lambda: grid.scaled(optical.scale_per_nm))
    with np.errstate(over="ignore", invalid="ignore"):
        if not grid_reach(scaled, scaled.center) <= MAX_REACH:
            raise ConfigError("grid.pixel_nm",
                              f"the grid reaches more than {MAX_REACH:g} wavelength / NA from its center")
        for i, region in enumerate(regions):
            if not grid_reach(scaled, optical.normalize_mask(region.controls)) <= MAX_REACH:
                raise ConfigError("grid.origin_nm" if origin_given else f"regions[{i}]",
                                  f"regions[{i}] lies more than {MAX_REACH:g} wavelength / NA from the grid")


def parse_config(document: dict) -> RunConfig:
    """Validate a JSON object into the domain objects it describes, naming any offending field.

    Each object is built once, from only the keys given, so every default and
    every range check has one home: that object's class.
    """
    if not isinstance(document, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    for key in document:
        if key not in known:
            raise ConfigError(key, "unknown field")
    document = {key: part for key, part in document.items() if part is not None}  # null is absent

    optical = _scalars(document, "optical", OpticalConfig, OPTICAL_KEYS)
    resist = _scalars(document, "resist", ResistModel, RESIST_KEYS)
    optimizer = _scalars(document, "optimizer", OptimizerConfig, OPTIMIZER_KEYS)

    targets = document.get("target_polygons_nm", [])
    if not isinstance(targets, list):
        raise ConfigError("target_polygons_nm", "must be a list of polygons")
    for i, poly in enumerate(targets):
        where = f"target_polygons_nm[{i}]"
        _points(poly, where)
        # the only check of the polygon build_setup rasterizes, normalized the same way
        _build(where, {}, lambda: check_target_polygon(optical.normalize_image(poly)))

    given = _object(document.get("grid", {}), "grid", GRID_KEYS)
    if "pixel_nm" not in given:
        raise ConfigError("grid.pixel_nm", "missing required field")
    if "margin" in given and {"nx", "ny", "origin_nm"} <= given.keys():
        raise ConfigError("grid.margin", "no effect when nx, ny and origin_nm are all given")
    grid = _build("grid", GRID_KEYS, lambda: ImageGrid.for_polygons(targets, **_args(given, GRID_KEYS)))
    if max(grid.nx, grid.ny) > MAX_GRID_SIDE:
        # the larger side is at fault: as given, or as fitted to the targets at the given pitch
        side = "nx" if grid.nx >= grid.ny else "ny"
        raise ConfigError(f"grid.{side}" if side in given else "grid.pixel_nm",
                          f"a {grid.nx} x {grid.ny} grid has a side of more than "
                          f"MAX_GRID_SIDE = {MAX_GRID_SIDE} samples")

    raw_regions = document.get("regions", [])
    if not isinstance(raw_regions, list):
        raise ConfigError("regions", "must be a list")
    loops: list[np.ndarray] = []
    regions = [_region(raw, f"regions[{i}]", targets, optical, loops) for i, raw in enumerate(raw_regions)]
    _check_reach(grid, "origin_nm" in given, regions, optical)

    return RunConfig(optical=optical, resist=resist, grid=grid,
                     target_polygons_nm=targets, regions=regions, optimizer=optimizer)


def load_config(path: str | Path) -> RunConfig:
    """The run a JSON config file describes; any failure to read or decode the file is a ConfigError on `<file>`."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise ConfigError("<file>", f"cannot read the config file: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    return parse_config(document)


# -- assembly of domain objects ------------------------------------------------

def build_setup(cfg: RunConfig):
    """The normalized imaging problem and initial regions of a parsed run.

    Returns (optical, problem, regions, optimizer config, nm grid).
    """
    optical = cfg.optical
    grid = cfg.grid.scaled(optical.scale_per_nm)
    # parse_config has checked each of these normalized polygons
    target_polys = [optical.normalize_image(p) for p in cfg.target_polygons_nm]
    problem = ImagingProblem(
        grid=grid,
        target=rasterize_checked(target_polys, grid),
        model=cfg.resist,
        quad=TriangleQuadrature.degree3(),
        refine_max_area=cfg.optimizer.refine_area_tol,
    )
    regions = [r.with_controls(optical.normalize_mask(r.controls)) for r in cfg.regions]
    return optical, problem, regions, cfg.optimizer, cfg.grid


# -- output writers ------------------------------------------------------------

def write_pgm(path: Path, values: np.ndarray, scale_max: float) -> None:
    """ASCII P2 image, top row = max y; header comment records the value of 65535.

    `values` is indexed [ix, iy]; physical value = pixel / 65535 * scale_max.
    """
    values = np.asarray(values, dtype=float)
    pixels = np.clip(np.rint(values / scale_max * PGM_MAXVAL), 0, PGM_MAXVAL).astype(int)
    rows = pixels.T[::-1]  # rows top-to-bottom = y descending, columns = x ascending
    lines = ["P2", f"# maxvalue {scale_max:.17g}", f"{values.shape[0]} {values.shape[1]}", str(PGM_MAXVAL)]
    lines.extend(" ".join(map(str, row)) for row in rows.tolist())  # Python ints format faster than numpy's
    path.write_text("\n".join(lines) + "\n")


def write_convergence_csv(path: Path, trace) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iter", "J", "alpha"])
        for entry in trace:
            writer.writerow([entry.iteration, f"{entry.objective:.17g}", f"{entry.alpha:.17g}"])


def write_mask_json(path: Path, regions: list[PeriodicSplineRegion],
                    optical: OpticalConfig) -> None:
    """Control points per region, denormalized to mask-plane nm."""
    out = []
    for region in regions:
        controls = optical.denormalize_mask(region.controls)
        out.append({
            "degree": region.degree,
            "num_samples": region.num_samples,
            "controls_nm": [[float(x), float(y)] for x, y in controls],
        })
    path.write_text(json.dumps({"regions": out}, indent=2) + "\n")


def write_boundary_svg(path: Path, regions: list[PeriodicSplineRegion], optical: OpticalConfig) -> None:
    """Closed path per region sampled densely along the spline, in mask-plane nm; one region at least."""
    paths = []
    all_pts = []
    for region in regions:
        nm_region = region.with_controls(optical.denormalize_mask(region.controls))
        t = np.arange(SVG_SAMPLES_PER_REGION) / SVG_SAMPLES_PER_REGION
        pts = evaluate_curve(nm_region, t)
        all_pts.append(pts)
        # SVG y runs downward; Python floats format faster than numpy's, to the same digits
        coords = " ".join(f"{x:.3f},{-y:.3f}" for x, y in pts.tolist())
        paths.append(f'  <polygon points="{coords}" fill="none" stroke="black" stroke-width="1"/>')
    stacked = np.concatenate(all_pts)
    lo = stacked.min(axis=0) - 10
    hi = stacked.max(axis=0) + 10
    viewbox = f"{lo[0]:.1f} {-hi[1]:.1f} {hi[0] - lo[0]:.1f} {hi[1] - lo[1]:.1f}"
    body = "\n".join(paths)
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n{body}\n</svg>\n'
    )


def _write_field_set(out_dir: Path, prefix: str, problem, evaluation) -> dict:
    report = print_report(problem, evaluation)
    intensity_vals = evaluation.field.intensity_values
    scale = float(intensity_vals.max()) if intensity_vals.max() > 0 else 1.0
    write_pgm(out_dir / f"intensity{prefix}.pgm", intensity_vals, scale)
    write_pgm(out_dir / f"print{prefix}.pgm", report.printed.astype(float), 1.0)
    write_pgm(out_dir / f"epe{prefix}.pgm", report.epe.astype(float), 1.0)
    return {"J": evaluation.objective, "epe_count": report.epe_count, "intensity_scale": scale}


# -- commands ------------------------------------------------------------------

def cmd_simulate(config_path: str, out_dir: str) -> int:
    cfg = load_config(config_path)
    _, problem, regions, _, _ = build_setup(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    evaluation = evaluate(problem, regions)
    summary = _write_field_set(out, "", problem, evaluation)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    logger.info("simulate: J=%.6g epe=%d", summary["J"], summary["epe_count"])
    return 0


def cmd_gradcheck(config_path: str) -> int:
    """Analytic vs central finite-difference gradient report, both of the curve image.

    Returns 0 iff the max mixed error is below GRADCHECK_TOLERANCE.
    """
    cfg = load_config(config_path)
    _, problem, regions, _, _ = build_setup(cfg)
    if not regions:
        raise ConfigError("regions", "gradcheck needs at least one region")
    evaluation = evaluate(problem, regions)
    analytic = gradient_of(problem, evaluation)
    numeric = finite_difference_gradient(problem, evaluation)

    errors = []
    print(f"{'region':>6} {'control':>7} {'coord':>5} {'analytic':>24} {'fd':>24} {'mixed_err':>12}")
    for r, (ga, gf) in enumerate(zip(analytic, numeric)):
        for k in range(ga.shape[0]):
            for c, name in enumerate("xy"):
                err = abs(ga[k, c] - gf[k, c]) / max(1.0, abs(gf[k, c]))
                errors.append(err)
                print(f"{r:>6} {k:>7} {name:>5} {ga[k, c]:>24.15e} {gf[k, c]:>24.15e} {err:>12.3e}")
    if len(regions) > 1:
        # a control never moves another region's curve, so cross terms vanish identically
        print("cross-region amplitude-derivative components: 0 (exact by construction)")
    max_err = float(np.max(errors))  # a NaN error stays NaN here, and fails
    passed = max_err < GRADCHECK_TOLERANCE
    print(f"max mixed error {max_err:.3e} -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_optimize(config_path: str, out_dir: str) -> int:
    cfg = load_config(config_path)
    optical, problem, regions, opt, _ = build_setup(cfg)
    if not regions:
        raise ConfigError("regions", "optimize needs at least one region")
    if not cfg.target_polygons_nm:
        raise ConfigError("target_polygons_nm", "optimize needs a target")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    result = optimize(regions, problem, opt)

    write_convergence_csv(out / "convergence.csv", result.trace)
    initial_regions = [s.region for s in result.initial.systems]
    final_regions = [s.region for s in result.final.systems]
    write_mask_json(out / "mask_initial.json", initial_regions, optical)
    write_mask_json(out / "mask_final.json", final_regions, optical)
    write_boundary_svg(out / "boundary_final.svg", final_regions, optical)
    summary_initial = _write_field_set(out, "_initial", problem, result.initial)
    summary_final = _write_field_set(out, "_final", problem, result.final)
    summary = {
        "initial": summary_initial,
        "final": summary_final,
        "iterations": result.state.iteration,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    logger.info("optimize: J %.6g -> %.6g in %d steps",
                summary_initial["J"], summary_final["J"], result.state.iteration)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splinemask",
                                     description="Curvilinear mask optimization with periodic B-spline boundaries")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="forward image, print and EPE for a fixed mask")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(run=lambda args: cmd_simulate(args.config, args.out))

    grad = sub.add_parser("gradcheck", help="verify the analytic gradient against finite differences")
    grad.add_argument("--config", required=True)
    grad.set_defaults(run=lambda args: cmd_gradcheck(args.config))

    opt = sub.add_parser("optimize", help="run the descent loop and write all artifacts")
    opt.add_argument("--config", required=True)
    opt.add_argument("--out", required=True)
    opt.set_defaults(run=lambda args: cmd_optimize(args.config, args.out))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    # basicConfig only acts once per process, so the level is set on every call
    logging.basicConfig(format="%(message)s")
    logging.getLogger().setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: meshing, I/O, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
