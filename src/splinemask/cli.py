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
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .mesh import TriangleQuadrature
from .objective import ResistModel, check_target_polygon, rasterize_target
from .optics import ImageGrid, OpticalConfig
from .optimizer import OptimizerConfig, init_controls_from_target, optimize
from .pipeline import (
    ImagingProblem,
    evaluate,
    finite_difference_gradient,
    gradient_of,
    print_report,
)
from .spline import PeriodicSplineRegion, evaluate_curve

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


def _region(raw: dict, where: str, targets: list, magnification: float) -> PeriodicSplineRegion:
    """One region in mask-plane nm, from explicit controls or placed on its target."""
    raw = _object(raw, where, REGION_KEYS)
    if "num_samples" not in raw:
        raise ConfigError(f"{where}.num_samples", "missing required field")
    source = raw.get("init_from_target")
    if ("controls_nm" in raw) == (source is not None):
        raise ConfigError(where, "needs exactly one of controls_nm and init_from_target")
    shape = {key: raw[key] for key in ("num_samples", "degree") if key in raw}
    keys = {"num_samples": "num_samples", "degree": "degree"}
    if source is None:
        if "num_controls" in raw:
            raise ConfigError(f"{where}.num_controls", "only allowed with init_from_target")
        keys["controls_nm"] = "controls"
        return _build(where, keys, lambda: PeriodicSplineRegion(raw["controls_nm"], **shape))
    if not 0 <= source < len(targets):
        raise ConfigError(f"{where}.init_from_target", "no such target polygon")
    if "num_controls" not in raw:
        raise ConfigError(f"{where}.num_controls", "required with init_from_target")
    keys["num_controls"] = "controls"
    return _build(where, keys, lambda: init_controls_from_target(
        [targets[source]], raw["num_controls"], magnification=magnification, **shape)[0])


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

    optical = _scalars(document, "optical", OpticalConfig, OPTICAL_KEYS)
    resist = _scalars(document, "resist", ResistModel, RESIST_KEYS)
    optimizer = _scalars(document, "optimizer", OptimizerConfig, OPTIMIZER_KEYS)

    targets = document.get("target_polygons_nm", [])
    if not isinstance(targets, list):
        raise ConfigError("target_polygons_nm", "must be a list of polygons")
    for i, poly in enumerate(targets):
        where = f"target_polygons_nm[{i}]"
        _points(poly, where)
        # the polygon rasterize_target will check, normalized as build_setup does
        _build(where, {}, lambda: check_target_polygon(optical.normalize_image(poly)))

    given = _object(document.get("grid", {}), "grid", GRID_KEYS)
    if "pixel_nm" not in given:
        raise ConfigError("grid.pixel_nm", "missing required field")
    grid = _build("grid", GRID_KEYS, lambda: ImageGrid.for_polygons(targets, **_args(given, GRID_KEYS)))

    raw_regions = document.get("regions", [])
    if not isinstance(raw_regions, list):
        raise ConfigError("regions", "must be a list")
    regions = [_region(raw, f"regions[{i}]", targets, optical.magnification)
               for i, raw in enumerate(raw_regions)]

    return RunConfig(optical=optical, resist=resist, grid=grid,
                     target_polygons_nm=targets, regions=regions, optimizer=optimizer)


def load_config(path: str | Path) -> RunConfig:
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    return parse_config(document)


# -- assembly of domain objects ------------------------------------------------

def build_setup(cfg: RunConfig):
    """The normalized imaging problem and initial regions of a parsed run.

    Returns (optical, problem, regions, optimizer config, nm grid).
    """
    optical = cfg.optical
    grid = cfg.grid.scaled(optical.scale_per_nm)
    target_polys = [optical.normalize_image(p) for p in cfg.target_polygons_nm]
    problem = ImagingProblem(
        grid=grid,
        target=rasterize_target(target_polys, grid),
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
    lines.extend(" ".join(str(v) for v in row) for row in rows)
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
    """Closed path per region sampled densely along the spline, in mask-plane nm."""
    paths = []
    all_pts = []
    for region in regions:
        nm_region = region.with_controls(optical.denormalize_mask(region.controls))
        t = np.arange(SVG_SAMPLES_PER_REGION) / SVG_SAMPLES_PER_REGION
        pts = evaluate_curve(nm_region, t)
        all_pts.append(pts)
        coords = " ".join(f"{x:.3f},{-y:.3f}" for x, y in pts)  # SVG y runs downward
        paths.append(f'  <polygon points="{coords}" fill="none" stroke="black" stroke-width="1"/>')
    if all_pts:
        stacked = np.concatenate(all_pts)
        lo = stacked.min(axis=0) - 10
        hi = stacked.max(axis=0) + 10
        viewbox = f"{lo[0]:.1f} {-hi[1]:.1f} {hi[0] - lo[0]:.1f} {hi[1] - lo[1]:.1f}"
    else:
        viewbox = "0 0 1 1"
    body = "\n".join(paths)
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n{body}\n</svg>\n'
    )


def _write_field_set(out_dir: Path, prefix: str, problem, evaluation) -> dict:
    report = print_report(problem, evaluation)
    intensity_vals = evaluation.intensity
    scale = float(intensity_vals.max()) if intensity_vals.max() > 0 else 1.0
    write_pgm(out_dir / f"intensity{prefix}.pgm", intensity_vals, scale)
    write_pgm(out_dir / f"print{prefix}.pgm", report.printed.astype(float), 1.0)
    write_pgm(out_dir / f"epe{prefix}.pgm", report.epe.astype(float), 1.0)
    return {"J": evaluation.objective, "epe_count": report.epe_count, "intensity_scale": scale}


# -- commands ------------------------------------------------------------------

def cmd_simulate(config_path: str, out_dir: str) -> int:
    cfg = load_config(config_path)
    optical, problem, regions, _, _ = build_setup(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    evaluation = evaluate(problem, regions)
    summary = _write_field_set(out, "", problem, evaluation)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    logger.info("simulate: J=%.6g epe=%d", summary["J"], summary["epe_count"])
    return 0


def cmd_gradcheck(config_path: str) -> int:
    """Analytic vs frozen-topology finite-difference gradient report.

    Returns 0 iff the max mixed error is below GRADCHECK_TOLERANCE.
    """
    cfg = load_config(config_path)
    _, problem, regions, _, _ = build_setup(cfg)
    if not regions:
        raise ConfigError("regions", "gradcheck needs at least one region")
    evaluation = evaluate(problem, regions)
    analytic = gradient_of(problem, evaluation)
    numeric = finite_difference_gradient(problem, evaluation)

    max_err = 0.0
    print(f"{'region':>6} {'control':>7} {'coord':>5} {'analytic':>24} {'fd':>24} {'mixed_err':>12}")
    for r, (ga, gf) in enumerate(zip(analytic, numeric)):
        for k in range(ga.shape[0]):
            for c, name in enumerate("xy"):
                err = abs(ga[k, c] - gf[k, c]) / max(1.0, abs(gf[k, c]))
                max_err = max(max_err, err)
                print(f"{r:>6} {k:>7} {name:>5} {ga[k, c]:>24.15e} {gf[k, c]:>24.15e} {err:>12.3e}")
    if len(regions) > 1:
        # a control never moves another region's mesh, so cross terms vanish identically
        print("cross-region amplitude-derivative components: 0 (exact by construction)")
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

    grad = sub.add_parser("gradcheck", help="verify the analytic gradient against finite differences")
    grad.add_argument("--config", required=True)

    opt = sub.add_parser("optimize", help="run the descent loop and write all artifacts")
    opt.add_argument("--config", required=True)
    opt.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(message)s")
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config)
        if args.command == "optimize":
            return cmd_optimize(args.config, args.out)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: meshing, I/O, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
