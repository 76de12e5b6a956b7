"""Config fuzz: every bad value, point or key is a config error naming its JSON path.

Each case must make `parse_config` raise a ConfigError whose field_name is the
path, and make `main(["simulate", ...])` exit 2 before any output is written.
"""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemask import cli
from splinemask.cli import ConfigError, main, parse_config
from splinemask.geometry import polygon_perimeter_points
from splinemask.mesh import MAX_PROVENANCE_SIZE, MeshError, refine_mesh, triangulate_region
from splinemask.optics import MAX_GRID_SIDE
from splinemask.spline import SPAN_POINTS, sample_boundary

from test_cli import SQUARE, desk_config

NAN, INF = math.nan, math.inf

SCALAR_KEYS = {
    "optical": ("lambda0_nm", "na", "magnification"),
    "resist": ("a", "tr"),
    "grid": ("pixel_nm", "nx", "ny", "margin"),
    "optimizer": ("max_iters", "eps", "eps_alpha", "gs_tol", "refine_area_tol"),
}
ZERO_OK = {"grid.margin"}
NEGATIVE_OK = {"optical.magnification"}

# initial regions that cannot mesh: a boundary that crosses itself, one too small for any triangle
BOWTIE = [[-100.0, -100.0], [100.0, 100.0], [100.0, -100.0], [-100.0, 100.0], [0.0, -150.0], [-150.0, 0.0]]
TINY_SQUARE = (polygon_perimeter_points(np.array(SQUARE), 12) * 5e-12).tolist()  # 1e-9 nm side
# a target that crosses itself with a nonzero signed area, so only the crossing test rejects it
PENTAGRAM = [[0.0, 100.0], [-58.8, -80.9], [95.1, 30.9], [-95.1, 30.9], [58.8, -80.9]]
# a simple target of finite corners whose shoelace area overflows to infinity
HUGE_SQUARE = [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]
# the fewest samples whose m x m provenance passes the bound
TOO_MANY_SAMPLES = math.isqrt(MAX_PROVENANCE_SIZE) + 1
# the fewest controls whose 3 SPAN_POINTS n x n, the bound of the curve rule and the
# twin's bumped curves, passes it
TOO_MANY_CONTROLS = math.isqrt(MAX_PROVENANCE_SIZE // (3 * SPAN_POINTS)) + 1
# a grid side far past the bound
LONG_SIDE = 2**20
# the explicit config's controls; scaled by 1e150 or more, they are finite but too large for
# the products of the loop check, which must then name a field and not warn of an overflow
CONTROLS = polygon_perimeter_points(np.array(SQUARE), 12)


def explicit_config():
    """The desk config with its region given as explicit control points."""
    return desk_config(regions=[{"num_samples": 24, "controls_nm": CONTROLS.tolist()}])


def replaced(doc, path, value):
    """A copy of doc with the member at a path like 'regions[0].degree' set to value."""
    doc = copy.deepcopy(doc)
    *parents, last = [int(t) if t.isdigit() else t for t in re.findall(r"[^.\[\]]+", path)]
    node = doc
    for token in parents:
        node = node[token]
    node[last] = value
    return doc


def assert_config_error(doc, field):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.field_name == field
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["--quiet", "simulate", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"config error: {field}:" in stderr.getvalue()


def test_scalar_keys_cover_every_section_key():
    sections = {"optical": cli.OPTICAL_KEYS, "resist": cli.RESIST_KEYS,
                "grid": cli.GRID_KEYS, "optimizer": cli.OPTIMIZER_KEYS}
    expected = {name: set(keys) - {"origin_nm"} for name, keys in sections.items()}  # a point, not a scalar
    assert {name: set(keys) for name, keys in SCALAR_KEYS.items()} == expected


@st.composite
def bad_scalars(draw):
    section = draw(st.sampled_from(sorted(SCALAR_KEYS)))
    key = draw(st.sampled_from(SCALAR_KEYS[section]))
    path = f"{section}.{key}"
    options = [st.sampled_from([NAN, INF, -INF, "wide", True, False])]
    if path not in ZERO_OK:
        options.append(st.sampled_from([0, 0.0]))
    if path not in NEGATIVE_OK:
        options.append(st.integers(max_value=-1) | st.floats(max_value=-1e-9, allow_infinity=False))
    return path, draw(st.one_of(options))


@settings(max_examples=150, deadline=None)
@given(bad_scalars())
def test_bad_scalar_is_config_error(case):
    path, value = case
    assert_config_error(replaced(explicit_config(), path, value), path)


POINT_MEMBERS = {
    "grid.origin_nm[{}]": "grid.origin_nm",
    "regions[0].controls_nm[3][{}]": "regions[0].controls_nm",
    "target_polygons_nm[0][1][{}]": "target_polygons_nm[0]",
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(POINT_MEMBERS)), st.integers(0, 1),
       st.sampled_from([NAN, INF, -INF, "x", True, None, [1.0]]))
def test_bad_point_entry_is_config_error(member, coord, value):
    assert_config_error(replaced(explicit_config(), member.format(coord), value),
                        POINT_MEMBERS[member])


@pytest.mark.parametrize("section", [*SCALAR_KEYS, "regions[0]"])
def test_unknown_nested_key_is_config_error(section):
    assert_config_error(replaced(explicit_config(), f"{section}.bogus", 1.0), f"{section}.bogus")


@pytest.mark.parametrize("path, value, field", [
    ("resist.a", NAN, "resist.a"),
    ("grid.pixel_nm", NAN, "grid.pixel_nm"),
    ("grid.origin_nm", [NAN, -190.0], "grid.origin_nm"),
    ("resist.tr", INF, "resist.tr"),
    ("regions[0].num_samples", 2, "regions[0].num_samples"),
    ("regions[0].degree", 0, "regions[0].degree"),
    ("optimizer.max_iters", 0, "optimizer.max_iters"),
    ("optical.lambda0_nm", INF, "optical.lambda0_nm"),
    ("regions[0].controls_nm[0][0]", NAN, "regions[0].controls_nm"),
    ("regions[0].controls_nm[0][1]", "wide", "regions[0].controls_nm"),
    ("target_polygons_nm[0][2][0]", "wide", "target_polygons_nm[0]"),
    ("target_polygons_nm[0]", [[0, 0], [1, 1], [2, 2]], "target_polygons_nm[0]"),
    ("regions[0].num_controls", -5, "regions[0].num_controls"),  # no effect next to controls_nm
    ("regions[0].controls_nm", BOWTIE, "regions[0].controls_nm"),
    ("regions[0].controls_nm", TINY_SQUARE, "regions[0].controls_nm"),
    ("optimizer.alpha_max", 1.0, "optimizer.alpha_max"),  # the bracket is derived, not set
    ("grid.margin", 5.0, "grid.margin"),  # no effect next to nx, ny and origin_nm
    ("grid", {"pixel_nm": 20.0, "margin": NAN}, "grid.margin"),  # in use: its own range check
    ("grid", {"nx": 20, "ny": 20, "origin_nm": [-190.0, -190.0]}, "grid.pixel_nm"),
    ("target_polygons_nm[0]", BOWTIE, "target_polygons_nm[0]"),
    ("target_polygons_nm[0]", PENTAGRAM, "target_polygons_nm[0]"),
    ("optical", 5.0, "optical"),
    ("regions[0]", "square", "regions[0]"),
    ("target_polygons_nm", {}, "target_polygons_nm"),
    ("regions", "square", "regions"),
    ("regions[0]", None, "regions[0]"),  # null leaves out a part, not an entry of a list
    ("target_polygons_nm[0]", None, "target_polygons_nm[0]"),
    ("target_polygons_nm[0]", HUGE_SQUARE, "target_polygons_nm[0]"),
    ("grid.pixel_nm", 1e308, "grid.pixel_nm"),  # sample coordinates overflow
    ("grid.origin_nm", [1e308, 0.0], "grid.origin_nm"),  # squared distances overflow
    ("regions[0].num_samples", TOO_MANY_SAMPLES, "regions[0].num_samples"),
    ("optimizer.refine_area_tol", 0.0, "optimizer.refine_area_tol"),  # its range check; a tiny one is valid
    ("grid", {"pixel_nm": 0.05}, "grid.pixel_nm"),  # fitted to 5601 x 5601
    ("grid.nx", LONG_SIDE, "grid.nx"),
    ("grid.ny", LONG_SIDE, "grid.ny"),
    ("grid", {"pixel_nm": 20.0, "nx": LONG_SIDE}, "grid.nx"),  # ny fitted, nx at fault
    ("grid", {"pixel_nm": 1e-320}, "grid.pixel_nm"),  # the fitted sample count overflows
    ("regions[0].controls_nm", polygon_perimeter_points(np.array(SQUARE), TOO_MANY_CONTROLS).tolist(),
     "regions[0].controls_nm"),
    ("target_polygons_nm[0]", [], "target_polygons_nm[0]"),  # no loop to take an area of
    ("target_polygons_nm[0]", [[0, 0]], "target_polygons_nm[0]"),
    ("target_polygons_nm[0]", [[0, 0], [1, 1]], "target_polygons_nm[0]"),
    ("regions[0].controls_nm", (1e150 * CONTROLS).tolist(), "grid.origin_nm"),  # simple, far from the grid
    ("regions[0].controls_nm", (1e300 * CONTROLS).tolist(), "regions[0].controls_nm"),  # the area overflows
    ("target_polygons_nm[0]", (1e300 * np.array(SQUARE)).tolist(), "target_polygons_nm[0]"),
])
def test_reported_inputs_are_config_errors(path, value, field):
    assert_config_error(replaced(explicit_config(), path, value), field)


@pytest.mark.parametrize("grid, field", [
    ({"pixel_nm": 20.0}, "grid.origin_nm"),
    ({"pixel_nm": 20.0, "origin_nm": [0, 0]}, "grid.nx"),
])
def test_grid_without_targets_needs_its_size(grid, field):
    # with no target to fit the grid to, origin_nm, nx and ny must all be given
    doc = replaced(explicit_config(), "target_polygons_nm", [])
    assert_config_error(replaced(doc, "grid", grid), field)


@pytest.mark.parametrize("base, path, value, most", [
    # its crossing tests alone would take about 15 GB
    pytest.param(explicit_config, "regions[0].num_samples", 20000, 0.125, id="regions[0].num_samples-20000-0.125"),
    # 3 SPAN_POINTS n x n, the curve rule's and the twin's bumped curves' bound, would pass it
    pytest.param(explicit_config, "regions[0].controls_nm",
                 polygon_perimeter_points(np.array(SQUARE), TOO_MANY_CONTROLS).tolist(), 0.125,
                 id="regions[0].controls_nm-listed-0.125"),
    pytest.param(desk_config, "regions[0].num_controls", TOO_MANY_CONTROLS, 0.125,
                 id="regions[0].num_controls-placed-0.125"),
])
def test_region_work_is_bounded_before_it_is_allocated(base, path, value, most):
    # the traced peak, against the bound's 8 bytes per provenance entry
    doc = replaced(base(), path, value)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field_name == path
    assert peak < most * 8 * MAX_PROVENANCE_SIZE


def test_refine_area_tol_refuses_no_region_and_changes_no_output(tmp_path):
    # it sizes only the library mesh, which no command builds: a 10 um square,
    # whose mesh refined to the default 0.02 would hold more than
    # MAX_PROVENANCE_SIZE provenance entries, simulates all the same
    side = 5000.0
    doc = desk_config()
    doc["target_polygons_nm"] = [[[-side, -side], [side, -side], [side, side], [-side, side]]]
    _, problem, [region], _, _ = cli.build_setup(parse_config(doc))
    with pytest.raises(MeshError, match="MAX_PROVENANCE_SIZE"):
        refine_mesh(triangulate_region(sample_boundary(region)), problem.refine_max_area)
    outputs = []
    for tol in (0.02, 10.0):
        config = tmp_path / f"config_{tol}.json"
        config.write_text(json.dumps(replaced(doc, "optimizer.refine_area_tol", tol)))
        out = tmp_path / f"out_{tol}"
        assert main(["--quiet", "simulate", "--config", str(config), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert "summary.json" in outputs[0]


def traced_peak(doc) -> int:
    """The traced memory peak, in bytes, of parse_config on doc until it raises its ConfigError."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            parse_config(doc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collocation_size_is_bounded_before_it_is_allocated():
    # one control past the bound is refused before its curve rule or the
    # twin's bumped curves exist, placed on a target or listed; at the
    # bound the desk region parses
    doc = desk_config()
    placed = replaced(doc, "regions[0].num_controls", TOO_MANY_CONTROLS)
    listed = replaced(explicit_config(), "regions[0].controls_nm",
                      polygon_perimeter_points(np.array(SQUARE), TOO_MANY_CONTROLS).tolist())
    for case, field in ((placed, "regions[0].num_controls"), (listed, "regions[0].controls_nm")):
        assert_config_error(case, field)
        assert traced_peak(case) < 2**20
    parse_config(replaced(doc, "regions[0].num_controls", TOO_MANY_CONTROLS - 1))


def test_grid_size_is_bounded_before_numerics():
    # MAX_GRID_SIDE samples a side parse, one row more does not, and a fitted
    # grid or a thin one is refused before any (nx, ny) array or node table exists
    doc = explicit_config()
    side = MAX_GRID_SIDE
    square = replaced(doc, "grid", {"nx": side, "ny": side, "pixel_nm": 1.0,
                                    "origin_nm": [-side / 2, -side / 2]})
    grid = parse_config(square).grid
    assert grid.nx == grid.ny == side
    assert_config_error(replaced(square, "grid.ny", side + 1), "grid.ny")
    assert traced_peak(replaced(doc, "grid", {"pixel_nm": 0.05})) < 2**16  # 5601 x 5601
    # 2**20 samples in all, but 524288 along x: for the desk region this
    # grid's node table wex would take 440 GiB
    thin = replaced(desk_config(), "grid", {"nx": 524288, "ny": 2, "pixel_nm": 0.075,
                                            "origin_nm": [-19660.76, 0]})
    assert_config_error(thin, "grid.nx")
    assert traced_peak(thin) < 2**16


def test_region_from_target_reports_its_keys():
    doc = desk_config()
    assert_config_error(replaced(doc, "regions[0].num_samples", 2), "regions[0].num_samples")
    assert_config_error(replaced(doc, "regions[0].degree", 0), "regions[0].degree")
    assert_config_error(replaced(doc, "regions[0].num_controls", 4), "regions[0].num_controls")
    assert_config_error(replaced(doc, "regions[0].num_controls", -1), "regions[0].num_controls")
    assert_config_error(replaced(doc, "regions[0].init_from_target", 1), "regions[0].init_from_target")
    assert_config_error(replaced(doc, "regions[0]", {"num_samples": 24, "init_from_target": 0}),
                        "regions[0].num_controls")
    assert_config_error(replaced(doc, "regions[0]", {"init_from_target": 0, "num_controls": 12}),
                        "regions[0].num_samples")
    assert_config_error(replaced(doc, "regions[0].num_samples", TOO_MANY_SAMPLES), "regions[0].num_samples")
    # a simple target too small to mesh is blamed on the region placed on it
    assert_config_error(replaced(doc, "target_polygons_nm[0]", TINY_SQUARE), "regions[0]")
    # a simple target so large that the region placed on it lies too far from the grid
    assert_config_error(replaced(doc, "target_polygons_nm[0]", (1e150 * np.array(SQUARE)).tolist()),
                        "grid.origin_nm")


def test_regions_that_meet_are_config_errors():
    # the mask is binary, and the region spectra add up to the spectrum of
    # their union only when the regions are disjoint: a later region whose
    # sample loop meets an earlier one's is blamed, on its controls_nm, or
    # on the region itself when it was placed on a target
    placed = {"num_samples": 24, "init_from_target": 0, "num_controls": 12}

    def explicit(controls):
        return {"num_samples": 24, "controls_nm": controls.tolist()}
    coincident = desk_config(regions=[explicit(CONTROLS), placed])
    assert_config_error(coincident, "regions[1]")
    assert "regions[0]" in str(pytest.raises(ConfigError, parse_config, coincident).value)
    assert_config_error(desk_config(regions=[placed, explicit(CONTROLS + 100.0)]), "regions[1].controls_nm")
    inner = explicit(0.3 * CONTROLS)
    assert_config_error(desk_config(regions=[placed, inner]), "regions[1].controls_nm")
    assert_config_error(desk_config(regions=[inner, placed]), "regions[1]")
    # regions that stay apart, their bounding boxes too, parse
    assert len(parse_config(desk_config(regions=[explicit(0.3 * CONTROLS + 150.0), placed])).regions) == 2


def test_grid_reach_is_bounded_before_numerics():
    # the reach is in wavelength / NA, 193 / 0.93 nm here: a region 90 units
    # from the grid parses and one 110 units away does not, nor does a grid
    # whose corners lie 110 units from its center
    unit = 193.0 / 0.93
    doc = explicit_config()
    parse_config(replaced(doc, "grid.origin_nm", [90 * unit, -190.0]))
    assert_config_error(replaced(doc, "grid.origin_nm", [110 * unit, -190.0]), "grid.origin_nm")
    side = 110 * unit * 2 / (2**0.5 * 19)
    assert_config_error(replaced(doc, "grid.pixel_nm", side), "grid.pixel_nm")
    # with the origin fitted to the targets, the far region is at fault
    far = replaced(doc, "grid", {"pixel_nm": 20.0})
    controls = np.array(far["regions"][0]["controls_nm"]) + [110 * unit, 0.0]
    assert_config_error(replaced(far, "regions[0].controls_nm", controls.tolist()), "regions[0]")


def test_root_must_be_an_object():
    assert_config_error([desk_config()], "<root>")


def parsed(doc):
    """What parse_config makes of doc: its error message, or its config with arrays as lists."""
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        return str(exc)
    regions = [(r.degree, r.num_samples, r.controls.tolist()) for r in cfg.regions]
    return cfg.optical, cfg.resist, cfg.grid, cfg.target_polygons_nm, regions, cfg.optimizer


def test_null_member_or_part_counts_as_absent():
    # a null margin next to nx, ny and origin_nm is absent too, so it is no error
    doc = explicit_config()
    nulls = copy.deepcopy(doc)
    nulls.update(optical={"na": None}, resist={"a": None, "tr": 0.3}, optimizer={"eps": None})
    nulls["grid"]["margin"] = None
    nulls["regions"][0]["degree"] = None
    assert parsed(nulls) == parsed({**doc, "optical": {}, "resist": {"tr": 0.3}, "optimizer": {}})
    # every top-level part may be left out, and a null part is left out
    for part in ("optical", "resist", "optimizer", "grid", "target_polygons_nm", "regions"):
        absent = {key: value for key, value in doc.items() if key != part}
        assert parsed({**doc, part: None}) == parsed(absent), part
    assert parsed({**doc, "grid": None}) == "grid.pixel_nm: missing required field"
