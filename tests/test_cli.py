import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemask import OpticalConfig, OptimizerConfig, PeriodicSplineRegion, ResistModel, cli, objective
from splinemask.geometry import polygon_perimeter_points
from splinemask.cli import (
    ConfigError,
    build_setup,
    cmd_gradcheck,
    load_config,
    main,
    parse_config,
    write_pgm,
)

SQUARE = [[-100.0, -100.0], [100.0, -100.0], [100.0, 100.0], [-100.0, 100.0]]
RECT_LEFT = [[-140.0, -100.0], [-20.0, -100.0], [-20.0, 100.0], [-140.0, 100.0]]
RECT_RIGHT = [[20.0, -100.0], [140.0, -100.0], [140.0, 100.0], [20.0, 100.0]]
README = Path(__file__).resolve().parents[1] / "README.md"
# the source tree under test, which fresh interpreters must import too
SRC = Path(cli.__file__).resolve().parents[1]


def desk_config(max_iters=3, regions=None):
    return {
        "optical": {"lambda0_nm": 193.0, "na": 0.93, "magnification": -1.0},
        "resist": {"a": 90.0, "tr": 0.3},
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 20.0, "origin_nm": [-190.0, -190.0]},
        "target_polygons_nm": [SQUARE],
        "regions": regions if regions is not None else [
            {"num_samples": 24, "init_from_target": 0, "num_controls": 12}
        ],
        "optimizer": {"max_iters": max_iters, "gs_tol": 1e-4},
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_pgm(path):
    tokens = []
    scale = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "maxvalue" in line:
                scale = float(line.split()[-1])
            continue
        tokens.extend(line.split())
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert maxval == 65535
    pixels = np.array(tokens[4:], dtype=int).reshape(h, w)
    assert pixels.min() >= 0 and pixels.max() <= maxval
    return pixels, scale


def test_config_defaults_applied():
    cfg = parse_config({"grid": {"pixel_nm": 4.0}, "target_polygons_nm": [SQUARE]})
    assert cfg.optical.wavelength_nm == 193.0
    assert cfg.resist.steepness == 90.0
    assert cfg.optimizer.max_iters == 100
    assert cfg.optimizer.eps == 1e-4
    # the parsed defaults are the domain classes' own
    assert cfg.optical == OpticalConfig()
    assert cfg.resist == ResistModel()
    assert cfg.optimizer == OptimizerConfig()
    with_region = parse_config({**desk_config(), "regions": [
        {"num_samples": 24, "init_from_target": 0, "num_controls": 12}]})
    assert with_region.regions[0].degree == PeriodicSplineRegion.degree


def test_config_errors_name_fields():
    with pytest.raises(ConfigError, match="optical.na"):
        parse_config({**desk_config(), "optical": {"na": 3.0}})
    with pytest.raises(ConfigError, match="grid.pixel_nm"):
        parse_config({**desk_config(), "grid": {"pixel_nm": -1.0}})
    with pytest.raises(ConfigError, match=r"regions\[0\]"):
        parse_config({**desk_config(), "regions": [{"num_samples": 8}]})
    with pytest.raises(ConfigError, match="resist.a"):
        parse_config({**desk_config(), "resist": {"a": -5.0}})
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({**desk_config(), "bogus": 1})


def test_simulate_places_controls_once(tmp_path, monkeypatch):
    calls = []
    place = cli.init_controls_from_target

    def counted(*args, **kwargs):
        calls.append(args)
        return place(*args, **kwargs)

    monkeypatch.setattr(cli, "init_controls_from_target", counted)
    config = write_config(tmp_path, desk_config())
    assert main(["--quiet", "simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_setup_checks_each_target_polygon_once(tmp_path, monkeypatch):
    calls = []
    check = objective.check_target_polygon

    def counted(polygon):
        calls.append(polygon)
        return check(polygon)

    monkeypatch.setattr(cli, "check_target_polygon", counted)
    monkeypatch.setattr(objective, "check_target_polygon", counted)
    _, problem, _, _, _ = build_setup(load_config(write_config(tmp_path, desk_config())))
    assert len(calls) == 1
    assert problem.target.sum() == 100  # the 200 nm square covers 10 x 10 pixels
    # the problem keeps one target, a read-only float raster
    assert problem.target.dtype == float and not problem.target.flags.writeable


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, {**desk_config(), "grid": {"pixel_nm": "wide"}})
    code = main(["--quiet", "simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid.pixel_nm" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    code = main(["--quiet", "simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_module_run_exits_with_the_code_main_returns(tmp_path, monkeypatch):
    # python -m splinemask.cli, run here in-process over a fresh namespace
    monkeypatch.setattr(sys, "argv", ["splinemask", "--quiet", "simulate", "--config", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "out")])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as stop:
        runpy.run_module("splinemask.cli", run_name="__main__")
    assert stop.value.code == 2


@pytest.mark.parametrize("kind", ["directory", "not UTF-8", "nested 100,000 deep"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    # every failure to read or decode the file is blamed on <file>, before any output
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    elif kind == "not UTF-8":
        config.write_bytes(b'{"grid": "\xff"}')
    else:
        config.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["--quiet", "simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: <file>: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"grid": {"pixel_nm": 20.0}')
    code = main(["--quiet", "simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: <file>: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_runtime_failure_exits_1(tmp_path, capsys):
    # the config is valid; the output directory cannot be made over a file
    config = write_config(tmp_path, desk_config())
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["--quiet", "simulate", "--config", str(config), "--out", str(taken)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config error" not in err


def test_simulate_writes_outputs(tmp_path):
    config = write_config(tmp_path, desk_config())
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(config), "--out", str(out)]) == 0
    for name in ("intensity.pgm", "print.pgm", "epe.pgm", "summary.json"):
        assert (out / name).exists()
    printed, _ = read_pgm(out / "print.pgm")
    assert printed.sum() > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["J"] > 0
    pixels, scale = read_pgm(out / "intensity.pgm")
    assert scale > 0


def test_simulate_empty_regions(tmp_path):
    config = write_config(tmp_path, desk_config(regions=[]))
    out = tmp_path / "empty"
    assert main(["--quiet", "simulate", "--config", str(config), "--out", str(out)]) == 0
    intensity, _ = read_pgm(out / "intensity.pgm")
    assert intensity.sum() == 0
    summary = json.loads((out / "summary.json").read_text())
    # with no light, the print misses exactly the bright target pixels
    target_pixels = 100  # 10x10 block of 20 nm pixels inside the 200 nm square
    assert summary["epe_count"] == target_pixels


def test_pgm_orientation(tmp_path):
    # single bright pixel at max x, max y must land in the top-right corner
    values = np.zeros((3, 4))
    values[2, 3] = 1.0
    path = tmp_path / "orient.pgm"
    write_pgm(path, values, 1.0)
    pixels, _ = read_pgm(path)
    assert pixels.shape == (4, 3)  # rows = ny, cols = nx
    assert pixels[0, 2] == 65535  # top row is max y, rightmost column is max x
    assert pixels.sum() == 65535


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter in which any import of scipy fails runs a desk optimize
    # and a two-rectangle gradcheck, and ends with no scipy module loaded
    desk = write_config(tmp_path, desk_config(max_iters=30), "desk.json")
    twin = write_config(tmp_path, {
        "grid": {"nx": 48, "ny": 36, "pixel_nm": 10.0, "origin_nm": [-235.0, -175.0]},
        "target_polygons_nm": [RECT_LEFT, RECT_RIGHT],
        "regions": [{"num_samples": 32, "init_from_target": 0, "num_controls": 16},
                    {"num_samples": 32, "init_from_target": 1, "num_controls": 16}],
    }, "twin.json")
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from splinemask import cli",
        f"print(cli.main(['--quiet', 'optimize', '--config', {str(desk)!r}, '--out', {str(tmp_path / 'out')!r}]))",
        f"print(cli.main(['--quiet', 'gradcheck', '--config', {str(twin)!r}]))",
        "print(sorted(name for name, module in sys.modules.items() if name.split('.')[0] == 'scipy' and module))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "0"
    assert lines[-3].endswith("-> PASS") and lines[-2] == "0"
    assert lines[-1] == "[]"
    assert (tmp_path / "out" / "convergence.csv").is_file()


@pytest.mark.parametrize("order", [(False, True), (True, False)], ids=["loud_then_quiet", "quiet_then_loud"])
def test_quiet_holds_for_each_call_in_a_process(tmp_path, order):
    """Two `main` calls in one fresh interpreter: only the call without --quiet logs its progress line."""
    config = write_config(tmp_path, desk_config())
    script = ["import sys", "from splinemask import cli"]
    expected = []
    for quiet in order:
        argv = ["--quiet"] * quiet + ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        script += [f"print('quiet={quiet}', file=sys.stderr, flush=True)", f"assert cli.main({argv!r}) == 0"]
        expected += [f"quiet={quiet}"] + ["simulate: J=0.176352 epe=20"] * (not quiet)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", "\n".join(script)], capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == expected


def test_gradcheck_passes(tmp_path, capsys):
    config = write_config(tmp_path, desk_config())
    assert cmd_gradcheck(str(config)) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupted_kernel_fails(tmp_path, capsys, monkeypatch):
    # a 1 % error in the curve gradient kernel of the analytic gradient;
    # finite differences never call it
    from splinemask import pipeline

    curve_gradient = pipeline.curve_gradient
    monkeypatch.setattr(pipeline, "curve_gradient", lambda *args: 1.01 * curve_gradient(*args))
    config = write_config(tmp_path, desk_config())
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_nan_error_fails(tmp_path, capsys, monkeypatch):
    # one NaN entry of the analytic gradient must not drop out of the maximum
    gradient_of = cli.gradient_of

    def with_nan(*args):
        grads = gradient_of(*args)
        grads[0][1, 0] = np.nan
        return grads

    monkeypatch.setattr(cli, "gradient_of", with_nan)
    config = write_config(tmp_path, desk_config())
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 1
    assert "max mixed error nan -> FAIL" in capsys.readouterr().out


def test_gradcheck_requires_regions(tmp_path, capsys):
    config = write_config(tmp_path, desk_config(regions=[]))
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "regions" in captured.err
    assert captured.out == ""


def two_region_config():
    two = desk_config()
    two["target_polygons_nm"] = [
        [[-160.0, -60.0], [-40.0, -60.0], [-40.0, 60.0], [-160.0, 60.0]],
        [[40.0, -60.0], [160.0, -60.0], [160.0, 60.0], [40.0, 60.0]],
    ]
    two["regions"] = [
        {"num_samples": 16, "init_from_target": 0, "num_controls": 8},
        {"num_samples": 16, "init_from_target": 1, "num_controls": 8},
    ]
    return two


def test_gradcheck_two_regions_reports_locality(tmp_path, capsys):
    config = write_config(tmp_path, two_region_config())
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "cross-region" in out


def test_gradcheck_reimages_only_the_bumped_region(tmp_path, capsys, monkeypatch):
    from splinemask import optics

    images = []
    synthesize = optics.NodeTable.synthesize

    def counted(self, spectra):
        images.append(spectra[..., 0].size)  # spectra synthesized by this call
        return synthesize(self, spectra)

    monkeypatch.setattr(optics.NodeTable, "synthesize", counted)
    config = write_config(tmp_path, two_region_config())
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 0
    assert "PASS" in capsys.readouterr().out
    bumps = 4 * (8 + 8)
    # spectra synthesized, whether one per call or a chunk of bumps per call:
    # the evaluation images the mask of both loops once and the adjoint
    # gradient none, and the differences, which keep the other region's
    # spectrum, image each bump's mask once
    assert sum(images) == 1 + bumps
    # re-imaging both regions for every bump took 2 + 2 * bumps region images
    assert sum(images) <= 0.55 * (2 + 2 * bumps)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(12, 20), pixel_nm=st.floats(16.0, 24.0),
       half=st.tuples(st.floats(0.2, 0.35), st.floats(0.2, 0.35)),
       center=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
       num_controls=st.integers(6, 12), max_iters=st.integers(1, 3))
def test_optimize_is_deterministic_over_random_configs(n, pixel_nm, half, center, num_controls,
                                                      max_iters):
    # a rectangle target of a random size and place on a random grid; sizes
    # and offsets are fractions of the field (n - 1) * pixel_nm
    field = (n - 1) * pixel_nm
    (hx, hy), (cx, cy) = np.multiply(half, field), np.multiply(center, field)
    doc = desk_config(max_iters, regions=[
        {"num_samples": 2 * num_controls, "init_from_target": 0, "num_controls": num_controls}])
    doc["grid"] = {"nx": n, "ny": n, "pixel_nm": pixel_nm, "origin_nm": [-field / 2, -field / 2]}
    doc["target_polygons_nm"] = [[[cx - hx, cy - hy], [cx + hx, cy - hy],
                                  [cx + hx, cy + hy], [cx - hx, cy + hy]]]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        for run in ("a", "b"):
            out = Path(tmp) / run
            assert main(["--quiet", "optimize", "--config", str(config), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("convergence.csv", "mask_final.json")])
    assert outputs[0] == outputs[1]


def test_optimize_writes_outputs_and_descends(tmp_path):
    config = write_config(tmp_path, desk_config(max_iters=3))
    out = tmp_path / "opt"
    assert main(["--quiet", "optimize", "--config", str(config), "--out", str(out)]) == 0
    for name in ("convergence.csv", "mask_initial.json", "mask_final.json",
                 "boundary_final.svg", "intensity_initial.pgm", "print_initial.pgm",
                 "epe_initial.pgm", "intensity_final.pgm", "print_final.pgm",
                 "epe_final.pgm", "summary.json"):
        assert (out / name).exists(), name
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,J,alpha"
    js = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(b <= a for a, b in zip(js, js[1:]))
    assert len(js) >= 2
    mask = json.loads((out / "mask_final.json").read_text())
    assert len(mask["regions"]) == 1
    assert len(mask["regions"][0]["controls_nm"]) == 12
    svg = (out / "boundary_final.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg


def test_optimize_requires_regions(tmp_path):
    config = write_config(tmp_path, desk_config(regions=[]))
    code = main(["--quiet", "optimize", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2


def test_optimize_requires_a_target(tmp_path, capsys):
    controls = polygon_perimeter_points(np.array(SQUARE), 12).tolist()
    doc = {**desk_config(regions=[{"num_samples": 24, "controls_nm": controls}]), "target_polygons_nm": []}
    config = write_config(tmp_path, doc)
    code = main(["--quiet", "optimize", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: target_polygons_nm:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mask_json_reusable_as_region_config(tmp_path):
    config = write_config(tmp_path, desk_config(max_iters=1))
    out = tmp_path / "opt"
    assert main(["--quiet", "optimize", "--config", str(config), "--out", str(out)]) == 0
    mask = json.loads((out / "mask_initial.json").read_text())
    doc = desk_config(regions=mask["regions"])
    sim_out = tmp_path / "resim"
    config2 = write_config(tmp_path, doc, "config2.json")
    assert main(["--quiet", "simulate", "--config", str(config2), "--out", str(sim_out)]) == 0
    # the re-simulated initial mask reproduces the optimizer's initial objective
    resim = json.loads((sim_out / "summary.json").read_text())
    opt_summary = json.loads((out / "summary.json").read_text())
    assert resim["J"] == pytest.approx(opt_summary["initial"]["J"], rel=1e-9)


def test_readme_example_config_parses():
    """The README's complete config is a valid run: the documented schema is the parsed one."""
    [block] = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    cfg = parse_config(json.loads(block))
    assert len(cfg.target_polygons_nm) == len(cfg.regions) == 1
