import json

import numpy as np
import pytest

from splinemask import OpticalConfig, OptimizerConfig, PeriodicSplineRegion, ResistModel, cli
from splinemask.cli import (
    ConfigError,
    cmd_gradcheck,
    main,
    parse_config,
    write_pgm,
)

SQUARE = [[-100.0, -100.0], [100.0, -100.0], [100.0, 100.0], [-100.0, 100.0]]


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


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, {**desk_config(), "grid": {"pixel_nm": "wide"}})
    code = main(["--quiet", "simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid.pixel_nm" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    code = main(["--quiet", "simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


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


def test_gradcheck_passes(tmp_path, capsys):
    config = write_config(tmp_path, desk_config())
    assert cmd_gradcheck(str(config)) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupted_kernel_fails(tmp_path, capsys, monkeypatch):
    # a 1 % error in the quadrature-point derivatives of the analytic
    # gradient; finite differences never call it
    from splinemask import gradient

    point_sensitivity = gradient.quad_point_sensitivity
    monkeypatch.setattr(gradient, "quad_point_sensitivity",
                        lambda *args: 1.01 * point_sensitivity(*args))
    config = write_config(tmp_path, desk_config())
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_requires_regions(tmp_path, capsys):
    config = write_config(tmp_path, desk_config(regions=[]))
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "regions" in captured.err
    assert captured.out == ""


def test_gradcheck_two_regions_reports_locality(tmp_path, capsys):
    two = desk_config()
    two["target_polygons_nm"] = [
        [[-160.0, -60.0], [-40.0, -60.0], [-40.0, 60.0], [-160.0, 60.0]],
        [[40.0, -60.0], [160.0, -60.0], [160.0, 60.0], [40.0, 60.0]],
    ]
    two["regions"] = [
        {"num_samples": 16, "init_from_target": 0, "num_controls": 8},
        {"num_samples": 16, "init_from_target": 1, "num_controls": 8},
    ]
    config = write_config(tmp_path, two)
    assert main(["--quiet", "gradcheck", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "cross-region" in out


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
