"""Layered benchmark for splinemask: desk, full and twin workloads.

Usage:
    python3 perfbench/run.py --workload desk --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all  --seed 0 --seconds 15 --trace 0

Each unit of work is one CLI command (`optimize` or `gradcheck`) run in a
fresh interpreter from the checkout's `src/`. A run repeats the command until
`--seconds` have passed and it ran `min_commands` times, checks every
command's outputs, and prints one JSON object as its last stdout line:
end-to-end metrics with `--trace 0`, per-layer metrics from wrapped module
attributes with `--trace 1`. Everything a run writes goes under `.perfbench_work/`.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A plain single-threaded run, steadier on a shared host than two threads.
BLAS_THREADS = 1
SETUP_PROBES = 7        # fresh-interpreter set-ups per untraced run; setup_s is their median
RUN_DEADLINE_S = 170.0  # a run gives up on further units past this
JITTER_NM = 1.0         # half-width of the seeded control jitter, mask-plane nm
FULL_STEPS = 1          # descent steps of the full workload (one step is 35-57 s on 2 cores)

SQUARE = [[-100.0, -100.0], [100.0, -100.0], [100.0, 100.0], [-100.0, 100.0]]
RECT_LEFT = [[-140.0, -100.0], [-20.0, -100.0], [-20.0, 100.0], [-140.0, 100.0]]
RECT_RIGHT = [[20.0, -100.0], [140.0, -100.0], [140.0, 100.0], [20.0, 100.0]]


class Workload(NamedTuple):
    command: str
    min_commands: int  # a run repeats the command at least this often, whatever --seconds says
    config: dict


WORKLOADS = {
    # criterion 7 / criterion 9 config with 30 iterations: geometry chain and line search
    "desk": Workload("optimize", 1, {
        "grid": {"nx": 20, "ny": 20, "pixel_nm": 20.0, "origin_nm": [-190.0, -190.0]},
        "target_polygons_nm": [SQUARE],
        "regions": [{"num_samples": 24, "init_from_target": 0, "num_controls": 12}],
        "optimizer": {"max_iters": 30},
    }),
    # the test_fullscale setup, capped at FULL_STEPS: optics-bound target scale
    "full": Workload("optimize", 1, {
        "grid": {"nx": 100, "ny": 100, "pixel_nm": 4.0, "origin_nm": [-198.0, -198.0]},
        "target_polygons_nm": [SQUARE],
        "regions": [{"num_samples": 100, "init_from_target": 0, "num_controls": 40}],
        "optimizer": {"max_iters": FULL_STEPS, "refine_area_tol": 0.01},
    }),
    # two regions, frozen-topology forward passes; the optimizer never runs. A
    # 10 s command swings by up to a fifth on a shared host; the median of three
    # drops one slow command.
    "twin": Workload("gradcheck", 3, {
        "grid": {"nx": 48, "ny": 36, "pixel_nm": 10.0, "origin_nm": [-235.0, -175.0]},
        "target_polygons_nm": [RECT_LEFT, RECT_RIGHT],
        "regions": [{"num_samples": 32, "init_from_target": 0, "num_controls": 16},
                    {"num_samples": 32, "init_from_target": 1, "num_controls": 16}],
    }),
}

# (metric, unit) in report order; BENCHMARK.json lists the same names.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("J_ratio", "ratio"), ("epe_final_px", "px"))


def workload_config(workload: str, seed: int) -> dict:
    """The canonical config for seed 0 and for `desk`; otherwise jittered initial controls.

    Seeds other than 0 write explicit `controls_nm`: the controls the CLI would
    place on the target, each coordinate moved by a seeded uniform jitter of at
    most JITTER_NM. `desk` keeps its canonical config on every seed: any change
    to its input, even a whole-pixel shift of the whole problem, changes where
    its line search gives up, and so its step count (2 to 30 steps measured),
    which no bound on wall time could absorb.
    """
    doc = copy.deepcopy(WORKLOADS[workload].config)
    if seed == 0 or workload == "desk":
        return doc
    import numpy as np
    from splinemask.optimizer import init_controls_from_target

    rng = np.random.default_rng(seed)
    for spec in doc["regions"]:
        polygon = doc["target_polygons_nm"][spec.pop("init_from_target")]
        [region] = init_controls_from_target([polygon], spec.pop("num_controls"), spec["num_samples"])
        jitter = rng.uniform(-JITTER_NM, JITTER_NM, region.controls.shape)
        spec["controls_nm"] = (region.controls + jitter).tolist()
    return doc


def host_reference_s() -> float:
    """Median time of a fixed j1 sweep plus a fixed GEMM; tracks host speed, not the code."""
    import numpy as np
    from scipy.special import j1

    x = np.linspace(0.1, 200.0, 2_000_000)
    a = np.random.default_rng(0).standard_normal((600, 600))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        j1(x).sum()
        (a @ a).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "host_reference_s": host_reference_s(),
    }


def spawn(spec: dict, spec_path: Path, timeout: float) -> tuple[dict | None, float]:
    """Run one worker; returns (its result or None, monotonic time before the spawn)."""
    spec_path.write_text(json.dumps(spec))
    result_path = Path(spec["result"])
    started = time.perf_counter()
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                       check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return None, started
    return json.loads(result_path.read_text()), started


def check_unit(workload: str, unit: dict, out: Path) -> str | None:
    """The reason a command's outputs are wrong, or None when they pass the gate."""
    if unit["rc"] != 0:
        return f"exit code {unit['rc']}"
    if WORKLOADS[workload].command == "gradcheck":
        last = unit["stdout_tail"][-1] if unit["stdout_tail"] else ""
        return None if last.endswith("-> PASS") else f"gradcheck said {last!r}"
    with (out / "convergence.csv").open() as handle:
        js = [float(row["J"]) for row in csv.DictReader(handle)]
    if any(b > a for a, b in zip(js, js[1:])):
        return "J increased along convergence.csv"
    if not js[-1] < js[0]:
        return "J did not decrease"
    if workload == "desk":  # canonical input on every seed: the criterion-7 thresholds apply
        summary = json.loads((out / "summary.json").read_text())
        if js[-1] > 0.5 * js[0]:
            return f"J ratio {js[-1] / js[0]:.4f} above 0.5"
        if not summary["final"]["epe_count"] < summary["initial"]["epe_count"]:
            return "EPE did not drop"
    return None


def quality(workload: str, unit: dict, out: Path) -> dict:
    """Final-over-initial J, final EPE and a one-line summary of the command's outputs.

    gradcheck moves no control, so its J ratio is 1 and its EPE is the checked mask's.
    """
    if WORKLOADS[workload].command == "gradcheck":
        return {"J_ratio": 1.0, "epe_final_px": unit["epe_count"],
                "outputs": f"{unit['stdout_tail'][-1]}, EPE {unit['epe_count']} px"}
    summary = json.loads((out / "summary.json").read_text())
    initial, final = summary["initial"], summary["final"]
    return {"J_ratio": final["J"] / initial["J"], "epe_final_px": final["epe_count"],
            "outputs": f"J {initial['J']:.7g} -> {final['J']:.7g} in {summary['iterations']} steps, "
                       f"EPE {initial['epe_count']} -> {final['epe_count']} px"}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command, min_commands, _ = WORKLOADS[workload]
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload_config(workload, seed), indent=1))
    base = {"src": str(SRC), "config": str(config), "trace": trace,
            "epe_of_setup": command == "gradcheck"}
    run_start = time.perf_counter()

    setups = []
    for k in range(0 if trace else SETUP_PROBES):
        spec = {**base, "mode": "setup", "result": str(work / f"setup{k}.json")}
        result, started = spawn(spec, work / f"setup{k}.spec.json", RUN_DEADLINE_S)
        if result is None:
            raise RuntimeError("set-up probe failed")
        setups.append(result["t_end"] - started)

    units, failures, attempted = [], [], 0
    measure_start = time.perf_counter()
    while len(units) < min_commands or time.perf_counter() - measure_start < seconds:
        remaining = RUN_DEADLINE_S - (time.perf_counter() - run_start)
        if units and remaining < 1.5 * max(u["wall_s"] for u in units):
            break
        k = len(units)
        out = work / f"unit{k}"
        argv = ["--quiet", command, "--config", str(config)]
        if command == "optimize":
            argv += ["--out", str(out)]
        spec = {**base, "mode": "command", "argv": argv, "result": str(work / f"unit{k}.json")}
        attempted += 1
        unit, _ = spawn(spec, work / f"unit{k}.spec.json", remaining)
        if unit is None:
            failures.append(f"unit {k}: worker did not finish")
            break
        try:
            reason = check_unit(workload, unit, out)
            if unit["rc"] == 0:
                unit.update(quality(workload, unit, out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable outputs: {exc!r}"
        if reason is not None:
            failures.append(f"unit {k}: {reason}")
        unit.pop("spans", None)  # they stay in unit{k}.json
        units.append(unit)

    if trace:
        metrics = {name: (_median(u["layers"][name] for u in units), metric_unit)
                   for name, metric_unit in PER_LAYER}
    else:
        values = {
            "wall_s": _median(u["wall_s"] for u in units),
            "setup_s": _median(setups),
            "peak_rss_mb": _median(u["peak_rss_mb"] for u in units),
            "J_ratio": _median(u["J_ratio"] for u in units if "J_ratio" in u),
            "epe_final_px": _median(u["epe_final_px"] for u in units if "J_ratio" in u),
        }
        metrics = {name: (values[name], metric_unit) for name, metric_unit in END_TO_END}
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "setup_samples_s": setups, "units": units,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def _median(values) -> float:
    """Median, or 0 when no command produced the value (the run is then marked failed).

    Counts stay whole numbers: the commands of one run repeat them exactly.
    """
    values = list(values)
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "splinemask" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a splinemask checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # before numpy loads here; every worker inherits it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    env = environment()
    print(json.dumps({"environment": env}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report["environment"] = env
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
        reports.append(report)
        for failure in report["failures"]:
            print(f"{name}: FAILED {failure}")
        print(f"{name}: {report['attempted'] - report['failed']}/{report['attempted']} commands correct")
        if report["units"] and "outputs" in report["units"][0]:
            print(f"{name}: {report['units'][0]['outputs']}")
        for metric, entry in report["metrics"].items():
            print(f"{name}  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
        sys.stdout.flush()

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": e for r in reports for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
