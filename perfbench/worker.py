"""One benchmark unit in a fresh interpreter: a set-up probe or one CLI command.

Usage: python3 perfbench/worker.py <spec.json>

The spec names the mode, the package source directory, the config, the CLI
arguments, whether to trace, and where to write the result JSON. Set-up
probes report the monotonic clock after the initial evaluation, so the
parent can time them from before the interpreter started.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def setup_probe(spec: dict) -> dict:
    from splinemask.cli import build_setup, load_config
    from splinemask.pipeline import evaluate

    _, problem, regions, _, _ = build_setup(load_config(spec["config"]))
    evaluate(problem, regions)
    return {"t_end": time.perf_counter()}


def run_command(spec: dict) -> dict:
    from splinemask import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        for target in tracer.missing:
            print(f"not traced, no such attribute: {target}", file=sys.stderr)
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                rc = cli.main(spec["argv"])
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(spec["argv"])
    finally:
        if tracer is not None:
            tracer.restore()
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "process_user_s": usage.ru_utime,
        "process_sys_s": usage.ru_stime,
        "stdout_tail": captured.getvalue().splitlines()[-3:],
    }
    if spec["epe_of_setup"]:
        # gradcheck moves no control, so its final mask is its initial one
        from splinemask.pipeline import evaluate, print_report
        _, problem, regions, _, _ = cli.build_setup(cli.load_config(spec["config"]))
        result["epe_count"] = print_report(problem, evaluate(problem, regions)).epe_count
    if tracer is not None:
        from tracer import layer_metrics, span_cost_s
        result["layers"] = layer_metrics(tracer.spans, wall_s, span_cost_s(), len(tracer.missing))
        result["spans"] = [[s.name, s.parent, s.start, s.end, s.error] for s in tracer.spans]
    return result


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    result = setup_probe(spec) if spec["mode"] == "setup" else run_command(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
