"""One benchmark iteration in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace

setup  import halfspacedecay and build the workload's inputs, then exit
run    also run one iteration in-process, untraced
trace  the same iteration with spans recorded around the public functions

A fresh process per iteration gives each iteration its own peak RSS
(ru_maxrss is a process-wide high-water mark). run.py starts this script
with PYTHONPATH pointing at the checkout's src/ and checks what it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import ROOT, Tracer, install

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_package(kind: str):
    import halfspacedecay

    if Path(halfspacedecay.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"halfspacedecay imported from {halfspacedecay.__file__}, not {SRC}")
    if kind == "cli":
        import halfspacedecay.cli
    return halfspacedecay


def _run_cli(hsd, commands) -> list:
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hsd.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        outputs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    hsd = _import_package(workload.kind)
    if workload.kind == "cli":
        inputs = workloads.cli_commands(workload.name, args.seed)
    else:
        inputs = workloads.build_inputs(workload.name, args.seed)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    span = tracer.open(ROOT) if tracer else None
    try:
        if workload.kind == "cli":
            result = {"commands": _run_cli(hsd, inputs)}
        else:
            result = workloads.run_library(workload.name, inputs)
    except Exception:  # reported to run.py, which counts it as a failed operation
        result = {"exception": traceback.format_exc()}
    finally:
        if tracer:
            tracer.close(span)
    wall = time.perf_counter() - t0
    record = {
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result": result,
    }
    if tracer:
        record["trace"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
