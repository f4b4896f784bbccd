"""halfspacedecay benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
src/. This one process runs one child at a time and checks
every output it gets back (checks.py). With --trace 0 it reports the
end-to-end metrics wall_s, cpu_s, peak_rss_mb and setup_s, plus fail_ratio;
with --trace 1 it reports the per-layer metrics from a separate traced
run. Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 25  # fresh interpreters per run whose median is setup_s
MIN_ITERATIONS = 2  # a same-seed rerun is what the determinism check compares
MIN_TRACED = 2  # traced iterations per traced run, so that their counts can be compared
HARNESS_SHARE_MAX = 0.05  # above this, time escapes the traced layers
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# metric names and units as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons and the gate outcomes."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    gates: dict = field(default_factory=dict)  # seed -> {label: (|z|, passed)}

    def operation(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def run_process(argv: list) -> Proc:
    """Run one child to completion; its own CPU time and peak RSS come from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def child_argv(name: str, seed, mode: str) -> list:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", name, "--mode", mode]
    return argv + (["--seed", str(seed)] if seed is not None else [])


def child_record(proc: Proc):
    """The JSON record a child printed, or the problems that stopped it."""
    if proc.code != 0:
        return None, [f"child exit {proc.code}: {proc.stderr.decode(errors='replace')[-400:]}"]
    try:
        record = json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        return None, [f"child printed no record: {exc}"]
    if "exception" in record["result"]:
        return None, [f"raised: {record['result']['exception'][-400:]}"]
    return record, []


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported tree; git would search the directories above it
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def env_record() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class Checker:
    """Checks every output against checks.py and against the first same-seed output."""

    def __init__(self, tally: Tally, seed):
        import checks
        from halfspacedecay import decay, medium

        self.checks, self.decay, self.medium = checks, decay, medium
        self.mc_targets = checks.mc_validate_targets(medium)
        self.tally, self.seed = tally, seed
        self.first = {}

    def _same_as_first(self, key, fingerprint) -> list:
        first = self.first.setdefault(key, fingerprint)
        return [] if fingerprint == first else ["same-seed rerun differs from the first run"]

    def _gates(self, gates: list) -> None:
        for label, z, passed in gates:
            self.tally.gates.setdefault(self.seed, {})[label] = (z, passed)

    def cli(self, argv, code: int, stdout: bytes, stderr: bytes) -> None:
        c = self.checks
        try:
            if argv[0] == "mc-validate":
                problems, gates = c.check_mc_validate(code, stdout, stderr, self.mc_targets)
                self._gates(gates)
            else:
                problems = c.check_closed_form(argv, code, stdout, stderr, self.decay)
        except Exception as exc:  # a check that cannot run fails the operation
            problems = [f"check raised {exc!r}"]
        problems += self._same_as_first(tuple(argv), (code, stdout, stderr))
        self.tally.operation(" ".join(argv), problems)

    def library(self, name: str, record, problems: list) -> None:
        if record is not None:
            result = record["result"]
            try:
                if name == "mc_gates_small":
                    problems, gates = self.checks.check_mc_gates(result, self.medium)
                else:
                    problems, gates = self.checks.check_surface_term(result)
                self._gates(gates)
            except Exception as exc:  # a check that cannot run fails the operation
                problems = [f"check raised {exc!r}"]
            problems += self._same_as_first(name, json.dumps(result, sort_keys=True))
        self.tally.operation(name, problems)


def untraced_iteration(workload, seed, checker: Checker) -> dict:
    """One checked iteration; returns its wall_s, cpu_s and peak_rss_mb."""
    if workload.kind == "library":
        proc = run_process(child_argv(workload.name, seed, "run"))
        record, problems = child_record(proc)
        checker.library(workload.name, record, problems)
        if record is None:
            return {"wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "peak_rss_mb": proc.peak_rss_mb}
        return {k: record[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    for argv in workloads.cli_commands(workload.name, seed):
        proc = run_process([sys.executable, "-m", "halfspacedecay.cli", *argv])
        checker.cli(argv, proc.code, proc.stdout, proc.stderr)
        sample["wall_s"] += proc.wall_s
        sample["cpu_s"] += proc.cpu_s
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], proc.peak_rss_mb)
    return sample


def in_process_iteration(workload, seed, checker: Checker, mode: str):
    """One in-process iteration (mode run or trace) in a fresh child; its record or None."""
    proc = run_process(child_argv(workload.name, seed, mode))
    record, problems = child_record(proc)
    if workload.kind == "library":
        checker.library(workload.name, record, problems)
    elif record is None:
        checker.tally.operation(f"{workload.name} {mode}", problems)
    else:
        for argv, out in zip(workloads.cli_commands(workload.name, seed), record["result"]["commands"]):
            checker.cli(argv, out["code"], out["stdout"].encode(), out["stderr"].encode())
    return record


def measure_end_to_end(workload, seed, seconds: float, tally: Tally):
    checker = Checker(tally, seed)
    setup, samples = [], []
    busy = 0.0  # seconds spent in timed iterations
    while len(setup) < SETUP_PROBES or len(samples) < MIN_ITERATIONS or busy < seconds:
        iterations_done = len(samples) >= MIN_ITERATIONS and busy >= seconds
        # The probes are spread over the run in step with the iterations, so that
        # both medians sample the same stretch of the machine's drifting speed.
        if len(setup) < SETUP_PROBES and (len(setup) * seconds <= SETUP_PROBES * busy or iterations_done):
            proc = run_process(child_argv(workload.name, seed, "setup"))
            tally.operation(f"{workload.name} setup", [] if proc.code == 0 else [proc.stderr.decode()[-400:]])
            setup.append(proc.wall_s)
        else:
            t0 = time.perf_counter()
            samples.append(untraced_iteration(workload, seed, checker))
            busy += time.perf_counter() - t0
    metrics = {k: (statistics.median(s[k] for s in samples), len(samples))
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = (statistics.median(setup), len(setup))
    return metrics


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_per_layer(workload, seed, seconds: float, tally: Tally):
    """Alternate traced and untraced in-process iterations; reduce the traced spans."""
    checker = Checker(tally, seed)
    untraced, traced = [], []
    modes = ("trace", "run")
    attempts = 0
    t0 = time.perf_counter()
    while attempts < MIN_TRACED + 1 or time.perf_counter() - t0 < seconds:
        mode = modes[attempts % 2]
        attempts += 1
        record = in_process_iteration(workload, seed, checker, mode)
        if record is not None:
            (traced if mode == "trace" else untraced).append(record)
    if not traced or not untraced:
        return {}
    summaries = [r["trace"] for r in traced]
    n = len(summaries)
    per_iteration = [
        ({k: v["calls"] for k, v in s["layers"].items()}, s["counts"]) for s in summaries
    ]
    if any(p != per_iteration[0] for p in per_iteration):
        tally.problems.append("per-layer counts differ between same-seed traced iterations")
        tally.failed += 1
    for s in summaries:
        harness = s["layers"]["harness"]["self_s"] / s["wall_s"]
        if harness > HARNESS_SHARE_MAX:
            tally.problems.append(f"harness self share {harness:.3f} > {HARNESS_SHARE_MAX}: time outside the traced layers")
            tally.failed += 1
    calls_of, counts = per_iteration[0]
    wall = sum(s["wall_s"] for s in summaries)
    self_s = {}
    for s in summaries:
        for layer, v in s["layers"].items():
            self_s[layer] = self_s.get(layer, 0.0) + v["self_s"]

    def calls(layer):
        return calls_of.get(layer, 0)

    def per(layer, denominator, scale=1.0):
        total = n * denominator
        return self_s.get(layer, 0.0) / total * scale if total else 0.0

    def share(layer):
        return self_s.get(layer, 0.0) / wall

    rsa_ms = [ms for s in summaries for ms in s["rsa_ms"]]
    visits = counts.get("mcvalidate.estimators.config_visits", 0)
    spheres = counts.get("mcvalidate.born.spheres", 0)
    rss = {k: _median_or_zero([s["rss_mb"][k] for s in summaries if k in s["rss_mb"]])
           for k in ("mcvalidate.born", "mcvalidate.slab")}
    values = {
        "mcvalidate.rsa.calls": (calls("mcvalidate.rsa"), n),
        "mcvalidate.rsa.spheres_per_config": (
            counts.get("mcvalidate.rsa.spheres", 0) / calls("mcvalidate.rsa") if calls("mcvalidate.rsa") else 0.0, n),
        "mcvalidate.rsa.ms_per_config_p50": (_median_or_zero(rsa_ms), len(rsa_ms)),
        # reported only where at least ten samples lie beyond the 99th percentile
        "mcvalidate.rsa.ms_per_config_p99": (
            statistics.quantiles(rsa_ms, n=100)[98] if len(rsa_ms) >= 1000 else 0.0, len(rsa_ms)),
        "mcvalidate.rsa.self_share": (share("mcvalidate.rsa"), n),
        "mcvalidate.estimators.calls": (calls("mcvalidate.estimators"), n),
        "mcvalidate.estimators.config_visits": (visits, n),
        "mcvalidate.estimators.us_per_config_visit": (per("mcvalidate.estimators", visits, 1e6), n * visits),
        "mcvalidate.estimators.self_share": (share("mcvalidate.estimators"), n),
        "mcvalidate.born.calls": (calls("mcvalidate.born"), n),
        "mcvalidate.born.spheres": (spheres, n),
        "mcvalidate.born.us_per_sphere": (per("mcvalidate.born", spheres, 1e6), n * spheres),
        "mcvalidate.born.self_share": (share("mcvalidate.born"), n),
        "mcvalidate.born.rss_high_water_mb": (rss["mcvalidate.born"], n),
        "mcvalidate.slab.calls": (calls("mcvalidate.slab"), n),
        "mcvalidate.slab.s_per_call": (per("mcvalidate.slab", calls("mcvalidate.slab")), n * calls("mcvalidate.slab")),
        "mcvalidate.slab.self_share": (share("mcvalidate.slab"), n),
        "mcvalidate.slab.rss_high_water_mb": (rss["mcvalidate.slab"], n),
    }
    for layer in ("medium", "decay", "specfun", "mie"):
        values[f"{layer}.calls"] = (calls(layer), n)
        values[f"{layer}.us_per_call"] = (per(layer, calls(layer), 1e6), n * calls(layer))
    for layer in ("cli", "harness"):
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, n)
        values[f"{layer}.self_share"] = (share(layer), n)
    traced_wall = statistics.median(s["wall_s"] for s in summaries)
    values["trace.wall_s"] = (traced_wall, n)
    values["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in untraced), n)
    for name, expected in checker.checks.REFERENCES["trace_counts"][workload.name].items():
        if values[name][0] != expected:
            tally.problems.append(f"{name} is {values[name][0]}, recorded {expected}")
            tally.failed += 1
    return values


def print_workload(workload, seed, metrics: dict, tally: Tally) -> None:
    label = f"seed {seed}, held-out seed {workload.held_out}" if seed is not None else "no seed"
    print(f"== {workload.name} ({label})")
    for metric, (value, count) in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {UNITS[metric]:6s} n={count}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':44s} {ratio:14.6g} {'share':6s} n={tally.attempted} ({tally.failed} failed)")
    for s, gates in tally.gates.items():
        passed = sum(ok for _, ok in gates.values())
        detail = "; ".join(f"{label} {z:.3g}{'' if ok else ' FAIL'}" for label, (z, ok) in gates.items())
        print(f"  gates at seed {s} ({passed}/{len(gates)} pass), |z|: {detail}")
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed; selects a Monte Carlo seed from the workload's pool")
    parser.add_argument("--mc-seed", type=int, default=None,
                        help="use this Monte Carlo master seed directly (held-out seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "halfspacedecay" / "__init__.py").is_file():
        print(f"error: no halfspacedecay source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from halfspacedecay import medium

    self_test = checks.self_test(checks.mc_validate_targets(medium))
    print(f"self-test (doctored mc-validate tables must fail): {'ok' if not self_test else self_test}")
    print("env " + json.dumps(env_record(), sort_keys=True))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = args.mc_seed if args.mc_seed is not None and workload.pool else workloads.mc_seed(workload, args.seed)
        tally = Tally()
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics = measure(workload, seed, args.seconds, tally)
        print_workload(workload, seed, metrics, tally)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        if metrics:
            declared = PER_LAYER if args.trace else END_TO_END
            out.update({prefix + k: {"value": metrics[k][0], "unit": UNITS[k]} for k in declared})
    print(json.dumps({
        "correct": failed == 0 and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
