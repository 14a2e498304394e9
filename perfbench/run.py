"""sfde-tem benchmark: Monte Carlo workloads through the public experiment API.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
One process runs one workload, so its peak RSS is that workload's alone;
``--workload all`` (the default) starts one child process per workload.

With ``--trace 0`` the run measures end-to-end metrics:

- ``setup_s``: median over fresh interpreters (setup_probe.py) of importing
  sfde_tem plus model construction and grid resolution, started between
  calls and spread over the run;
- ``wall_s`` and ``cpu_s``: median wall and user+sys CPU seconds of one
  workload call, after one untimed warm-up call;
- ``peak_rss_mb``: the process's peak RSS at the end of the run;
- ``replica_steps_per_s``: replica-steps of one call (every level, the
  reference included) divided by the median ``wall_s``.

With ``--trace 1`` the run alternates untraced and traced calls and reports
the per-layer metrics of tracing.py (lower median over traced calls) plus
``trace.overhead_frac``, traced against untraced median wall time.  The
spans of the last traced call and a summary go to perfbench/traces/.

Calls repeat until the next one would end after ``--seconds``, with at
least MIN_CALLS timed calls.  Every call is checked (workloads.py) and must
give the warm-up call's digest bit for bit.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

MIN_CALLS = 3
SETUP_PROBES = 15
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "replica_steps_per_s": "1/s",
    "setup_s": "s",
}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment(st) -> dict:
    import numpy

    resolve = getattr(st.experiments, "_resolve_threads", None)
    default_threads = resolve(None) if resolve else None
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "default_threads": default_threads,
        "SFDE_TEM_THREADS": os.environ.get("SFDE_TEM_THREADS"),
        "default_threads_exceed_nproc": default_threads is not None and default_threads > nproc,
    }


def _measure_setup(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


class Calls:
    """Runs workload calls, checks each one, and counts attempts and failures."""

    def __init__(self, prepared, seed: int):
        self.prepared = prepared
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, model=None):
        """One checked call; returns (wall_s, cpu_s) or None when it failed."""
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        try:
            result = self.prepared.run(self.prepared.model if model is None else model, self.seed)
            wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
            problems = self.prepared.check(result)
            digest = self.prepared.digest(result)
        except Exception:
            traceback.print_exc()
            problems, digest = ["raised"], None
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest} differs from the first call's {self.digest}")
        if problems:
            self.failed += 1
            print(f"call {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        return wall, cpu


def _keep_going(calls: Calls, started: float, seconds: float, walls: list) -> bool:
    """Stop at the first failure, or when the next call would end after ``seconds``."""
    if calls.failed:
        return False
    if len(walls) < MIN_CALLS:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def _describe(values: list) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def run_end_to_end(st, prepared, args) -> tuple:
    calls = Calls(prepared, args.seed)
    calls.run()  # warm-up, and the digest every later call must match
    walls, cpus, setup = [], [], []
    started = time.perf_counter()
    while _keep_going(calls, started, args.seconds, walls):
        measured = calls.run()
        if measured:
            walls.append(measured[0])
            cpus.append(measured[1])
        # one set-up probe per slice of the run, so set-up sees the same machine as the calls
        if len(setup) * args.seconds < SETUP_PROBES * (time.perf_counter() - started):
            setup.append(_measure_setup(args.workload))
    if not walls:
        return calls, {}
    setup += [_measure_setup(args.workload) for _ in range(SETUP_PROBES - len(setup))]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "replica_steps_per_s": prepared.replica_steps / wall,
        "setup_s": statistics.median(setup),
    }
    print(f"metric wall_s {metrics['wall_s']:.4f} s ({_describe(walls)})")
    print(f"metric cpu_s {metrics['cpu_s']:.4f} s ({_describe(cpus)})")
    print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (process lifetime peak)")
    print(f"metric replica_steps_per_s {metrics['replica_steps_per_s']:.6g} 1/s "
          f"({prepared.replica_steps} replica-steps per call)")
    print(f"metric setup_s {metrics['setup_s']:.4f} s ({_describe(setup)})")
    return calls, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_traced(st, prepared, args) -> tuple:
    import tracing

    calls = Calls(prepared, args.seed)
    calls.run()
    plain, traced, per_call = [], [], []
    started = time.perf_counter()
    while _keep_going(calls, started, args.seconds, [a + b for a, b in zip(plain, traced)]):
        measured = calls.run()
        if measured:
            plain.append(measured[0])
        tracer = tracing.Tracer()
        try:
            model = tracer.install(st, prepared.model)
            call_start = time.perf_counter()
            measured = calls.run(model)
        finally:
            tracer.uninstall()
        if measured:
            traced.append(measured[0])
            per_call.append(tracing.layer_metrics(tracer.spans, tracer.missing, call_start, call_start + measured[0]))
    if not (plain and traced):
        return calls, {}
    layers = {name: statistics.median_low(m[name] for m in per_call) for name in per_call[-1]}
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    units = dict(tracing.LAYER_UNITS, **{"trace.overhead_frac": "frac"})
    absent = [name for name in units if name not in layers]
    for name, value in layers.items():
        print(f"layer {name} {value:.6g} {units[re.sub(r'[.]n[0-9]+$', '', name)]}")
    if absent:
        print(f"absent (boundary not found in sfde_tem): {', '.join(absent)}")
    print(f"traced calls {len(traced)}, untraced calls {len(plain)}")

    TRACE_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"
    tracer.write_spans(TRACE_DIR / f"{stem}.spans.jsonl")
    (TRACE_DIR / f"{stem}.summary.json").write_text(json.dumps({"environment": _environment(st), "layers": layers, "absent": absent}, indent=1) + "\n")
    return calls, {name: {"value": layers[name], "unit": unit} for name, unit in units.items() if name in layers}


def run_all(args) -> int:
    """Run every workload in its own child process and print a combined result."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = code or child.returncode
        if child.returncode != 0 or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sfde_tem" / "__init__.py").is_file():
        print(f"error: no sfde_tem package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import sfde_tem
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    prepared = WORKLOADS[args.workload](sfde_tem)
    env = _environment(sfde_tem)
    print("env " + json.dumps(env))
    if env["default_threads_exceed_nproc"]:
        print(f"warning: the library's default of {env['default_threads']} threads exceeds nproc={env['nproc']}")
    print("levels " + ", ".join(f"step={level.step:g} N={level.n_hist} K={level.n_steps}" for level in prepared.levels))

    runner = run_traced if args.trace else run_end_to_end
    calls, metrics = runner(sfde_tem, prepared, args)
    failed_frac = calls.failed / calls.attempted
    print(f"metric failed_frac {failed_frac:.4g} ({calls.failed} of {calls.attempted} calls failed)")
    print(f"digest {calls.digest} (seed {args.seed})")
    correct = calls.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": calls.attempted, "failed": calls.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
