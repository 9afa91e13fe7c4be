"""Benchmark for mscv: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload net_kitti --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/mscv``.  Inputs are
generated from ``--seed``; ``mscv`` is imported from the checkout's
``src`` and receives only the generated arrays and files.  A run:

1. generates its inputs (not timed),
2. sets up (import + loads), in-process once and ``SETUP_REPEATS``
   times in fresh interpreters for ``setup_s``,
3. warms up on inputs outside the timed set,
4. runs items back to back until ``--seconds`` have passed,
5. runs the workload's final checks,

then prints every metric with its unit, the environment, and as its
last line a JSON object ``{correct, attempted, failed, metrics}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the timed phase is split: the first half runs untraced,
the second half under span wrappers on every ``mscv`` layer, and the
metrics are per-layer ones from the traced half plus the tracing
overhead between the halves.  Spans and full results are written to
``.perfbench_out/`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

if "numpy" in sys.modules:
    raise RuntimeError("NumPy loaded before the BLAS thread count was pinned")
os.environ.update(envinfo.BLAS_ENV)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# A fresh interpreter times the Python probe, then the set-up, then the
# probe again; the probe runs before NumPy loads, so it adds nothing to
# the set-up it brackets.
SETUP_SCRIPT = """\
import sys, time
def probe():
    t = time.perf_counter()
    exec({probe!r}, {{}})
    return time.perf_counter() - t
before = probe()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import mscv.cli
if not mscv.__file__.startswith({src!r}):
    raise SystemExit("mscv was imported from outside the checkout")
{snippet}
setup = time.perf_counter() - t0
print(setup, before, probe())
"""


class Tally:
    """Attempted and failed items; an item fails when it raises or when
    the workload's check rejects its result."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def attempt(self, key, rec=None) -> float:
        """Run one item and check it; returns the item's latency.  With
        ``rec``, the item runs under an ``item`` root span.  The check
        runs outside the timer and the span."""
        self.attempted += 1
        span = rec.begin("item") if rec is not None else None
        t0 = time.perf_counter()
        try:
            result, problem = self.workload.item(key), None
        except Exception:
            result, problem = None, f"item {key!r} raised:\n{traceback.format_exc()}"
        latency = time.perf_counter() - t0
        if span is not None:
            rec.end(span)
        if problem is None:
            problem = self.workload.check(result)
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            print(f"FAILED: {problem}", file=sys.stderr)
        return latency


class Phase:
    """One timed phase: a closed loop with one client, running items
    back to back until ``seconds`` have elapsed.  A host-speed probe runs
    before each item and after the last; ``scaled_*`` are the item times
    at nominal host speed.  ``spans`` add the check to each latency."""

    def __init__(self, workload, tally: Tally, seconds: float, first: int, rec=None):
        speed = hostspeed.HostSpeed(workload.probe)
        self.latencies: list[float] = []
        self.spans: list[float] = []
        self.next = first
        start = time.perf_counter()
        while True:
            speed.sample()
            t0 = time.perf_counter()
            self.latencies.append(tally.attempt(workload.timed_key(self.next), rec))
            self.spans.append(time.perf_counter() - t0)
            self.next += 1
            if time.perf_counter() - start >= seconds:
                break
        speed.sample()
        self.probe_s = speed.samples
        self.scaled_latencies = speed.scaled(self.latencies)
        self.scaled_spans = speed.scaled(self.spans)


def setup_in_subprocess(workload) -> tuple[float, float]:
    """Import mscv and load the workload's needs in a fresh interpreter.
    Returns the time that took (interpreter start-up excluded) and that
    time at nominal host speed."""
    code = SETUP_SCRIPT.format(
        probe=hostspeed.PYTHON_PROBE, src=str(SRC), snippet=workload.setup_snippet()
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
    setup, before, after = (float(v) for v in proc.stdout.split()[-3:])
    return setup, hostspeed.bracket_scale([setup], [before, after], hostspeed.FRESH_PYTHON_NOMINAL_S)[0]


def run(args, workdir: Path) -> dict:
    import mscv.cli

    workload = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    workload.generate(args.seed, workdir, mscv)
    generate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    workload.setup(mscv)
    setup_inprocess_s = time.perf_counter() - t0
    setups = [setup_in_subprocess(workload) for _ in range(SETUP_REPEATS)]
    setup_times = [raw for raw, _ in setups]

    tally = Tally(workload)
    for key in workload.warmup_keys:
        tally.attempt(key)
    warmup_items = tally.attempted

    if args.trace:
        half = args.seconds / 2.0
        plain = Phase(workload, tally, half, 0)
        rec = tracing.SpanRecorder()
        modules = [mscv] + [getattr(mscv, name) for name in tracing.LAYERS]
        hooks = tracing.Tracing(rec, modules)
        try:
            root = rec.begin("setup")
            workload.setup(mscv)
            rec.end(root)
            phase = Phase(workload, tally, half, plain.next, rec)
        finally:
            hooks.remove()
        overhead = 100.0 * (
            statistics.median(phase.scaled_latencies) / statistics.median(plain.scaled_latencies) - 1.0
        )
        metrics = report.per_layer(rec, len(phase.latencies), overhead)
        units = {n: u for n, u, _ in report.PER_LAYER}
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(rec.dump()))
        timed_items = len(plain.latencies) + len(phase.latencies)
    else:
        phase = Phase(workload, tally, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = report.end_to_end(
            [scaled for _, scaled in setups], phase.scaled_latencies, phase.scaled_spans, peak_rss_mb
        )
        units = {n: u for n, u, _ in report.END_TO_END}
        timed_items = len(phase.latencies)
    latencies = phase.latencies

    for key in workload.finish_keys:
        tally.attempt(key)

    extras = {
        "generate_s": generate_s,
        "setup_inprocess_s": setup_inprocess_s,
        "setup_samples_s": setup_times,
        "raw_setup_s": statistics.median(setup_times),
        "raw_latency_p50_s": statistics.median(latencies),
        "raw_latency_mean_s": sum(latencies) / len(latencies),
        "raw_latency_max_s": max(latencies),
        "raw_items_per_s": len(latencies) / sum(phase.spans),
        "item_probe_median_s": statistics.median(phase.probe_s),
        **workload.extras(),
    }
    extras["raw_latency_p90_s"] = (
        report.percentile(latencies, 0.9) if len(latencies) >= 100
        else f"n/a ({len(latencies)} items < 100)"
    )
    env = envinfo.capture(
        np, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=tally.attempted, warmup_items=warmup_items, timed_items=timed_items,
        check_items=tally.attempted - warmup_items - timed_items,
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
        "extras": extras,
        "env": env,
        "problems": tally.problems,
    }


def print_report(result: dict, args) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['env']['timed_items']} timed items, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(f"  error_rate = {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']}/{result['attempted']} items)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in result["extras"].items():
        print(f"  [extra] {name} = {value}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"checks: {'all outputs correct' if result['correct'] else 'WRONG OUTPUTS'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "mscv" / "__init__.py").is_file():
        print(f"error: no mscv sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    print_report(result, args)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
