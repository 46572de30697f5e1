#!/usr/bin/env python3
"""askit benchmark: one closed-loop workload per run, fully offline.

    python3 perfbench/run.py --workload {compile,call,direct} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root: askit is imported from ./src. Each run
builds its inputs from the seed, sets up several times (the median is
`setup_s`), measures for about S seconds, checks every operation against a
reference computed without askit, and prints the metrics by name with unit
and sample count. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
wraps askit's layer boundaries in spans (see spans.py) and the metrics are
the per-layer ones. Every run also saves all of its numbers under
.perfbench/results/, and a traced run its spans under .perfbench/traces/;
summary.py combines them into medians, tracing overhead and the paper's
direct-versus-compiled ratio.

BENCHMARK.json lists compile and call. direct runs the same way on demand;
it is left out of the gated set because its pure-Python path ran up to 2x
slower for minutes at a time on a shared host, which no run length evens
out. Traced runs of compile and call still reach its layers in the probe.

End-to-end metrics map onto each workload's operations:

    metric          compile              call              direct
    fast_op_us_p50  compile, cache hit   warm call         ask, valid first reply
    slow_op_ms_p50  compile, cache miss  call_isolated     ask after invalid replies
    ops_per_s       compiles             warm calls        asks

The p90 of each class is printed under its own name (compile_hit_us_p90,
call_us_p90, ...) but not gated: on a shared 2-vCPU host it moved by more
between runs of the same code than any bound the benchmark may set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"

SETUP_REPS = {"compile": 25, "call": 5, "direct": 25}


def import_askit():
    """askit from ./src of the directory the benchmark runs in, or None."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import askit
    except ImportError:
        return None
    if source.resolve() not in Path(askit.__file__).resolve().parents:
        return None
    return askit


def live_children() -> list[str]:
    """Process ids of this process's children that are still running."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += (task / "children").read_text().split()
        except OSError:
            continue
    return pids


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def host_loop_ms(times: int = 5) -> list[float]:
    """Milliseconds a fixed pure-Python loop takes, `times` times. The speed of
    a shared host drifts from run to run; this records how fast it ran."""
    samples = []
    for _ in range(times):
        began = perf_counter()
        total = 0
        for number in range(200_000):
            total += number * number
        samples.append((perf_counter() - began) * 1e3)
    return samples


def end_to_end(outcome, rss_mb: float) -> dict[str, tuple[float, int, str]]:
    """Set-up time, memory, and the median over the timed phase's stretches of
    each stretch's rate and class medians (sample count: ops of the class)."""
    stretches = outcome.stretches

    def over(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    fast = [s.fast.quantile(0.5) for s in stretches if s.fast.count]
    slow = [s.slow.quantile(0.5) for s in stretches if s.slow.count]
    return {
        "setup_s": (statistics.median(outcome.setup), len(outcome.setup), "s"),
        "peak_rss_mb": (rss_mb, 1, "MB"),
        # A traced phase that reached its span cap leaves empty stretches.
        "ops_per_s": (over([s.ops / s.seconds for s in stretches if s.ops]),
                      sum(s.ops for s in stretches), "1/s"),
        "fast_op_us_p50": (over(fast) * 1e6, sum(s.fast.count for s in stretches), "us"),
        "slow_op_ms_p50": (over(slow) * 1e3, sum(s.slow.count for s in stretches), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, inject: bool = False,
        setup_reps: int | None = None) -> dict:
    """One run; returns every number it measured. Leaves no files or processes."""
    import spans
    import workloads

    work = STATE / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    undo = spans.install(tracer) if trace else []
    ctx = workloads.Context(seed, seconds, work, setup_reps or SETUP_REPS[workload], tracer, inject)
    tempfile.tempdir = str(work)  # askit's scratch directories land in `work`
    try:
        host = host_loop_ms()
        outcome = workloads.WORKLOADS[workload](ctx)
        host += host_loop_ms()
        floor = workloads.probe(ctx) if trace else []
    finally:
        spans.uninstall(undo)
        tempfile.tempdir = None
        shutil.rmtree(work)
    rss = peak_rss_mb()
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": outcome.gate.attempted,
        "failed": outcome.gate.failed,
        "failures": dict(outcome.gate.failures),
        "stretches": len(outcome.stretches),
        "leftover_processes": live_children(),
        "end_to_end": end_to_end(outcome, rss),
        "named": {**outcome.named, "failed_ratio": (
            outcome.gate.failed / max(outcome.gate.attempted, 1), outcome.gate.attempted, "ratio"),
            "host_loop_ms": (statistics.median(host), len(host), "ms")},
    }
    if trace:
        recorded = tracer.spans()
        result["per_layer"] = spans.layer_metrics(recorded, floor)
        result["spans"] = len(recorded)
        spans.write_jsonl(STATE / "traces" / f"{workload}-seed{seed}.jsonl", recorded)
    return result


def report(result: dict) -> dict:
    """Print the run's numbers; return the object for the last output line."""
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {result['trace']}  python {result['python']}  nproc {result['nproc']}"
          f"  stretches {result['stretches']}")
    sections = [("named", result["named"]), ("end-to-end", result["end_to_end"])]
    if result["trace"]:
        sections.append(("per-layer", result["per_layer"]))
    for title, metrics in sections:
        print(f"-- {title}")
        for name, (value, count, unit, *phase) in metrics.items():
            where = f"  from {phase[0]}" if phase else ""
            print(f"{name:36s} {value:14.4f} {unit:6s} n={count}{where}")
    if result["failures"]:
        print(f"failures: {result['failures']}")
    if result["leftover_processes"]:
        print(f"processes left running: {result['leftover_processes']}")
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["failed"] == 0 and not result["leftover_processes"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit, *_) in chosen.items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if import_askit() is None:
        print(f"askit not found under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    # A terminated run unwinds like an interrupted one, so its clean-up
    # (temporary directory, warm workers) still happens.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
