#!/usr/bin/env python3
"""Where an isolated compiled call spends its time, step by step, and what it costs.

An isolated call is CompiledFunction.call_isolated -> run_once ->
ForkServer.run: the caller sets up the pipe and the in-memory log of a new
child, sends one fork request to the zygote (ForkServer.spawn), which forks
the child in a run directory of its own, waits for the child's answer and
reads it (_Child._receive), and then kills the child if it is still there
and closes its descriptors (_end_child). Run from the repository root:

    python3 scripts/isolated_call_profile.py
    python3 scripts/isolated_call_profile.py --against ../askit-parent
    python3 scripts/isolated_call_profile.py --vetting --against ../askit-parent

The first form prints, as one JSON object (copied into another checkout with
scripts/interleave.py, the script profiles that checkout), the medians
(perf_counter_ns, in µs) of each of those caller-side steps for `def
double(*, xs): return [x * 2 for x in xs]` on a 3-int list, together with
whole call_isolated calls. Each step is timed by wrapping the function that
does it; "set_up" is _Child.__init__ less the fork request it makes.

With --against DIR (another checkout of this repository), it also runs the
interleaved microbenchmark: --pairs pairs of fresh processes, one per tree
and in alternating order, each timing --calls isolated calls and printing
their median; then the median over pairs and how many pairs this tree won.

With --vetting, each timed operation is a vetting run instead, as
codegen's _run_test_examples makes it: ForkServer.run of four argument sets
with the candidate's text inline, a new text each run, so the zygote
compiles each one (the compile workload's misses, without their noise).
It prints the median of whole runs, and with --against the interleaved pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from interleave import REPO, SOURCE, compiled, interleaved, median_us, time_calls

ARGS = {"xs": [1, 2, 3]}
VETTING_SETS = [{"xs": [1, 2, 3]}, {"xs": []}, {"xs": [-4]}, {"xs": list(range(10))}]


def whole_calls(calls: int) -> dict[str, float]:
    """The median of whole call_isolated calls, in µs."""
    import askit

    with tempfile.TemporaryDirectory() as cache_dir, compiled(askit, cache_dir) as function:
        return {"call_isolated_us": time_calls(lambda: function.call_isolated(ARGS), calls)}


def vetting_runs(calls: int) -> dict[str, float]:
    """The median of whole vetting runs, in µs: each a new candidate text."""
    from askit import runner

    samples = []
    with runner.ForkServer() as server:
        for i in range(calls + calls // 5):  # the first fifth warms up
            text = f"{SOURCE}# candidate {i}\n"
            started = time.perf_counter_ns()
            # By keyword: each tree's run takes the text at its own place.
            outcomes = server.run("candidate.py", text=text, entry="double", args=VETTING_SETS)
            if i >= calls // 5:
                samples.append(time.perf_counter_ns() - started)
            assert outcomes == [[2, 4, 6], [], [-8], list(range(0, 20, 2))], outcomes
    return {"vetting_run_us": median_us(samples)}


def caller_steps(calls: int) -> dict[str, float]:
    """The caller's side of an isolated call, each step timed by a wrapper."""
    import askit
    from askit import runner

    spent: dict[str, int] = {}

    def timed(name, function):
        def wrapper(*args, **kwargs):
            started = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                spent[name] = spent.get(name, 0) + time.perf_counter_ns() - started
        return wrapper

    originals = [(runner._Child, "__init__"), (runner.ForkServer, "spawn"), (runner._Child, "_receive"), (runner, "_end_child")]
    saved = [(owner, name, getattr(owner, name)) for owner, name in originals]
    for owner, name, function in saved:
        setattr(owner, name, timed(name.strip("_"), function))
    steps = {name: [] for name in ("set_up", "spawn", "receive", "end_child", "call")}
    try:
        with tempfile.TemporaryDirectory() as cache_dir, compiled(askit, cache_dir) as function:
            for i in range(calls + calls // 5):
                spent.clear()
                started = time.perf_counter_ns()
                function.call_isolated(ARGS)
                spent["call"] = time.perf_counter_ns() - started
                if i >= calls // 5:
                    steps["set_up"].append(spent["init"] - spent["spawn"])
                    for name in ("spawn", "receive", "end_child", "call"):
                        steps[name].append(spent[name])
    finally:
        for owner, name, function in saved:
            setattr(owner, name, function)
    return {f"{name}_us": median_us(samples) for name, samples in steps.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another checkout to run the interleaved microbenchmark against")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--vetting", action="store_true", help="time vetting runs with inline candidates instead")
    parser.add_argument("--whole-calls-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    whole = vetting_runs if args.vetting else whole_calls
    if args.whole_calls_only:  # one side of a pair; askit comes from PYTHONPATH
        print(json.dumps(whole(args.calls)))
        return 0
    sys.path.insert(0, str(REPO / "src"))
    report = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    if not args.vetting:
        report["caller"] = caller_steps(args.calls)
    report["whole"] = whole(args.calls)
    if args.against is not None:
        argv = ["--whole-calls-only", "--calls", str(args.calls), *(["--vetting"] if args.vetting else [])]
        report["interleaved"] = interleaved(__file__, argv, args.against, args.pairs, calls_per_run=args.calls)[0]
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
