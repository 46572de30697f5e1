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

The first form prints, as one JSON object (copied into another checkout,
the script profiles that checkout), the medians (perf_counter_ns, in µs)
of each of those caller-side steps for `def double(*, xs): return [x * 2
for x in xs]` on a 3-int list, together with whole call_isolated calls.
Each step is timed by wrapping the function that does it; "set_up" is
_Child.__init__ less the fork request it makes.

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
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCE = "def double(*, xs):\n    return [x * 2 for x in xs]\n"
ARGS = {"xs": [1, 2, 3]}
VETTING_SETS = [{"xs": [1, 2, 3]}, {"xs": []}, {"xs": [-4]}, {"xs": list(range(10))}]


def _median_us(samples: list[int]) -> float:
    return round(statistics.median(samples) / 1000, 2)


def _compiled(askit, cache_dir: str):
    """A CompiledFunction for SOURCE from a cache hit: no client call."""
    defined = askit.define(
        askit.list_of(askit.INT),
        "Double each of {{xs}}",
        param_schemas={"xs": askit.list_of(askit.INT)},
        name="double",
        client=askit.ScriptedClient([]),
    )
    config = askit.CodegenConfig(cache_dir=Path(cache_dir))
    askit.cache_store(defined.spec, SOURCE, config)
    return defined.compile(config)


def whole_calls(calls: int) -> dict[str, float]:
    """The median of whole call_isolated calls, in µs."""
    import askit

    with tempfile.TemporaryDirectory() as cache_dir, _compiled(askit, cache_dir) as compiled:
        for _ in range(calls // 5):  # warm-up
            compiled.call_isolated(ARGS)
        samples = []
        for _ in range(calls):
            started = time.perf_counter_ns()
            compiled.call_isolated(ARGS)
            samples.append(time.perf_counter_ns() - started)
    return {"call_isolated_us": _median_us(samples)}


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
    return {"vetting_run_us": _median_us(samples)}


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
        with tempfile.TemporaryDirectory() as cache_dir, _compiled(askit, cache_dir) as compiled:
            for i in range(calls + calls // 5):
                spent.clear()
                started = time.perf_counter_ns()
                compiled.call_isolated(ARGS)
                spent["call"] = time.perf_counter_ns() - started
                if i >= calls // 5:
                    steps["set_up"].append(spent["init"] - spent["spawn"])
                    for name in ("spawn", "receive", "end_child", "call"):
                        steps[name].append(spent[name])
    finally:
        for owner, name, function in saved:
            setattr(owner, name, function)
    return {f"{name}_us": _median_us(samples) for name, samples in steps.items()}


def interleaved(against: Path, pairs: int, calls: int, vetting: bool) -> dict:
    """Whole-call (or whole vetting run) medians from fresh processes, alternating the trees."""
    trees = {"against": against.resolve(), "this": REPO}
    runs = {side: [] for side in trees}
    metric = "vetting_run_us" if vetting else "call_isolated_us"
    for pair in range(pairs):
        order = ("against", "this") if pair % 2 == 0 else ("this", "against")
        for side in order:
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            out = subprocess.run(
                [sys.executable, __file__, "--whole-calls-only", "--calls", str(calls), *(["--vetting"] if vetting else [])],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            ).stdout
            runs[side].append(json.loads(out)[metric])
    return {
        "pairs": pairs,
        "calls_per_run": calls,
        "trees": {side: str(path) for side, path in trees.items()},
        metric: {
            "against_median": round(statistics.median(runs["against"]), 2),
            "this_median": round(statistics.median(runs["this"]), 2),
            "this_wins": sum(mine < theirs for mine, theirs in zip(runs["this"], runs["against"])),
            "against_runs": runs["against"],
            "this_runs": runs["this"],
        },
    }


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
        report["interleaved"] = interleaved(args.against, args.pairs, args.calls, args.vetting)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
