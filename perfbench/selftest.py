#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and clean-up.

    python3 perfbench/selftest.py

Runs each workload briefly on inputs with planted faults and checks that
each kind of mismatch lands in the failure count: a wrong value (compile
returns code other than the expected source, a compiled function that is
wrong on long inputs, a direct answer that belongs to another question) and
a wrong retry count (an unannounced extra reject or invalid reply). It then
checks that an unplanted run fails nothing, that every run removed its
temporary directory and left no child process running, and that a traced run
took its wrappers out of askit again. Last, it makes every model reply
invalid, so that every compile and every ask raises, and checks that such a
run still stops at its deadline with every op failed.
"""

from __future__ import annotations

import sys
from time import perf_counter

import run

EXPECTED = {"compile": {"value", "retries"}, "call": {"value"}, "direct": {"value", "retries"}}


def main() -> int:
    if run.import_askit() is None:
        print("askit not found under ./src; run from the repository root", file=sys.stderr)
        return 2
    import askit.clients
    import askit.codegen

    problems = []

    def check(label: str, result: dict, kinds: set[str]) -> None:
        if set(result["failures"]) != kinds:
            problems.append(f"{label}: failure kinds {sorted(result['failures'])}, expected {sorted(kinds)}")
        if result["leftover_processes"]:
            problems.append(f"{label}: processes left running {result['leftover_processes']}")
        left = list((run.STATE / "tmp").glob(f"{result['workload']}-*"))
        if left:
            problems.append(f"{label}: temporary directories left {left}")
        print(f"{label}: attempted {result['attempted']} failed {result['failed']} {result['failures']}")

    for workload, kinds in EXPECTED.items():
        seconds = 1.5 if workload == "call" else 0.5
        check(f"{workload} planted", run.run(workload, 7, seconds, False, inject=True, setup_reps=1), kinds)
    check("direct clean traced", run.run("direct", 7, 0.5, True, setup_reps=1), set())
    if hasattr(askit.codegen.run_once, "__wrapped__"):
        problems.append("traced run left its wrappers installed")

    replay = askit.clients.ReplayClient
    complete = replay.complete
    replay.complete = lambda self, messages, **kwargs: "No code and no JSON in this reply."
    try:
        for workload in ("compile", "direct"):
            began = perf_counter()
            result = run.run(workload, 7, 0.5, False, setup_reps=1)
            took = perf_counter() - began
            check(f"{workload} every op raises", result, {"raised"})
            if result["failed"] != result["attempted"]:
                problems.append(f"{workload} every op raises: {result['attempted'] - result['failed']} ops passed")
            if took > 10:
                problems.append(f"{workload} every op raises: ran {took:.1f} s for a 0.5 s run")
    finally:
        replay.complete = complete

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
