#!/usr/bin/env python3
"""Interpreter starts and forked children over one seeded round of a perfbench workload.

Each round of the compile workload compiles every task of its corpus into a
fresh cache directory, so each task misses once and codegen.generate vets
its candidates on fork servers. One set-up of the call workload compiles its
four tasks (each a miss) and makes one warm call on each. This counts how
many interpreters either starts, and how many of them are fork-server
zygotes, against how many misses it has; how many vetting runs codegen makes
(calls of askit.codegen.run_once); and how many children the zygotes fork
(requests sent to a fork server: each run and each warm worker forks one).
Run from the repository root:

    python scripts/zygote_starts.py --seed 1
    python scripts/zygote_starts.py --workload call --seed 1

It runs the workload untraced through perfbench/run.py's `run` with one
set-up and a zero-second timed phase (which still completes the compile
workload's first round), with runner.ForkServer._start, which starts
every harness interpreter, wrapped to count its calls (`--fork-server`
launches are zygotes, any other a warm worker of its own), api.generate
wrapped to count misses, codegen.run_once to count vetting runs and
ForkServer._exchange, which sends each fork request, to count forked
children, and prints one JSON object.
Only the counts are reported; the run is too short for its timings to mean
anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=("compile", "call"), default="compile")
    args = parser.parse_args(argv)
    if Path.cwd() != REPO:
        parser.error(f"run from the repository root, {REPO}")
    sys.path.insert(0, str(REPO / "perfbench"))
    import run as bench

    if bench.import_askit() is None:
        parser.error("askit not found under ./src")
    import askit.api
    import askit.codegen
    import askit.runner

    server, api, codegen = askit.runner.ForkServer, askit.api, askit.codegen
    original_start, original_exchange = server._start, server._exchange
    original_generate, original_run_once = api.generate, codegen.run_once
    counts = {"interpreter_starts": 0, "zygote_starts": 0, "worker_starts": 0, "misses": 0,
              "vetting_runs": 0, "forked_children": 0}

    def start(self):
        original_start(self)
        counts["interpreter_starts"] += 1
        counts["zygote_starts" if self._proc.args[5:] == ["--fork-server"] else "worker_starts"] += 1

    def generate(*rest, **kwargs):
        counts["misses"] += 1
        return original_generate(*rest, **kwargs)

    def run_once(*rest, **kwargs):
        counts["vetting_runs"] += 1
        return original_run_once(*rest, **kwargs)

    def exchange(self, *rest, **kwargs):
        counts["forked_children"] += 1  # a fork request: a run or a worker, one fork each
        return original_exchange(self, *rest, **kwargs)

    server._start, server._exchange = start, exchange
    api.generate, codegen.run_once = generate, run_once
    try:
        result = bench.run(args.workload, args.seed, 0.0, trace=False, setup_reps=1)
    finally:
        server._start, server._exchange = original_start, original_exchange
        api.generate, codegen.run_once = original_generate, original_run_once
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": result["stretches"],
        "correct": result["failed"] == 0 and not result["leftover_processes"],
        **counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
