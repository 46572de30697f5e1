#!/usr/bin/env python3
"""Interpreter starts over one seeded round of a perfbench workload.

Each round of the compile workload compiles every task of its corpus into a
fresh cache directory, so each task misses once and codegen.generate vets
its candidates on fork servers. One set-up of the call workload compiles its
four tasks (each a miss) and makes one warm call on each. This counts how
many interpreters either starts, and how many of them are fork-server
zygotes, against how many misses it has. Run from the repository root:

    python scripts/zygote_starts.py --seed 1
    python scripts/zygote_starts.py --workload call --seed 1

It runs the workload untraced through perfbench/run.py's `run` with one
set-up and a zero-second timed phase (which still completes the compile
workload's first round), with runner._HarnessProcess._start, which starts
every harness interpreter, wrapped to count its calls (`--fork-server`
launches are zygotes, any other a warm worker of its own) and api.generate
wrapped to count misses, and prints one JSON object. Only the counts are
reported; the run is too short for its timings to mean anything.
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
    import askit.runner

    harness_process, api = askit.runner._HarnessProcess, askit.api
    original_start, original_generate = harness_process._start, api.generate
    counts = {"interpreter_starts": 0, "zygote_starts": 0, "worker_starts": 0, "misses": 0}

    def start(self, harness_args):
        counts["interpreter_starts"] += 1
        counts["zygote_starts" if harness_args == ["--fork-server"] else "worker_starts"] += 1
        return original_start(self, harness_args)

    def generate(*rest, **kwargs):
        counts["misses"] += 1
        return original_generate(*rest, **kwargs)

    harness_process._start, api.generate = start, generate
    try:
        result = bench.run(args.workload, args.seed, 0.0, trace=False, setup_reps=1)
    finally:
        harness_process._start, api.generate = original_start, original_generate
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
