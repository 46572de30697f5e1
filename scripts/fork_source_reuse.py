#!/usr/bin/env python3
"""Share of fork-server runs whose source matched the previous run's on the
same fork server, for one perfbench workload.

A fork server's zygote compiles a source once and reuses the code object
while the next run on it carries the same name and text; this share is how
often that reuse happens. Run from the repository root:

    python scripts/fork_source_reuse.py --workload compile --seed 1 --seconds 20

It runs the workload untraced through perfbench/run.py's `run`, with
ForkServer.run wrapped to note each run's name and source text, and prints
one JSON object. Only the counts are reported; the wrapper's own cost makes
this run's timings differ from a benchmark run's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import weakref
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("compile", "call", "direct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if Path.cwd() != REPO:
        parser.error(f"run from the repository root, {REPO}")
    sys.path.insert(0, str(REPO / "perfbench"))
    import run as bench

    if bench.import_askit() is None:
        parser.error("askit not found under ./src")
    from askit.runner import ForkServer

    original = ForkServer.run
    last = weakref.WeakKeyDictionary()  # server -> (zygote pid, name, text) of its last run
    counts = {"runs": 0, "same_source": 0}

    def run(self, name, text, *rest, **kwargs):
        key = (os.fspath(name), text)
        try:
            return original(self, name, text, *rest, **kwargs)
        finally:
            entry = (getattr(self._proc, "pid", None), *key)  # a new zygote has compiled nothing
            counts["runs"] += 1
            counts["same_source"] += last.get(self) == entry
            last[self] = entry

    ForkServer.run = run
    try:
        result = bench.run(args.workload, args.seed, args.seconds, trace=False)
    finally:
        ForkServer.run = original
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": result["failed"] == 0 and not result["leftover_processes"],
        "fork_server_runs": counts["runs"],
        "same_source_as_previous_run": counts["same_source"],
        "share": round(counts["same_source"] / max(counts["runs"], 1), 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
