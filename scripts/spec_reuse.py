#!/usr/bin/env python3
"""Share of compile() calls whose TaskSpec object was already compiled earlier
in the same process, for one perfbench workload.

A TaskSpec derives its cache file names once and keeps them on the object
(`TaskSpec.cache_names`); a compile() that is handed a spec object seen
before skips the slug and digest. This share is how often that happens.
Run from the repository root:

    python scripts/spec_reuse.py --workload compile --seed 1 --seconds 20

It runs the workload untraced through perfbench/run.py's `run`, with
askit.api.compile wrapped to note each call's spec object and the
workload's phase, and prints one JSON object. Timed-phase calls are counted
apart from set-up ones; the wrapper adds a little to each call, so only the
counts are reported.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    import askit.api
    import workloads

    original_compile, original_phase = askit.api.compile, workloads.Context.phase
    seen = {}  # id -> spec; holding the spec keeps its id from being reused
    phase = ["setup"]
    counts = {}  # phase -> [compiles, compiles of a spec object seen before]

    def compile(defined, *rest, **kwargs):
        spec = defined.spec
        tally = counts.setdefault(phase[0], [0, 0])
        tally[0] += 1
        tally[1] += id(spec) in seen
        seen[id(spec)] = spec
        return original_compile(defined, *rest, **kwargs)

    def set_phase(self, name):
        phase[0] = name
        original_phase(self, name)

    askit.api.compile, workloads.Context.phase = compile, set_phase
    try:
        result = bench.run(args.workload, args.seed, args.seconds, trace=False)
    finally:
        askit.api.compile, workloads.Context.phase = original_compile, original_phase
    timed, reused = counts.get("timed", [0, 0])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": result["failed"] == 0 and not result["leftover_processes"],
        "timed_compiles": timed,
        "timed_spec_seen_before": reused,
        "share": round(reused / timed, 6) if timed else None,
        "by_phase": {name: {"compiles": n, "spec_seen_before": m} for name, (n, m) in counts.items()},
        "distinct_specs": len(seen),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
