#!/usr/bin/env python3
"""What a compile() cache hit costs, and what `import askit` costs in memory.

A hit is DefinedFunction.compile -> api.compile -> codegen.cache_lookup, which
reads the cached source and its JSON sidecar from disk, then wraps them in a
CompiledFunction (no worker starts until its first call). Run from the
repository root:

    python3 scripts/hit_profile.py
    python3 scripts/hit_profile.py --against ../askit-parent

The first form prints, as one JSON object (copied into another checkout with
scripts/interleave.py, the script profiles that checkout), the medians
(perf_counter_ns, in µs) of --hits bare cache_lookup hits and --hits
DefinedFunction.compile hits on a three-line source, with the process's fork
server held as a compiled function holds it; and, from a fresh interpreter
that only runs `import askit`, its ru_maxrss in MB and which of the modules
of the HTTP stack (http.client, urllib.request, ssl, email) and OpenSSL's
hashlib (_hashlib) that import loaded.

With --against DIR (another checkout of this repository), it also runs the
interleaved microbenchmark: --pairs pairs of fresh processes, one per tree
and in alternating order, each taking the same numbers; then the median over
pairs and how many pairs this tree won.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from interleave import REPO, SOURCE, interleaved, time_calls

HEAVY_MODULES = ("http.client", "urllib.request", "ssl", "email", "_hashlib")
IMPORT_PROBE = (
    "import resource, sys, json\n"
    "import askit\n"
    "print(json.dumps({'import_maxrss_mb': round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),\n"
    f"                  'heavy_modules_loaded': [name for name in {HEAVY_MODULES!r} if name in sys.modules]}}))\n"
)


def hits(count: int) -> dict[str, float]:
    """Medians of bare cache_lookup hits and DefinedFunction.compile hits, in µs."""
    import askit
    from askit import codegen, runner

    defined = askit.define(
        askit.list_of(askit.INT),
        "Double each of {{xs}}",
        param_schemas={"xs": askit.list_of(askit.INT)},
        name="double",
        client=askit.ScriptedClient([]),
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        config = askit.CodegenConfig(cache_dir=Path(cache_dir))
        askit.cache_store(defined.spec, SOURCE, config, retries_used=1)
        assert codegen.cache_lookup(defined.spec, config).source == SOURCE
        zygote = runner.fork_server()  # held, as the compile path holds it; no zygote starts
        try:
            return {
                "cache_lookup_us": time_calls(lambda: codegen.cache_lookup(defined.spec, config), count),
                "compile_hit_us": time_calls(lambda: defined.compile(config), count),
            }
        finally:
            del zygote


def import_cost(src: Path) -> dict:
    """ru_maxrss and the heavy modules of a fresh `import askit` from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    return json.loads(out)


def one_side(count: int) -> dict:
    """Every number, for the tree whose src is on PYTHONPATH."""
    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    return {**import_cost(src), **hits(count)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another checkout to run the interleaved microbenchmark against")
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--hits", type=int, default=20000)
    parser.add_argument("--one-side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one_side:  # one side of a pair; askit comes from PYTHONPATH
        print(json.dumps(one_side(args.hits)))
        return 0
    sys.path.insert(0, str(REPO / "src"))
    report = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **import_cost(REPO / "src"),
        **hits(args.hits),
    }
    if args.against is not None:
        summary, runs = interleaved(__file__, ["--one-side", "--hits", str(args.hits)], args.against, args.pairs,
                                    ("cache_lookup_us", "compile_hit_us", "import_maxrss_mb"), hits_per_run=args.hits)
        summary["heavy_modules_loaded"] = {side: side_runs[0]["heavy_modules_loaded"] for side, side_runs in runs.items()}
        report["interleaved"] = summary
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
