#!/usr/bin/env python3
"""What checking an answer against its schema costs: validate, and validate plus coerce.

parse_answer checks every direct answer with types.validate and, when it
conforms, normalizes it with types.coerce. Run from the repository root:

    python3 scripts/schema_profile.py
    python3 scripts/schema_profile.py --against ../askit-parent --pairs 10

The first form prints, as one JSON object, the medians (perf_counter_ns, in
µs) of `validate` and of `validate` then `coerce` (as parse_answer takes
them: no coerce after a mismatch) on six values:

    ints_10, ints_1000, ints_10000   lists of 10, 10^3 and 10^4 ints
    records_100                      100 records of three fields (int, str, float)
    unions_1000                      1,000 elements of int | str | {a: int}, in turn
    ints_10000_last_bad              10^4 ints whose last element is a string

With --against DIR (another checkout of this repository), it also runs the
interleaved microbenchmark: --pairs pairs of fresh processes, one per tree
and in alternating order (the other tree first on even pairs), each printing
the same medians; then, per value and measure, the median over pairs and how
many pairs this tree won.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from interleave import REPO, interleaved, median_us


def cases(askit) -> dict:
    """Each value with its schema, built the same way in every tree."""
    ints = askit.list_of(askit.INT)
    row = askit.record({"id": askit.INT, "name": askit.STR, "score": askit.FLOAT})
    either = askit.union(askit.INT, askit.STR, askit.record({"a": askit.INT}))
    return {
        "ints_10": (ints, list(range(10))),
        "ints_1000": (ints, list(range(1000))),
        "ints_10000": (ints, list(range(10_000))),
        "records_100": (askit.list_of(row), [{"id": i, "name": f"n{i}", "score": i / 4} for i in range(100)]),
        "unions_1000": (askit.list_of(either), [[i, str(i), {"a": i}][i % 3] for i in range(1000)]),
        "ints_10000_last_bad": (ints, [*range(9999), "9999"]),
    }


def _median_us(run, seconds: float) -> float:
    """Median of timed calls of run(), for about `seconds` after a warm-up, and at least 11 of them."""
    for _ in range(3):
        run()
    samples, stop = [], time.monotonic() + seconds
    while len(samples) < 11 or time.monotonic() < stop:
        started = time.perf_counter_ns()
        run()
        samples.append(time.perf_counter_ns() - started)
    return median_us(samples)


def medians(seconds: float) -> dict[str, float]:
    import askit
    from askit.types import coerce, validate

    def checked(schema, value):
        report = validate(schema, value, path="answer")
        return coerce(schema, value) if report.ok else report

    result = {}
    for name, (schema, value) in cases(askit).items():
        result[f"{name}.validate_us"] = _median_us(lambda: validate(schema, value, path="answer"), seconds)
        result[f"{name}.validate_coerce_us"] = _median_us(lambda: checked(schema, value), seconds)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another checkout to run the interleaved microbenchmark against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=0.3, help="time spent on each value and measure")
    parser.add_argument("--medians-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.medians_only:  # one side of a pair; askit comes from PYTHONPATH
        print(json.dumps(medians(args.seconds)))
        return 0
    sys.path.insert(0, str(REPO / "src"))
    report = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "medians": medians(args.seconds)}
    if args.against is not None:
        report["interleaved"] = interleaved(__file__, ["--medians-only", "--seconds", str(args.seconds)], args.against,
                                            args.pairs, seconds_per_measure=args.seconds)[0]
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
