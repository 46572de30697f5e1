#!/usr/bin/env python3
"""Combine saved benchmark runs into medians, spreads and derived lines.

    python3 perfbench/summary.py [--results DIR] [--model-latency-ms MS]

For every workload and metric it prints the median over the saved runs and
the spread, the distance between the first and third quartile as a share of
the median. Where traced and untraced runs of a workload exist, it prints the
tracing overhead: the traced median minus the untraced one.

The paper's ratio of direct latency to compiled execution is printed only as
a derived, ungated line, with the model latency it assumes in its label:
(declared model latency + ask_us_p50 of `direct`) / call_us_p50 of `call`.
With zero model latency that ratio says nothing about the paper's claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--results", type=Path, default=Path(".perfbench/results"))
    parser.add_argument("--model-latency-ms", type=float, default=1000.0)
    args = parser.parse_args(argv)

    runs = [json.loads(path.read_text()) for path in sorted(args.results.glob("*.json"))]
    if not runs:
        print(f"no results under {args.results}", file=sys.stderr)
        return 1
    # (workload, trace, section) -> metric -> values
    table: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for run in runs:
        for section in ("end_to_end", "named", "per_layer"):
            for name, (value, _, unit, *_) in run.get(section, {}).items():
                table[run["workload"], run["trace"], section][name].append(value)
                units[name] = unit

    medians: dict[tuple, float] = {}
    for (workload, trace, section), metrics in sorted(table.items()):
        print(f"== {workload}  trace {trace}  {section}")
        for name, values in metrics.items():
            middle = statistics.median(values)
            medians[workload, trace, name] = middle
            print(f"{name:36s} {middle:14.4f} {units[name]:6s} spread {spread(values):7.2%}  runs={len(values)}")

    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        untraced = table.get((workload, 0, "end_to_end"), {})
        if not untraced or (workload, 1, "end_to_end") not in table:
            continue
        print(f"== {workload}  tracing overhead (traced - untraced median)")
        for name in untraced:
            base = medians[workload, 0, name]
            delta = medians[workload, 1, name] - base
            print(f"{name:36s} {delta:+14.4f} {units[name]:6s} ({delta / base:+.1%})")

    ask = medians.get(("direct", 0, "ask_us_p50"))
    call = medians.get(("call", 0, "call_us_p50"))
    if ask is not None and call is not None:
        latency_us = args.model_latency_ms * 1e3
        label = f"paper_ratio[declared_model_latency={args.model_latency_ms:g}ms]"
        print(f"{label} = ({args.model_latency_ms:g} ms + ask_us_p50 {ask:.1f} us)"
              f" / call_us_p50 {call:.1f} us = {(latency_us + ask) / call:.1f}  (derived, ungated)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
