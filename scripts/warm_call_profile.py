#!/usr/bin/env python3
"""Where a warm compiled call spends its time, step by step, and what it costs.

A warm call is CompiledFunction.__call__ -> Worker.call: the caller encodes
the request, checks that the worker is still there, writes one line to the
worker's pipe `in`, waits for `out` to become readable, reads the answer line
and decodes it; the worker reads and decodes the request, calls the
function, encodes the response and writes it. Run from the repository root:

    python3 scripts/warm_call_profile.py
    python3 scripts/warm_call_profile.py --against ../askit-parent

The first form prints, as one JSON object (copied into another checkout with
scripts/interleave.py, the script profiles that checkout), the medians
(perf_counter_ns, in µs) of each of those steps for a 3-int list and `def
double(*, xs): return [x * 2 for x in xs]`, together with whole Worker.call
and CompiledFunction calls. The caller's steps are taken one at a time on a
real worker; the worker's steps run in this process over a pipe as
harness.serve takes them (a line read from a file object and harness.loads,
then handle_request, encode_response and write_line), so they exclude the
wake-ups that a real worker's turn pays.

With --against DIR (another checkout of this repository), it also runs the
interleaved microbenchmark: --pairs pairs of fresh processes, one per tree
and in alternating order, each timing --calls warm calls of both kinds and
printing their medians; then the median over pairs and how many pairs this
tree won.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import tempfile
import time
from pathlib import Path

from interleave import REPO, SOURCE, compiled, interleaved, median_us, time_calls

ARGS = {"xs": [1, 2, 3]}


def whole_calls(calls: int) -> dict[str, float]:
    """Medians of warm Worker.call and CompiledFunction calls, in µs."""
    import askit

    with tempfile.TemporaryDirectory() as cache_dir, compiled(askit, cache_dir) as function:
        function(ARGS)
        worker, entry = function._worker, function.generated.entry
        return {
            "worker_call_us": time_calls(lambda: worker.call(entry, ARGS), calls),
            "compiled_call_us": time_calls(lambda: function(ARGS), calls),
        }


def caller_steps(calls: int) -> dict[str, float]:
    """The caller's side of Worker.call, one step at a time, on a real worker."""
    import askit
    from askit import harness, runner

    # The request encoder of the tree under test: older trees used json.dumps.
    encode = getattr(runner, "dumps", None) or (lambda value: json.dumps(value, ensure_ascii=False))
    steps = {name: [] for name in ("encode", "liveness_check", "send", "wait", "read", "decode")}
    with tempfile.TemporaryDirectory() as cache_dir, compiled(askit, cache_dir) as function:
        function(ARGS)
        worker, entry = function._worker, function.generated.entry
        fds, unread = worker._fds, worker._unread
        for i in range(calls + calls // 5):
            clock = [time.perf_counter_ns()]
            request = encode({"entry": entry, "args": dict(ARGS)})
            clock.append(time.perf_counter_ns())
            assert worker.alive
            clock.append(time.perf_counter_ns())
            harness.write_line(fds["in"], request)
            clock.append(time.perf_counter_ns())
            select.select([fds["out"]], [], [], None)
            clock.append(time.perf_counter_ns())
            line, why = harness.read_line(fds["out"], 10.0, harness.MAX_RESPONSE_BYTES, unread)
            clock.append(time.perf_counter_ns())
            runner._decode_response(line.decode("utf-8", errors="replace")).get("result")
            clock.append(time.perf_counter_ns())
            if i >= calls // 5:
                for name, start, end in zip(steps, clock, clock[1:]):
                    steps[name].append(end - start)
    return {f"{name}_us": median_us(samples) for name, samples in steps.items()}


def worker_steps(calls: int) -> dict[str, float]:
    """The worker's turn, run in this process over a pipe pair."""
    from askit import harness

    namespace, error = {}, None
    exec(SOURCE, namespace)
    line = (harness.dumps({"entry": "double", "args": ARGS}) + "\n").encode("utf-8")
    request_in, request_out = os.pipe()
    answer_in, answer_out = os.pipe()
    requests = os.fdopen(request_in, "rb")  # as serve reads its lines
    steps = {name: [] for name in ("read_and_decode", "handle", "encode", "write")}
    try:
        for i in range(calls + calls // 5):
            os.write(request_out, line)
            clock = [time.perf_counter_ns()]
            request = harness.loads(requests.readline().decode("utf-8").strip())
            clock.append(time.perf_counter_ns())
            response = harness.handle_request(namespace, error, request)
            clock.append(time.perf_counter_ns())
            text = harness.encode_response(response)
            clock.append(time.perf_counter_ns())
            harness.write_line(answer_out, text)
            clock.append(time.perf_counter_ns())
            os.read(answer_in, 65536)
            if i >= calls // 5:
                for name, start, end in zip(steps, clock, clock[1:]):
                    steps[name].append(end - start)
    finally:
        requests.close()
        for fd in (request_out, answer_in, answer_out):
            os.close(fd)
    result = {f"{name}_us": median_us(samples) for name, samples in steps.items()}
    result["turn_us"] = round(sum(result.values()), 2)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another checkout to run the interleaved microbenchmark against")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--calls", type=int, default=5000)
    parser.add_argument("--whole-calls-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.whole_calls_only:  # one side of a pair; askit comes from PYTHONPATH
        print(json.dumps(whole_calls(args.calls)))
        return 0
    sys.path.insert(0, str(REPO / "src"))
    report = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "caller": caller_steps(args.calls),
        "worker": worker_steps(args.calls),
        "whole": whole_calls(args.calls),
    }
    if args.against is not None:
        report["interleaved"] = interleaved(__file__, ["--whole-calls-only", "--calls", str(args.calls)], args.against,
                                            args.pairs, calls_per_run=args.calls)[0]
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
