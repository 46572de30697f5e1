#!/usr/bin/env python3
"""Where a warm compiled call spends its time, step by step, and what it costs.

A warm call is CompiledFunction.__call__ -> Worker.call: the caller encodes
the request, checks that the worker is still there, writes one line to the
worker's pipe `in`, waits for `out` to become readable, reads the answer line
and decodes it; the worker reads and decodes the request, calls the
function, encodes the response and writes it. Run from the repository root:

    python3 scripts/warm_call_profile.py
    python3 scripts/warm_call_profile.py --against ../askit-parent

The first form prints, as one JSON object (copied into another checkout,
the script profiles that checkout), the medians (perf_counter_ns, in
µs) of each of those steps for a 3-int list and `def double(*, xs): return
[x * 2 for x in xs]`, together with whole Worker.call and CompiledFunction
calls. The caller's steps are taken one at a time on a real worker; the
worker's steps run in this process over a pipe as harness.serve takes them
(a line read from a file object and harness.loads, then handle_request,
encode_response and write_line), so they exclude the wake-ups that a real
worker's turn pays.

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
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCE = "def double(*, xs):\n    return [x * 2 for x in xs]\n"
ARGS = {"xs": [1, 2, 3]}


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


def _time_calls(call, calls: int) -> float:
    for _ in range(calls // 5):  # warm-up
        call()
    samples = []
    for _ in range(calls):
        started = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - started)
    return _median_us(samples)


def whole_calls(calls: int) -> dict[str, float]:
    """Medians of warm Worker.call and CompiledFunction calls, in µs."""
    import askit

    with tempfile.TemporaryDirectory() as cache_dir, _compiled(askit, cache_dir) as compiled:
        compiled(ARGS)
        worker, entry = compiled._worker, compiled.generated.entry
        return {
            "worker_call_us": _time_calls(lambda: worker.call(entry, ARGS), calls),
            "compiled_call_us": _time_calls(lambda: compiled(ARGS), calls),
        }


def caller_steps(calls: int) -> dict[str, float]:
    """The caller's side of Worker.call, one step at a time, on a real worker."""
    import askit
    from askit import harness, runner

    # The request encoder of the tree under test: older trees used json.dumps.
    encode = getattr(runner, "dumps", None) or (lambda value: json.dumps(value, ensure_ascii=False))
    steps = {name: [] for name in ("encode", "liveness_check", "send", "wait", "read", "decode")}
    with tempfile.TemporaryDirectory() as cache_dir, _compiled(askit, cache_dir) as compiled:
        compiled(ARGS)
        worker, entry = compiled._worker, compiled.generated.entry
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
    return {f"{name}_us": _median_us(samples) for name, samples in steps.items()}


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
    result = {f"{name}_us": _median_us(samples) for name, samples in steps.items()}
    result["turn_us"] = round(sum(result.values()), 2)
    return result


def interleaved(against: Path, pairs: int, calls: int) -> dict:
    """Whole-call medians from fresh processes, alternating the trees."""
    trees = {"against": against.resolve(), "this": REPO}
    runs = {side: [] for side in trees}
    for pair in range(pairs):
        order = ("against", "this") if pair % 2 == 0 else ("this", "against")
        for side in order:
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            out = subprocess.run(
                [sys.executable, __file__, "--whole-calls-only", "--calls", str(calls)],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            ).stdout
            runs[side].append(json.loads(out))
    summary = {"pairs": pairs, "calls_per_run": calls, "trees": {side: str(path) for side, path in trees.items()}}
    for metric in ("worker_call_us", "compiled_call_us"):
        against_runs = [run[metric] for run in runs["against"]]
        this_runs = [run[metric] for run in runs["this"]]
        summary[metric] = {
            "against_median": round(statistics.median(against_runs), 2),
            "this_median": round(statistics.median(this_runs), 2),
            "this_wins": sum(mine < theirs for mine, theirs in zip(this_runs, against_runs)),
            "against_runs": against_runs,
            "this_runs": this_runs,
        }
    return summary


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
        report["interleaved"] = interleaved(args.against, args.pairs, args.calls)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
