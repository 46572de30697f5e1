"""The benchmark's closed-loop workloads, driving askit's public API.

compile  one caller compiles a seeded corpus of codable tasks. Each task's
         first request misses into a fresh cache directory and runs the
         scripted candidates through vetting; the requests for it right
         after that hit the cache.
         Rounds over the corpus repeat until the time is up, and a round is
         never cut short, so every run sees the same mix of rejects.
call     one caller, in cycles of three slices over a few CompiledFunctions
         compiled during set-up: warm calls with payloads the size of the
         demo tasks' test inputs; warm calls with payloads of 10 to 10^4
         elements; call_isolated calls.
direct   one caller asks DefinedFunctions against the replay backend at zero
         delay; seeded invalid replies precede each valid one. Not in
         BENCHMARK.json: this pure-Python path ran up to 2x slower for
         minutes at a time on a shared host, so its figures are not gated;
         traced runs of the other workloads reach its layers in their probe.

Each workload returns an Outcome: set-up times, the stretches of its timed
phase (each with a fast and a slow class of operation latencies and its op
rate), the metrics named after what they measure, and the correctness
gate's tally.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import askit.taskfile
from askit import (
    AskitError,
    CodegenConfig,
    DefinedFunction,
    Message,
    RecordingClient,
    ReplayClient,
    ScriptedClient,
    build_codegen,
    fixture_key,
)

import corpus
from stats import Samples

SPAN_CAP = 100_000  # a traced phase ends early once it holds this many spans
CAPACITY = 1 << 16  # latencies kept per class; beyond it a uniform reservoir
STRETCH_CAPACITY = 1 << 13  # the same, per stretch
# The gated figures are medians over stretches of a timed phase (compile:
# its rounds; call: its cycles; direct: tenths of the run) of each stretch's
# own figure. The shared host's speed drifts by up to 1.5-2x for seconds to
# minutes; a slow stretch then moves the median over stretches by less than
# it moves a percentile over all of the run's operations, which is kept as a
# named metric.
DIRECT_STRETCHES = 10
# Shares of each cycle of a `call` run: warm small calls, warm bulk calls;
# isolated calls take the rest.
WARM_SHARE, BULK_SHARE = 0.4, 0.2
CYCLE_SECONDS = 3.5


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path  # the run's own directory; tempfile.tempdir points here
    setup_reps: int
    tracer: Any = None
    inject: bool = False

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def set_op(self, op) -> None:
        if self.tracer is not None:
            self.tracer.set_op(op)

    def spans(self) -> int:
        return 0 if self.tracer is None else self.tracer.count()

    def keep_going(self, deadline: float, spans_at_start: int) -> bool:
        if perf_counter() >= deadline:
            return False
        return self.tracer is None or self.tracer.count() - spans_at_start < SPAN_CAP


class Gate:
    """Counts ops and the ways they went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures[problem] += 1
        return problem is None

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)


class Stretch:
    """One stretch of a timed phase: the latencies of its fast and slow class
    of operation, and how many operations it finished in how long."""

    def __init__(self):
        self.fast, self.slow = Samples(STRETCH_CAPACITY), Samples(STRETCH_CAPACITY)
        self.ops, self.seconds = 0, 0.0


@dataclass
class Outcome:
    setup: list[float]
    stretches: list[Stretch]
    gate: Gate
    named: dict[str, tuple[float, int, str]] = field(default_factory=dict)


def _timed_setups(ctx: Context, setup, teardown=None):
    """Run `setup` setup_reps times in fresh directories; keep the last state."""
    ctx.phase("setup")
    times, state = [], None
    for rep in range(ctx.setup_reps):
        if state is not None and teardown is not None:
            teardown(state)
        directory = ctx.work / f"setup-{rep}"
        directory.mkdir()
        start = perf_counter()
        state = setup(ctx, directory)
        times.append(perf_counter() - start)
    return times, state


def _load_specs(directory: Path, entries: list[dict]) -> dict:
    path = directory / "tasks.json"
    corpus.write_task_file(path, entries)
    loaded = askit.taskfile.load_task_file(path)
    return {name: entry.to_spec() for name, entry in loaded.entries.items()}


def _codegen_client(directory: Path, specs: list, scripts: list[list[str]]) -> ReplayClient:
    """Replay store holding each task's candidates in order, cycling per round."""
    path = directory / "fixtures.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for spec, script in zip(specs, scripts):
            key = fixture_key(corpus.MODEL_ID, 1.0, [Message("user", build_codegen(spec).text)])
            for response in script:
                handle.write(json.dumps({"key": key, "response": response}) + "\n")
    return ReplayClient(path, model_id=corpus.MODEL_ID, cycle=True)


def _named(samples: Samples, name: str, scale: float, unit: str, q: float) -> tuple[str, tuple]:
    return name, (samples.quantile(q) * scale, samples.count, unit)


# --- compile ---------------------------------------------------------------


def _compile_setup(ctx: Context, directory: Path):
    tasks, stream = corpus.compile_corpus(ctx.seed, inject=ctx.inject)
    specs = _load_specs(directory, [task.entry() for task in tasks])
    ordered = [specs[task.name] for task in tasks]
    client = _codegen_client(directory, ordered, [task.script for task in tasks])
    return tasks, stream, client, [DefinedFunction(spec) for spec in ordered]


def compile_workload(ctx: Context) -> Outcome:
    setup, (tasks, stream, client, functions) = _timed_setups(ctx, _compile_setup)
    misses, hits, gate = Samples(CAPACITY), Samples(CAPACITY), Gate()
    ctx.phase("timed")
    spans_at_start = ctx.spans()
    start = perf_counter()
    deadline = start + ctx.seconds
    rounds, stretches = 0, []
    while True:
        config = CodegenConfig(cache_dir=ctx.work / f"cache-{rounds}")
        seen = set()
        stretch = Stretch()
        stretches.append(stretch)
        round_start = perf_counter()
        for op, index in enumerate(stream):
            task = tasks[index]
            first = index not in seen
            seen.add(index)
            ctx.set_op(f"{rounds}.{op}")
            began = perf_counter()
            try:
                generated = functions[index].compile(config=config, client=client).generated
            except AskitError:
                problem = "raised"
            else:
                problem = None
                if generated.source != task.source or generated.entry != task.name:
                    problem = "value"
                elif generated.retries_used != task.rejects:
                    problem = "retries"
            elapsed = perf_counter() - began
            if gate.record(problem):
                (misses if first else hits).add(elapsed)
                (stretch.slow if first else stretch.fast).add(elapsed)
        stretch.ops, stretch.seconds = len(stream), perf_counter() - round_start
        rounds += 1
        if not ctx.keep_going(deadline, spans_at_start):
            break
    rate = rounds * len(stream) / (perf_counter() - start)
    if (ctx.work / corpus.ESCAPE_FILE).exists():
        gate.record("sandbox_escape")
    named = dict([
        _named(misses, "compile_miss_ms_p50", 1e3, "ms", 0.5),
        _named(misses, "compile_miss_ms_p90", 1e3, "ms", 0.9),
        _named(hits, "compile_hit_us_p50", 1e6, "us", 0.5),
        _named(hits, "compile_hit_us_p90", 1e6, "us", 0.9),
        ("compiles_per_s", (rate, gate.attempted, "1/s")),
    ])
    return Outcome(setup, stretches, gate, named)


# --- call ------------------------------------------------------------------


def _call_setup(ctx: Context, directory: Path):
    tasks, small, bulk = corpus.call_corpus(ctx.seed, inject=ctx.inject)
    specs = _load_specs(directory, [task.entry() for task in tasks])
    ordered = [specs[task.name] for task in tasks]
    client = _codegen_client(directory, ordered, [task.script for task in tasks])
    config = CodegenConfig(cache_dir=directory / "cache")
    functions = []
    for spec, task in zip(ordered, tasks):
        function = DefinedFunction(spec).compile(config=config, client=client)
        functions.append(function)
        function(task.tests[0]["input"])  # starts the warm worker
    return small, bulk, functions


def _close_functions(state) -> None:
    for function in state[-1]:
        function.close()


def call_workload(ctx: Context) -> Outcome:
    setup, state = _timed_setups(ctx, _call_setup, _close_functions)
    try:
        return _call_timed(ctx, setup, *state)
    finally:
        _close_functions(state)


def _check_call(op, call) -> str | None:
    """Run one call; the failure it shows, or None."""
    try:
        result = call(op)
    except AskitError:
        return "raised"
    return None if corpus.same(op.expected, result) else "value"


def _one_caller(ctx: Context, label: str, ops, call, deadline: float, gate: Gate, record,
                done: int, spans_at_start: int) -> int:
    """Call `call(op)` over `ops` in turn from position `done` until `deadline`;
    a correct op's latency goes to `record(op, seconds)`. Returns the next
    position."""
    while ctx.keep_going(deadline, spans_at_start):
        op = ops[done % len(ops)]
        ctx.set_op(f"{label}.{done}")
        done += 1
        began = perf_counter()
        problem = _check_call(op, call)
        elapsed = perf_counter() - began
        if gate.record(problem):
            record(op, elapsed)
    return done


def _call_timed(ctx: Context, setup, small, bulk, functions) -> Outcome:
    """Cycles of three slices from one caller: warm small calls, warm bulk
    calls, isolated calls. Each kind of call thus samples the whole run, not
    one stretch of it, and the host's drifting speed weighs on all of them
    alike. One caller, because two caller threads and their two workers are
    more runnable processes than the 2 vCPUs the benchmark was made on: the
    two-caller rate spread by 0.47 of its median over ten runs, set by the
    scheduler more than by askit."""
    ctx.phase("timed")
    spans_at_start = ctx.spans()
    cycles = max(1, round(ctx.seconds / CYCLE_SECONDS))
    warm_seconds, bulk_seconds, isolated_seconds = (
        ctx.seconds * share / cycles for share in (WARM_SHARE, BULK_SHARE, 1 - WARM_SHARE - BULK_SHARE))
    warm, isolated = Samples(4 * CAPACITY), Samples(CAPACITY)
    by_size = {size: Samples(CAPACITY) for size in corpus.BULK_SIZES}
    warm_gate, gate = Gate(), Gate()
    warm_done = bulk_done = isolated_done = 0
    stretches = []

    def warm_call(op):
        return functions[op.function](op.args)

    def isolated_call(op):
        return functions[op.function].call_isolated(op.args)

    for _ in range(cycles):
        stretch = Stretch()
        stretches.append(stretch)

        def record_warm(op, seconds):
            warm.add(seconds)
            stretch.fast.add(seconds)

        def record_isolated(op, seconds):
            isolated.add(seconds)
            stretch.slow.add(seconds)

        calls_before = warm_gate.attempted
        start = perf_counter()
        warm_done = _one_caller(ctx, "warm", small, warm_call, start + warm_seconds, warm_gate, record_warm,
                                warm_done, spans_at_start)
        stretch.seconds = perf_counter() - start
        stretch.ops = warm_gate.attempted - calls_before
        bulk_done = _one_caller(ctx, "bulk", bulk, warm_call, perf_counter() + bulk_seconds, gate,
                                lambda op, seconds: by_size[op.size].add(seconds), bulk_done, spans_at_start)
        isolated_done = _one_caller(ctx, "isolated", small, isolated_call, perf_counter() + isolated_seconds,
                                    gate, record_isolated, isolated_done, spans_at_start)
    calls = warm_gate.attempted
    rate = calls / sum(stretch.seconds for stretch in stretches)
    gate.merge(warm_gate)
    named = dict([
        _named(warm, "call_us_p50", 1e6, "us", 0.5),
        _named(warm, "call_us_p90", 1e6, "us", 0.9),
        ("calls_per_s", (rate, calls, "1/s")),
        *(_named(by_size[size], f"call_{size}_us_p50", 1e6, "us", 0.5) for size in corpus.BULK_SIZES),
        _named(isolated, "isolated_call_ms_p50", 1e3, "ms", 0.5),
        _named(isolated, "isolated_call_ms_p90", 1e3, "ms", 0.9),
    ])
    return Outcome(setup, stretches, gate, named)


# --- direct ----------------------------------------------------------------


def _direct_setup(ctx: Context, directory: Path):
    families, names, asks = corpus.direct_corpus(ctx.seed, inject=ctx.inject)
    specs = _load_specs(directory, [corpus.direct_entry(f, n) for f, n in zip(families, names)])
    ordered = [specs[name] for name in names]
    path = directory / "fixtures.jsonl"
    for ask in asks:
        recorder = RecordingClient(ScriptedClient(ask.script, model_id=corpus.MODEL_ID), path)
        DefinedFunction(ordered[ask.task], client=recorder).ask(ask.args)
    client = ReplayClient(path, model_id=corpus.MODEL_ID, cycle=True)
    return asks, [DefinedFunction(spec, client=client) for spec in ordered]


def direct_workload(ctx: Context) -> Outcome:
    setup, (asks, functions) = _timed_setups(ctx, _direct_setup)
    every, first, retried, gate = Samples(CAPACITY), Samples(CAPACITY), Samples(CAPACITY), Gate()
    ctx.phase("timed")
    spans_at_start = ctx.spans()
    start = perf_counter()
    deadline = start + ctx.seconds
    stretch_seconds = ctx.seconds / DIRECT_STRETCHES
    stretch, stretch_start = Stretch(), start
    stretches = [stretch]
    done = 0
    running = True
    while running:
        for position, ask in enumerate(asks):
            ctx.set_op(str(done))
            done += 1
            began = perf_counter()
            try:
                result = functions[ask.task].ask(ask.args)
            except AskitError:
                problem = "raised"
            else:
                problem = None
                if not corpus.same(ask.expected, result.value):
                    problem = "value"
                elif result.attempts != ask.rejects + 1:
                    problem = "retries"
            elapsed = perf_counter() - began
            stretch.ops += 1
            if gate.record(problem):
                every.add(elapsed)
                (first if ask.rejects == 0 else retried).add(elapsed)
                (stretch.fast if ask.rejects == 0 else stretch.slow).add(elapsed)
            # Stretches end and the run stops only at block ends, where the
            # reject mix is complete.
            if position % corpus.DIRECT_BLOCK != corpus.DIRECT_BLOCK - 1:
                continue
            running = ctx.keep_going(deadline, spans_at_start)
            now = perf_counter()
            if not running or now - stretch_start >= stretch_seconds:
                stretch.seconds = now - stretch_start
                if not running:
                    break
                stretch, stretch_start = Stretch(), now
                stretches.append(stretch)
    rate = done / (perf_counter() - start)
    named = dict([
        _named(every, "ask_us_p50", 1e6, "us", 0.5),
        _named(every, "ask_us_p90", 1e6, "us", 0.9),
        _named(first, "ask_first_reply_us_p50", 1e6, "us", 0.5),
        _named(first, "ask_first_reply_us_p90", 1e6, "us", 0.9),
        _named(retried, "ask_retried_ms_p50", 1e3, "ms", 0.5),
        _named(retried, "ask_retried_ms_p90", 1e3, "ms", 0.9),
        ("asks_per_s", (rate, gate.attempted, "1/s")),
    ])
    return Outcome(setup, stretches, gate, named)


WORKLOADS = {"compile": compile_workload, "call": call_workload, "direct": direct_workload}


# --- traced runs only ------------------------------------------------------


def probe(ctx: Context) -> list[float]:
    """Touch every layer once more after the timed phase, for the spans of
    layers the workload never reaches; returns interpreter floor samples."""
    ctx.phase("probe")
    ctx.set_op("probe")
    directory = ctx.work / "probe"
    directory.mkdir()
    floor = []
    for _ in range(5):
        began = perf_counter()
        subprocess.run([sys.executable, "-I", "-B", "-c", "pass"], cwd=directory, check=True)
        floor.append(perf_counter() - began)

    rng = random.Random(f"probe-{ctx.seed}")
    task = corpus.make_codable(rng, corpus.FAMILIES[0], 3, ["syntax_error"])
    spec = _load_specs(directory, [task.entry()])[task.name]
    client = _codegen_client(directory, [spec], [task.script])
    config = CodegenConfig(cache_dir=directory / "cache")
    DefinedFunction(spec).compile(config=config, client=client)
    with DefinedFunction(spec).compile(config=config, client=client) as function:
        for example in task.tests * 5:
            function(example["input"])
        function.call_isolated(task.tests[0]["input"])

    (directory / "direct").mkdir()
    ctx.phase("probe set-up")  # recording the replies is not what the probe measures
    asks, functions = _direct_setup(ctx, directory / "direct")
    ctx.phase("probe")
    for ask in asks * 5:
        functions[ask.task].ask(ask.args)
    return floor
