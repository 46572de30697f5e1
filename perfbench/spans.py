"""Spans around askit's layers, recorded from outside the package.

A traced run patches the module attributes that askit's own callers look up
(for example `askit.codegen.run_once`, which codegen calls for every test
example) with wrappers that record a span: name, start, end, parent span and
op id. Spans stay in memory and are written as JSONL when the run ends. An
untraced run never imports the wrappers into askit.

Self time is a span's duration minus the durations of its child spans;
children run sequentially on the parent's thread, so they never overlap.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from stats import percentile

NAME, START, END, PARENT, OP, PHASE, ATTR = range(7)


class Tracer:
    """Per-thread span lists; a span's parent is an index into its own list."""

    def __init__(self):
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.op = [], [], None
            with self._lock:
                self._lists.append(local.spans)
        return local

    def set_op(self, op) -> None:
        self._state().op = op

    def count(self) -> int:
        return sum(len(spans) for spans in self._lists)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, as a root span."""
        local = self._state()
        local.spans.append([name, start, end, -1, local.op, self.phase, None])

    def wrap(self, name: str, function, attr=None):
        """`function` wrapped in a span; `attr(result)` annotates the span."""

        def traced(*args, **kwargs):
            local = self._state()
            spans, stack = local.spans, local.stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, local.op, self.phase, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                record[ATTR] = "raised"
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if attr is not None:
                record[ATTR] = attr(result)
            return result

        traced.__wrapped__ = function
        return traced

    def spans(self) -> list[dict]:
        """Every span as a dict; ids and parents are indexes into the list."""
        out = []
        with self._lock:
            lists = list(self._lists)
        for thread, spans in enumerate(lists):
            base = len(out)
            for record in spans:
                out.append({
                    "id": len(out),
                    "name": record[NAME],
                    "start": record[START],
                    "end": record[END],
                    "parent": base + record[PARENT] if record[PARENT] >= 0 else None,
                    "op": record[OP],
                    "phase": record[PHASE],
                    "thread": thread,
                    "attr": record[ATTR],
                })
        return out


def write_jsonl(path: Path, spans: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> list:
    """Patch askit's layer boundaries; returns the undo list for `uninstall`."""
    import askit.api
    import askit.clients
    import askit.codegen
    import askit.engine
    import askit.prompts
    import askit.runner
    import askit.taskfile

    hit = lambda result: "hit" if result is not None else "miss"  # noqa: E731
    patches = [
        (askit.codegen, "run_once", "runner.run_once", None),
        (askit.codegen, "syntax_check", "codegen.syntax_check", None),
        (askit.codegen, "cache_store", "codegen.cache_store", None),
        (askit.codegen, "cache_lookup", "codegen.cache_lookup", hit),
        (askit.codegen, "spec_digest", "codegen.spec_digest", None),
        (askit.codegen, "build_codegen", "prompts.build_codegen", None),
        (askit.codegen, "extract_block", "prompts.extract_block", None),
        (askit.codegen, "render", "types.render", None),
        (askit.codegen, "stable_digest", "encoding.stable_digest", None),
        (askit.api, "compile", "api.compile", None),
        (askit.api, "generate", "codegen.generate", None),
        (askit.api, "cache_lookup", "codegen.cache_lookup", hit),
        (askit.api, "ask_until_valid", "engine.ask", None),
        (askit.api, "parse", "template.parse", None),
        (askit.api.CompiledFunction, "__call__", "api.call", None),
        (askit.api.CompiledFunction, "call_isolated", "api.call_isolated", None),
        (askit.engine, "build_direct", "prompts.build_direct", None),
        (askit.engine, "parse_answer", "prompts.parse_answer", None),
        (askit.engine, "feedback_text", "engine.feedback_text", None),
        (askit.prompts, "validate", "types.validate", None),
        (askit.prompts, "coerce", "types.coerce", None),
        (askit.prompts, "render", "types.render", None),
        (askit.prompts, "substitute_direct", "template.substitute_direct", None),
        (askit.clients.ReplayClient, "complete", "clients.complete", None),
        (askit.clients, "stable_digest", "encoding.stable_digest", None),
        (askit.taskfile, "parse_template", "template.parse", None),
        (askit.taskfile, "load_task_file", "taskfile.load", None),
    ]
    undo = []
    for owner, attribute, name, attr in patches:
        original = owner.__dict__[attribute]
        undo.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, attr))

    # A worker's start-up is its construction plus its first answer: the
    # constructor only spawns the interpreter, the first call waits for it.
    worker = askit.runner.Worker
    init, call = worker.__dict__["__init__"], worker.__dict__["call"]
    traced_init = tracer.wrap("runner.worker_init", init)
    traced_call = tracer.wrap("runner.worker_call", call)

    def worker_init(self, *args, **kwargs):
        self._perfbench_born = perf_counter()
        traced_init(self, *args, **kwargs)

    def worker_call(self, *args, **kwargs):
        result = traced_call(self, *args, **kwargs)
        born = self.__dict__.pop("_perfbench_born", None)
        if born is not None:
            tracer.add("runner.worker_start", born, perf_counter())
        return result

    undo += [(worker, "__init__", init), (worker, "call", call)]
    worker.__init__, worker.call = worker_init, worker_call
    return undo


def uninstall(undo: list) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


# Per-layer metrics: (metric, span name, statistic, scale, unit). Statistics:
# p50/p90 of durations, "self" p50 of self time, "hits" p50 over spans that
# hit, "per_op" spans per operation that reached the layer at least once
# (an operation is a root span, such as one compile(), call or ask).
LAYER_METRICS = (
    ("runner.run_once_ms_p50", "runner.run_once", "p50", 1e3, "ms"),
    ("runner.run_once_per_op", "runner.run_once", "per_op", 1, "1/op"),
    ("codegen.syntax_check_ms_p50", "codegen.syntax_check", "p50", 1e3, "ms"),
    ("codegen.syntax_checks_per_op", "codegen.syntax_check", "per_op", 1, "1/op"),
    ("codegen.generate_self_ms_p50", "codegen.generate", "self", 1e3, "ms"),
    ("codegen.cache_store_ms_p50", "codegen.cache_store", "p50", 1e3, "ms"),
    ("codegen.cache_lookup_us_p50", "codegen.cache_lookup", "hits", 1e6, "us"),
    ("codegen.spec_digest_us_p50", "codegen.spec_digest", "p50", 1e6, "us"),
    ("runner.worker_call_us_p50", "runner.worker_call", "p50", 1e6, "us"),
    ("runner.worker_call_us_p90", "runner.worker_call", "p90", 1e6, "us"),
    ("runner.worker_start_ms_p50", "runner.worker_start", "p50", 1e3, "ms"),
    ("api.call_self_us_p50", "api.call", "self", 1e6, "us"),
    ("api.compile_self_us_p50", "api.compile", "self", 1e6, "us"),
    ("engine.ask_self_us_p50", "engine.ask", "self", 1e6, "us"),
    ("prompts.build_direct_us_p50", "prompts.build_direct", "p50", 1e6, "us"),
    ("prompts.parse_answer_us_p50", "prompts.parse_answer", "p50", 1e6, "us"),
    ("prompts.build_codegen_us_p50", "prompts.build_codegen", "p50", 1e6, "us"),
    ("prompts.extract_block_us_p50", "prompts.extract_block", "p50", 1e6, "us"),
    ("types.validate_us_p50", "types.validate", "p50", 1e6, "us"),
    ("types.coerce_us_p50", "types.coerce", "p50", 1e6, "us"),
    ("types.render_us_p50", "types.render", "p50", 1e6, "us"),
    ("template.parse_us_p50", "template.parse", "p50", 1e6, "us"),
    ("template.substitute_direct_us_p50", "template.substitute_direct", "p50", 1e6, "us"),
    ("clients.complete_us_p50", "clients.complete", "p50", 1e6, "us"),
    ("clients.calls_per_op", "clients.complete", "per_op", 1, "1/op"),
    ("encoding.stable_digest_us_p50", "encoding.stable_digest", "p50", 1e6, "us"),
    ("taskfile.load_ms", "taskfile.load", "p50", 1e3, "ms"),
)
PHASES = ("timed", "setup", "probe")


def layer_metrics(spans: list[dict], interp_floor: list[float]) -> dict[str, tuple[float, int, str, str]]:
    """Per-layer metrics as {name: (value, samples, unit, phase)}.

    Each metric comes from the timed phase when the workload's own path
    reaches the layer. Otherwise it comes from the set-up phase, and failing
    that from the probe that a traced run makes after the timed phase; the
    phase is part of the result, so a figure off the workload's path reads
    as such. Worker restarts count over the timed phase only.
    """
    by_name: dict[tuple[str, str], list[dict]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    child_names: list[list[str]] = [[] for _ in spans]
    root = [0] * len(spans)
    for span in spans:  # a parent precedes its children in the list
        by_name[span["name"], span["phase"]].append(span)
        parent = span["parent"]
        root[span["id"]] = span["id"] if parent is None else root[parent]
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
            child_names[parent].append(span["name"])

    def pick(name: str, keep=lambda span: True) -> tuple[str, list[dict]]:
        for phase in PHASES:
            chosen = [s for s in by_name[name, phase] if keep(s)]
            if chosen:
                return phase, chosen
        return "none", []

    metrics: dict[str, tuple[float, int, str, str]] = {}
    for metric, name, statistic, scale, unit in LAYER_METRICS:
        phase, chosen = pick(name, (lambda s: s["attr"] == "hit") if statistic == "hits" else (lambda s: True))
        if statistic == "per_op":
            ops = len({root[s["id"]] for s in chosen})
            metrics[metric] = (len(chosen) / ops if ops else 0.0, ops, unit, phase)
            continue
        if statistic == "self":
            values = [s["end"] - s["start"] - child_time[s["id"]] for s in chosen]
        else:
            values = [s["end"] - s["start"] for s in chosen]
        q = 0.9 if statistic == "p90" else 0.5
        metrics[metric] = (percentile(values, q) * scale if values else 0.0, len(values), unit, phase)

    metrics["runner.interp_floor_ms_p50"] = (percentile(interp_floor, 0.5) * 1e3, len(interp_floor), "ms", "probe")

    timed_ops = {s["op"] for s in spans if s["phase"] == "timed"}
    restarts = len(by_name["runner.worker_init", "timed"])
    metrics["runner.worker_restarts_per_op"] = (restarts / len(timed_ops) if timed_ops else 0.0, len(timed_ops), "1/op", "timed")

    # Candidates are client calls made by generate; an accepted candidate is
    # a generate that returned.
    phase, generates = pick("codegen.generate", lambda s: "clients.complete" in child_names[s["id"]])
    candidates = sum(child_names[s["id"]].count("clients.complete") for s in generates)
    accepted = sum(1 for s in generates if s["attr"] != "raised")
    metrics["codegen.candidates_per_miss"] = (candidates / len(generates) if generates else 0.0, len(generates), "ratio", phase)
    metrics["codegen.accept_ratio"] = (accepted / candidates if candidates else 0.0, candidates, "ratio", phase)
    phase, asks = pick("engine.ask")
    attempts = sum(child_names[s["id"]].count("clients.complete") for s in asks)
    metrics["engine.attempts_per_ask"] = (attempts / len(asks) if asks else 0.0, len(asks), "ratio", phase)
    return metrics
