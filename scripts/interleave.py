"""What the profile scripts share: timing medians, a compiled function from a
cache hit, and interleaved pairs of runs against another checkout.

`interleaved` runs one script in fresh processes, --pairs pairs of them: one
process per tree, the other tree first on even pairs, each with its own
tree's `src` on PYTHONPATH and printing one JSON object. `summarize` then
gives, per metric, each tree's median over its runs, how many pairs this
tree won (a lower value wins) and the runs themselves.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

REPO = Path(__file__).resolve().parents[1]
SOURCE = "def double(*, xs):\n    return [x * 2 for x in xs]\n"


def median_us(samples: list[int]) -> float:
    """The median of perf_counter_ns samples, in µs."""
    return round(statistics.median(samples) / 1000, 2)


def time_calls(call, calls: int) -> float:
    """The median of `calls` timed calls of call(), after calls // 5 untimed ones, in µs."""
    for _ in range(calls // 5):
        call()
    samples = []
    for _ in range(calls):
        started = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - started)
    return median_us(samples)


def compiled(askit, cache_dir: str):
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


def summarize(runs: dict[str, list[dict]], metrics: Iterable[str]) -> dict[str, dict]:
    """Per metric: each tree's median, this tree's wins over the pairs, and the runs."""
    summary = {}
    for metric in metrics:
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


def interleaved(script: str, argv: list[str], against: Path, pairs: int, metrics: Iterable[str] | None = None,
                **header) -> tuple[dict, dict[str, list[dict]]]:
    """`script argv` in fresh processes, alternating the trees: the summary (the
    pair count, `header`, the trees, then `metrics`, by default every key of
    this tree's first run) and each tree's runs."""
    trees = {"against": against.resolve(), "this": REPO}
    runs = {side: [] for side in trees}
    for pair in range(pairs):
        order = ("against", "this") if pair % 2 == 0 else ("this", "against")
        for side in order:
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            out = subprocess.run(
                [sys.executable, script, *argv], env=env, capture_output=True, text=True, check=True, timeout=600
            ).stdout
            runs[side].append(json.loads(out))
    summary = {"pairs": pairs, **header, "trees": {side: str(path) for side, path in trees.items()}}
    summary.update(summarize(runs, runs["this"][0] if metrics is None else metrics))
    return summary, runs
