"""Command-line surface.

    askit show-prompt TASKFILE NAME [--mode direct|codegen] [--args JSON]
    askit ask         TASKFILE NAME [--args JSON] [backend options]
    askit codegen     TASKFILE [--only NAME]... [--cache-dir DIR] [--jobs N] [backend options]
    askit bench       TASKFILE --fixtures PATH [--repeat K] [backend options]

Machine-readable output is a single JSON document on stdout (show-prompt
prints the raw prompt bytes, nothing appended); diagnostics go to stderr.
Exit codes: 0 success, 1 client error (a failed model request, a malformed
fixture store), 2 usage or unknown name, 3 retries exhausted or generation
failed, 4 fixture miss, 5 toolchain unavailable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import api
from .clients import (
    DEFAULT_MODEL_ID,
    MODEL_ENV_VAR,
    ClientConfig,
    LiveClient,
    RecordingClient,
    ReplayClient,
)
from .codegen import DEFAULT_CACHE_DIR, DEFAULT_CONFIG, CodegenConfig
from .errors import (
    AskitError,
    ClientError,
    FixtureMiss,
    GenerationFailed,
    RetriesExhausted,
    ToolchainUnavailable,
)
from .prompts import LANGUAGES, build_codegen, build_direct
from .runner import fork_server, scratch_dir
from .taskfile import TaskFile, load_task_file

EXIT_OK = 0
EXIT_CLIENT = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_FIXTURE_MISS = 4
EXIT_NO_TOOLCHAIN = 5


def _fail(message: str, code: int) -> int:
    print(f"askit: {message}", file=sys.stderr)
    return code


def _emit(document) -> None:
    sys.stdout.write(json.dumps(document, ensure_ascii=False) + "\n")


def _entry(task_file: TaskFile, name: str):
    try:
        return task_file.get(name)
    except KeyError:
        raise SystemExit(_fail(f"unknown task name {name!r}", EXIT_USAGE))


def _parse_args_json(raw: str) -> dict:
    try:
        decoded = json.loads(raw)
    except ValueError as exc:
        raise SystemExit(_fail(f"--args is not valid JSON: {exc}", EXIT_USAGE))
    if not isinstance(decoded, dict):
        raise SystemExit(_fail("--args must be a JSON object of named values", EXIT_USAGE))
    return decoded


def _config(args, **fields) -> CodegenConfig:
    """The command's one config; a value it rejects is a usage error."""
    try:
        return CodegenConfig(temperature=args.temperature, require_param_schemas=False, **fields)
    except ValueError as exc:
        raise SystemExit(_fail(str(exc), EXIT_USAGE))


def _add_backend_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend", choices=["live", "replay", "record"], default="replay",
        help="live HTTP, offline replay, or record-while-live (default: replay)",
    )
    sub.add_argument("--fixtures", help="fixture store path for replay/record")
    sub.add_argument("--model", help=f"model id (default: ${MODEL_ENV_VAR} or {DEFAULT_MODEL_ID})")
    sub.add_argument("--temperature", type=float, default=DEFAULT_CONFIG.temperature)
    sub.add_argument(
        "--replay-delay-ms", type=float, default=0.0,
        help="simulated latency per replayed call, in milliseconds",
    )


def _build_client(args, cycle: bool = False):
    model = args.model or os.environ.get(MODEL_ENV_VAR, DEFAULT_MODEL_ID)
    if args.backend in ("replay", "record") and not args.fixtures:
        raise SystemExit(_fail(f"--backend {args.backend} needs --fixtures", EXIT_USAGE))
    if args.backend == "replay":
        return ReplayClient(
            args.fixtures, model_id=model, cycle=cycle, delay_s=args.replay_delay_ms / 1000.0
        )
    live = LiveClient(ClientConfig.from_env(model_id=model))
    if args.backend == "record":
        return RecordingClient(live, args.fixtures)
    return live


def _cmd_show_prompt(args) -> int:
    task_file = load_task_file(args.task_file)
    entry = _entry(task_file, args.name)
    if args.mode == "codegen":
        spec = entry.to_spec(target_language=args.target)
        sys.stdout.write(build_codegen(spec).text)
        return EXIT_OK
    spec = entry.spec
    bound = _parse_args_json(args.args)
    prompt = build_direct(spec.template, bound, spec.return_schema, spec.fewshot)
    sys.stdout.write(prompt.text)
    return EXIT_OK


def _cmd_ask(args) -> int:
    task_file = load_task_file(args.task_file)
    entry = _entry(task_file, args.name)
    defined = api.DefinedFunction(entry.spec, _build_client(args), _config(args))
    result = defined.ask(_parse_args_json(args.args))
    _emit({"answer": result.value, "reason": result.reason, "attempts": result.attempts})
    return EXIT_OK


def _loc(source: str, language: str) -> int:
    comment = LANGUAGES[language].comment
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(comment):
            count += 1
    return count


def _cmd_codegen(args) -> int:
    if args.jobs < 1:
        return _fail("--jobs must be >= 1", EXIT_USAGE)
    task_file = load_task_file(args.task_file)
    if args.only:
        entries = [_entry(task_file, name) for name in args.only]
    else:
        entries = [entry for entry in task_file.entries.values() if entry.codable]
    if not entries:
        return _fail("no codable tasks selected", EXIT_USAGE)
    config = _config(args, cache_dir=args.cache_dir, max_retries=args.max_retries)
    client = _build_client(args)
    failed = threading.Event()  # an error that ends the command: start no more tasks

    def compile_one(entry):
        if failed.is_set():
            return None  # never read: pool.map raises the earlier task's error first
        defined = api.DefinedFunction(entry.to_spec(target_language=args.target), client, config)
        try:
            return defined.name, api.compile(defined).generated, None
        except GenerationFailed as exc:  # exc, kept, would hold main()'s zygote until gc
            return defined.name, None, exc.violation
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(compile_one, entries))

    rows = []
    any_failed = False
    for name, generated, violation in results:
        if generated is None:
            any_failed = True
            rows.append({"name": name, "status": "failed", "error": str(violation)})
            print(f"askit: generation failed for {name!r}: {violation}", file=sys.stderr)
            continue
        rows.append(
            {
                "name": name,
                "status": "cached" if generated.from_cache else "generated",
                "retries_used": generated.retries_used,
                "cache_path": str(generated.cache_path),
                "loc": _loc(generated.source, generated.language),
            }
        )
    _emit({"tasks": rows, "client_calls": getattr(client, "call_count", None)})
    return EXIT_EXHAUSTED if any_failed else EXIT_OK


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        return _fail("--repeat must be >= 1", EXIT_USAGE)
    task_file = load_task_file(args.task_file)
    entries = [entry for entry in task_file.entries.values() if entry.codable and entry.spec.tests]
    if args.only:
        only = set(args.only)
        entries = [entry for entry in entries if entry.spec.name in only]
    if not entries:
        return _fail("no intersecting tasks (codable with tests) selected", EXIT_USAGE)
    client = _build_client(args, cycle=True)
    with scratch_dir("askit-bench-") as scratch:  # the cache without --cache-dir
        config = _config(args, cache_dir=args.cache_dir or scratch)
        rows = []
        for entry in entries:
            defined = api.DefinedFunction(entry.spec, client, config)
            probe = dict(defined.spec.tests[0].input)

            direct_times = []
            for _ in range(args.repeat):
                started = time.perf_counter()
                defined.ask(probe)
                direct_times.append(time.perf_counter() - started)
            latency_s = statistics.fmean(direct_times)

            started = time.perf_counter()
            compiled = api.compile(defined)
            compile_time_s = time.perf_counter() - started

            with compiled:
                compiled(probe)  # warm-up: interpreter + module load
                exec_times = []
                for _ in range(args.repeat):
                    started = time.perf_counter()
                    compiled(probe)
                    exec_times.append(time.perf_counter() - started)
            execution_s = statistics.median(exec_times)  # one slow call on a loaded host moves a mean

            rows.append(
                {
                    "name": defined.name,
                    "metrics": {
                        "latency_s": latency_s,
                        "execution_time_us": execution_s * 1e6,
                        "compile_time_s": compile_time_s,
                        "speedup": latency_s / execution_s if execution_s > 0 else float("inf"),
                    },
                }
            )
    _emit({"tasks": rows, "repeat": args.repeat, "replay_delay_ms": args.replay_delay_ms})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="askit", description="Typed prompt tasks: ask a model directly or compile to generated code.")
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show-prompt", help="print the exact prompt for a task")
    show.add_argument("task_file")
    show.add_argument("name")
    show.add_argument("--mode", choices=["direct", "codegen"], default="direct")
    show.add_argument("--args", default="{}", help="JSON object binding template parameters")
    show.add_argument("--target", default=None, help="codegen target language override")
    show.set_defaults(func=_cmd_show_prompt)

    ask_cmd = commands.add_parser("ask", help="run a task on the direct path")
    ask_cmd.add_argument("task_file")
    ask_cmd.add_argument("name")
    ask_cmd.add_argument("--args", default="{}")
    _add_backend_options(ask_cmd)
    ask_cmd.set_defaults(func=_cmd_ask)

    codegen_cmd = commands.add_parser("codegen", help="compile codable tasks to cached code")
    codegen_cmd.add_argument("task_file")
    codegen_cmd.add_argument("--only", action="append", default=[], metavar="NAME")
    codegen_cmd.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    codegen_cmd.add_argument("--target", default=None)
    codegen_cmd.add_argument("--jobs", type=int, default=1)
    codegen_cmd.add_argument("--max-retries", type=int, default=DEFAULT_CONFIG.max_retries)
    _add_backend_options(codegen_cmd)
    codegen_cmd.set_defaults(func=_cmd_codegen)

    bench_cmd = commands.add_parser("bench", help="direct-path latency vs compiled execution time")
    bench_cmd.add_argument("task_file")
    bench_cmd.add_argument("--only", action="append", default=[], metavar="NAME")
    bench_cmd.add_argument("--repeat", type=int, default=10)
    bench_cmd.add_argument("--cache-dir", default=None)
    bench_cmd.add_argument("--fixtures", required=True)
    bench_cmd.add_argument("--model", default=None)
    bench_cmd.add_argument("--temperature", type=float, default=DEFAULT_CONFIG.temperature)
    bench_cmd.add_argument("--replay-delay-ms", type=float, default=0.0)
    bench_cmd.set_defaults(func=_cmd_bench, backend="replay")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    zygote = fork_server()  # held for the whole command: every task's test examples run on it
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RetriesExhausted, GenerationFailed) as exc:
        return _fail(str(exc), EXIT_EXHAUSTED)
    except FixtureMiss as exc:
        return _fail(str(exc), EXIT_FIXTURE_MISS)
    except ToolchainUnavailable as exc:
        return _fail(str(exc), EXIT_NO_TOOLCHAIN)
    except ClientError as exc:
        return _fail(str(exc), EXIT_CLIENT)
    except AskitError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
