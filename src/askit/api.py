"""The unified interface: ask once, define a reusable task, or compile it.

One TaskSpec serves both execution modes. A DefinedFunction answers by
querying the model at call time; its compile() swaps in generated, validated,
cached code without touching the template. The transition is the whole point:
nothing about the task description changes between modes.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from .clients import LiveClient
from .codegen import (
    DEFAULT_CONFIG,
    CodegenConfig,
    GeneratedFunction,
    TaskSpec,
    cache_lookup,
    generate,
    invoke,
    require_harness,
)
from .encoding import stable_digest
from .engine import AskResult, ask_until_valid
from .errors import NotCodable, SchemaError
from .prompts import examples_from
from .runner import Worker, WorkerLeft, _Closing, fork_server
from .template import _check_binding, parse
from .types import TypeSchema, VoidType, render


def _merge_args(args, kwargs):
    return dict(args or {}, **kwargs)


def ask(
    answer_schema: TypeSchema,
    template_text: str,
    args: Mapping[str, Any] | None = None,
    *,
    fewshot: Iterable = (),
    client=None,
    config: CodegenConfig | None = None,
) -> AskResult:
    """One-shot direct path: parse the template, query until the answer validates.

    Binding problems surface before any client call. Returns the typed value,
    the model's stated reasoning, and the attempt count.
    """
    template = parse(template_text)
    return ask_until_valid(
        client or LiveClient(),
        template,
        dict(args or {}),
        answer_schema,
        examples_from(fewshot, "fewshot"),
        config,
    )


def define(
    answer_schema: TypeSchema | VoidType,
    template_text: str,
    *,
    param_schemas: Mapping[str, TypeSchema] | Iterable[tuple[str, TypeSchema]] | None = None,
    fewshot: Iterable = (),
    tests: Iterable = (),
    name: str | None = None,
    target_language: str = "python",
    reuse_fewshot_as_tests: bool = False,
    client=None,
    config: CodegenConfig | None = None,
) -> "DefinedFunction":
    """Build a reusable function from a prompt template.

    Calling the result runs the direct path; compile() switches it to
    generated code. The config drives both (DEFAULT_CONFIG when omitted).
    When a name is omitted a digest-derived one is assigned.
    The few-shot set conditions prompts; the test set gates generated code
    (pass reuse_fewshot_as_tests=True to use the former as the latter).
    """
    template = parse(template_text)
    if param_schemas is not None:
        param_schemas = tuple(param_schemas.items() if isinstance(param_schemas, Mapping) else param_schemas)
    fewshot_examples = examples_from(fewshot, "fewshot")
    test_examples = examples_from(tests, "tests")
    if not test_examples and reuse_fewshot_as_tests:
        test_examples = fewshot_examples
    if name is None:
        name = f"task_{stable_digest([template_text, render(answer_schema), target_language])}"
    spec = TaskSpec(
        name=name,
        template=template,
        return_schema=answer_schema,
        param_schemas=param_schemas,
        fewshot=fewshot_examples,
        tests=test_examples,
        target_language=target_language,
    )
    return DefinedFunction(spec, client=client, config=config)


class DefinedFunction:
    """A task bound to the direct path, with its config for both modes.
    Immutable; safe to share. From its first compile miss on it keeps the
    shared zygote alive, so that later misses do not start it again."""

    def __init__(self, spec: TaskSpec, client=None, config: CodegenConfig | None = None):
        self._spec = spec
        self._client = client
        self._config = config or DEFAULT_CONFIG
        self._zygote = None

    @property
    def spec(self) -> TaskSpec:
        return self._spec

    @property
    def name(self) -> str:
        return self._spec.name

    def ask(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> AskResult:
        """Run the direct path and return value, reason, and attempt count."""
        return ask_until_valid(
            self._client or LiveClient(),
            self._spec.template,
            _merge_args(args, kwargs),
            self._spec.return_schema,
            self._spec.fewshot,
            self._config,
        )

    def __call__(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> Any:
        return self.ask(args, **kwargs).value

    def compile(self, config: CodegenConfig | None = None, client=None) -> "CompiledFunction":
        """Generate (or load from cache) code for this task and wrap it;
        without a config, under the task's own."""
        return compile(self, config=config, client=client)


def compile(
    defined: DefinedFunction, config: CodegenConfig | None = None, client=None
) -> "CompiledFunction":
    """Switch a defined task to the generated-code path.

    Without a config it runs under the task's own, which is DEFAULT_CONFIG
    when define() got none. Cache hits make zero client calls. Raises
    NotCodable when an allowlist is configured and excludes this name,
    GenerationFailed when every candidate was rejected.
    """
    config = config or defined._config
    spec = defined.spec
    if not config.allows(spec.name):
        raise NotCodable(f"{spec.name!r} is not in the codable allowlist")
    if config.require_param_schemas and spec.param_schemas is None:
        raise SchemaError(
            "parameter schemas are required before code generation;"
            " pass param_schemas to define, or set require_param_schemas=False"
        )
    generated = cache_lookup(spec, config)
    if generated is None:
        defined._zygote = fork_server()
        generated = generate(client or defined._client or LiveClient(), spec, config)
    return CompiledFunction(spec, generated, config)


class CompiledFunction(_Closing):
    """A task backed by validated generated code; calls never touch the client.

    Calls go through a warm worker that the process's shared zygote forks at
    the first call. Thread-safe: a call takes its worker's lock alone, this
    function's lock starts, replaces and closes the worker. A worker found
    gone before a call is replaced, and a call that kills its worker is not
    run again. call_isolated() runs each call in a fresh process forked by
    the same zygote, which this function keeps alive while it is open; each
    isolated call takes hold of the calling process's own server, so a
    forked copy keeps its zygote from one call to the next. close(), or
    leaving it as a context manager, ends the worker and lets go of the
    zygote; it ends when its last holder does, or at askit.close(), which
    leaves an open function's worker answering.
    """

    def __init__(self, spec: TaskSpec, generated: GeneratedFunction, config: CodegenConfig):
        self._spec = spec
        self._generated = generated
        self._config = config
        self._worker: Worker | None = None
        self._zygote = fork_server()
        self._lock = threading.Lock()

    @property
    def spec(self) -> TaskSpec:
        return self._spec

    @property
    def generated(self) -> GeneratedFunction:
        return self._generated

    def __call__(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> Any:
        merged = _merge_args(args, kwargs)
        _check_binding(self._spec.template, merged)
        worker = self._worker or self._worker_other_than(None)
        try:
            return worker.call(self._generated.entry, merged)
        except WorkerLeft:  # nothing was sent: the call goes to a new worker, once
            worker.close()
            return self._worker_other_than(worker).call(self._generated.entry, merged)

    def call_isolated(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> Any:
        """One fresh forked harness process for this call only."""
        merged = _merge_args(args, kwargs)
        _check_binding(self._spec.template, merged)
        self._zygote = fork_server()  # in a forked copy, that copy's server
        return invoke(self._generated, merged, timeout=self._config.invoke_timeout)

    def close(self) -> None:
        with self._lock:
            if self._worker is not None:
                self._worker.close()
                self._worker = None
        self._zygote = None

    def _worker_other_than(self, gone: Worker | None) -> Worker:
        """The open worker; a new one when there is none or it is `gone`."""
        with self._lock:
            if self._worker is None or self._worker is gone:
                require_harness(self._generated.language)
                self._worker = Worker(self._generated.cache_path, self._generated.source, call_timeout=self._config.invoke_timeout)
            return self._worker
