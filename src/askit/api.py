"""The unified interface: ask once, define a reusable task, or compile it.

One TaskSpec serves both execution modes. A DefinedFunction answers by
querying the model at call time; its compile() swaps in generated, validated,
cached code without touching the template. The transition is the whole point:
nothing about the task description changes between modes.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, NamedTuple

from .clients import ClientConfig, LiveClient
from .codegen import (
    CodegenConfig,
    GeneratedFunction,
    TaskSpec,
    cache_lookup,
    generate,
    invoke,
)
from .encoding import stable_digest
from .engine import EngineConfig, ask_until_valid
from .errors import NotCodable, SchemaError
from .prompts import examples_from
from .runner import ForkServer, Worker
from .template import _check_binding, parse
from .types import TypeSchema, VoidType, render


class AskResult(NamedTuple):
    value: Any
    reason: str
    attempts: int


def _default_client():
    return LiveClient(ClientConfig.from_env())


def _merge_args(args, kwargs):
    merged = dict(args or {})
    merged.update(kwargs)
    return merged


def ask(
    answer_schema: TypeSchema,
    template_text: str,
    args: Mapping[str, Any] | None = None,
    *,
    fewshot: Iterable = (),
    client=None,
    config: EngineConfig | None = None,
) -> AskResult:
    """One-shot direct path: parse the template, query until the answer validates.

    Binding problems surface before any client call. Returns the typed value,
    the model's stated reasoning, and the attempt count.
    """
    if isinstance(answer_schema, VoidType):
        raise SchemaError("a void task has no answer to ask for")
    template = parse(template_text)
    result = ask_until_valid(
        client or _default_client(),
        template,
        dict(args or {}),
        answer_schema,
        examples_from(fewshot, "fewshot"),
        config,
    )
    return AskResult(result.value, result.reason, result.attempts)


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
    config: EngineConfig | None = None,
) -> "DefinedFunction":
    """Build a reusable function from a prompt template.

    Calling the result runs the direct path; compile() switches it to
    generated code. When a name is omitted a digest-derived one is assigned.
    The few-shot set conditions prompts; the test set gates generated code
    (pass reuse_fewshot_as_tests=True to use the former as the latter).
    """
    template = parse(template_text)
    if param_schemas is not None:
        if isinstance(param_schemas, Mapping):
            schema_items = tuple(param_schemas.items())
        else:
            schema_items = tuple(param_schemas)
    else:
        schema_items = None
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
        param_schemas=schema_items,
        fewshot=fewshot_examples,
        tests=test_examples,
        target_language=target_language,
    )
    return DefinedFunction(spec, client=client, config=config)


class DefinedFunction:
    """A task bound to the direct path. Immutable; safe to share."""

    def __init__(self, spec: TaskSpec, client=None, config: EngineConfig | None = None):
        self._spec = spec
        self._client = client
        self._config = config

    @property
    def spec(self) -> TaskSpec:
        return self._spec

    @property
    def name(self) -> str:
        return self._spec.name

    def ask(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> AskResult:
        """Run the direct path and return value, reason, and attempt count."""
        if isinstance(self._spec.return_schema, VoidType):
            raise SchemaError("a void task has no answer; compile it instead")
        result = ask_until_valid(
            self._client or _default_client(),
            self._spec.template,
            _merge_args(args, kwargs),
            self._spec.return_schema,
            self._spec.fewshot,
            self._config,
        )
        return AskResult(result.value, result.reason, result.attempts)

    def __call__(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> Any:
        return self.ask(args, **kwargs).value

    def compile(self, config: CodegenConfig | None = None, client=None) -> "CompiledFunction":
        """Generate (or load from cache) code for this task and wrap it."""
        return compile(self, config=config, client=client)


def compile(
    defined: DefinedFunction, config: CodegenConfig | None = None, client=None
) -> "CompiledFunction":
    """Switch a defined task to the generated-code path.

    Cache hits make zero client calls. Raises NotCodable when an allowlist is
    configured and excludes this name, GenerationFailed when every candidate
    was rejected.
    """
    config = config or CodegenConfig()
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
        generated = generate(client or defined._client or _default_client(), spec, config)
    return CompiledFunction(spec, generated, config)


class CompiledFunction:
    """A task backed by validated generated code; calls never touch the client.

    Calls go through a lazily started warm harness process; a worker found
    dead before a call is replaced, and a call that kills its worker is not
    run again. call_isolated() runs each call in a fresh process forked by
    this function's own fork server, started at the first such call.
    Close() or use as a context manager to reap both eagerly.
    """

    def __init__(self, spec: TaskSpec, generated: GeneratedFunction, config: CodegenConfig):
        self._spec = spec
        self._generated = generated
        self._config = config
        self._worker: Worker | None = None
        self._server = ForkServer()
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
        with self._lock:
            if self._worker is not None and not self._worker.alive:
                self._worker.close()
                self._worker = None
            return self._ensure_worker().call(self._generated.entry, merged)

    def call_isolated(self, args: Mapping[str, Any] | None = None, /, **kwargs) -> Any:
        """One fresh forked harness process for this call only."""
        merged = _merge_args(args, kwargs)
        _check_binding(self._spec.template, merged)
        return invoke(
            self._generated, merged, timeout=self._config.invoke_timeout, server=self._server
        )

    def close(self) -> None:
        with self._lock:
            if self._worker is not None:
                self._worker.close()
                self._worker = None
        self._server.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _ensure_worker(self) -> Worker:
        if self._worker is None:
            self._worker = Worker(
                self._generated.cache_path, call_timeout=self._config.invoke_timeout
            )
        return self._worker
