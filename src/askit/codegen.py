"""Code generation: prompt, vet, cache, execute.

A task is turned into a one-shot prompt; candidate code from the model is
checked syntactically (Python: ast.parse in this process; TypeScript: tsc in
a child process) and semantically: the test examples run in order in one
fresh child per candidate, each in a fresh module namespace (process-wide
state carries over), forked by the process's shared zygote
(runner.fork_server); the first wrong value or failure is the feedback.
generate holds that server while it runs, so every candidate runs on the
same zygote, which ends with the server's last holder. The first
candidate passing every check is written to the on-disk cache; retries
re-send the identical prompt and rely on sampling temperature for
variation. Generation for a given cache key happens once: lookups hit the
cached source and never touch the client.
"""

from __future__ import annotations

import ast
import fcntl
import math
import os
import re
import shutil
import subprocess
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .encoding import canonical_json, stable_digest
from .errors import (
    AskitError,
    BlockNotFound,
    GenerationFailed,
    SchemaError,
    TemplateError,
    ToolchainUnavailable,
)
from .harness import loads
from .prompts import LANGUAGES, Example, Message, Violation, ViolationKind, build_codegen, extract_block
from .runner import DEFAULT_INVOKE_TIMEOUT, fork_server, run_once, scratch_dir
from .template import PromptTemplate, _check_binding, substitute_comment
from .types import IDENT_RE, TypeSchema, VoidType, render

DEFAULT_CACHE_DIR = "askit"


@dataclass(frozen=True)
class TaskSpec:
    """Everything a defined task carries.

    `fewshot` conditions the prompt; `tests` gate generated code. Every
    example binds each template parameter and nothing else. Parameter
    schemas are optional for the direct path but (by default) required before
    code generation.
    """

    name: str
    template: PromptTemplate
    return_schema: TypeSchema | VoidType
    param_schemas: tuple[tuple[str, TypeSchema], ...] | None = None
    fewshot: tuple[Example, ...] = ()
    tests: tuple[Example, ...] = ()
    target_language: str = "python"

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise SchemaError(f"function name {self.name!r} is not a valid identifier")
        if self.target_language not in LANGUAGES:
            raise SchemaError(f"unsupported target language {self.target_language!r}")
        if self.param_schemas is not None:
            names = [name for name, _ in self.param_schemas]
            declared = set(names)
            if len(declared) != len(names):
                raise SchemaError(f"duplicate parameter names in parameter schemas: {names}")
            expected = set(self.template.params)
            if declared != expected:
                raise SchemaError(
                    f"parameter schemas {sorted(declared)} do not match template parameters {sorted(expected)}"
                )
        for example in (*self.fewshot, *self.tests):
            try:
                _check_binding(self.template, example.input)
            except TemplateError as exc:
                raise SchemaError(f"example input does not fit the template: {exc}") from None

    @cached_property
    def digest(self) -> str:
        return spec_digest(self)

    @cached_property
    def cache_names(self) -> tuple[str, str]:
        """Code and sidecar file names, `<slug>_<digest>.<ext>` and `.json`;
        derived once, from fields that cannot change."""
        stem = f"{cache_slug(self.template)}_{self.digest}"
        return f"{stem}.{LANGUAGES[self.target_language].extension}", f"{stem}.json"


@dataclass(frozen=True)
class CodegenConfig:
    """A task's settings for both modes: max_retries and temperature drive a
    direct ask's attempts as well as code generation's candidates."""

    max_retries: int = 9
    temperature: float = 1.0
    cache_dir: Path = field(default_factory=lambda: Path(DEFAULT_CACHE_DIR))
    codable_allowlist: frozenset[str] | None = None
    require_param_schemas: bool = True
    invoke_timeout: float = DEFAULT_INVOKE_TIMEOUT
    _paths: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # cache_names -> joined paths

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0.0, 2.0]")
        if self.invoke_timeout <= 0:
            raise ValueError("invoke_timeout must be positive")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if self.codable_allowlist is not None:
            object.__setattr__(self, "codable_allowlist", frozenset(self.codable_allowlist))

    def allows(self, name: str) -> bool:
        """Allowlist check: exact names, or prefix groups written as 'prefix*'."""
        if self.codable_allowlist is None:
            return True
        for entry in self.codable_allowlist:
            if entry.endswith("*"):
                if name.startswith(entry[:-1]):
                    return True
            elif name == entry:
                return True
        return False


DEFAULT_CONFIG = CodegenConfig()  # for every call that passes none: built once, its paths joined once


@dataclass(frozen=True)
class GeneratedFunction:
    source: str
    entry: str
    language: str
    cache_path: Path
    retries_used: int
    from_cache: bool = False


def spec_digest(spec: TaskSpec) -> str:
    """Stable 8-hex digest over name, template, rendered schemas, and language."""
    return stable_digest(
        [spec.name, spec.template.raw, render(spec.return_schema), _rendered_params(spec), spec.target_language]
    )


def _rendered_params(spec: TaskSpec) -> list[list[str]] | None:
    if spec.param_schemas is None:
        return None
    return [[name, render(schema)] for name, schema in spec.param_schemas]


def cache_slug(template: PromptTemplate) -> str:
    """First 40 chars of the quoted-name task text, lowercased, `_` for non-alphanumerics."""
    text = substitute_comment(template).lower()[:40]
    return re.sub(r"[^a-z0-9]", "_", text).rstrip("_")


def cache_paths(spec: TaskSpec, config: CodegenConfig) -> tuple[Path, Path]:
    names = spec.cache_names
    return config._paths.get(names) or config._paths.setdefault(names, tuple(config.cache_dir / n for n in names))


def cache_store(spec: TaskSpec, source: str, config: CodegenConfig, retries_used: int = 0) -> Path:
    """Persist validated source plus its sidecar metadata, atomically."""
    code_path, meta_path = cache_paths(spec, config)
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "entry": spec.name,
        "language": spec.target_language,
        "template": spec.template.raw,
        "return_schema": render(spec.return_schema),
        "param_schemas": _rendered_params(spec),
        "digest": spec.digest,
        "retries_used": retries_used,
    }
    _atomic_write(meta_path, canonical_json(metadata) + "\n")
    _atomic_write(code_path, source)
    return code_path


def cache_lookup(spec: TaskSpec, config: CodegenConfig) -> GeneratedFunction | None:
    """Return the cached function for this spec, marked from_cache, or None on a miss.

    Both files are read from disk (os.read) at every lookup, so a hand edit shows at the next
    hit. The source decodes as in text mode; one that is not UTF-8 or is empty (a crash in
    cache_store can leave it so) is a miss. generate returns what this reads after its store.
    """
    code_path, meta_path = cache_paths(spec, config)
    try:
        source = _read_bytes(code_path).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    if not source:
        return None
    try:
        metadata = loads(_read_bytes(meta_path).decode("utf-8"))
    except (OSError, ValueError):
        metadata = None
    # A missing or damaged sidecar, or a count that is not a JSON integer >= 0, reads as no retries.
    recorded = metadata.get("retries_used") if isinstance(metadata, dict) else None
    retries_used = recorded if type(recorded) is int and recorded >= 0 else 0
    return GeneratedFunction(
        source=source,
        entry=spec.name,
        language=spec.target_language,
        cache_path=code_path,
        retries_used=retries_used,
        from_cache=True,
    )


def _read_bytes(path: Path) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        return b"".join(iter(lambda: os.read(fd, 65536), b""))
    finally:
        os.close(fd)


def syntax_check(source: str, language: str) -> Violation | None:
    """Check that a candidate parses in the target language.

    Python is parsed in this process with ast.parse, which never runs the
    code; TypeScript goes through `tsc --noEmit` in a child process. Returns
    None when the code parses, a syntax-error Violation with the diagnostics
    otherwise. Raises ToolchainUnavailable when tsc is missing.
    """
    if language not in LANGUAGES:
        raise SchemaError(f"unsupported target language {language!r}")
    if language == "python":
        try:
            ast.parse(source, filename="candidate.py")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            # ValueError: null bytes on older Pythons; RecursionError and
            # MemoryError: nesting too deep for the parser.
            diagnostics = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            return Violation(ViolationKind.SYNTAX_ERROR, diagnostics[-500:])
        return None
    tsc = shutil.which("tsc")
    if tsc is None:
        raise ToolchainUnavailable("tsc is not installed; cannot check typescript sources")
    with scratch_dir("askit-check-") as scratch:
        path = Path(scratch) / f"candidate.{LANGUAGES[language].extension}"
        path.write_text(source if source.endswith("\n") else source + "\n", encoding="utf-8")
        proc = subprocess.run([tsc, "--noEmit", str(path)], capture_output=True, cwd=scratch, timeout=60)
    if proc.returncode == 0:
        return None
    diagnostics = (proc.stderr + proc.stdout).decode("utf-8", errors="replace").strip()
    return Violation(ViolationKind.SYNTAX_ERROR, diagnostics[-500:])


def require_harness(language: str) -> None:
    """Raise ToolchainUnavailable unless the harness can run this language."""
    if not LANGUAGES[language].runnable:
        raise ToolchainUnavailable(f"no execution harness for {language}")


def invoke(fn: GeneratedFunction, args: Mapping[str, Any], timeout: float = DEFAULT_INVOKE_TIMEOUT) -> Any:
    """Run a cached function in a fresh forked process and return its value."""
    require_harness(fn.language)
    return run_once(fn.cache_path, fn.source, fn.entry, args, timeout=timeout)


def output_equal(expected: Any, actual: Any) -> bool:
    """Deep structural equality over JSON values.

    Numbers compare exactly when both are integral, otherwise with relative
    tolerance 1e-6. Arrays are order-sensitive; objects must have equal key
    sets. Booleans never equal numbers.
    """
    if isinstance(expected, bool) or isinstance(actual, bool):
        return isinstance(expected, bool) and isinstance(actual, bool) and expected == actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if _is_integral(expected) and _is_integral(actual):
            return expected == actual
        return math.isclose(expected, actual, rel_tol=1e-6)
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            output_equal(e, a) for e, a in zip(expected, actual)
        )
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            output_equal(value, actual[key]) for key, value in expected.items()
        )
    if isinstance(expected, (list, dict)) or isinstance(actual, (list, dict)):
        return False
    return expected == actual


def _is_integral(value: float | int) -> bool:
    return isinstance(value, int) or value.is_integer()


def generate(client, spec: TaskSpec, config: CodegenConfig | None = None) -> GeneratedFunction:
    """Obtain, validate, and cache code for a task.

    Loops up to max_retries + 1 attempts: send the prompt, extract the fenced
    code, syntax-check it, run every test example through the harness. The
    winning candidate is cached and returned as cache_lookup reads it back,
    with its retry count. Raises GenerationFailed with the last violation and
    the full attempt transcript.
    Test examples run on the shared zygote, held until this returns or
    raises. Concurrent calls for the same cache key are serialized by a file
    lock; whoever enters second finds the cache populated.
    """
    config = config or DEFAULT_CONFIG
    with _cache_lock(spec, config):
        cached = cache_lookup(spec, config)
        if cached is not None:
            return cached
        messages = [Message("user", build_codegen(spec).text)]
        transcript: list[tuple[str, Violation]] = []
        violation: Violation | None = None
        zygote = fork_server()  # kept alive from one candidate to the next
        try:
            for attempt in range(config.max_retries + 1):
                response = client.complete(messages, temperature=config.temperature)
                source, violation = _vet_candidate(response, spec, config)
                if source is not None:
                    cache_store(spec, source, config, retries_used=attempt)
                    return replace(cache_lookup(spec, config), from_cache=False)  # the text each later hit reads
                transcript.append((response, violation))
        finally:
            del zygote  # a traceback kept by the caller must not keep it running
        raise GenerationFailed(violation, transcript)


def _vet_candidate(response: str, spec: TaskSpec, config: CodegenConfig) -> tuple[str | None, Violation | None]:
    try:
        source = extract_block(response, spec.target_language)
    except BlockNotFound as exc:
        return None, Violation(ViolationKind.NO_CODE_BLOCK, str(exc))
    if not source.endswith("\n"):
        source += "\n"
    violation = syntax_check(source, spec.target_language)
    if violation is not None:
        return None, violation
    violation = _run_test_examples(source, spec, config)
    if violation is not None:
        return None, violation
    return source, None


def _run_test_examples(source: str, spec: TaskSpec, config: CodegenConfig) -> Violation | None:
    if not spec.tests:
        return None
    require_harness(spec.target_language)
    sets = [example.input for example in spec.tests]
    candidate = f"candidate.{LANGUAGES[spec.target_language].extension}"  # its name in the run's directory; not written
    outcomes = run_once(candidate, source, spec.name, sets, timeout=config.invoke_timeout)
    for example, actual in zip(spec.tests, outcomes):
        if isinstance(actual, AskitError):
            failure = f" raised: {actual}"
        elif not output_equal(example.output, actual):
            failure = f": expected {canonical_json(example.output)}, got {canonical_json(actual)}"
        else:
            continue  # a passing example's input is never rendered
        return Violation(ViolationKind.TEST_FAILURE, f"input {canonical_json(dict(example.input))}{failure}")
    return None


@contextmanager
def _cache_lock(spec: TaskSpec, config: CodegenConfig):
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    with open(cache_paths(spec, config)[1].with_suffix(".lock"), "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _atomic_write(path: Path, content: str) -> None:
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(content, encoding="utf-8")
    temp.replace(path)
