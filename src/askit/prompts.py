"""Prompt construction and response parsing.

Two prompt families exist. Direct prompts instruct the model to answer inside
a ```json block whose shape is pinned by a rendered type expression. Code
generation prompts show one fixed worked example (a function that adds two
numbers) and then present an empty skeleton for the task.

Both prompt texts are bit-exact contracts; golden files in the test suite pin
them. Response parsing classifies problems as Violation values rather than
raising, so retry loops can turn them into feedback.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .encoding import canonical_json
from .errors import BlockNotFound, SchemaError
from .template import ArgBinding, PromptTemplate, substitute_comment, substitute_direct
from .types import (
    IDENT_RE,
    Record,
    TypeSchema,
    ValidationReport,
    VoidType,
    coerce,
    render,
    validate,
    wrap_response,
)

if TYPE_CHECKING:
    from .codegen import TaskSpec


@dataclass(frozen=True)
class Message:
    role: str  # "user" or "assistant"
    content: str

    def to_wire(self) -> dict:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class Example:
    """One demonstration or validation pair: named inputs and the output."""

    input: Mapping[str, Any]
    output: Any


def examples_from(items: Any, where: str) -> tuple[Example, ...]:
    """Examples from Example values, {input, output} objects or (input, output) tuples.

    None reads as no examples. JSON has no tuples, so a task file can only use
    the object form. Raises SchemaError on anything else.
    """
    if items is None:
        return ()
    if isinstance(items, (str, bytes, Mapping)) or not isinstance(items, Iterable):
        raise SchemaError(f"{where} must be a list of {{input, output}} objects")
    examples = []
    for item in items:
        if isinstance(item, Example):
            examples.append(item)
            continue
        if isinstance(item, tuple) and len(item) == 2:
            item = {"input": item[0], "output": item[1]}
        if not isinstance(item, Mapping) or "input" not in item or "output" not in item:
            raise SchemaError(f"{where} entries need 'input' and 'output' fields")
        if not isinstance(item["input"], Mapping):
            raise SchemaError(f"{where} input must be an object of named values")
        examples.append(Example(input=dict(item["input"]), output=item["output"]))
    return tuple(examples)


class ViolationKind(Enum):
    NO_JSON_BLOCK = "no_json_block"
    MISSING_ANSWER_FIELD = "missing_answer_field"
    TYPE_MISMATCH = "type_mismatch"
    NO_CODE_BLOCK = "no_code_block"
    SYNTAX_ERROR = "syntax_error"
    TEST_FAILURE = "test_failure"


@dataclass(frozen=True)
class Violation:
    """Why a model response was rejected; detail is human-readable text."""

    kind: ViolationKind
    detail: str = ""
    report: ValidationReport | None = None

    def __str__(self):
        return f"{self.kind.value}: {self.detail}" if self.detail else self.kind.value


@dataclass(frozen=True)
class TargetLanguage:
    extension: str
    comment: str  # line-comment mark in a code generation skeleton
    runnable: bool  # the harness can run it


# Every codegen target; the name doubles as the markdown fence tag.
LANGUAGES = {
    "python": TargetLanguage("py", "#", runnable=True),
    "typescript": TargetLanguage("ts", "//", runnable=False),
}


@dataclass(frozen=True)
class DirectPrompt:
    text: str
    schema: Record  # the wrapped {reason, answer} envelope schema


@dataclass(frozen=True)
class CodegenPrompt:
    text: str
    target_language_tag: str
    skeleton: str


@dataclass(frozen=True)
class ParsedAnswer:
    value: Any
    reason: str


DIRECT_PREAMBLE = (
    "You are a helpful assistant that generates responses in JSON format"
    " enclosed with ```json and ``` like:\n"
    "```json\n"
    '{ "reason": "Step-by-step reason for the answer", "answer": "Final answer or result" }\n'
    "```"
)
TYPE_INTRO = "The response in the JSON code block should match the type defined as follows:"
REASON_INSTRUCTION = "Explain your answer step-by-step in the 'reason' field."

# The worked one-shot example shown before every code generation task. One
# constant per target language surface; the text never varies with the task.
_ONE_SHOT = {
    "typescript": (
        "Q: Implement the following function:\n"
        "```typescript\n"
        "export function func({x, y}: {x: number, y: number}): number {\n"
        "  // add 'x' and 'y'\n"
        "}\n"
        "```\n"
        "\n"
        "A:\n"
        "```typescript\n"
        "export function func({x, y}: {x: number, y: number}): number {\n"
        "  // add 'x' and 'y'\n"
        "  return x + y;\n"
        "}\n"
        "```"
    ),
    "python": (
        "Q: Implement the following function:\n"
        "```python\n"
        "def func(*, x, y):\n"
        "    # add 'x' and 'y'\n"
        "```\n"
        "\n"
        "A:\n"
        "```python\n"
        "def func(*, x, y):\n"
        "    # add 'x' and 'y'\n"
        "    return x + y\n"
        "```"
    ),
}


def build_direct(
    template: PromptTemplate,
    args: ArgBinding,
    answer_schema: TypeSchema,
    fewshot: Iterable[Example] = (),
) -> DirectPrompt:
    """Assemble the direct-answer prompt.

    Layout: fixed preamble with the envelope example, the type sentence, a
    ```ts block holding the rendered {reason, answer} envelope type, the
    reasoning instruction, a blank line, one demonstration per few-shot
    example (task text plus its ```json envelope), then the task text with
    its where-clause. Deterministic: equal inputs give byte-equal prompts.
    Raises SchemaError for a void task, which has no answer to ask for.
    """
    if isinstance(answer_schema, VoidType):
        raise SchemaError("a void task has no direct answer; compile it instead")
    wrapped = wrap_response(answer_schema)
    parts = [
        DIRECT_PREAMBLE,
        "\n",
        TYPE_INTRO,
        "\n```ts\n",
        render(wrapped),
        "\n```\n",
        REASON_INSTRUCTION,
        "\n\n",
    ]
    for example in fewshot:
        demo_task = substitute_direct(template, example.input)
        envelope = json.dumps({"reason": "", "answer": example.output}, ensure_ascii=False)
        parts.append(f"{demo_task}\n```json\n{envelope}\n```\n\n")
    parts.append(substitute_direct(template, args))
    return DirectPrompt(text="".join(parts), schema=wrapped)


def synthesize_signature(
    name: str,
    return_schema: TypeSchema | VoidType,
    param_schemas: Iterable[tuple[str, TypeSchema | None]],
    language: str = "typescript",
) -> str:
    """Function signature with named (not positional) parameters.

    TypeScript surface: ``export function name({a, b}: {a: T, b: T}): R``
    with a void-like absent return rendered as ``void``. Python surface:
    keyword-only parameters, ``def name(*, a, b):``.
    """
    params = list(param_schemas)
    for param_name, _ in params:
        if not IDENT_RE.match(param_name):
            raise SchemaError(f"parameter name {param_name!r} is not a valid identifier")
    names = [param_name for param_name, _ in params]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate parameter names: {names}")
    if language == "typescript":
        for param_name, schema in params:
            if schema is None:
                raise SchemaError(
                    f"parameter {param_name!r} needs a schema for a typescript signature"
                )
        destructured = "{" + ", ".join(names) + "}"
        typed = "{" + ", ".join(f"{n}: {render(s)}" for n, s in params) + "}"
        return f"export function {name}({destructured}: {typed}): {render(return_schema)}"
    if language == "python":
        if not names:
            return f"def {name}():"
        return f"def {name}(*, {', '.join(names)}):"
    raise SchemaError(f"unsupported codegen language {language!r}")


def build_codegen(spec: "TaskSpec") -> CodegenPrompt:
    """Assemble the code generation prompt for a task.

    Three segments separated by blank lines: the fixed one-shot question, its
    fixed answer, then the task question holding a fenced skeleton. The
    skeleton is the synthesized signature with the task text as a body
    comment, plus one comment line per few-shot example.
    """
    language = spec.target_language
    skeleton = _skeleton(spec, language)
    text = f"{_ONE_SHOT[language]}\n\nQ: Implement the following function:\n```{language}\n{skeleton}\n```"
    return CodegenPrompt(text=text, target_language_tag=language, skeleton=skeleton)


def _skeleton(spec: "TaskSpec", language: str) -> str:
    params = spec.param_schemas if spec.param_schemas is not None else [
        (name, None) for name in spec.template.params
    ]
    signature = synthesize_signature(spec.name, spec.return_schema, params, language)
    mark = LANGUAGES[language].comment
    body = [f"    {mark} {substitute_comment(spec.template)}"]
    for example in spec.fewshot:
        call = json.dumps(dict(example.input), ensure_ascii=False)
        expected = json.dumps(example.output, ensure_ascii=False)
        body.append(f"    {mark} Example: {spec.name}({call}) == {expected}")
    if language == "typescript":
        return "\n".join([signature + " {", *body, "}"])
    return "\n".join([signature, *body])


@functools.lru_cache(maxsize=16)
def _fence_pattern(fence_tag: str) -> re.Pattern:
    return re.compile(r"^```" + re.escape(fence_tag) + r"[ \t]*\r?\n(.*?)^```[ \t]*(?:\r?\n|\Z)", re.MULTILINE | re.DOTALL)


def extract_block(text: str, fence_tag: str) -> str:
    """Contents of the first fenced block whose opening tag equals fence_tag.

    The opening fence must start a line; one trailing newline is normalized
    away. Raises BlockNotFound when no such block exists.
    """
    match = _fence_pattern(fence_tag).search(text)
    if match is None:
        raise BlockNotFound(f"no ```{fence_tag} block in the response")
    content = match.group(1)
    if content.endswith("\r\n"):
        return content[:-2]
    if content.endswith("\n"):
        return content[:-1]
    return content


def parse_answer(text: str, answer_schema: TypeSchema) -> ParsedAnswer | Violation:
    """Extract and validate the {reason, answer} envelope from a response.

    Checks, in order: a ```json block exists and decodes, the decoded value
    is an object carrying ``answer``, and the answer validates against the
    schema. Problems come back as Violation values; nothing is thrown. A
    missing ``reason`` defaults to empty text.
    """
    try:
        block = extract_block(text, "json")
    except BlockNotFound:
        return Violation(ViolationKind.NO_JSON_BLOCK, "the response has no ```json code block")
    try:
        payload = json.loads(block)
    except ValueError as exc:
        return Violation(ViolationKind.NO_JSON_BLOCK, f"the ```json block is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        return Violation(
            ViolationKind.MISSING_ANSWER_FIELD, "the JSON value is not an object with an 'answer' field"
        )
    if "answer" not in payload:
        return Violation(ViolationKind.MISSING_ANSWER_FIELD, "the JSON object has no 'answer' field")
    report = validate(answer_schema, payload["answer"], path="answer")
    if not report.ok:
        detail = f"at {report.path}: expected {report.expected}, found {report.found}"
        return Violation(ViolationKind.TYPE_MISMATCH, detail, report=report)
    reason = payload.get("reason", "")
    if not isinstance(reason, str):
        reason = canonical_json(reason)
    return ParsedAnswer(value=coerce(answer_schema, payload["answer"]), reason=reason)
