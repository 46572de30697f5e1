"""Declarative task files: JSON documents describing defined tasks.

A task file is `{"version": 1, "tasks": [...]}` where each entry carries
name, template, return_schema, and optionally param_schemas, fewshot, tests,
codable, and target_language. Schemas are written in a small textual syntax
mirroring the type constructors:

    int  float  bool  str  void
    literal(123)  literal('yes')  literal(true)
    list(int)
    dict({'x': int, 'y': int})
    union(literal('yes'), literal('no'))

Schema text is a Python expression: `ast` parses it and a walk accepts only
the names and constructors above, str and number constants (a number may
carry a minus sign), and `true`/`false` inside `literal`. The text is never
evaluated; anything else raises TaskFileError.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .codegen import TaskSpec
from .errors import TaskFileError
from .prompts import Example, examples_from
from .template import parse as parse_template
from .types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    VOID,
    Literal,
    ListOf,
    Record,
    TypeSchema,
    UnionOf,
    VoidType,
)

_NAMES = {"int": INT, "float": FLOAT, "bool": BOOL, "str": STR, "void": VOID}
_SCALARS = {"true": True, "false": False}


def parse_schema_text(text: str) -> TypeSchema | VoidType:
    """Read task-file schema text: a Python expression, parsed and never evaluated."""
    if not isinstance(text, str):
        raise TaskFileError(f"schema must be text, got {type(text).__name__}")
    try:
        return _schema(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # Like ast.literal_eval, the walk rejects a node with ValueError.
        raise TaskFileError(f"schema text {text!r}: {exc}") from None


def _schema(node: ast.expr) -> TypeSchema | VoidType:
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Name):
        raise ValueError(f"unknown type name {node.id!r}")
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        raise ValueError(f"unexpected {type(node).__name__} where a type belongs")
    head, args = node.func.id, node.args
    if node.keywords or any(isinstance(arg, ast.Starred) for arg in args):
        raise ValueError(f"{head}(...) takes positional arguments only")
    if head == "literal" and len(args) == 1:
        return Literal(_scalar(args[0]))
    if head == "list" and len(args) == 1:
        return ListOf(_member(args[0], "list element"))
    if head == "dict" and len(args) == 1 and isinstance(args[0], ast.Dict):
        fields = []
        for key, value in zip(args[0].keys, args[0].values):
            name = _field_name(key)
            fields.append((name, _member(value, f"field {name!r}")))
        return Record(tuple(fields))
    if head == "union":
        return UnionOf(tuple(_member(arg, "union member") for arg in args))
    if head in ("literal", "list", "dict"):
        raise ValueError(f"wrong arguments to {head}(...)")
    raise ValueError(f"unknown type constructor {head!r}")


def _member(node: ast.expr, where: str) -> TypeSchema:
    schema = _schema(node)
    if isinstance(schema, VoidType):
        raise ValueError(f"void is not allowed as a {where}")
    return schema


def _scalar(node: ast.expr):
    if isinstance(node, ast.Name) and node.id in _SCALARS:
        return _SCALARS[node.id]
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return sign * node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and sign == 1:
        return node.value
    raise ValueError(f"expected a scalar literal, got {type(node).__name__}")


def _field_name(node: ast.expr | None) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    raise ValueError(f"expected a field name, got {type(node).__name__}")


@dataclass(frozen=True)
class TaskEntry:
    name: str
    template_text: str
    return_schema: TypeSchema | VoidType
    param_schemas: tuple[tuple[str, TypeSchema], ...] | None
    fewshot: tuple[Example, ...]
    tests: tuple[Example, ...]
    codable: bool
    target_language: str

    def to_spec(self, target_language: str | None = None) -> TaskSpec:
        return TaskSpec(
            name=self.name,
            template=parse_template(self.template_text),
            return_schema=self.return_schema,
            param_schemas=self.param_schemas,
            fewshot=self.fewshot,
            tests=self.tests,
            target_language=target_language or self.target_language,
        )


@dataclass(frozen=True)
class TaskFile:
    version: int
    entries: dict[str, TaskEntry]

    def get(self, name: str) -> TaskEntry:
        if name not in self.entries:
            raise KeyError(name)
        return self.entries[name]


def load_task_file(path: str | Path) -> TaskFile:
    """Load and validate a task file; entries keep their file order."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise TaskFileError(f"cannot read task file {path}: {exc}") from exc
    except ValueError as exc:
        raise TaskFileError(f"task file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("version") != 1:
        raise TaskFileError("task file must be an object with \"version\": 1")
    tasks = raw.get("tasks")
    if not isinstance(tasks, list):
        raise TaskFileError('task file needs a "tasks" list')
    entries: dict[str, TaskEntry] = {}
    for item in tasks:
        if not isinstance(item, Mapping):
            raise TaskFileError("every task entry must be an object")
        try:
            name = item["name"]
            template_text = item["template"]
            return_text = item["return_schema"]
        except KeyError as exc:
            raise TaskFileError(f"task entry is missing required field {exc}") from exc
        target_language = item.get("target_language", "python")
        for field, value in (("name", name), ("template", template_text), ("target_language", target_language)):
            if not isinstance(value, str):
                raise TaskFileError(f"task entry field {field!r} must be text, got {type(value).__name__}")
        if name in entries:
            raise TaskFileError(f"duplicate task name {name!r}")
        codable = item.get("codable", False)
        if not isinstance(codable, bool):
            raise TaskFileError(f"task {name!r}: codable must be true or false, got {codable!r}")
        params_raw = item.get("param_schemas")
        if params_raw is not None and not isinstance(params_raw, Mapping):
            raise TaskFileError(f"task {name!r}: param_schemas must be an object")
        param_schemas = None if params_raw is None else tuple(
            (key, _param_schema(key, value)) for key, value in params_raw.items()
        )
        entry = TaskEntry(
            name=name,
            template_text=template_text,
            return_schema=parse_schema_text(return_text),
            param_schemas=param_schemas,
            fewshot=examples_from(item.get("fewshot"), f"task {name!r} fewshot"),
            tests=examples_from(item.get("tests"), f"task {name!r} tests"),
            codable=codable,
            target_language=target_language,
        )
        entry.to_spec()  # fail fast: template parses, schemas line up
        entries[name] = entry
    return TaskFile(version=1, entries=entries)


def _param_schema(key: str, value: Any) -> TypeSchema:
    schema = parse_schema_text(value)
    if isinstance(schema, VoidType):
        raise TaskFileError(f"parameter {key!r} cannot be void")
    return schema
