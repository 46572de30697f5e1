"""Type algebra for answer and parameter shapes.

Schemas describe the JSON values a task may produce or consume. They do two
jobs: render to the type-expression text embedded in prompts, and validate
decoded JSON values so answers can be extracted mechanically.

The algebra is deliberately small: integer, float, boolean, text, scalar
literals, lists, records with fixed fields, and unions. No `any`, no dates,
no recursion.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union as TUnion

from .errors import SchemaError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ScalarValue = TUnion[int, float, bool, str]


class TypeSchema:
    """Base class; concrete schemas are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Integer(TypeSchema):
    pass


@dataclass(frozen=True)
class Float(TypeSchema):
    pass


@dataclass(frozen=True)
class Boolean(TypeSchema):
    pass


@dataclass(frozen=True)
class Text(TypeSchema):
    pass


@dataclass(frozen=True)
class Literal(TypeSchema):
    value: ScalarValue

    def __post_init__(self):
        if not isinstance(self.value, (int, float, bool, str)):
            raise SchemaError(f"literal values must be scalars, got {type(self.value).__name__}")


@dataclass(frozen=True)
class ListOf(TypeSchema):
    element: TypeSchema

    def __post_init__(self):
        if not isinstance(self.element, TypeSchema):
            raise SchemaError("list element must be a TypeSchema")


@dataclass(frozen=True)
class Record(TypeSchema):
    fields: tuple[tuple[str, TypeSchema], ...]

    def __post_init__(self):
        names = [name for name, _ in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate record field names: {names}")
        for name, schema in self.fields:
            if not IDENT_RE.match(name):
                raise SchemaError(f"record field name {name!r} is not a valid identifier")
            if not isinstance(schema, TypeSchema):
                raise SchemaError(f"field {name!r} schema must be a TypeSchema")


@dataclass(frozen=True)
class UnionOf(TypeSchema):
    members: tuple[TypeSchema, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise SchemaError("a union needs at least 2 members")
        for member in self.members:
            if not isinstance(member, TypeSchema):
                raise SchemaError("union members must be TypeSchemas")


class VoidType:
    """Marker for functions that produce no value (code generation only)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Void"


VOID = VoidType()

# Shorthand constructors mirroring how schemas read in task files.
INT = Integer()
FLOAT = Float()
BOOL = Boolean()
STR = Text()


def literal(value: ScalarValue) -> Literal:
    return Literal(value)


def list_of(element: TypeSchema) -> ListOf:
    return ListOf(element)


def record(fields: Mapping[str, TypeSchema] | Iterable[tuple[str, TypeSchema]]) -> Record:
    if isinstance(fields, Mapping):
        items = tuple(fields.items())
    else:
        items = tuple(fields)
    return Record(items)


def union(*members: TypeSchema) -> UnionOf:
    return UnionOf(tuple(members))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a value against a schema.

    ok=True implies path/expected/found are empty. `path` locates the first
    mismatch (e.g. ``answer[2].year``), `expected` is the rendered schema
    fragment there, `found` a short description of the offending value.
    """

    ok: bool
    path: str = ""
    expected: str = ""
    found: str = ""

    @classmethod
    def success(cls) -> "ValidationReport":
        return cls(ok=True)

    @classmethod
    def mismatch(cls, path: str, expected: str, found: str) -> "ValidationReport":
        return cls(ok=False, path=path, expected=expected, found=found)


def render(schema: TypeSchema | VoidType) -> str:
    """Render a schema to its type-expression text.

    Void renders as ``void``. Integer and Float both render as ``number``;
    integrality is enforced by validation instead. Records use ``; ``
    separators with one space inside the braces; union members join with
    `` | ``; union elements of a list are parenthesized. Deterministic and
    order-preserving.
    """
    if isinstance(schema, (Integer, Float)):
        return "number"
    if isinstance(schema, Boolean):
        return "boolean"
    if isinstance(schema, Text):
        return "string"
    if isinstance(schema, Literal):
        return _render_literal(schema.value)
    if isinstance(schema, ListOf):
        inner = render(schema.element)
        if isinstance(schema.element, UnionOf):
            inner = f"({inner})"
        return inner + "[]"
    if isinstance(schema, Record):
        if not schema.fields:
            return "{}"
        body = "; ".join(f"{name}: {render(sub)}" for name, sub in schema.fields)
        return "{ " + body + " }"
    if isinstance(schema, UnionOf):
        return " | ".join(render(member) for member in schema.members)
    if isinstance(schema, VoidType):
        return "void"
    raise SchemaError(f"cannot render {schema!r}")


def _render_literal(value: ScalarValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def wrap_response(answer: TypeSchema) -> Record:
    """Wrap an answer schema in the fixed {reason, answer} envelope."""
    return Record((("reason", Text()), ("answer", answer)))


def validate(schema: TypeSchema, value: Any, path: str = "value") -> ValidationReport:
    """Check a decoded JSON value against a schema.

    Mismatches are reported, never raised. Records are strict: extra keys
    fail, missing keys fail. Integer accepts JSON numbers with zero
    fractional part; Float accepts any JSON number. Union tries members in
    order and succeeds on the first match.
    """
    if isinstance(schema, Integer):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ValidationReport.mismatch(path, "number", _describe(value))
        if isinstance(value, float) and not value.is_integer():
            return ValidationReport.mismatch(path, "number", "non-integral number")
        return ValidationReport.success()
    if isinstance(schema, Float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ValidationReport.mismatch(path, "number", _describe(value))
        return ValidationReport.success()
    if isinstance(schema, Boolean):
        if not isinstance(value, bool):
            return ValidationReport.mismatch(path, "boolean", _describe(value))
        return ValidationReport.success()
    if isinstance(schema, Text):
        if not isinstance(value, str):
            return ValidationReport.mismatch(path, "string", _describe(value))
        return ValidationReport.success()
    if isinstance(schema, Literal):
        if _literal_matches(schema.value, value):
            return ValidationReport.success()
        return ValidationReport.mismatch(path, render(schema), _describe(value, reveal=True))
    if isinstance(schema, ListOf):
        if not isinstance(value, list):
            return ValidationReport.mismatch(path, render(schema), _describe(value))
        for index, element in enumerate(value):
            report = validate(schema.element, element, f"{path}[{index}]")
            if not report.ok:
                return report
        return ValidationReport.success()
    if isinstance(schema, Record):
        if not isinstance(value, dict):
            return ValidationReport.mismatch(path, render(schema), _describe(value))
        declared = {name for name, _ in schema.fields}
        for name, sub in schema.fields:
            if name not in value:
                return ValidationReport.mismatch(f"{path}.{name}", render(sub), "missing field")
            report = validate(sub, value[name], f"{path}.{name}")
            if not report.ok:
                return report
        for key in value:
            if key not in declared:
                return ValidationReport.mismatch(f"{path}.{key}", "no declared field", _describe(value[key]))
        return ValidationReport.success()
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if validate(member, value, path).ok:
                return ValidationReport.success()
        return ValidationReport.mismatch(path, render(schema), _describe(value, reveal=True))
    raise SchemaError(f"cannot validate against {schema!r}")


def coerce(schema: TypeSchema, value: Any) -> Any:
    """Normalize a value that already validated against `schema`.

    The only transformations are integrality ones: integral floats become
    ints where the schema says Integer, and literal positions collapse to the
    literal's own value. Nothing else is cast.
    """
    if isinstance(schema, Integer):
        return int(value) if isinstance(value, float) else value
    if isinstance(schema, Literal):
        return schema.value
    if isinstance(schema, ListOf):
        return [coerce(schema.element, element) for element in value]
    if isinstance(schema, Record):
        return {name: coerce(sub, value[name]) for name, sub in schema.fields}
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if validate(member, value).ok:
                return coerce(member, value)
        return value
    return value


def _literal_matches(expected: ScalarValue, value: Any) -> bool:
    if isinstance(expected, bool):
        return isinstance(value, bool) and value is expected
    if isinstance(expected, (int, float)):
        return not isinstance(value, bool) and isinstance(value, (int, float)) and value == expected
    return isinstance(value, str) and value == expected


def _describe(value: Any, reveal: bool = False) -> str:
    """Short description of a JSON value for mismatch reports."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        kind = "boolean"
    elif isinstance(value, (int, float)):
        kind = "number"
    elif isinstance(value, str):
        kind = "string"
    elif isinstance(value, list):
        return "array"
    elif isinstance(value, dict):
        return "object"
    else:
        return type(value).__name__
    if reveal:
        shown = json.dumps(value, ensure_ascii=False)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        return shown
    return kind
