"""validate and coerce against the two functions they replaced.

`_former_validate` and `_former_coerce` below are verbatim copies of the
earlier `askit.types.validate` and `askit.types.coerce`, which built one
report per value walked and validated union members a second time to
coerce them; `_former_literal_matches` and `_former_describe` are verbatim
copies of the helpers they called then. Every row checks that today's
functions give equal reports (ok, path, expected, found) and equal coerced
values of equal types, down to each element.
"""

import copy
import json
import random
from typing import Any

import pytest

from askit import types
from askit.errors import SchemaError
from askit.types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    Boolean,
    Float,
    Integer,
    ListOf,
    Literal,
    Record,
    Text,
    UnionOf,
    coerce,
    list_of,
    literal,
    record,
    render,
    union,
    validate,
)
from schemagen import mutate, random_schema, sample_value


class ValidationReport(types.ValidationReport):
    """The report class as the copies knew it, with its success() constructor."""

    @classmethod
    def success(cls) -> "ValidationReport":
        return cls(ok=True)


def _former_validate(schema, value: Any, path: str = "value") -> ValidationReport:
    """Check a decoded JSON value against a schema.

    Mismatches are reported, never raised. Records are strict: extra keys
    fail, missing keys fail. Integer accepts JSON numbers with zero
    fractional part; Float accepts any JSON number. Union tries members in
    order and succeeds on the first match.
    """
    if isinstance(schema, Integer):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ValidationReport.mismatch(path, "number", _former_describe(value))
        if isinstance(value, float) and not value.is_integer():
            return ValidationReport.mismatch(path, "number", "non-integral number")
        return ValidationReport.success()
    if isinstance(schema, Float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ValidationReport.mismatch(path, "number", _former_describe(value))
        return ValidationReport.success()
    if isinstance(schema, Boolean):
        if not isinstance(value, bool):
            return ValidationReport.mismatch(path, "boolean", _former_describe(value))
        return ValidationReport.success()
    if isinstance(schema, Text):
        if not isinstance(value, str):
            return ValidationReport.mismatch(path, "string", _former_describe(value))
        return ValidationReport.success()
    if isinstance(schema, Literal):
        if _former_literal_matches(schema.value, value):
            return ValidationReport.success()
        return ValidationReport.mismatch(path, render(schema), _former_describe(value, reveal=True))
    if isinstance(schema, ListOf):
        if not isinstance(value, list):
            return ValidationReport.mismatch(path, render(schema), _former_describe(value))
        for index, element in enumerate(value):
            report = _former_validate(schema.element, element, f"{path}[{index}]")
            if not report.ok:
                return report
        return ValidationReport.success()
    if isinstance(schema, Record):
        if not isinstance(value, dict):
            return ValidationReport.mismatch(path, render(schema), _former_describe(value))
        declared = {name for name, _ in schema.fields}
        for name, sub in schema.fields:
            if name not in value:
                return ValidationReport.mismatch(f"{path}.{name}", render(sub), "missing field")
            report = _former_validate(sub, value[name], f"{path}.{name}")
            if not report.ok:
                return report
        for key in value:
            if key not in declared:
                return ValidationReport.mismatch(f"{path}.{key}", "no declared field", _former_describe(value[key]))
        return ValidationReport.success()
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if _former_validate(member, value, path).ok:
                return ValidationReport.success()
        return ValidationReport.mismatch(path, render(schema), _former_describe(value, reveal=True))
    raise SchemaError(f"cannot validate against {schema!r}")


def _former_coerce(schema, value: Any) -> Any:
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
        return [_former_coerce(schema.element, element) for element in value]
    if isinstance(schema, Record):
        return {name: _former_coerce(sub, value[name]) for name, sub in schema.fields}
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if _former_validate(member, value).ok:
                return _former_coerce(member, value)
        return value
    return value


def _former_literal_matches(expected, value: Any) -> bool:
    if isinstance(expected, bool):
        return isinstance(value, bool) and value is expected
    if isinstance(expected, (int, float)):
        return not isinstance(value, bool) and isinstance(value, (int, float)) and value == expected
    return isinstance(value, str) and value == expected


def _former_describe(value: Any, reveal: bool = False) -> str:
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


class Count(int):
    pass


class Name(str):
    pass


def _typed(value: Any) -> Any:
    """The value with the exact type of every part beside it, in key order."""
    if isinstance(value, list):
        return list, [_typed(item) for item in value]
    if isinstance(value, dict):
        return dict, [(key, _typed(item)) for key, item in value.items()]
    return type(value), value


def _outcome(function, *args) -> Any:
    try:
        return "returned", _typed(function(*args))
    except Exception as exc:  # noqa: BLE001 - the same failure counts as the same behaviour
        return "raised", type(exc), str(exc)


def _fields(report) -> tuple:
    return report.ok, report.path, report.expected, report.found


def assert_same(schema, value, path: str = "value") -> bool:
    """Today's validate and coerce against the copies; returns whether `value` conforms."""
    before = copy.deepcopy(value)
    report = validate(schema, value, path)
    assert _fields(report) == _fields(_former_validate(schema, value, path)), (schema, value)
    assert _outcome(coerce, schema, value) == _outcome(_former_coerce, schema, value), (schema, value)
    assert _typed(value) == _typed(before)  # neither touched its input
    return report.ok


ODD_VALUES = [
    None, True, False, 0, 1, -7, 1.0, 2.5, -0.0, "", "x", "true", "no", "v" * 38, "w" * 39, "y" * 60, [], [1], {}, {"alpha": 1},
    Count(3), Name("z"), (1, 2), 10**30, 1e300,
]


def _integral_floats(rng: random.Random, value: Any) -> Any:
    """The value with about half of its ints written as integral floats."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value) if rng.random() < 0.5 else value
    if isinstance(value, list):
        return [_integral_floats(rng, item) for item in value]
    if isinstance(value, dict):
        return {key: _integral_floats(rng, item) for key, item in value.items()}
    return value


def _plant(rng: random.Random, value: Any) -> Any:
    """A copy of the value with one part, at a random depth, swapped for an
    odd value, deleted from its record, or beside an undeclared key."""
    if isinstance(value, (list, dict)) and value and rng.random() < 0.7:
        clone = copy.copy(value)
        key = rng.randrange(len(clone)) if isinstance(clone, list) else rng.choice(list(clone))
        clone[key] = _plant(rng, clone[key])
        return clone
    if isinstance(value, dict) and rng.random() < 0.5:
        clone = dict(value)
        if clone and rng.random() < 0.5:
            del clone[rng.choice(list(clone))]
        else:
            clone[rng.choice(["undeclared_extra", "alpha", "zeta"])] = rng.choice(ODD_VALUES)
        return clone
    return copy.deepcopy(rng.choice(ODD_VALUES))


class TestSeededSchemas:
    def test_conforming_values(self):
        rng = random.Random(2026)
        for _ in range(300):
            schema = random_schema(rng)
            for _ in range(3):
                value = sample_value(rng, schema)
                assert assert_same(schema, value, rng.choice(["value", "answer"]))
                assert_same(schema, _integral_floats(rng, value))

    def test_one_planted_mismatch_at_a_random_depth(self):
        rng, mismatches = random.Random(2027), 0
        for _ in range(400):
            schema = random_schema(rng)
            for _ in range(3):
                mismatches += not assert_same(schema, _plant(rng, sample_value(rng, schema)), "answer")
        assert mismatches > 600  # most planted values do not conform

    def test_single_mutations_of_union_free_schemas(self):
        rng, checked = random.Random(2028), 0
        while checked < 300:
            schema = random_schema(rng, allow_union=False)
            mutated = mutate(rng, schema, sample_value(rng, schema))
            if mutated is not None:
                assert not assert_same(schema, mutated)
                checked += 1

    def test_values_of_other_schemas(self):
        rng = random.Random(2029)
        for _ in range(300):
            assert_same(random_schema(rng), sample_value(rng, random_schema(rng)))


BOOK = record({"title": STR, "year": INT})


@pytest.mark.parametrize(
    "schema, value",
    [
        # bool against int, and integral floats
        (INT, True), (FLOAT, False), (list_of(INT), [1, True]), (literal(1), True), (literal(True), 1),
        (INT, 3.0), (INT, 3.5), (FLOAT, 3), (list_of(INT), [1.0, 2, 3.25]), (literal(2), 2.0), (literal(2.0), 2),
        (list_of(FLOAT), [1, 2.5, True]), (INT, 1e300), (INT, float("inf")),
        # extra and missing keys
        (BOOK, {"title": "t", "year": 1, "extra": None}), (BOOK, {"title": "t"}), (BOOK, {"year": "1999", "title": 1}),
        (BOOK, {"extra": 1, "title": "t", "year": 1}), (BOOK, {"year": 2.0, "title": "t"}), (record({}), {"a": [1]}),
        (list_of(BOOK), [{"title": "a", "year": 1}, {"title": "b", "year": 2, "x": "y" * 50}]),
        # union order
        (union(INT, FLOAT), 2.0), (union(FLOAT, INT), 2.0), (union(literal(1), INT), 1.0), (union(INT, literal(1)), 1.0),
        (union(BOOK, record({"title": STR})), {"title": "t"}), (list_of(union(STR, INT)), ["a", 1.0, None]),
        (union(literal("yes"), literal("no")), "maybe" * 10), (union(list_of(INT), STR), [1, "x"]),
        # subclasses of int and str
        (INT, Count(4)), (FLOAT, Count(4)), (STR, Name("n")), (list_of(INT), [Count(1), 2]), (literal(5), Count(5)),
        (literal("n"), Name("n")), (list_of(STR), [Name("a"), "b", 3]), (record({"n": INT}), {"n": Count(1)}),
        (BOOL, Count(1)), (union(STR, INT), Name("u")),
        # JSON kinds that are not values at all
        (list_of(INT), (1, 2)), (BOOK, [("title", "t")]), (STR, b"x"), (INT, None), (list_of(INT), None),
    ],
)
def test_edge_rows(schema, value):
    assert_same(schema, value, "answer")


def test_a_schema_that_is_not_one_raises_the_same():
    odd = types.TypeSchema()
    for schema, value in [(odd, 1), (ListOf(odd), [1]), (union(INT, odd), "x")]:
        assert _outcome(validate, schema, value) == _outcome(_former_validate, schema, value) == (
            "raised", SchemaError, f"cannot validate against {odd!r}")
    assert validate(ListOf(odd), []).ok and validate(union(INT, odd), 1).ok


def test_a_conforming_value_builds_no_report(monkeypatch):
    built, init = [], types.ValidationReport.__init__
    monkeypatch.setattr(types.ValidationReport, "__init__", lambda self, *args, **kwargs: (built.append(args or kwargs), init(self, *args, **kwargs))[1])
    schema = list_of(union(record({"a": INT, "b": list_of(FLOAT)}), STR, literal(3)))
    value = [{"a": 1, "b": [1, 2.5]}, "x", 3.0] * 50
    assert validate(schema, value) is validate(INT, 1)  # one shared success
    assert coerce(schema, value)[2] == 3 and built == []
    assert _fields(validate(schema, value + [None])) == (False, "value[150]", render(schema.element), "null")
    assert len(built) == 1
