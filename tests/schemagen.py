"""Seeded random generators for schema/value property suites.

Deterministic by construction: every helper takes an explicit random.Random.
Mutations are only generated for union-free schemas, where a single
structural edit provably breaks validation (under a union the edited value
could still match another member).
"""

from __future__ import annotations

import copy
import random
import string
from typing import Any

from askit.codegen import TaskSpec
from askit.template import parse
from askit.types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    ListOf,
    Literal,
    Record,
    TypeSchema,
    UnionOf,
)

_SCALARS = (INT, FLOAT, BOOL, STR)


def random_schema(rng: random.Random, depth: int = 0, allow_union: bool = True) -> TypeSchema:
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return _random_leaf(rng)
    if roll < 0.65:
        return ListOf(random_schema(rng, depth + 1, allow_union))
    if roll < 0.85 or not allow_union:
        count = rng.randint(0, 3)
        names = rng.sample(["alpha", "beta", "gamma", "delta", "epsilon"], count)
        return Record(tuple((name, random_schema(rng, depth + 1, allow_union)) for name in names))
    members = tuple(random_schema(rng, depth + 1, allow_union) for _ in range(rng.randint(2, 3)))
    return UnionOf(members)


def _random_leaf(rng: random.Random) -> TypeSchema:
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(_SCALARS)
    kind = rng.randint(0, 2)
    if kind == 0:
        return Literal(rng.randint(-99, 99))
    if kind == 1:
        return Literal(rng.choice([True, False]))
    return Literal(_random_word(rng))


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))


_WORDS = ("Compute", "the", "SUM", "of", "'quoted'", "Ünïcode", "x" * 30, "-", "!")


def random_spec(rng: random.Random, language: str) -> TaskSpec:
    """A task with 0-3 parameters, a random return schema and, four times in
    five, parameter schemas; its text mixes cases, quotes, non-ASCII letters
    and words long enough to cross the cache slug's 40-character cut."""
    params = [f"p{index}" for index in range(rng.randint(0, 3))]
    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 8)))
    text += "".join(f" {{{{{param}}}}}" for param in params)
    schemas = tuple((param, random_schema(rng)) for param in params)
    return TaskSpec(
        name=f"task{rng.randint(0, 999)}",
        template=parse(text),
        return_schema=random_schema(rng),
        param_schemas=None if rng.random() < 0.2 else schemas,
        target_language=language,
    )


def sample_value(rng: random.Random, schema: TypeSchema) -> Any:
    if schema == INT:
        return rng.randint(-1000, 1000)
    if schema == FLOAT:
        return round(rng.uniform(-100.0, 100.0), 3)
    if schema == BOOL:
        return rng.choice([True, False])
    if schema == STR:
        return _random_word(rng)
    if isinstance(schema, Literal):
        return schema.value
    if isinstance(schema, ListOf):
        return [sample_value(rng, schema.element) for _ in range(rng.randint(0, 3))]
    if isinstance(schema, Record):
        return {name: sample_value(rng, sub) for name, sub in schema.fields}
    if isinstance(schema, UnionOf):
        return sample_value(rng, rng.choice(schema.members))
    raise AssertionError(f"no sampler for {schema!r}")


def _breaker(schema: TypeSchema) -> Any:
    """A replacement value of a different JSON kind than the leaf accepts."""
    if schema == BOOL or (isinstance(schema, Literal) and isinstance(schema.value, bool)):
        return "true"
    if schema in (INT, FLOAT) or (isinstance(schema, Literal) and isinstance(schema.value, (int, float))):
        return "not-a-number"
    return 12345  # string-ish leaf: replace with a number


def _sites(schema: TypeSchema, value: Any, path: tuple = ()) -> list[tuple[str, tuple, TypeSchema]]:
    if isinstance(schema, (Literal,)) or schema in _SCALARS:
        return [("leaf", path, schema)]
    if isinstance(schema, ListOf):
        found = []
        for index, element in enumerate(value):
            found.extend(_sites(schema.element, element, (*path, index)))
        return found
    if isinstance(schema, Record):
        found = [("record", path, schema)]
        for name, sub in schema.fields:
            found.extend(_sites(sub, value[name], (*path, name)))
        return found
    raise AssertionError(f"mutation sites only for union-free schemas, got {schema!r}")


def _replace_at(value: Any, path: tuple, transform) -> Any:
    if not path:
        return transform(value)
    clone = copy.copy(value)
    key = path[0]
    clone[key] = _replace_at(clone[key], path[1:], transform)
    return clone


def mutate(rng: random.Random, schema: TypeSchema, value: Any) -> Any | None:
    """One structural mutation guaranteed to break validation, or None.

    Deletes a record key, adds an undeclared key, or swaps a leaf for a value
    of a different JSON kind. Returns None when the pair offers no mutation
    site (e.g. an empty list under a list schema).
    """
    value = copy.deepcopy(value)
    sites = _sites(schema, value, ())
    options = []
    for kind, path, sub in sites:
        if kind == "leaf":
            options.append(("leaf", path, sub))
        else:
            options.append(("add_key", path, sub))
            if sub.fields:
                options.append(("del_key", path, sub))
    if not options:
        return None
    kind, path, sub = rng.choice(options)
    if kind == "leaf":
        return _replace_at(value, path, lambda _old: _breaker(sub))
    if kind == "add_key":
        def add(record_value):
            record_value = dict(record_value)
            record_value["undeclared_extra"] = 1
            return record_value

        return _replace_at(value, path, add)

    victim = rng.choice([name for name, _ in sub.fields])

    def drop(record_value):
        record_value = dict(record_value)
        del record_value[victim]
        return record_value

    return _replace_at(value, path, drop)
