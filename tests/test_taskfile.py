import json
import os
import random

import pytest

from askit import taskfile
from askit.errors import AskitError, SchemaError, TaskFileError
from askit.taskfile import load_task_file, parse_schema_text
from askit.types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    VOID,
    ListOf,
    Literal,
    Record,
    UnionOf,
    render,
)
from conftest import DEMO_TASKS
from schemagen import random_schema


def schema_text(schema):
    """Task-file text for a schema, written the way task-file authors write it."""
    if schema is VOID:
        return "void"
    if isinstance(schema, Literal):
        value = schema.value
        if isinstance(value, bool):
            return f"literal({'true' if value else 'false'})"
        return f"literal({value!r})"
    if isinstance(schema, ListOf):
        return f"list({schema_text(schema.element)})"
    if isinstance(schema, Record):
        fields = ", ".join(f"'{name}': {schema_text(sub)}" for name, sub in schema.fields)
        return f"dict({{{fields}}})"
    if isinstance(schema, UnionOf):
        return f"union({', '.join(schema_text(member) for member in schema.members)})"
    return {INT: "int", FLOAT: "float", BOOL: "bool", STR: "str"}[schema]


class TestSchemaText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("int", INT),
            ("float", FLOAT),
            ("bool", BOOL),
            ("str", STR),
            ("literal(123)", Literal(123)),
            ("list(int)", ListOf(INT)),
            ("dict({ 'x':int, 'y':int })", Record((("x", INT), ("y", INT)))),
            ("union(literal('yes'),literal('no'))", UnionOf((Literal("yes"), Literal("no")))),
        ],
    )
    def test_constructor_table(self, text, expected):
        assert parse_schema_text(text) == expected

    def test_renders_match_reference_column(self):
        cases = {
            "int": "number",
            "float": "number",
            "bool": "boolean",
            "str": "string",
            "literal(123)": "123",
            "list(int)": "number[]",
            "dict({ 'x':int, 'y':int })": "{ x: number; y: number }",
            "union(literal('yes'),literal('no'))": "'yes' | 'no'",
        }
        for text, expected in cases.items():
            assert render(parse_schema_text(text)) == expected

    def test_nested_books_schema(self):
        schema = parse_schema_text("list(dict({'title': str, 'author': str, 'year': int}))")
        assert schema == ListOf(Record((("title", STR), ("author", STR), ("year", INT))))

    def test_void(self):
        assert parse_schema_text("void") is VOID

    def test_whitespace_tolerant(self):
        assert parse_schema_text("  union( literal( 'a' ) , literal( 'b' ) )  ") == UnionOf(
            (Literal("a"), Literal("b"))
        )

    def test_bare_and_double_quoted_keys(self):
        assert parse_schema_text('dict({x: int, "y": int})') == Record((("x", INT), ("y", INT)))

    def test_literal_variants(self):
        assert parse_schema_text("literal(-7)") == Literal(-7)
        assert parse_schema_text("literal(2.5)") == Literal(2.5)
        assert parse_schema_text("literal(true)") == Literal(True)
        assert parse_schema_text('literal("quoted")') == Literal("quoted")

    def test_unknown_constructor(self):
        with pytest.raises(TaskFileError):
            parse_schema_text("tuple(int)")

    def test_trailing_garbage(self):
        with pytest.raises(TaskFileError):
            parse_schema_text("int extra")

    def test_unterminated_string(self):
        with pytest.raises(TaskFileError):
            parse_schema_text("literal('oops")

    def test_union_needs_two_members(self):
        with pytest.raises(AskitError):
            parse_schema_text("union(int)")

    def test_void_cannot_nest(self):
        with pytest.raises(TaskFileError):
            parse_schema_text("list(void)")


class TestSchemaTextRoundTrip:
    def test_seeded_schemas_parse_back_equal(self):
        rng = random.Random(20230801)
        for _ in range(3000):
            schema = random_schema(rng)
            text = schema_text(schema)
            assert parse_schema_text(text) == schema, text

    def test_demo_schemas_parse_back_equal(self):
        for entry in load_task_file(DEMO_TASKS).entries.values():
            schemas = [entry.spec.return_schema, *(schema for _, schema in entry.spec.param_schemas or ())]
            for schema in schemas:
                assert parse_schema_text(schema_text(schema)) == schema


# Spellings whose outcome Python's expression grammar decides; each row pins it.
EDGE_CASES = [
    ("(int)", INT),
    ("list(int,)", ListOf(INT)),
    ("int # c", INT),
    ("literal(.5)", Literal(0.5)),
    ("literal(1_0)", Literal(10)),
    ("literal(007)", TaskFileError),
    ("dict({class: int})", TaskFileError),
    ("literal('a\\nb')", Literal("a\nb")),
    ("dict({1: int})", TaskFileError),
]


class TestSchemaTextEdgeCases:
    @pytest.mark.parametrize("text,expected", EDGE_CASES)
    def test_outcome(self, text, expected):
        if expected is TaskFileError:
            with pytest.raises(TaskFileError):
                parse_schema_text(text)
        else:
            assert parse_schema_text(text) == expected

    def test_error_names_the_text_without_an_offset(self):
        with pytest.raises(TaskFileError) as caught:
            parse_schema_text("tuple(int)")
        assert "tuple(int)" in str(caught.value)
        assert "offset" not in str(caught.value)


MALFORMED = [
    "list(" * 1000 + "int" + ")" * 1000,
    "dict({'x': " * 1000 + "int" + "})" * 1000,
    "x." * 1000 + "y",
    "literal(" + "1" * 5000 + ")",
    "literal(-" + "1" * 5000 + ")",
    "literal(__import__('os').system('x'))",
    "dict(x=int)",
    "literal(None)",
    "literal(True)",
    "literal(1j)",
    "literal(b'x')",
    "literal(f'x')",
    "literal(--1)",
    "literal(-'a')",
    "literal(int)",
    "literal()",
    "literal(1, 2)",
    "list(int, int)",
    "list(*[int])",
    "dict()",
    "dict([int])",
    "dict({**x})",
    "union()",
    "union(void, int)",
    "dict({'x': void})",
    "true",
    "list",
    "1 + 1",
    "",
    "   ",
    "int\x00",
    "int\n+",
    "lambda: int",
]


class TestMalformedSchemaText:
    @pytest.mark.parametrize("text", MALFORMED, ids=lambda text: text[:30])
    def test_raises_an_askit_error(self, text):
        with pytest.raises(AskitError):
            parse_schema_text(text)

    def test_text_is_never_evaluated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "system", lambda command: calls.append(command))
        with pytest.raises(TaskFileError):
            parse_schema_text("literal(__import__('os').system('x'))")
        with pytest.raises(TaskFileError):
            parse_schema_text("list(__import__('os').system('x') or int)")
        assert calls == []

    @pytest.mark.parametrize("value", [None, 1, ["int"], {"x": "int"}])
    def test_non_text_schema(self, value):
        with pytest.raises(TaskFileError):
            parse_schema_text(value)


class TestLoadTaskFile:
    def test_demo_file_loads(self):
        task_file = load_task_file(DEMO_TASKS)
        assert task_file.version == 1
        assert list(task_file.entries)[:2] == ["getSentiment", "getBooks"]
        factorial = task_file.get("calculateFactorial")
        assert factorial.codable
        assert len(factorial.spec.tests) == 2
        spec = factorial.to_spec()
        assert spec.template.params == ("n",)
        assert spec.return_schema == INT

    def test_target_language_override(self):
        task_file = load_task_file(DEMO_TASKS)
        spec = task_file.get("calculateFactorial").to_spec(target_language="typescript")
        assert spec.target_language == "typescript"

    def test_to_spec_returns_the_held_spec(self):
        entry = load_task_file(DEMO_TASKS).get("calculateFactorial")
        assert entry.to_spec() is entry.spec

    def test_unknown_target_language_is_checked_again(self):
        entry = load_task_file(DEMO_TASKS).get("calculateFactorial")
        with pytest.raises(SchemaError, match="cobol"):
            entry.to_spec(target_language="cobol")

    def test_each_template_parses_once(self, monkeypatch):
        parsed = []
        real = taskfile.parse_template

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(taskfile, "parse_template", counting)
        task_file = load_task_file(DEMO_TASKS)
        for entry in task_file.entries.values():
            entry.to_spec()
        assert sorted(parsed) == sorted(entry.spec.template.raw for entry in task_file.entries.values())

    def test_unknown_name_raises_key_error(self):
        task_file = load_task_file(DEMO_TASKS)
        with pytest.raises(KeyError):
            task_file.get("nope")

    def write(self, tmp_path, document):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    def test_version_required(self, tmp_path):
        with pytest.raises(TaskFileError):
            load_task_file(self.write(tmp_path, {"tasks": []}))

    def test_duplicate_names(self, tmp_path):
        entry = {"name": "a", "template": "x", "return_schema": "int"}
        with pytest.raises(TaskFileError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry, entry]}))

    def test_missing_required_field(self, tmp_path):
        with pytest.raises(TaskFileError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [{"name": "a"}]}))

    def test_bad_template_fails_fast(self, tmp_path):
        entry = {"name": "a", "template": "broken {{x", "return_schema": "int"}
        with pytest.raises(AskitError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))

    def test_param_schema_mismatch_fails_fast(self, tmp_path):
        entry = {
            "name": "a",
            "template": "use {{x}}",
            "return_schema": "int",
            "param_schemas": {"y": "int"},
        }
        with pytest.raises(AskitError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))

    def test_not_json(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(TaskFileError):
            load_task_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TaskFileError):
            load_task_file(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "field,value",
        [("name", 1), ("name", ["a"]), ("template", 3), ("template", ["x"]),
         ("target_language", 5), ("target_language", ["python"])],
    )
    def test_text_fields_must_be_text(self, tmp_path, field, value):
        entry = {"name": "a", "template": "x", "return_schema": "int", field: value}
        with pytest.raises(TaskFileError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
    def test_codable_must_be_a_json_boolean(self, tmp_path, value):
        entry = {"name": "a", "template": "x", "return_schema": "int", "codable": value}
        with pytest.raises(TaskFileError, match="codable"):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))

    @pytest.mark.parametrize("value, expected", [(True, True), (False, False), (None, False)])
    def test_codable_booleans_and_its_default(self, tmp_path, value, expected):
        entry = {"name": "a", "template": "x", "return_schema": "int"}
        if value is not None:
            entry["codable"] = value
        task_file = load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))
        assert task_file.get("a").codable is expected

    @pytest.mark.parametrize(
        "examples",
        [{"input": {}}, [{"input": {"n": 1}}], [[{}, 1]], [42], [{"input": 1, "output": 2}]],
    )
    def test_malformed_examples(self, tmp_path, examples):
        entry = {"name": "a", "template": "x {{n}}", "return_schema": "int", "tests": examples}
        with pytest.raises(AskitError):
            load_task_file(self.write(tmp_path, {"version": 1, "tasks": [entry]}))
