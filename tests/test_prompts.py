import json
import random

import pytest

from askit.codegen import TaskSpec
from askit.errors import BlockNotFound, SchemaError
from askit.prompts import (
    Example,
    ParsedAnswer,
    Violation,
    ViolationKind,
    build_codegen,
    build_direct,
    extract_block,
    parse_answer,
    synthesize_signature,
)
from askit.template import parse
from askit.types import BOOL, INT, STR, VOID, list_of, record, validate
from schemagen import random_schema, sample_value

BOOK = record({"title": STR, "author": STR, "year": INT})


def factorial_spec(language="typescript"):
    return TaskSpec(
        name="calculateFactorial",
        template=parse("Calculate the factorial of {{n}}"),
        return_schema=INT,
        param_schemas=(("n", INT),),
        target_language=language,
    )


class TestBuildDirect:
    def test_books_prompt_matches_golden(self, golden):
        template = parse("List {{n}} classic books on {{subject}}.")
        prompt = build_direct(template, {"n": 5, "subject": "computer science"}, list_of(BOOK))
        assert prompt.text == golden("direct_books.txt")

    def test_palindrome_prompt_assembled_by_hand(self):
        template = parse("Check if {{n}} is a palindrome.")
        prompt = build_direct(template, {"n": 121}, BOOL)
        expected = (
            "You are a helpful assistant that generates responses in JSON format"
            " enclosed with ```json and ``` like:\n"
            "```json\n"
            '{ "reason": "Step-by-step reason for the answer", "answer": "Final answer or result" }\n'
            "```\n"
            "The response in the JSON code block should match the type defined as follows:\n"
            "```ts\n"
            "{ reason: string; answer: boolean }\n"
            "```\n"
            "Explain your answer step-by-step in the 'reason' field.\n"
            "\n"
            "Check if 'n' is a palindrome.\n"
            "where 'n' = 121"
        )
        assert prompt.text == expected

    def test_zero_params_has_no_where_clause(self):
        prompt = build_direct(parse("What is 7 times 8?"), {}, STR)
        assert prompt.text.endswith("\n\nWhat is 7 times 8?")
        assert "where" not in prompt.text.split("\n\n")[-1]

    def test_fewshot_demo_precedes_task(self, golden):
        template = parse("Calculate the factorial of {{n}}")
        prompt = build_direct(template, {"n": 5}, INT, [Example({"n": 3}, 6)])
        assert prompt.text == golden("direct_factorial_fewshot.txt")

    def test_deterministic(self):
        template = parse("List {{n}} classic books on {{subject}}.")
        args = {"n": 5, "subject": "computer science"}
        assert build_direct(template, args, list_of(BOOK)).text == build_direct(
            template, args, list_of(BOOK)
        ).text

    def test_void_task_has_no_direct_prompt(self):
        with pytest.raises(SchemaError, match="void task"):
            build_direct(parse("Store {{text}}."), {"text": "hello"}, VOID)

    def test_exactly_one_type_block(self):
        template = parse("Calculate the factorial of {{n}}")
        prompt = build_direct(template, {"n": 5}, INT, [Example({"n": 3}, 6)])
        assert prompt.text.count("```ts\n") == 1


class TestSynthesizeSignature:
    def test_factorial(self):
        assert (
            synthesize_signature("calculateFactorial", INT, [("n", INT)])
            == "export function calculateFactorial({n}: {n: number}): number"
        )

    def test_void_return(self):
        signature = synthesize_signature(
            "appendReviewToCsv",
            VOID,
            [("filename", STR), ("review", STR), ("sentiment", STR)],
        )
        assert signature == (
            "export function appendReviewToCsv({filename, review, sentiment}:"
            " {filename: string, review: string, sentiment: string}): void"
        )

    def test_zero_params(self):
        assert synthesize_signature("f", STR, []) == "export function f({}: {}): string"

    def test_python_surface(self):
        assert synthesize_signature("f", STR, [], language="python") == "def f():"
        assert (
            synthesize_signature("calculateFactorial", INT, [("n", INT)], language="python")
            == "def calculateFactorial(*, n):"
        )

    def test_duplicate_params_rejected(self):
        with pytest.raises(SchemaError):
            synthesize_signature("f", INT, [("x", INT), ("x", INT)])

    def test_typescript_needs_schemas(self):
        with pytest.raises(SchemaError):
            synthesize_signature("f", INT, [("x", None)], language="typescript")


class TestBuildCodegen:
    def test_factorial_typescript_matches_golden(self, golden):
        assert build_codegen(factorial_spec()).text == golden("codegen_factorial_ts.txt")

    def test_factorial_python_matches_golden(self, golden):
        assert build_codegen(factorial_spec("python")).text == golden("codegen_factorial_py.txt")

    def test_two_param_skeleton_mirrors_one_shot_shape(self):
        spec = TaskSpec(
            name="func2",
            template=parse("add {{x}} and {{y}}"),
            return_schema=INT,
            param_schemas=(("x", INT), ("y", INT)),
            target_language="typescript",
        )
        prompt = build_codegen(spec)
        assert prompt.skeleton == (
            "export function func2({x, y}: {x: number, y: number}): number {\n"
            "    // add 'x' and 'y'\n"
            "}"
        )

    def test_fewshot_examples_become_comment_lines(self):
        spec = TaskSpec(
            name="calculateFactorial",
            template=parse("Calculate the factorial of {{n}}"),
            return_schema=INT,
            param_schemas=(("n", INT),),
            fewshot=(Example({"n": 3}, 6),),
            target_language="typescript",
        )
        assert '    // Example: calculateFactorial({"n": 3}) == 6\n' in build_codegen(spec).text + "\n"

    def test_one_shot_segments_constant_across_specs(self):
        other = TaskSpec(
            name="reverseString",
            template=parse("Reverse the string {{s}}."),
            return_schema=STR,
            param_schemas=(("s", STR),),
            target_language="typescript",
        )
        marker = "\n\nQ: Implement the following function:\n"
        head_a = build_codegen(factorial_spec()).text.rsplit(marker, 1)[0]
        head_b = build_codegen(other).text.rsplit(marker, 1)[0]
        assert head_a == head_b

    def test_fence_tag_follows_target_language(self):
        assert build_codegen(factorial_spec("python")).target_language_tag == "python"
        assert "```python\ndef calculateFactorial(*, n):" in build_codegen(factorial_spec("python")).text


class TestExtractBlock:
    def test_simple_json_block(self):
        assert extract_block('```json\n{"a":1}\n```', "json") == '{"a":1}'

    def test_tag_selectivity(self):
        text = "```ts\nnumber\n```\n```json\n{\"a\":1}\n```"
        assert extract_block(text, "json") == '{"a":1}'

    def test_prefix_tag_does_not_match(self):
        with pytest.raises(BlockNotFound):
            extract_block("```jsonc\n{}\n```", "json")

    def test_not_found(self):
        with pytest.raises(BlockNotFound):
            extract_block("prose with no fences", "json")

    def test_first_match_wins(self):
        text = "```json\n1\n```\nmore\n```json\n2\n```"
        assert extract_block(text, "json") == "1"

    def test_embed_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            lines = [
                "".join(rng.choice("abc {}:,\"'") for _ in range(rng.randint(0, 12)))
                for _ in range(rng.randint(1, 5))
            ]
            payload = "\n".join(lines)
            embedded = f"preface\n```python\n{payload}\n```\ntrailer"
            assert extract_block(embedded, "python") == payload

    def test_empty_block(self):
        assert extract_block("```json\n```", "json") == ""


class TestParseAnswer:
    def test_book_list_envelope(self):
        books = [
            {"title": "SICP", "author": "Abelson and Sussman", "year": 1985},
            {"title": "TAOCP", "author": "Knuth", "year": 1968},
        ]
        response = "Some prose.\n```json\n" + json.dumps({"reason": "classics", "answer": books}) + "\n```"
        parsed = parse_answer(response, list_of(BOOK))
        assert isinstance(parsed, ParsedAnswer)
        assert parsed.value == books
        assert validate(list_of(BOOK), parsed.value).ok

    def test_no_json_block(self):
        result = parse_answer("no code here", STR)
        assert isinstance(result, Violation) and result.kind is ViolationKind.NO_JSON_BLOCK

    def test_undecodable_block_counts_as_no_json_object(self):
        result = parse_answer("```json\n{not json}\n```", STR)
        assert isinstance(result, Violation) and result.kind is ViolationKind.NO_JSON_BLOCK

    def test_missing_answer_field(self):
        result = parse_answer('```json\n{"reason": "r"}\n```', STR)
        assert isinstance(result, Violation) and result.kind is ViolationKind.MISSING_ANSWER_FIELD

    def test_non_object_payload(self):
        result = parse_answer("```json\n[1, 2]\n```", STR)
        assert isinstance(result, Violation) and result.kind is ViolationKind.MISSING_ANSWER_FIELD

    def test_type_mismatch_carries_path(self):
        response = '```json\n{"reason": "", "answer": [{"title": "t", "author": "a", "year": "x"}]}\n```'
        result = parse_answer(response, list_of(BOOK))
        assert isinstance(result, Violation) and result.kind is ViolationKind.TYPE_MISMATCH
        assert result.report.path == "answer[0].year"

    def test_reason_defaults_to_empty(self):
        parsed = parse_answer('```json\n{"answer": "x"}\n```', STR)
        assert isinstance(parsed, ParsedAnswer)
        assert parsed.reason == ""

    def test_integral_answer_coerced(self):
        parsed = parse_answer('```json\n{"reason": "", "answer": 5.0}\n```', INT)
        assert isinstance(parsed, ParsedAnswer)
        assert parsed.value == 5 and isinstance(parsed.value, int)

    def test_envelope_round_trip_property(self):
        rng = random.Random(555)
        for _ in range(300):
            schema = random_schema(rng)
            value = sample_value(rng, schema)
            response = "```json\n" + json.dumps({"reason": "r", "answer": value}) + "\n```"
            parsed = parse_answer(response, schema)
            assert isinstance(parsed, ParsedAnswer), f"{schema!r} rejected {value!r}: {parsed}"
            assert parsed.value == value
