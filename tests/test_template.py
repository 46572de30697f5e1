import json
import random
import re
import string

import pytest

from askit.errors import (
    InvalidIdentifier,
    MalformedPlaceholder,
    UnboundParameter,
    UnknownParameter,
)
from askit.template import parse, substitute_comment, substitute_direct


def assert_quoted_and_raw(text):
    """`parse` keeps the text as given and quotes each placeholder as a regex would."""
    template = parse(text)
    assert template.raw == text
    assert template.quoted == re.sub(r"\{\{(\w+)\}\}", r"'\1'", text)


class TestParse:
    def test_single_parameter(self):
        template = parse("What is the sentiment of {{review}}?")
        assert template.params == ("review",)

    def test_two_parameters_in_order(self):
        template = parse("Count the number of occurrences of {{x}} in {{xs}}.")
        assert template.params == ("x", "xs")

    def test_no_placeholders(self):
        template = parse("Hello world")
        assert template.params == ()
        assert template.raw == "Hello world"

    def test_unmatched_open(self):
        with pytest.raises(MalformedPlaceholder):
            parse("broken {{x")

    def test_unmatched_close(self):
        with pytest.raises(MalformedPlaceholder):
            parse("broken x}} here")

    def test_literal_double_brace_rejected(self):
        with pytest.raises((MalformedPlaceholder, InvalidIdentifier)):
            parse("a {{ b")

    def test_invalid_identifier(self):
        with pytest.raises(InvalidIdentifier):
            parse("bad {{1x}}")

    def test_whitespace_inside_placeholder_rejected(self):
        with pytest.raises(InvalidIdentifier):
            parse("bad {{ x }}")

    def test_repeated_placeholder_bound_once(self):
        template = parse("compare {{x}} with {{x}}")
        assert template.params == ("x",)
        assert template.quoted == "compare 'x' with 'x'"

    def test_serialize_round_trip(self):
        texts = [
            "List {{n}} classic books on {{subject}}.",
            "plain text",
            "{{a}}{{b}}{{a}} tail",
            "leading {{x}} middle {{y}} trailing",
        ]
        for text in texts:
            assert_quoted_and_raw(text)

    def test_serialize_round_trip_random(self):
        rng = random.Random(11)
        letters = string.ascii_lowercase + " .,!?"
        for _ in range(200):
            pieces = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.4:
                    pieces.append("{{" + rng.choice(["a", "b", "count", "x_1"]) + "}}")
                else:
                    pieces.append("".join(rng.choice(letters) for _ in range(rng.randint(1, 8))))
            assert_quoted_and_raw("".join(pieces))


class TestSubstituteDirect:
    def test_books_call(self):
        template = parse("List {{n}} classic books on {{subject}}.")
        out = substitute_direct(template, {"n": 5, "subject": "computer science"})
        assert out == "List 'n' classic books on 'subject'.\nwhere 'n' = 5, 'subject' = \"computer science\""

    def test_zero_parameters(self):
        template = parse("Hello")
        assert substitute_direct(template, {}) == "Hello"

    def test_list_value_uses_compact_json(self):
        template = parse("Sort {{ns}}.")
        expected_value = json.dumps([3, 1, 2], separators=(",", ":"))
        out = substitute_direct(template, {"ns": [3, 1, 2]})
        assert out == f"Sort 'ns'.\nwhere 'ns' = {expected_value}"

    def test_boolean_and_object_values(self):
        template = parse("Use {{flag}} and {{cfg}}.")
        out = substitute_direct(template, {"flag": True, "cfg": {"k": 1}})
        assert "'flag' = true" in out
        assert "'cfg' = {\"k\":1}" in out

    def test_missing_parameter(self):
        template = parse("Need {{x}}.")
        with pytest.raises(UnboundParameter):
            substitute_direct(template, {})

    def test_unknown_parameter(self):
        template = parse("Need {{x}}.")
        with pytest.raises(UnknownParameter):
            substitute_direct(template, {"x": 1, "y": 2})

    def test_where_clause_order_and_uniqueness(self):
        rng = random.Random(7)
        for _ in range(100):
            names = rng.sample(["a", "b", "c", "d", "e"], rng.randint(1, 5))
            text = " ".join("{{" + name + "}}" for name in names)
            template = parse(text)
            out = substitute_direct(template, {name: 1 for name in names})
            where = out.split("\nwhere ", 1)[1]
            rendered = [piece.split(" = ")[0] for piece in where.split(", ")]
            assert rendered == [f"'{name}'" for name in template.params]

    def test_no_params_is_identity(self):
        for text in ["Hello", "What is 7 times 8?", ""]:
            assert substitute_direct(parse(text), {}) == text


class TestSubstituteComment:
    def test_add(self):
        assert substitute_comment(parse("add {{x}} and {{y}}")) == "add 'x' and 'y'"

    def test_factorial(self):
        assert (
            substitute_comment(parse("Calculate the factorial of {{n}}"))
            == "Calculate the factorial of 'n'"
        )

    def test_plain(self):
        assert substitute_comment(parse("plain")) == "plain"
