import inspect
import json

import pytest

from askit import codegen
from askit.cli import build_parser
from askit.clients import ScriptedClient
from askit.codegen import DEFAULT_CONFIG, CodegenConfig
from askit.engine import Message, ask_until_valid, feedback_text
from askit.errors import RetriesExhausted
from askit.prompts import Violation, ViolationKind
from askit.runner import DEFAULT_INVOKE_TIMEOUT
from askit.template import parse
from askit.types import INT, STR, ValidationReport, validate

NO_JSON_FEEDBACK = (
    "Your response did not contain a JSON code block. Respond again with a"
    " JSON code block enclosed with ```json and ```."
)
MISSING_ANSWER_FEEDBACK = (
    "Your JSON object did not include the 'answer' field. Respond again"
    " including both 'reason' and 'answer'."
)


def envelope(answer, reason="r"):
    return "```json\n" + json.dumps({"reason": reason, "answer": answer}) + "\n```"


TEMPLATE = parse("What is {{a}} plus {{b}}?")


class TestAskUntilValid:
    def test_valid_first_response_makes_one_call(self):
        client = ScriptedClient([envelope(3)])
        result = ask_until_valid(client, TEMPLATE, {"a": 1, "b": 2}, INT)
        assert result.value == 3
        assert result.attempts == 1
        assert client.call_count == 1

    def test_prose_then_valid(self):
        client = ScriptedClient(["let me think...", envelope(3)])
        result = ask_until_valid(client, TEMPLATE, {"a": 1, "b": 2}, INT)
        assert result.attempts == 2
        second_request = client.requests[1][0]
        assert [m.role for m in second_request] == ["user", "assistant", "user"]
        assert second_request[1].content == "let me think..."
        assert second_request[2].content == NO_JSON_FEEDBACK

    def test_retries_exhausted_at_bound(self):
        client = ScriptedClient(["prose"] * 10)
        with pytest.raises(RetriesExhausted) as err:
            ask_until_valid(client, TEMPLATE, {"a": 1, "b": 2}, INT, config=CodegenConfig(max_retries=9))
        assert client.call_count == 10
        assert err.value.violation.kind is ViolationKind.NO_JSON_BLOCK
        # dialogue: prompt + 9 x (assistant, feedback) + final assistant
        assert len(err.value.dialogue) == 20
        assert err.value.dialogue[-1].content == "prose"

    def test_zero_retries_means_single_attempt(self):
        client = ScriptedClient(["prose", envelope(1)])
        with pytest.raises(RetriesExhausted):
            ask_until_valid(client, TEMPLATE, {"a": 1, "b": 2}, INT, config=CodegenConfig(max_retries=0))
        assert client.call_count == 1

    def test_each_retry_extends_dialogue_by_two(self):
        client = ScriptedClient(["x", '```json\n{"reason": 1}\n```', envelope(9)])
        result = ask_until_valid(client, TEMPLATE, {"a": 4, "b": 5}, INT)
        assert result.attempts == 3
        lengths = [len(request) for request, _ in client.requests]
        assert lengths == [1, 3, 5]
        for earlier, later in zip(client.requests, client.requests[1:]):
            assert later[0][: len(earlier[0])] == earlier[0]

    def test_returned_value_validates(self):
        client = ScriptedClient([envelope("hello")])
        result = ask_until_valid(client, parse("Say hi"), {}, STR)
        assert validate(STR, result.value).ok

    def test_feedback_for_type_mismatch_names_path(self):
        wrong = envelope("not a number")
        client = ScriptedClient([wrong, envelope(3)])
        result = ask_until_valid(client, TEMPLATE, {"a": 1, "b": 2}, INT)
        assert result.attempts == 2
        feedback = client.requests[1][0][2].content
        assert "at answer:" in feedback
        assert "expected number" in feedback

    def test_temperature_forwarded(self):
        client = ScriptedClient([envelope(1)])
        ask_until_valid(client, TEMPLATE, {"a": 0, "b": 1}, INT, config=CodegenConfig(temperature=0.3))
        assert client.requests[0][1] == 0.3

    def test_unbound_parameter_fails_before_any_call(self):
        client = ScriptedClient([envelope(1)])
        from askit.errors import UnboundParameter

        with pytest.raises(UnboundParameter):
            ask_until_valid(client, TEMPLATE, {"a": 1}, INT)
        assert client.call_count == 0


class TestFeedbackText:
    def test_no_json_block(self):
        violation = Violation(ViolationKind.NO_JSON_BLOCK)
        assert feedback_text(violation) == NO_JSON_FEEDBACK

    def test_missing_answer_field(self):
        violation = Violation(ViolationKind.MISSING_ANSWER_FIELD)
        assert feedback_text(violation) == MISSING_ANSWER_FEEDBACK

    def test_type_mismatch_embeds_report(self):
        report = ValidationReport.mismatch("answer[0].year", "number", "string")
        violation = Violation(ViolationKind.TYPE_MISMATCH, report=report)
        assert feedback_text(violation) == (
            "The 'answer' field did not match the required type at answer[0].year:"
            " expected number, found string. Respond again with a conforming 'answer'."
        )

    def test_codegen_kinds_have_no_direct_feedback(self):
        with pytest.raises(ValueError):
            feedback_text(Violation(ViolationKind.NO_CODE_BLOCK))


class TestEngineConfig:
    """The task's one config, CodegenConfig, which the direct engine reads too."""

    def test_defaults(self):
        config = CodegenConfig()
        assert config.max_retries == 9
        assert config.temperature == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CodegenConfig(max_retries=-1)
        with pytest.raises(ValueError):
            CodegenConfig(temperature=2.5)

    @pytest.mark.parametrize("temperature", [-0.1, 2.5])
    def test_temperature_check(self, temperature):
        with pytest.raises(ValueError, match=r"^temperature must be within \[0\.0, 2\.0\]$"):
            CodegenConfig(temperature=temperature)

    def test_one_retry_default(self):
        assert build_parser().parse_args(["codegen", "tasks.json"]).max_retries == DEFAULT_CONFIG.max_retries

    def test_one_temperature_default(self):
        defaults = [
            build_parser().parse_args(["ask", "tasks.json", "name"]).temperature,
            build_parser().parse_args(["bench", "tasks.json", "--fixtures", "f"]).temperature,
        ]
        assert defaults == [DEFAULT_CONFIG.temperature] * len(defaults)

    def test_one_invoke_timeout_default(self):
        assert CodegenConfig().invoke_timeout == DEFAULT_INVOKE_TIMEOUT
        assert inspect.signature(codegen.invoke).parameters["timeout"].default == DEFAULT_INVOKE_TIMEOUT


def test_message_wire_shape():
    assert Message("user", "hi").to_wire() == {"role": "user", "content": "hi"}
