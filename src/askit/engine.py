"""Direct-answer loop: build the prompt, query, parse, refine, repeat.

On an invalid response the dialogue grows by exactly two messages, the
model's raw reply and a feedback instruction naming what was wrong, then the
whole dialogue is re-sent. The loop stops at the first valid answer or after
the task config's max_retries extra attempts.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from .codegen import DEFAULT_CONFIG, CodegenConfig
from .errors import RetriesExhausted
from .prompts import Example, Message, ParsedAnswer, Violation, ViolationKind, build_direct, parse_answer
from .template import ArgBinding, PromptTemplate
from .types import TypeSchema


class AskResult(NamedTuple):
    value: Any
    reason: str
    attempts: int


_FEEDBACK_FIXED = {
    ViolationKind.NO_JSON_BLOCK: (
        "Your response did not contain a JSON code block. Respond again with a"
        " JSON code block enclosed with ```json and ```."
    ),
    ViolationKind.MISSING_ANSWER_FIELD: (
        "Your JSON object did not include the 'answer' field. Respond again"
        " including both 'reason' and 'answer'."
    ),
}


def feedback_text(violation: Violation) -> str:
    """The instruction appended to the dialogue after an invalid response.

    Fixed English per violation kind; the type-mismatch variant names the
    offending path and the expected/found pair from the validation report.
    """
    if violation.kind in _FEEDBACK_FIXED:
        return _FEEDBACK_FIXED[violation.kind]
    if violation.kind is ViolationKind.TYPE_MISMATCH:
        report = violation.report
        if report is None:
            raise ValueError("type-mismatch violation carries no validation report")
        return (
            f"The 'answer' field did not match the required type at {report.path}:"
            f" expected {report.expected}, found {report.found}."
            " Respond again with a conforming 'answer'."
        )
    raise ValueError(f"no feedback defined for violation kind {violation.kind}")


def ask_until_valid(
    client,
    template: PromptTemplate,
    args: ArgBinding,
    answer_schema: TypeSchema,
    fewshot: Iterable[Example] = (),
    config: CodegenConfig | None = None,
) -> AskResult:
    """Run the direct path until the answer validates.

    Returns the first valid answer with its reason and a 1-based attempt
    count. Raises RetriesExhausted (carrying the last violation and the full
    dialogue) after config.max_retries + 1 attempts. Client errors propagate.
    """
    config = config or DEFAULT_CONFIG
    prompt = build_direct(template, args, answer_schema, fewshot)
    messages: list[Message] = [Message("user", prompt.text)]
    for attempt in range(1, config.max_retries + 2):
        response = client.complete(messages, temperature=config.temperature)
        parsed = parse_answer(response, answer_schema)
        if isinstance(parsed, ParsedAnswer):
            return AskResult(parsed.value, parsed.reason, attempt)
        messages.append(Message("assistant", response))
        if attempt > config.max_retries:
            raise RetriesExhausted(parsed, tuple(messages))
        messages.append(Message("user", feedback_text(parsed)))
    raise AssertionError("unreachable")
