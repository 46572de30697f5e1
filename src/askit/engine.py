"""Direct-answer loop: build the prompt, query, parse, refine, repeat.

On an invalid response the dialogue grows by exactly two messages, the
model's raw reply and a feedback instruction naming what was wrong, then the
whole dialogue is re-sent. The loop stops at the first valid answer or after
max_direct_retries extra attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import RetriesExhausted
from .prompts import Example, ParsedAnswer, Violation, ViolationKind, build_direct, parse_answer
from .template import ArgBinding, PromptTemplate
from .types import TypeSchema


@dataclass(frozen=True)
class Message:
    role: str  # "user" or "assistant"
    content: str

    def to_wire(self) -> dict:
        return {"role": self.role, "content": self.content}


Dialogue = Sequence[Message]

DEFAULT_MAX_RETRIES = 9
DEFAULT_TEMPERATURE = 1.0


def check_temperature(temperature: float) -> None:
    if not 0.0 <= temperature <= 2.0:
        raise ValueError("temperature must be within [0.0, 2.0]")


@dataclass(frozen=True)
class EngineConfig:
    max_direct_retries: int = DEFAULT_MAX_RETRIES
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.max_direct_retries < 0:
            raise ValueError("max_direct_retries must be >= 0")
        check_temperature(self.temperature)


@dataclass(frozen=True)
class EngineResult:
    value: Any
    reason: str
    attempts: int
    dialogue: tuple[Message, ...]


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
    config: EngineConfig | None = None,
) -> EngineResult:
    """Run the direct path until the answer validates.

    Returns the first valid answer with a 1-based attempt count. Raises
    RetriesExhausted (carrying the last violation and the full dialogue)
    after max_direct_retries + 1 attempts. Client errors propagate.
    """
    config = config or EngineConfig()
    prompt = build_direct(template, args, answer_schema, fewshot)
    messages: list[Message] = [Message("user", prompt.text)]
    max_attempts = config.max_direct_retries + 1
    for attempt in range(1, max_attempts + 1):
        response = client.complete(messages, temperature=config.temperature)
        parsed = parse_answer(response, answer_schema)
        if isinstance(parsed, ParsedAnswer):
            dialogue = (*messages, Message("assistant", response))
            return EngineResult(parsed.value, parsed.reason, attempt, dialogue)
        messages.append(Message("assistant", response))
        if attempt == max_attempts:
            raise RetriesExhausted(parsed, tuple(messages))
        messages.append(Message("user", feedback_text(parsed)))
    raise AssertionError("unreachable")
