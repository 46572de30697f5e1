"""Exception hierarchy for the askit package.

Everything raised on purpose derives from AskitError so callers can catch the
library in one clause. Violations of the answer/code contract are *values*
(see prompts.Violation), not exceptions; only unrecoverable conditions raise.
"""

from __future__ import annotations


class AskitError(Exception):
    """Base class for all askit errors."""


class SchemaError(AskitError):
    """A type schema breaks its construction invariants."""


class TemplateError(AskitError):
    """Base class for prompt-template problems."""


class MalformedPlaceholder(TemplateError):
    """Unmatched '{{' or '}}' in a template."""


class InvalidIdentifier(TemplateError):
    """Placeholder contents are not a valid identifier."""


class UnboundParameter(TemplateError):
    """A template parameter was not supplied at call time."""


class UnknownParameter(TemplateError):
    """An argument was supplied that the template does not declare."""


class BlockNotFound(AskitError):
    """No fenced code block with the requested tag in the response."""


class RetriesExhausted(AskitError):
    """The direct-answer loop ran out of attempts.

    Attributes:
        violation: the last prompts.Violation observed.
        dialogue: the full message list, ending with the failing response.
    """

    def __init__(self, violation, dialogue):
        self.violation = violation
        self.dialogue = dialogue
        super().__init__(f"no valid answer after {len(dialogue) // 2} attempts: {violation}")


class ClientError(AskitError):
    """Base class for model-client failures."""


class HttpError(ClientError):
    def __init__(self, status: int, body_excerpt: str):
        self.status = status
        self.body_excerpt = body_excerpt
        super().__init__(f"HTTP {status}: {body_excerpt}")


class RequestTimeout(ClientError):
    """The transport did not answer within the configured timeout."""


class ResponseTooLarge(ClientError):
    """The response body exceeded max_response_bytes."""


class FixtureMiss(ClientError):
    """Replay backend has no recorded response for the request key."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no recorded response for request key {key}")


class ScriptExhausted(ClientError):
    """A scripted client was asked for more responses than it holds."""


class GenerationFailed(AskitError):
    """Code generation ran out of attempts.

    Attributes:
        violation: the last prompts.Violation observed.
        transcript: list of (response_text, violation) pairs, one per attempt.
    """

    def __init__(self, violation, transcript):
        self.violation = violation
        self.transcript = transcript
        super().__init__(f"no valid code after {len(transcript)} attempts: {violation}")


class ToolchainUnavailable(AskitError):
    """The checker or runtime for a target language is not installed."""


class ExecutionError(AskitError):
    """A generated function failed while running (raise, crash, sandbox denial)."""


class ExecutionTimeout(AskitError):
    """A generated function exceeded its wall-clock budget."""


class ProtocolError(AskitError):
    """The execution harness produced output that is not a valid response document."""


class TaskFileError(AskitError):
    """A task file is malformed (bad JSON, bad schema text, duplicate names)."""
