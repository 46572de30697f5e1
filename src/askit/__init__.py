"""askit: typed prompt templates that run as model calls or as generated code.

Declare a task once with a template and a return schema. Either query the
model at call time (the answer is extracted from a typed JSON envelope, with
feedback-driven retries) or compile the same task to conventional code that
is generated, validated against test examples, cached on disk, and executed
in an isolated child process.
"""

from .api import AskResult, CompiledFunction, DefinedFunction, ask, compile, define
from .clients import (
    ClientConfig,
    LiveClient,
    RecordingClient,
    ReplayClient,
    ScriptedClient,
    fixture_key,
)
from .codegen import (
    CodegenConfig,
    GeneratedFunction,
    TaskSpec,
    cache_lookup,
    cache_store,
    generate,
    invoke,
    output_equal,
    syntax_check,
)
from .engine import Dialogue, ask_until_valid, feedback_text
from .errors import (
    AskitError,
    BlockNotFound,
    ClientError,
    ExecutionError,
    ExecutionTimeout,
    FixtureMiss,
    GenerationFailed,
    HttpError,
    InvalidIdentifier,
    MalformedPlaceholder,
    NotCodable,
    ProtocolError,
    RequestTimeout,
    ResponseTooLarge,
    RetriesExhausted,
    SchemaError,
    ScriptExhausted,
    TaskFileError,
    TemplateError,
    ToolchainUnavailable,
    UnboundParameter,
    UnknownParameter,
)
from .prompts import (
    CodegenPrompt,
    DirectPrompt,
    Example,
    Message,
    ParsedAnswer,
    Violation,
    ViolationKind,
    build_codegen,
    build_direct,
    extract_block,
    parse_answer,
    synthesize_signature,
)
from .runner import close
from .taskfile import TaskEntry, TaskFile, load_task_file, parse_schema_text
from .template import PromptTemplate, parse, substitute_comment, substitute_direct
from .types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    VOID,
    Boolean,
    Float,
    Integer,
    ListOf,
    Literal,
    Record,
    Text,
    TypeSchema,
    UnionOf,
    ValidationReport,
    VoidType,
    list_of,
    literal,
    record,
    render,
    union,
    validate,
    wrap_response,
)

__version__ = "0.1.0"
