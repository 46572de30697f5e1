"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every criterion carries its stated wall-clock budget; the whole suite is
offline (socket connections are denied in conftest).
"""

import json
import random
import socket
import time
from contextlib import contextmanager

import pytest

from askit.cli import main
from askit.clients import DEFAULT_MODEL_ID, ReplayClient, ScriptedClient
from askit.codegen import CodegenConfig, TaskSpec, generate, invoke, output_equal
from askit.engine import ask_until_valid
from askit.errors import RetriesExhausted
from askit.prompts import Example
from askit.taskfile import load_task_file
from askit.template import parse
from askit.types import BOOL, FLOAT, INT, STR, list_of, literal, record, render, union, validate
from conftest import DEMO_FIXTURES, DEMO_TASKS
from schemagen import mutate, random_schema, sample_value

NO_JSON_FEEDBACK = (
    "Your response did not contain a JSON code block. Respond again with a"
    " JSON code block enclosed with ```json and ```."
)
MISSING_ANSWER_FEEDBACK = (
    "Your JSON object did not include the 'answer' field. Respond again"
    " including both 'reason' and 'answer'."
)

INTERSECTING_TASKS = [
    "calculateFactorial",
    "sumNumbers",
    "sortNumbers",
    "reverseString",
    "isPalindrome",
]

FIB_RIGHT = (
    "def makeFibonacci(*, n):\n"
    "    values = []\n"
    "    a, b = 0, 1\n"
    "    while a <= n:\n"
    "        values.append(a)\n"
    "        a, b = b, a + b\n"
    "    return values"
)
FIB_WRONG = (
    "def makeFibonacci(*, n):\n"
    "    values = [0, 1]\n"
    "    for _ in range(n):\n"
    "        values.append(values[-1] + values[-2])\n"
    "    return values[:n + 2]"
)

FACTORIAL_CODE = (
    "def calculateFactorial(*, n):\n"
    "    result = 1\n"
    "    for i in range(2, n + 1):\n"
    "        result *= i\n"
    "    return result"
)


@contextmanager
def criterion(number, description, budget_s):
    started = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - started
        status = "FAIL" if failed else "PASS"
        print(f"[acceptance] {number:02d} {status} {elapsed:6.2f}s (budget {budget_s:>3}s)  {description}")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


def envelope(answer, reason=""):
    return "```json\n" + json.dumps({"reason": reason, "answer": answer}) + "\n```"


def test_01_golden_prompts(capsys, golden):
    with criterion(1, "show-prompt reproduces both reference prompts byte-exactly", 1):
        assert (
            main(
                [
                    "show-prompt", str(DEMO_TASKS), "getBooks",
                    "--mode", "direct",
                    "--args", '{"n":5,"subject":"computer science"}',
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == golden("direct_books.txt")
        assert (
            main(
                [
                    "show-prompt", str(DEMO_TASKS), "calculateFactorial",
                    "--mode", "codegen",
                    "--target", "typescript",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == golden("codegen_factorial_ts.txt")


def test_02_type_expression_table():
    with criterion(2, "all 8 constructor rows render to the reference column", 1):
        rows = [
            (INT, "number"),
            (FLOAT, "number"),
            (BOOL, "boolean"),
            (STR, "string"),
            (literal(123), "123"),
            (list_of(INT), "number[]"),
            (record({"x": INT, "y": INT}), "{ x: number; y: number }"),
            (union(literal("yes"), literal("no")), "'yes' | 'no'"),
        ]
        assert len(rows) == 8
        for schema, expected in rows:
            assert render(schema) == expected, f"{schema!r} -> {render(schema)!r} != {expected!r}"


def test_03_validation_property_suite():
    with criterion(3, ">=1000 sampled pairs validate; >=1000 single mutations fail", 10):
        rng = random.Random(0xA5C11)
        sampled = 0
        while sampled < 1000:
            schema = random_schema(rng)
            value = sample_value(rng, schema)
            assert validate(schema, value).ok, f"counterexample: {schema!r} rejected {value!r}"
            sampled += 1
        mutated = 0
        while mutated < 1000:
            schema = random_schema(rng, allow_union=False)
            value = sample_value(rng, schema)
            broken = mutate(rng, schema, value)
            if broken is None:
                continue
            assert not validate(schema, broken).ok, (
                f"counterexample: {schema!r} accepted mutation {broken!r} of {value!r}"
            )
            mutated += 1


def test_04_acceptance_denial_pair():
    with criterion(4, "point object accepted, point array denied", 1):
        schema = record({"x": FLOAT, "y": FLOAT})
        assert validate(schema, {"x": 1, "y": -1}).ok is True
        assert validate(schema, [1, -1]).ok is False


def test_05_retry_feedback_contract():
    with criterion(5, "prose, then missing answer, then valid: attempts=3, feedback in order", 1):
        client = ScriptedClient(
            ["let me think about this", '```json\n{"reason": "partial"}\n```', envelope(42, "done")]
        )
        result = ask_until_valid(client, parse("What is the answer?"), {}, INT, config=CodegenConfig())
        assert result.attempts == 3
        assert result.value == 42
        transcript = [message.content for message in client.requests[2][0]]
        assert transcript.count(NO_JSON_FEEDBACK) == 1
        assert transcript.count(MISSING_ANSWER_FEEDBACK) == 1
        assert transcript.index(NO_JSON_FEEDBACK) < transcript.index(MISSING_ANSWER_FEEDBACK)
        roles = [message.role for message in client.requests[2][0]]
        assert roles == ["user", "assistant", "user", "assistant", "user"]


def test_06_codegen_gate(tmp_path):
    with criterion(6, "wrong-then-right candidates: retries_used=1, cached code correct", 5):
        spec = TaskSpec(
            name="makeFibonacci",
            template=parse("Generate the Fibonacci sequence up to {{n}}."),
            return_schema=list_of(INT),
            param_schemas=(("n", INT),),
            tests=(Example({"n": 5}, [0, 1, 1, 2, 3, 5]),),
        )
        client = ScriptedClient(
            [f"```python\n{FIB_WRONG}\n```", f"```python\n{FIB_RIGHT}\n```"]
        )
        generated = generate(client, spec, CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1
        assert generated.cache_path.exists()
        assert invoke(generated, {"n": 5}) == [0, 1, 1, 2, 3, 5]


def test_07_generate_once(tmp_path):
    with criterion(7, "second compile makes no client calls; 100 invocations make none", 5):
        from askit import define

        client = ScriptedClient([f"```python\n{FACTORIAL_CODE}\n```"])
        defined = define(
            INT,
            "Calculate the factorial of {{n}}",
            param_schemas={"n": INT},
            tests=[{"input": {"n": 5}, "output": 120}],
            name="calculateFactorial",
            client=client,
        )
        config = CodegenConfig(cache_dir=tmp_path)
        first = defined.compile(config)
        calls_after_first = client.call_count
        assert calls_after_first == 1
        second = defined.compile(config)
        assert client.call_count == calls_after_first
        with second:
            for i in range(100):
                assert second(n=5) == 120
        assert client.call_count == calls_after_first
        first.close()


def test_08_unified_interface_transition(tmp_path):
    with criterion(8, "5 intersecting tasks: direct and compiled answers agree on all tests", 30):
        task_file = load_task_file(DEMO_TASKS)
        replay = ReplayClient(DEMO_FIXTURES, model_id=DEFAULT_MODEL_ID)
        config = CodegenConfig(cache_dir=tmp_path)
        for name in INTERSECTING_TASKS:
            spec = task_file.get(name).to_spec()
            template_before = spec.template.raw
            direct_values = []
            for case in spec.tests:
                result = ask_until_valid(
                    replay, spec.template, dict(case.input), spec.return_schema, spec.fewshot, CodegenConfig()
                )
                direct_values.append(result.value)
            generated = generate(replay, spec, config)
            for case, direct_value in zip(spec.tests, direct_values):
                compiled_value = invoke(generated, dict(case.input))
                assert output_equal(direct_value, compiled_value), (
                    f"{name}: direct {direct_value!r} != compiled {compiled_value!r} on {case.input!r}"
                )
            assert spec.template.raw == template_before


def test_09_bench_analog(capsys, tmp_path, monkeypatch):
    with criterion(9, "bench with 100 ms simulated latency reports speedup >= 100x", 30):
        monkeypatch.delenv("ASKIT_MODEL", raising=False)
        code = main(
            [
                "bench", str(DEMO_TASKS),
                "--only", "calculateFactorial",
                "--fixtures", str(DEMO_FIXTURES),
                "--repeat", "5",
                "--replay-delay-ms", "100",
                "--cache-dir", str(tmp_path / "bench-cache"),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        metrics = document["tasks"][0]["metrics"]
        assert set(metrics) == {"latency_s", "execution_time_us", "compile_time_s", "speedup"}
        assert metrics["latency_s"] >= 0.1
        assert metrics["speedup"] >= 100, f"speedup {metrics['speedup']:.1f} < 100"


def test_10_offline_guarantee():
    with criterion(10, "suite runs with networking disabled; socket attempts fail", 120):
        with pytest.raises(RuntimeError):
            socket.create_connection(("127.0.0.1", 9))
        with pytest.raises(RuntimeError):
            socket.socket().connect(("127.0.0.1", 9))
        # Replay-backed flows work offline end to end.
        replay = ReplayClient(DEMO_FIXTURES, model_id=DEFAULT_MODEL_ID)
        spec = load_task_file(DEMO_TASKS).get("getSentiment").to_spec()
        result = ask_until_valid(
            replay,
            spec.template,
            {"review": "The product is fantastic. It exceeds all my expectations."},
            spec.return_schema,
            spec.fewshot,
            CodegenConfig(),
        )
        assert result.value == "positive"


def test_retries_exhausted_path_still_offline():
    """Companion check: the failure path reports cleanly without network."""
    client = ScriptedClient(["prose"] * 3)
    with pytest.raises(RetriesExhausted):
        ask_until_valid(client, parse("x?"), {}, INT, config=CodegenConfig(max_retries=2))
