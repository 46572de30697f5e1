import json
import re

import pytest

from askit import api
from askit.api import AskResult, ask, define
from askit.clients import ScriptedClient
from askit.codegen import CodegenConfig, output_equal
from askit.errors import (
    AskitError,
    ExecutionError,
    NotCodable,
    SchemaError,
    UnboundParameter,
)
from askit.prompts import Example
from askit.types import INT, STR, VOID, list_of, literal, record, union, validate

SENTIMENT = union(literal("positive"), literal("negative"))
BOOK = record({"title": STR, "author": STR, "year": INT})

BOOKS = [
    {"title": "Structure and Interpretation of Computer Programs", "author": "Abelson and Sussman", "year": 1985},
    {"title": "The Art of Computer Programming", "author": "Knuth", "year": 1968},
    {"title": "Introduction to Algorithms", "author": "Cormen, Leiserson, Rivest and Stein", "year": 1990},
    {"title": "The C Programming Language", "author": "Kernighan and Ritchie", "year": 1978},
    {"title": "The Mythical Man-Month", "author": "Brooks", "year": 1975},
]

FACTORIAL_CODE = (
    "def calculateFactorial(*, n):\n"
    "    result = 1\n"
    "    for i in range(2, n + 1):\n"
    "        result *= i\n"
    "    return result"
)


def envelope(answer, reason="because"):
    return "```json\n" + json.dumps({"reason": reason, "answer": answer}) + "\n```"


def code_response(source):
    return f"```python\n{source}\n```"


class TestAsk:
    def test_sentiment(self):
        client = ScriptedClient([envelope("positive")])
        result = ask(
            SENTIMENT,
            "What is the sentiment of {{review}}?",
            {"review": "The product is fantastic."},
            client=client,
        )
        assert result.value == "positive"
        assert result.attempts == 1
        assert isinstance(result, AskResult)

    def test_seven_times_eight(self):
        client = ScriptedClient([envelope(56)])
        result = ask(INT, "What is 7 times 8?", client=client)
        assert result.value == 56

    def test_unbound_arg_fails_before_client_call(self):
        client = ScriptedClient([envelope(1)])
        with pytest.raises(UnboundParameter):
            ask(INT, "What is {{a}} plus {{b}}?", {"a": 1}, client=client)
        assert client.call_count == 0

    def test_void_schema_rejected(self):
        with pytest.raises(SchemaError):
            ask(VOID, "Do something.", client=ScriptedClient([]))


class TestDefine:
    def test_book_list_call_validates(self):
        books_fn = define(
            list_of(BOOK),
            "List {{n}} classic books on {{subject}}.",
            client=ScriptedClient([envelope(BOOKS)]),
        )
        value = books_fn({"n": 5, "subject": "computer science"})
        assert len(value) == 5
        assert validate(list_of(BOOK), value).ok

    def test_sentiment_function(self):
        get_sentiment = define(
            SENTIMENT,
            "What is the sentiment of {{review}}?",
            client=ScriptedClient([envelope("positive")]),
        )
        assert get_sentiment(review="Great!") == "positive"

    def test_kwargs_and_mapping_binding_agree(self):
        make = lambda: define(
            INT, "What is {{a}} plus {{b}}?", client=ScriptedClient([envelope(3)])
        )
        assert make()({"a": 1, "b": 2}) == make()(a=1, b=2) == 3

    def test_param_schema_mismatch(self):
        with pytest.raises(SchemaError):
            define(INT, "use {{x}}", param_schemas={"x": INT, "extra": INT})

    def test_default_name_is_digest_derived(self):
        function = define(INT, "What is {{a}} plus {{b}}?")
        assert re.fullmatch(r"task_[0-9a-f]{8}", function.name)

    def test_explicit_name_kept(self):
        assert define(INT, "x", name="myTask").name == "myTask"

    def test_stateless_across_calls(self):
        template = "What is the sentiment of {{review}}?"
        first = define(SENTIMENT, template, client=ScriptedClient([envelope("negative")]))
        second = define(SENTIMENT, template, client=ScriptedClient([envelope("negative")]))
        assert first(review="meh") == second(review="meh")

    def test_ask_result_surfaces_reason(self):
        function = define(INT, "n?", client=ScriptedClient([envelope(1, reason="counted")]))
        result = function.ask()
        assert result.reason == "counted"

    def test_reuse_fewshot_as_tests(self):
        examples = [{"input": {"n": 3}, "output": 6}]
        with_reuse = define(INT, "fact {{n}}", fewshot=examples, reuse_fewshot_as_tests=True)
        without = define(INT, "fact {{n}}", fewshot=examples)
        assert with_reuse.spec.tests == with_reuse.spec.fewshot
        assert without.spec.tests == ()

    def test_example_spellings_agree(self):
        spellings = [
            [Example({"n": 3}, 6)],
            [{"input": {"n": 3}, "output": 6}],
            [({"n": 3}, 6)],
        ]
        for examples in spellings:
            assert define(INT, "fact {{n}}", fewshot=examples).spec.fewshot == (Example({"n": 3}, 6),)

    @pytest.mark.parametrize(
        "examples",
        [
            [{"input": {"n": 1}}],
            [{"output": 1}],
            [{"input": 1, "output": 2}],
            [42],
            [(1, 2)],
            [({"n": 1}, 2, 3)],
            [[{"n": 1}, 2]],
            42,
        ],
    )
    def test_malformed_examples_raise_askit_error(self, examples):
        with pytest.raises(AskitError):
            define(INT, "fact {{n}}", fewshot=examples)
        with pytest.raises(AskitError):
            define(INT, "fact {{n}}", tests=examples)
        with pytest.raises(AskitError):
            ask(INT, "fact {{n}}", {"n": 1}, fewshot=examples, client=ScriptedClient([]))


class TestCompile:
    def factorial(self, client=None):
        return define(
            INT,
            "Calculate the factorial of {{n}}",
            param_schemas={"n": INT},
            tests=[{"input": {"n": 5}, "output": 120}],
            name="calculateFactorial",
            client=client,
        )

    def test_compile_then_call_makes_no_client_calls(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        compiled = self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path))
        calls_after_compile = client.call_count
        with compiled:
            assert compiled({"n": 5}) == 120
            assert compiled(n=6) == 720
        assert client.call_count == calls_after_compile == 1

    def test_second_compile_hits_cache(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        config = CodegenConfig(cache_dir=tmp_path)
        defined = self.factorial(client)
        first = defined.compile(config)
        second = defined.compile(config)
        assert client.call_count == 1
        assert second.generated.source == first.generated.source
        first.close()
        second.close()

    def test_allowlist_excluding_name(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path, codable_allowlist={"somethingElse"})
        with pytest.raises(NotCodable):
            self.factorial(ScriptedClient([])).compile(config)

    def test_allowlist_prefix_group(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        config = CodegenConfig(cache_dir=tmp_path, codable_allowlist={"calculate*"})
        compiled = self.factorial(client).compile(config)
        compiled.close()

    def test_param_schemas_required_by_default(self, tmp_path):
        defined = define(INT, "Calculate the factorial of {{n}}", client=ScriptedClient([]))
        with pytest.raises(SchemaError):
            defined.compile(CodegenConfig(cache_dir=tmp_path))

    def test_param_schemas_optional_when_configured(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        defined = define(
            INT,
            "Calculate the factorial of {{n}}",
            tests=[{"input": {"n": 4}, "output": 24}],
            name="calculateFactorial",
            client=client,
        )
        config = CodegenConfig(cache_dir=tmp_path, require_param_schemas=False)
        with defined.compile(config) as compiled:
            assert compiled(n=4) == 24

    def test_module_level_compile_mirrors_method(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        defined = self.factorial(client)
        with api.compile(defined, CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled(n=3) == 6

    def test_binding_errors_check_template_params(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            with pytest.raises(UnboundParameter):
                compiled({})
            from askit.errors import UnknownParameter

            with pytest.raises(UnknownParameter):
                compiled({"n": 1, "m": 2})

    def test_worker_restarts_after_death(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled(n=5) == 120
            compiled._worker._proc.kill()
            compiled._worker._proc.wait(timeout=5)
            assert compiled(n=5) == 120

    def test_call_that_kills_its_worker_runs_once(self, tmp_path, monkeypatch):
        source = "import os\ndef crash(*, n):\n    os._exit(1)"
        client = ScriptedClient([code_response(source)])
        defined = define(INT, "Crash on {{n}}", param_schemas={"n": INT}, name="crash", client=client)
        started = []

        class CountingWorker(api.Worker):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(api, "Worker", CountingWorker)
        with defined.compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            with pytest.raises(ExecutionError):
                compiled(n=1)
            assert len(started) == 1
            with pytest.raises(ExecutionError):
                compiled(n=2)  # the dead worker is replaced before sending
            assert len(started) == 2

    def test_call_isolated(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled.call_isolated(n=5) == 120

    def test_void_task_compiles_and_returns_null(self, tmp_path):
        source = (
            "def storeNote(*, text):\n"
            "    with open('note.txt', 'w') as handle:\n"
            "        handle.write(text)\n"
        )
        client = ScriptedClient([code_response(source)])
        defined = define(
            VOID,
            "Store {{text}} in a local scratch file.",
            param_schemas={"text": STR},
            tests=[{"input": {"text": "hello"}, "output": None}],
            name="storeNote",
            client=client,
        )
        with defined.compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled(text="hello") is None

    def test_concurrent_calls_share_one_worker(self, tmp_path):
        import threading

        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            results, errors = [], []

            def work(n):
                try:
                    results.append((n, compiled(n=n)))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(n,)) for n in (3, 4, 5, 6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert dict(results) == {3: 6, 4: 24, 5: 120, 6: 720}

    def test_unified_transition_single_task(self, tmp_path):
        """Same template, both paths, equal outputs on every test input."""
        tests = [{"input": {"n": 5}, "output": 120}, {"input": {"n": 0}, "output": 1}]
        direct_client = ScriptedClient([envelope(120), envelope(1)])
        defined = define(
            INT,
            "Calculate the factorial of {{n}}",
            param_schemas={"n": INT},
            tests=tests,
            name="calculateFactorial",
            client=direct_client,
        )
        direct_values = [defined(case["input"]) for case in tests]
        compiled_client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with defined.compile(CodegenConfig(cache_dir=tmp_path), client=compiled_client) as compiled:
            compiled_values = [compiled(case["input"]) for case in tests]
        for direct_value, compiled_value in zip(direct_values, compiled_values):
            assert output_equal(direct_value, compiled_value)
