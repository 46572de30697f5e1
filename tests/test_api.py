import atexit
import json
import multiprocessing
import os
import re
import signal
import sys
import tempfile
import time

import pytest

import askit.runner as runner
from askit import api
from askit.api import AskResult, ask, define
from askit.clients import ScriptedClient
from askit.codegen import CodegenConfig, TaskSpec, cache_store, generate, output_equal
from askit.errors import (
    AskitError,
    ExecutionError,
    NotCodable,
    RetriesExhausted,
    SchemaError,
    ToolchainUnavailable,
    UnboundParameter,
)
from askit.prompts import Example
from askit.template import parse
from askit.types import INT, STR, VOID, list_of, literal, record, union, validate
from conftest import count_starts, gone

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

    def test_void_task_has_no_direct_answer(self):
        client = ScriptedClient([envelope(None)])
        with pytest.raises(SchemaError, match="void task"):
            define(VOID, "Store {{text}}.", client=client).ask(text="hello")
        assert client.call_count == 0


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

    def test_duplicate_param_schema_names_are_rejected(self):
        with pytest.raises(SchemaError, match="^duplicate parameter names"):
            define(INT, "add {{x}}", param_schemas=[("x", INT), ("x", STR)])
        with pytest.raises(SchemaError, match="^duplicate parameter names"):
            TaskSpec(name="add", template=parse("add {{x}}"), return_schema=INT, param_schemas=(("x", INT), ("x", STR)))

    def test_the_tasks_max_retries_bound_its_direct_asks(self):
        config = CodegenConfig(max_retries=0)
        client = ScriptedClient(["prose", "prose", envelope(3)])
        with pytest.raises(RetriesExhausted):
            define(INT, "What is {{a}} plus {{b}}?", client=client, config=config)(a=1, b=2)
        assert client.call_count == 1
        with pytest.raises(RetriesExhausted):
            ask(INT, "What is {{a}} plus {{b}}?", {"a": 1, "b": 2}, client=client, config=config)
        assert client.call_count == 2

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

    def test_test_example_must_bind_every_param(self):
        client = ScriptedClient([])
        with pytest.raises(SchemaError):
            define(INT, "add {{x}} and {{y}}", tests=[{"input": {"x": 1}, "output": 1}], client=client)
        assert client.call_count == 0

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

    def test_default_config_hits_build_no_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default cache directory is ./askit
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        defined = self.factorial(client)
        defined.compile().close()  # a miss
        built = []
        monkeypatch.setattr(CodegenConfig, "__post_init__", built.append)
        for _ in range(3):
            with defined.compile() as compiled:
                assert compiled.generated.from_cache
            assert generate(client, defined.spec).from_cache
        assert built == [] and client.call_count == 1

    @pytest.mark.parametrize("compile_task", [lambda defined: defined.compile(), api.compile], ids=["method", "function"])
    def test_compile_without_a_config_uses_the_tasks_config(self, tmp_path, monkeypatch, compile_task):
        monkeypatch.chdir(tmp_path)  # DEFAULT_CONFIG would cache under ./askit
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        config = CodegenConfig(temperature=0.3, cache_dir=tmp_path / "cache")
        defined = define(INT, "Calculate the factorial of {{n}}", param_schemas={"n": INT},
                         tests=[{"input": {"n": 5}, "output": 120}], name="calculateFactorial",
                         client=client, config=config)
        with compile_task(defined) as compiled:
            assert compiled(n=5) == 120
        assert [temperature for _, temperature in client.requests] == [0.3]
        assert compiled.generated.cache_path.parent == tmp_path / "cache"
        assert not (tmp_path / "askit").exists()

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

    def test_same_template_under_two_names_compiles_twice(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        for name in ("add_a", "add_b"):
            client = ScriptedClient([code_response(f"def {name}(*, x, y):\n    return x + y")])
            defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT}, name=name, client=client)
            with defined.compile(config) as compiled:
                assert compiled(x=1, y=2) == 3
            assert client.call_count == 1

    def test_binding_errors_check_template_params(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            with pytest.raises(UnboundParameter):
                compiled({})
            from askit.errors import UnknownParameter

            with pytest.raises(UnknownParameter):
                compiled({"n": 1, "m": 2})

    def test_a_function_in_a_language_without_a_harness_raises_before_forking_a_worker(self, tmp_path, monkeypatch):
        config = CodegenConfig(cache_dir=tmp_path)
        defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT}, name="add",
                         target_language="typescript", client=ScriptedClient([]))
        cache_store(defined.spec, "function add(x: number, y: number): number {\n  return x + y;\n}\n", config)
        monkeypatch.setattr(api, "Worker", lambda *args, **kwargs: pytest.fail("a worker was forked"))
        with defined.compile(config) as compiled:
            assert compiled.generated.from_cache
            for _ in range(2):
                with pytest.raises(ToolchainUnavailable, match="^no execution harness for typescript$"):
                    compiled(x=1, y=2)

    def test_worker_restarts_after_death(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled(n=5) == 120
            worker = compiled._worker
            os.kill(worker.pid, signal.SIGKILL)  # alive, so its zygote has not reaped it
            deadline = time.monotonic() + 5.0
            while worker.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not worker.alive
            assert compiled(n=5) == 120
            assert compiled._worker is not worker

    def test_calls_run_the_compiled_text_not_the_cache_file_as_it_is_now(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            compiled.generated.cache_path.write_text("def calculateFactorial(*, n):\n    return -1\n", encoding="utf-8")
            assert compiled.call_isolated(n=5) == 120
            assert compiled(n=5) == 120
            worker = compiled._worker
            os.kill(worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while worker.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert compiled(n=4) == 24  # from a replacement worker
            assert compiled._worker is not worker

    def test_open_function_answers_after_askit_close_and_its_close_ends_the_worker(self, tmp_path):
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        compiled = self.factorial(client).compile(CodegenConfig(cache_dir=tmp_path))
        assert compiled(n=3) == 6
        worker = compiled._worker
        runner.close()  # askit.close(): the zygote ends
        assert not worker._zygote.alive
        assert compiled(n=4) == 24
        assert compiled._worker is worker
        compiled.close()
        assert not worker.alive
        assert gone(worker.pid, zombie_ok=True)  # orphaned with its zygote gone: ended, reaped by init

    def test_first_warm_call_on_a_cache_hit_starts_one_interpreter(self, tmp_path, monkeypatch):
        runner.close()
        starts = count_starts(monkeypatch)
        config = CodegenConfig(cache_dir=tmp_path)
        defined = self.factorial(ScriptedClient([]))
        cache_store(defined.spec, FACTORIAL_CODE + "\n", config)
        with defined.compile(config) as compiled:
            assert compiled.generated.from_cache
            assert compiled(n=5) == 120
            assert starts == [["--fork-server"]]  # the zygote; it forks the worker

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

    def test_a_call_that_exits_fails_with_its_status_and_the_next_call_restarts(self, tmp_path):
        source = "import os\ndef crash(*, n):\n    if n == 1:\n        os._exit(3)\n    return n"
        client = ScriptedClient([code_response(source)])
        defined = define(INT, "Crash on {{n}}", param_schemas={"n": INT}, name="crash", client=client)
        with defined.compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            with pytest.raises(ExecutionError, match="^harness exited with status 3$"):
                compiled(n=1)
            worker = compiled._worker
            assert compiled(n=2) == 2
            assert compiled._worker is not worker

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

    def test_threads_sharing_one_function_get_their_own_answers_from_one_worker(self, tmp_path, monkeypatch):
        # The liveness check reads the worker's `out`: made outside the lock
        # that serializes the call, it sees another thread's unread answer as
        # an exit, and the worker is replaced under a call in flight.
        import threading

        started = []

        class CountingWorker(api.Worker):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(api, "Worker", CountingWorker)
        client = ScriptedClient([code_response("def triple(*, n):\n    return 3 * n")])
        defined = define(INT, "Triple {{n}}", param_schemas={"n": INT}, name="triple", client=client)
        with defined.compile(CodegenConfig(cache_dir=tmp_path, invoke_timeout=5.0)) as compiled:
            wrong, errors = [], []

            def work(thread):  # up to its first wrong answer or error
                try:
                    for n in range(1000 * thread, 1000 * thread + 200):
                        if (answer := compiled(n=n)) != 3 * n:
                            return wrong.append((n, answer))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(thread,)) for thread in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # threads switch between a call's steps
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert len(started) == 1

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


def _child_calls(compiled):
    assert compiled(n=4) == 24
    assert compiled.call_isolated(n=5) == 120


def _fork(body):
    """body() in a child forked by os.fork that leaves by os._exit; its exit code."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            body()
            status = 0
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _calls_then_exit(compiled):
    return _fork(lambda: _child_calls(compiled))


def _calls_close_and_exit_handlers(compiled):
    def body():
        _child_calls(compiled)
        compiled.close()
        atexit._run_exitfuncs()  # what a normal exit runs, weakref.finalize's hook included

    return _fork(body)


def _multiprocessing_fork(compiled):
    process = multiprocessing.get_context("fork").Process(target=_child_calls, args=(compiled,))
    process.start()
    process.join(timeout=60)
    return process.exitcode


class TestForkSafety:
    """A compiled function used in a forked copy of its caller: the copy
    starts harness processes of its own and never ends or removes the
    caller's."""

    @pytest.mark.parametrize(
        "fork",
        [_calls_then_exit, _calls_close_and_exit_handlers, _multiprocessing_fork],
        ids=["os_exit", "close_and_exit_handlers", "multiprocessing"],
    )
    def test_forked_child_leaves_the_callers_harness_alone(self, tmp_path, monkeypatch, fork):
        runner.close()  # a zygote kept by an earlier test's garbage starts again, under tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with TestCompile().factorial(client).compile(CodegenConfig(cache_dir=tmp_path / "cache")) as compiled:
            assert compiled(n=3) == 6
            assert compiled.call_isolated(n=3) == 6
            scratch = set(tmp_path.glob("askit-worker-*"))
            assert len(scratch) >= 2  # the warm worker's and a zygote's
            assert fork(compiled) == 0
            assert scratch <= set(tmp_path.glob("askit-worker-*"))
            assert compiled(n=6) == 720
            assert compiled.call_isolated(n=6) == 720

    def test_isolated_calls_in_a_forked_copy_start_one_pair_of_zygotes(self, tmp_path, monkeypatch):
        starts = count_starts(monkeypatch)
        client = ScriptedClient([code_response(FACTORIAL_CODE)])
        with TestCompile().factorial(client).compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled.call_isolated(n=3) == 6
            read_fd, write_fd = os.pipe()

            def body():
                os.close(read_fd)
                starts.clear()
                assert [compiled.call_isolated(n=n) for n in range(1, 5)] == [1, 2, 6, 24]
                os.write(write_fd, str(starts.count(["--fork-server"])).encode())

            assert _fork(body) == 0
            os.close(write_fd)
            with os.fdopen(read_fd) as answer:
                assert answer.read() == "1"  # not one per call
            assert compiled.call_isolated(n=6) == 720
            assert compiled(n=6) == 720
