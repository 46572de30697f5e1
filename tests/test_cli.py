import gc
import json
import tempfile
import time
from pathlib import Path

import pytest

import askit.api as api
import askit.cli as cli
import askit.codegen as codegen_mod
from askit.clients import DEFAULT_MODEL_ID, RecordingClient, ScriptedClient, fixture_key
from askit.cli import main
from askit.codegen import DEFAULT_CONFIG, CodegenConfig, generate
from askit.engine import Message, ask_until_valid
from askit.prompts import build_codegen
from askit.taskfile import load_task_file
from askit.errors import GenerationFailed, ToolchainUnavailable
from conftest import DEMO_FIXTURES, DEMO_TASKS, count_starts, live_children


def envelope(answer, reason="because"):
    return "```json\n" + json.dumps({"reason": reason, "answer": answer}) + "\n```"


def code_response(source):
    return f"```python\n{source}\n```"


@pytest.fixture(autouse=True)
def default_model_env(monkeypatch):
    monkeypatch.delenv("ASKIT_MODEL", raising=False)


def write_tasks(tmp_path, tasks):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}), encoding="utf-8")
    return str(path)


ADD_TASK = {
    "name": "addNumbers",
    "template": "add {{x}} and {{y}}",
    "return_schema": "int",
    "param_schemas": {"x": "int", "y": "int"},
    "tests": [{"input": {"x": 1, "y": 2}, "output": 3}],
    "codable": True,
}

ADD_CODE = "def addNumbers(*, x, y):\n    return x + y"

VOID_TASK = {"name": "storeNote", "template": "Store {{text}}.", "return_schema": "void"}


def write_fixtures(path, task_path, candidates):
    """A replay store answering each task's codegen prompt with its candidate sources, in order."""
    with open(path, "w", encoding="utf-8") as handle:
        for name, entry in load_task_file(task_path).entries.items():
            prompt = [Message("user", build_codegen(entry.to_spec()).text)]
            key = fixture_key(DEFAULT_MODEL_ID, DEFAULT_CONFIG.temperature, prompt)
            for source in candidates[name]:
                handle.write(json.dumps({"key": key, "response": code_response(source)}) + "\n")
    return str(path)


class TestShowPrompt:
    def test_books_direct_matches_golden(self, capsys, golden):
        code = main(
            [
                "show-prompt",
                str(DEMO_TASKS),
                "getBooks",
                "--mode",
                "direct",
                "--args",
                '{"n":5,"subject":"computer science"}',
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == golden("direct_books.txt")

    def test_factorial_codegen_matches_golden(self, capsys, golden):
        code = main(
            [
                "show-prompt",
                str(DEMO_TASKS),
                "calculateFactorial",
                "--mode",
                "codegen",
                "--target",
                "typescript",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == golden("codegen_factorial_ts.txt")

    def test_python_codegen_matches_golden(self, capsys, golden):
        code = main(
            ["show-prompt", str(DEMO_TASKS), "calculateFactorial", "--mode", "codegen"]
        )
        assert code == 0
        assert capsys.readouterr().out == golden("codegen_factorial_py.txt")

    def test_unknown_name_exits_2_with_diagnostic(self, capsys):
        code = main(["show-prompt", str(DEMO_TASKS), "noSuchTask"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "noSuchTask" in captured.err

    def test_bad_args_json(self, capsys):
        code = main(["show-prompt", str(DEMO_TASKS), "getBooks", "--args", "{oops"])
        assert code == 2

    def test_missing_binding_exits_2(self, capsys):
        code = main(["show-prompt", str(DEMO_TASKS), "getBooks", "--args", '{"n": 5}'])
        captured = capsys.readouterr()
        assert code == 2
        assert "subject" in captured.err

    def test_void_task_has_no_direct_prompt(self, capsys, tmp_path):
        code = main(["show-prompt", write_tasks(tmp_path, [VOID_TASK]), "storeNote", "--args", '{"text": "hi"}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "void task" in captured.err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("name", ["addNumbers"]),
            ("template", 7),
            ("target_language", ["python"]),
            ("return_schema", "list(" * 1000 + "int" + ")" * 1000),
            ("return_schema", "literal(" + "7" * 5000 + ")"),
        ],
        ids=["name", "template", "target_language", "nested_schema", "long_literal"],
    )
    def test_malformed_task_field_exits_2(self, capsys, tmp_path, field, value):
        task_file = write_tasks(tmp_path, [{**ADD_TASK, field: value}])
        code = main(["show-prompt", task_file, "addNumbers", "--args", '{"x": 1, "y": 2}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("askit: ")


class TestAskCommand:
    def test_replay_sentiment(self, capsys):
        code = main(
            [
                "ask",
                str(DEMO_TASKS),
                "getSentiment",
                "--args",
                json.dumps({"review": "The product is fantastic. It exceeds all my expectations."}),
                "--backend",
                "replay",
                "--fixtures",
                str(DEMO_FIXTURES),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["answer"] == "positive"
        assert document["attempts"] == 1
        assert "reason" in document

    def test_retries_exhausted_exits_3(self, capsys, tmp_path):
        store = tmp_path / "fx.jsonl"
        tasks = write_tasks(tmp_path, [ADD_TASK])
        from askit.errors import RetriesExhausted
        from askit.taskfile import load_task_file

        spec = load_task_file(tasks).get("addNumbers").to_spec()
        recorder = RecordingClient(ScriptedClient(["prose"] * 10, DEFAULT_MODEL_ID), store)
        with pytest.raises(RetriesExhausted):
            ask_until_valid(recorder, spec.template, {"x": 1, "y": 2}, spec.return_schema, (), CodegenConfig())
        code = main(
            [
                "ask", tasks, "addNumbers",
                "--args", '{"x": 1, "y": 2}',
                "--backend", "replay",
                "--fixtures", str(store),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "no valid answer after 10 attempts" in captured.err

    def test_replay_miss_exits_4(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            [
                "ask",
                str(DEMO_TASKS),
                "getSentiment",
                "--args",
                '{"review": "x"}',
                "--backend",
                "replay",
                "--fixtures",
                str(empty),
            ]
        )
        assert code == 4
        assert "no recorded response" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, cause",
        [(b"{not json", "JSONDecodeError"), (b'{"response": "x"}', "KeyError('key')"),
         (b'{"key": "k"}', "KeyError('response')"), (b"[1, 2]", "TypeError"), (b'{"key": [], "response": "x"}', "TypeError"),
         (b'{"key": "k\xff", "response": "x"}', "UnicodeDecodeError"),
         (b'{"key": "k", "response": 42}', "TypeError('response is int, not str')"),
         (b'{"key": "k", "response": null}', "TypeError('response is NoneType, not str')")],
        ids=["not-json", "no-key", "no-response", "not-an-object", "unhashable-key", "not-utf-8",
             "number-response", "null-response"],
    )
    def test_malformed_fixture_store_exits_1_naming_file_and_line(self, capsys, tmp_path, bad, cause):
        store = tmp_path / "bad.jsonl"
        store.write_bytes(DEMO_FIXTURES.read_bytes().splitlines()[0] + b"\n\n" + bad + b"\n")
        code = main(["ask", str(DEMO_TASKS), "getSentiment", "--args", '{"review": "ok"}',
                     "--backend", "replay", "--fixtures", str(store)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"askit: malformed fixture store {store}, line 3: {cause}"), captured.err
        assert "Traceback" not in captured.err

    def test_record_mode_grows_fixture_file_by_attempts(self, capsys, tmp_path, monkeypatch):
        responses = ["not json yet", envelope(3)]
        monkeypatch.setattr(
            cli, "LiveClient", lambda config: ScriptedClient(responses, model_id=config.model_id)
        )
        store = tmp_path / "rec.jsonl"
        tasks = write_tasks(tmp_path, [ADD_TASK])
        code = main(
            [
                "ask", tasks, "addNumbers",
                "--args", '{"x": 1, "y": 2}',
                "--backend", "record",
                "--fixtures", str(store),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["attempts"] == 2
        assert len(store.read_text().splitlines()) == 2

    def test_void_task_exits_2_before_any_client_call(self, capsys, tmp_path):
        store = tmp_path / "empty.jsonl"
        store.write_text("")
        code = main(
            ["ask", write_tasks(tmp_path, [VOID_TASK]), "storeNote", "--args", '{"text": "hi"}',
             "--backend", "replay", "--fixtures", str(store)]
        )
        assert code == 2
        assert "void task" in capsys.readouterr().err

    def test_missing_fixtures_flag_exits_2(self, capsys):
        code = main(["ask", str(DEMO_TASKS), "getSentiment", "--backend", "replay"])
        assert code == 2

    def test_missing_task_file_exits_2(self, capsys, tmp_path):
        code = main(["ask", str(tmp_path / "nope.json"), "x", "--backend", "replay", "--fixtures", "f"])
        assert code == 2


class TestCodegenCommand:
    def test_compiles_all_codable_tasks_then_hits_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "codegen",
            str(DEMO_TASKS),
            "--backend", "replay",
            "--fixtures", str(DEMO_FIXTURES),
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(first["tasks"]) == 5
        assert {row["status"] for row in first["tasks"]} == {"generated"}
        assert all(row["retries_used"] == 0 for row in first["tasks"])
        assert all(row["loc"] > 0 for row in first["tasks"])
        assert first["client_calls"] == 5

        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert {row["status"] for row in second["tasks"]} == {"cached"}
        assert second["client_calls"] == 0

    def test_undecodable_cached_source_is_regenerated(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "codegen",
            str(DEMO_TASKS),
            "--backend", "replay",
            "--fixtures", str(DEMO_FIXTURES),
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        damaged = json.loads(capsys.readouterr().out)["tasks"][0]
        Path(damaged["cache_path"]).write_bytes(b"\xff\xfe garbage")
        assert main(argv) == 0
        rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["tasks"]}
        assert rows.pop(damaged["name"])["status"] == "generated"
        assert {row["status"] for row in rows.values()} == {"cached"}
        assert Path(damaged["cache_path"]).read_text(encoding="utf-8").startswith("def ")

    def test_hit_under_the_lock_reads_as_cached(self, capsys, tmp_path, monkeypatch):
        argv = [
            "codegen", str(DEMO_TASKS),
            "--only", "calculateFactorial",
            "--backend", "replay",
            "--fixtures", str(DEMO_FIXTURES),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(api, "cache_lookup", lambda spec, config: None)  # as if another job stored it meanwhile
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in document["tasks"]] == ["cached"]
        assert document["client_calls"] == 0

    def test_task_without_param_schemas_generates(self, capsys, tmp_path):
        task = {key: value for key, value in ADD_TASK.items() if key != "param_schemas"}
        task_path = write_tasks(tmp_path, [task])
        fixtures = write_fixtures(tmp_path / "fixtures.jsonl", task_path, {"addNumbers": [ADD_CODE]})
        code = main(
            ["codegen", task_path, "--backend", "replay", "--fixtures", fixtures,
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["tasks"]
        assert [(row["name"], row["status"]) for row in rows] == [("addNumbers", "generated")]

    def test_parallel_jobs(self, capsys, tmp_path):
        argv = [
            "codegen",
            str(DEMO_TASKS),
            "--jobs", "3",
            "--backend", "replay",
            "--fixtures", str(DEMO_FIXTURES),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["tasks"]
        assert {row["status"] for row in rows} == {"generated"}
        assert len(rows) == 5

    def test_parallel_jobs_share_one_pair_of_zygotes(self, capsys, tmp_path, monkeypatch):
        tasks = [
            ADD_TASK,
            dict(ADD_TASK, name="mulNumbers", template="multiply {{x}} and {{y}}",
                 tests=[{"input": {"x": 2, "y": 3}, "output": 6}, {"input": {"x": 1, "y": 5}, "output": 5}]),
            dict(ADD_TASK, name="subNumbers", template="subtract {{y}} from {{x}}",
                 tests=[{"input": {"x": 5, "y": 3}, "output": 2}]),
        ]
        candidates = {  # retries_used 1, 0 and 2
            "addNumbers": ["def addNumbers(*, x, y):\n    return x - y", ADD_CODE],
            "mulNumbers": ["def mulNumbers(*, x, y):\n    return x * y"],
            "subNumbers": ["def subNumbers(*, x, y):\n    return y - x", "oops", "def subNumbers(*, x, y):\n    return x - y"],
        }
        task_path = write_tasks(tmp_path, tasks)
        fixtures = write_fixtures(tmp_path / "fixtures.jsonl", task_path, candidates)
        starts = count_starts(monkeypatch)
        argv = [
            "codegen", task_path,
            "--jobs", "2",
            "--backend", "replay",
            "--fixtures", fixtures,
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["tasks"]
        assert {row["name"]: row["retries_used"] for row in rows} == {"addNumbers": 1, "mulNumbers": 0, "subNumbers": 2}
        assert {row["status"] for row in rows} == {"generated"}
        assert starts == [["--fork-server"]]  # one zygote for every task and job

    def test_only_subset(self, capsys, tmp_path):
        argv = [
            "codegen",
            str(DEMO_TASKS),
            "--only", "calculateFactorial",
            "--backend", "replay",
            "--fixtures", str(DEMO_FIXTURES),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["tasks"]
        assert [row["name"] for row in rows] == ["calculateFactorial"]

    def test_partial_failure_exits_3_but_caches_the_rest(self, capsys, tmp_path):
        bad_task = {
            "name": "neverRight",
            "template": "do the impossible with {{x}}",
            "return_schema": "int",
            "param_schemas": {"x": "int"},
            "tests": [{"input": {"x": 1}, "output": 42}],
            "codable": True,
        }
        tasks = write_tasks(tmp_path, [ADD_TASK, bad_task])
        store = tmp_path / "fx.jsonl"
        from askit.taskfile import load_task_file

        task_file = load_task_file(tasks)
        config = CodegenConfig(cache_dir=tmp_path / "scratch-cache", max_retries=0)
        generate(
            RecordingClient(ScriptedClient([code_response(ADD_CODE)], DEFAULT_MODEL_ID), store),
            task_file.get("addNumbers").to_spec(),
            config,
        )
        wrong = "def neverRight(*, x):\n    return 0"
        with pytest.raises(GenerationFailed):
            generate(
                RecordingClient(ScriptedClient([code_response(wrong)], DEFAULT_MODEL_ID), store),
                task_file.get("neverRight").to_spec(),
                config,
            )

        cache = tmp_path / "cache"
        code = main(
            [
                "codegen", tasks,
                "--backend", "replay",
                "--fixtures", str(store),
                "--cache-dir", str(cache),
                "--max-retries", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        rows = {row["name"]: row for row in json.loads(captured.out)["tasks"]}
        assert rows["addNumbers"]["status"] == "generated"
        assert rows["neverRight"]["status"] == "failed"
        assert "neverRight" in captured.err
        assert list(cache.glob("*.py"))

    def test_no_task_starts_after_an_error_that_ends_the_command(self, capsys, tmp_path, monkeypatch):
        # The first task's fixture miss ends the command; the pool's thread
        # takes the second task before main() sees that, and must not run it.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        clients, build = [], cli._build_client
        monkeypatch.setattr(cli, "_build_client", lambda args: clients.append(build(args)) or clients[-1])
        code = main(["codegen", str(DEMO_TASKS), "--jobs", "1", "--backend", "replay", "--fixtures", str(empty),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 4
        assert "no recorded response" in capsys.readouterr().err
        assert clients[0].call_count == 1

    def test_toolchain_unavailable_exits_5(self, capsys, tmp_path, monkeypatch):
        tasks = write_tasks(tmp_path, [ADD_TASK])
        store = tmp_path / "fx.jsonl"
        monkeypatch.setattr(codegen_mod.shutil, "which", lambda name: None)
        ts_code = "export function addNumbers({x, y}: {x: number, y: number}): number {\n  return x + y;\n}"
        recorder = RecordingClient(ScriptedClient([f"```typescript\n{ts_code}\n```"], DEFAULT_MODEL_ID), store)
        from askit.taskfile import load_task_file

        spec = load_task_file(tasks).get("addNumbers").to_spec(target_language="typescript")
        with pytest.raises(ToolchainUnavailable):
            generate(recorder, spec, CodegenConfig(cache_dir=tmp_path / "c1"))
        code = main(
            [
                "codegen", tasks,
                "--target", "typescript",
                "--backend", "replay",
                "--fixtures", str(store),
                "--cache-dir", str(tmp_path / "c2"),
            ]
        )
        assert code == 5

    def test_no_codable_tasks_exits_2(self, capsys, tmp_path):
        tasks = write_tasks(
            tmp_path,
            [{"name": "a", "template": "x", "return_schema": "int", "codable": False}],
        )
        assert main(["codegen", tasks, "--backend", "replay", "--fixtures", "f"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, capsys, tmp_path, jobs):
        code = main(
            ["codegen", str(DEMO_TASKS), "--jobs", jobs, "--backend", "replay",
             "--fixtures", str(DEMO_FIXTURES), "--cache-dir", str(tmp_path / "cache")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "askit: --jobs must be >= 1\n"
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()


class TestBenchCommand:
    def test_repeat_zero_exits_2(self, capsys):
        code = main(
            ["bench", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--repeat", "0"]
        )
        assert code == 2

    def test_metrics_schema_and_speedup(self, capsys, tmp_path):
        code = main(
            [
                "bench", str(DEMO_TASKS),
                "--only", "calculateFactorial",
                "--fixtures", str(DEMO_FIXTURES),
                "--repeat", "3",
                "--replay-delay-ms", "30",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in document["tasks"]] == ["calculateFactorial"]
        metrics = document["tasks"][0]["metrics"]
        assert set(metrics) == {"latency_s", "execution_time_us", "compile_time_s", "speedup"}
        assert (document["repeat"], document["replay_delay_ms"]) == (3, 30)  # the model latency the ratio assumes
        assert metrics["latency_s"] >= 0.03
        assert metrics["speedup"] > 1

    def test_execution_time_is_the_median_warm_call(self, capsys, tmp_path, monkeypatch):
        class OneSlowCall:
            calls = 0
            alive = True

            def __init__(self, *args, **kwargs):
                pass

            def close(self):
                pass

            def call(self, entry, args):
                OneSlowCall.calls += 1
                if OneSlowCall.calls == 3:  # the second timed call; the first one warms up
                    time.sleep(0.25)
                return 120

        monkeypatch.setattr(api, "Worker", OneSlowCall)
        code = main(
            [
                "bench", str(DEMO_TASKS),
                "--only", "calculateFactorial",
                "--fixtures", str(DEMO_FIXTURES),
                "--repeat", "5",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["tasks"][0]["metrics"]
        assert OneSlowCall.calls == 6
        assert metrics["execution_time_us"] < 25_000  # the mean is over 50,000 us

    def test_tasks_share_one_pair_of_zygotes(self, capsys, tmp_path, monkeypatch):
        starts = count_starts(monkeypatch)
        only = ["--only", "calculateFactorial", "--only", "sumNumbers", "--only", "sortNumbers"]
        code = main(
            ["bench", str(DEMO_TASKS), *only, "--fixtures", str(DEMO_FIXTURES), "--repeat", "1",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["tasks"]) == 3
        assert starts.count(["--fork-server"]) == 1  # not one zygote per task

    def test_fixtures_flag_required(self):
        with pytest.raises(SystemExit):
            main(["bench", str(DEMO_TASKS)])

    def test_default_cache_dir_is_removed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code = main(
            [
                "bench", str(DEMO_TASKS),
                "--only", "calculateFactorial",
                "--fixtures", str(DEMO_FIXTURES),
                "--repeat", "1",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["tasks"][0]["name"] == "calculateFactorial" and document["replay_delay_ms"] == 0
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ask", str(DEMO_TASKS), "getSentiment", "--args", '{"review": "x"}', "--fixtures", str(DEMO_FIXTURES),
          "--temperature", "5"], "temperature must be within [0.0, 2.0]"),
        (["bench", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--temperature", "-1"],
         "temperature must be within [0.0, 2.0]"),
        (["codegen", str(DEMO_TASKS), "--backend", "replay", "--fixtures", str(DEMO_FIXTURES), "--max-retries", "-1"],
         "max_retries must be >= 0"),
        (["ask", str(DEMO_TASKS), "getSentiment", "--args", '{"review": "x"}', "--fixtures", str(DEMO_FIXTURES),
          "--replay-delay-ms=-5"], "--replay-delay-ms must be a finite number >= 0"),
        (["codegen", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--replay-delay-ms=-5"],
         "--replay-delay-ms must be a finite number >= 0"),
        (["bench", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--replay-delay-ms=-5"],
         "--replay-delay-ms must be a finite number >= 0"),
        (["bench", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--replay-delay-ms=nan"],
         "--replay-delay-ms must be a finite number >= 0"),
        (["codegen", str(DEMO_TASKS), "--fixtures", str(DEMO_FIXTURES), "--replay-delay-ms=inf"],
         "--replay-delay-ms must be a finite number >= 0"),
    ],
    ids=["ask-temperature", "bench-temperature", "codegen-max-retries", "ask-replay-delay", "codegen-replay-delay",
         "bench-replay-delay", "bench-replay-delay-nan", "codegen-replay-delay-inf"],
)
def test_a_config_value_out_of_range_exits_2(capsys, tmp_path, argv, message):
    if argv[0] != "ask":
        argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"askit: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["codegen", "bench"])
def test_an_unknown_only_name_exits_2(capsys, tmp_path, command):
    code = main(
        [command, str(DEMO_TASKS), "--only", "calculateFactorial", "--only", "nosuch",
         "--fixtures", str(DEMO_FIXTURES), "--cache-dir", str(tmp_path / "cache")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "askit: unknown task name 'nosuch'\n"
    assert captured.out == ""
    assert not (tmp_path / "cache").exists()


@pytest.fixture
def no_gc():
    """Only reference counts free objects: a holder kept alive by a cycle stays alive."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["codegen", "codegen_failure", "bench"])
def test_no_child_left_after_main_returns(capsys, tmp_path, no_gc, command):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    if command == "bench":
        argv = ["bench", str(DEMO_TASKS), "--only", "calculateFactorial", "--fixtures", str(DEMO_FIXTURES),
                "--repeat", "2", *cache]
    elif command == "codegen":
        argv = ["codegen", str(DEMO_TASKS), "--backend", "replay", "--fixtures", str(DEMO_FIXTURES), *cache]
    else:
        task_path = write_tasks(tmp_path, [ADD_TASK])
        fixtures = write_fixtures(tmp_path / "fixtures.jsonl", task_path, {"addNumbers": ["def addNumbers(*, x, y):\n    return x"]})
        argv = ["codegen", task_path, "--backend", "replay", "--fixtures", fixtures, "--max-retries", "0", *cache]
    before = live_children()
    assert main(argv) == (3 if command == "codegen_failure" else 0)
    assert live_children() - before == set()


def test_engine_answers_match_direct_library_use():
    """The ask command and the library share one prompt/parse path."""
    from askit.clients import ReplayClient
    from askit.taskfile import load_task_file

    spec = load_task_file(DEMO_TASKS).get("getSentiment").to_spec()
    client = ReplayClient(DEMO_FIXTURES, model_id=DEFAULT_MODEL_ID)
    result = ask_until_valid(
        client,
        spec.template,
        {"review": "The product is fantastic. It exceeds all my expectations."},
        spec.return_schema,
        spec.fewshot,
        CodegenConfig(),
    )
    assert result.value == "positive"
