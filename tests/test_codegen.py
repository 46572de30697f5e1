import json
import random
import re
import subprocess
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import askit.codegen as codegen_mod
from askit.api import define
from askit.clients import ScriptedClient
from askit.codegen import (
    CodegenConfig,
    TaskSpec,
    cache_lookup,
    cache_paths,
    cache_slug,
    cache_store,
    generate,
    invoke,
    output_equal,
    spec_digest,
    syntax_check,
    _vet_candidate,
)
from askit.errors import (
    ExecutionError,
    GenerationFailed,
    SchemaError,
    ToolchainUnavailable,
)
from askit.prompts import Example, ViolationKind
from askit.template import parse
from askit.types import INT, STR, list_of
from schemagen import random_spec


def live_children():
    """Process ids of this process's children that are still running."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update((task / "children").read_text().split())
        except OSError:
            continue
    return pids


def refuse(*args, **kwargs):
    raise AssertionError("a child process was started")

ADD_TS = (
    "export function func({x, y}: {x: number, y: number}): number {\n"
    "  // add 'x' and 'y'\n"
    "  return x + y;\n"
    "}"
)

ADD_PY = "def add(*, x, y):\n    return x + y"

FACTORIAL_PY = (
    "def calculateFactorial(*, n):\n"
    "    result = 1\n"
    "    for i in range(2, n + 1):\n"
    "        result *= i\n"
    "    return result"
)

# Correct: Fibonacci values up to n. Wrong first candidate: the sequence out
# to index n+1, the off-by-one that test examples must catch.
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


def code_response(source, tag="python"):
    return f"Here you go:\n```{tag}\n{source}\n```"


def add_spec(tmp_path=None, **overrides):
    fields = dict(
        name="add",
        template=parse("add {{x}} and {{y}}"),
        return_schema=INT,
        param_schemas=(("x", INT), ("y", INT)),
        tests=(Example({"x": 1, "y": 2}, 3),),
        target_language="python",
    )
    fields.update(overrides)
    return TaskSpec(**fields)


def fib_spec():
    return TaskSpec(
        name="makeFibonacci",
        template=parse("Generate the Fibonacci sequence up to {{n}}."),
        return_schema=list_of(INT),
        param_schemas=(("n", INT),),
        tests=(Example({"n": 5}, [0, 1, 1, 2, 3, 5]),),
        target_language="python",
    )


class TestTaskSpecInvariants:
    def test_param_names_must_match_template(self):
        with pytest.raises(SchemaError):
            TaskSpec(
                name="f",
                template=parse("use {{x}}"),
                return_schema=INT,
                param_schemas=(("y", INT),),
            )

    def test_name_must_be_identifier(self):
        with pytest.raises(SchemaError):
            TaskSpec(name="not a name", template=parse("x"), return_schema=INT)

    def test_example_params_must_be_known(self):
        with pytest.raises(SchemaError):
            TaskSpec(
                name="f",
                template=parse("use {{x}}"),
                return_schema=INT,
                param_schemas=(("x", INT),),
                tests=(Example({"z": 1}, 1),),
            )

    def test_unknown_language(self):
        with pytest.raises(SchemaError):
            TaskSpec(name="f", template=parse("x"), return_schema=INT, target_language="cobol")


class TestCacheNaming:
    def test_factorial_slug(self):
        template = parse("Calculate the factorial of {{n}}")
        assert cache_slug(template) == "calculate_the_factorial_of__n"

    def test_factorial_cache_filename_shape(self, tmp_path):
        spec = TaskSpec(
            name="calculateFactorial",
            template=parse("Calculate the factorial of {{n}}"),
            return_schema=INT,
            param_schemas=(("n", INT),),
        )
        code_path, _ = cache_paths(spec, CodegenConfig(cache_dir=tmp_path))
        assert re.fullmatch(r"calculate_the_factorial_of__n_[0-9a-f]{8}\.py", code_path.name)

    def test_slug_truncates_to_forty_chars(self):
        template = parse("x" * 60)
        assert cache_slug(template) == "x" * 40

    def test_digest_stable_under_reparse(self):
        spec_a = add_spec()
        spec_b = add_spec(template=parse("add {{x}} and {{y}}"))
        assert spec_digest(spec_a) == spec_digest(spec_b)

    def test_digest_changes_with_schema_or_language(self):
        base = add_spec()
        assert spec_digest(base) != spec_digest(add_spec(return_schema=STR))
        assert spec_digest(base) != spec_digest(add_spec(param_schemas=(("x", STR), ("y", STR))))
        assert spec_digest(base) != spec_digest(
            add_spec(target_language="typescript", tests=())
        )

    @pytest.mark.parametrize("language,extension", [("python", "py"), ("typescript", "ts")])
    def test_memoized_names_match_fresh_derivation(self, language, extension):
        rng = random.Random(1010)
        for _ in range(300):
            spec = random_spec(rng, language)
            stem = f"{cache_slug(spec.template)}_{spec_digest(spec)}"
            assert spec.cache_names == (f"{stem}.{extension}", f"{stem}.json")
            assert spec.cache_names is spec.cache_names

    def test_replace_derives_its_own_names(self):
        base = add_spec()
        assert base.cache_names
        changed = replace(base, return_schema=STR)
        assert changed.cache_names != base.cache_names
        assert changed.cache_names[1] == f"add__x__and__y_{spec_digest(changed)}.json"

    def test_memoized_names_leave_equality_and_hash_alone(self):
        memoized, fresh = add_spec(tests=()), add_spec(tests=())  # dict inputs do not hash
        assert memoized.cache_names
        assert "cache_names" in vars(memoized) and "cache_names" not in vars(fresh)
        assert memoized == fresh and hash(memoized) == hash(fresh)


class TestCacheStoreLookup:
    def test_lookup_before_store_misses(self, tmp_path):
        assert cache_lookup(add_spec(), CodegenConfig(cache_dir=tmp_path)) is None

    def test_store_then_lookup_round_trips(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        source = ADD_PY + "\n"
        cache_store(add_spec(), source, config, retries_used=2)
        found = cache_lookup(add_spec(), config)
        assert found is not None
        assert found.source == source
        assert found.entry == "add"
        assert found.retries_used == 2

    def test_sidecar_metadata_documented_fields(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config)
        _, meta_path = cache_paths(add_spec(), config)
        metadata = json.loads(meta_path.read_text())
        assert set(metadata) == {
            "entry",
            "language",
            "template",
            "return_schema",
            "param_schemas",
            "digest",
            "retries_used",
        }
        assert metadata["return_schema"] == "number"
        assert metadata["param_schemas"] == [["x", "number"], ["y", "number"]]

    @pytest.mark.parametrize(
        "sidecar",
        [b"[1, 2]", b'"text"', b"null", b"42", b"{not json", b"\xff\xfe", b'{"retries_used": "x"}',
         b'{"retries_used": [1]}', b'{"retries_used": 1e999}', b'{"retries_used": true}',
         b'{"retries_used": "3"}', b'{"retries_used": 2.9}', b'{"retries_used": -1}'],
    )
    def test_damaged_sidecar_reads_as_zero_retries(self, tmp_path, sidecar):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(tests=()), ADD_PY + "\n", config, retries_used=3)
        cache_paths(add_spec(tests=()), config)[1].write_bytes(sidecar)
        found = cache_lookup(add_spec(tests=()), config)
        assert found is not None and found.retries_used == 0
        defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT}, name="add")
        with defined.compile(config, client=ScriptedClient([])) as compiled:
            assert compiled.generated.retries_used == 0

    @pytest.mark.parametrize(
        "raw",
        [b"def add(*, x, y):\r\n    return x + y\r\n", b"def add(*, x, y):\r    return x + y\r",
         b"\xef\xbb\xbfdef add(*, x, y):\n    return x + y\n"],
    )
    def test_lookup_reads_source_as_read_text_does(self, tmp_path, raw):
        config = CodegenConfig(cache_dir=tmp_path)
        code_path = cache_store(add_spec(), ADD_PY + "\n", config)
        code_path.write_bytes(raw)
        assert cache_lookup(add_spec(), config).source == code_path.read_text(encoding="utf-8")

    def test_hit_after_hand_edit_returns_edited_source(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        spec = add_spec()
        code_path = cache_store(spec, ADD_PY + "\n", config)
        assert cache_lookup(spec, config).source == ADD_PY + "\n"
        edited = "def add(*, x, y):\n    return y + x\n"
        code_path.write_text(edited, encoding="utf-8")
        assert cache_lookup(spec, config).source == edited

    def test_undecodable_cached_source_is_regenerated(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        code_path = cache_store(add_spec(), ADD_PY + "\n", config, retries_used=2)
        code_path.write_bytes(b"\xff\xfe garbage")
        assert cache_lookup(add_spec(), config) is None
        defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT},
                         tests=[{"input": {"x": 1, "y": 2}, "output": 3}], name="add")
        with defined.compile(config, client=ScriptedClient([code_response(ADD_PY)])) as compiled:
            assert compiled.generated.retries_used == 0
            assert compiled(x=2, y=3) == 5
        assert code_path.read_text(encoding="utf-8") == ADD_PY + "\n"
        assert cache_lookup(add_spec(), config).retries_used == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config)
        assert not list(tmp_path.glob("*.tmp"))


class TestSyntaxCheck:
    def test_valid_python(self):
        assert syntax_check(ADD_PY, "python") is None

    def test_invalid_python(self):
        violation = syntax_check("def f(:\n    pass", "python")
        assert violation is not None and violation.kind is ViolationKind.SYNTAX_ERROR
        assert "SyntaxError" in violation.detail

    def test_missing_typescript_toolchain(self, monkeypatch):
        monkeypatch.setattr(codegen_mod.shutil, "which", lambda name: None)
        with pytest.raises(ToolchainUnavailable):
            syntax_check(ADD_TS, "typescript")

    def test_python_check_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert syntax_check(ADD_PY, "python") is None
        assert syntax_check("def f(:\n    pass", "python").kind is ViolationKind.SYNTAX_ERROR

    @pytest.mark.parametrize("source", ["x = 1\x00\n", "[" * 5000, "-" * 100_000 + "1"],
                             ids=["null_byte", "deep_brackets", "deep_unary"])
    def test_python_parser_limits_are_syntax_errors(self, source):
        violation = syntax_check(source, "python")
        assert violation is not None and violation.kind is ViolationKind.SYNTAX_ERROR
        assert re.search(r"\w+Error", violation.detail)

    @pytest.mark.skipif(codegen_mod.shutil.which("tsc") is None, reason="tsc not installed")
    def test_typescript_add_function_passes(self):
        assert syntax_check(ADD_TS, "typescript") is None

    @pytest.mark.skipif(codegen_mod.shutil.which("tsc") is None, reason="tsc not installed")
    def test_typescript_garbage_fails(self):
        violation = syntax_check("function f( {", "typescript")
        assert violation is not None and violation.kind is ViolationKind.SYNTAX_ERROR


class TestOutputEqual:
    def test_exact_integers(self):
        assert output_equal(120, 120)
        assert output_equal(120, 120.0)
        assert not output_equal(120, 121)

    def test_float_tolerance(self):
        assert output_equal(0.1 + 0.2, 0.3)
        assert not output_equal(0.3, 0.31)

    def test_arrays_are_ordered(self):
        assert not output_equal([1, 2], [2, 1])
        assert output_equal([1, [2, 3]], [1, [2, 3]])

    def test_objects_compare_key_sets(self):
        assert output_equal({"a": 1}, {"a": 1})
        assert not output_equal({"a": 1}, {"a": 1, "b": 2})

    def test_booleans_are_not_numbers(self):
        assert not output_equal(True, 1)
        assert output_equal(True, True)

    def test_null_and_strings(self):
        assert output_equal(None, None)
        assert not output_equal("1", 1)


class TestGenerate:
    def test_first_candidate_accepted(self, tmp_path):
        client = ScriptedClient([code_response(ADD_PY)])
        generated = generate(client, add_spec(), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 0
        assert generated.entry == "add"
        assert generated.cache_path.exists()
        assert invoke(generated, {"x": 2, "y": 3}) == 5

    def test_wrong_then_right_fibonacci(self, tmp_path):
        client = ScriptedClient([code_response(FIB_WRONG), code_response(FIB_RIGHT)])
        generated = generate(client, fib_spec(), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1
        assert client.call_count == 2
        assert invoke(generated, {"n": 5}) == [0, 1, 1, 2, 3, 5]

    def test_wrong_fibonacci_rejected_as_test_failure(self, tmp_path):
        source, violation = _vet_candidate(
            code_response(FIB_WRONG), fib_spec(), CodegenConfig(cache_dir=tmp_path)
        )
        assert source is None
        assert violation.kind is ViolationKind.TEST_FAILURE
        assert '{"n":5}' in violation.detail

    def test_unparseable_forever_exhausts_retries(self, tmp_path):
        client = ScriptedClient([code_response("def  broken(((")] * 3)
        with pytest.raises(GenerationFailed) as err:
            generate(client, add_spec(), CodegenConfig(cache_dir=tmp_path, max_retries=2))
        assert client.call_count == 3
        assert len(err.value.transcript) == 3
        assert err.value.violation.kind is ViolationKind.SYNTAX_ERROR

    def test_missing_code_block_is_a_violation(self, tmp_path):
        client = ScriptedClient(["no code at all", code_response(ADD_PY)])
        generated = generate(client, add_spec(), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1

    def test_retry_resends_identical_prompt(self, tmp_path):
        client = ScriptedClient(["nope", code_response(ADD_PY)])
        generate(client, add_spec(), CodegenConfig(cache_dir=tmp_path))
        first, second = client.requests
        assert first[0] == second[0]
        assert len(first[0]) == len(second[0]) == 1

    def test_empty_tests_accept_first_syntactically_valid(self, tmp_path):
        wrong_but_valid = "def add(*, x, y):\n    return x - y"
        client = ScriptedClient([code_response(wrong_but_valid)])
        generated = generate(client, add_spec(tests=()), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 0

    @pytest.mark.skipif(codegen_mod.shutil.which("tsc") is None, reason="tsc not installed")
    def test_typescript_target_accepts_worked_add_answer(self, tmp_path):
        """Without test examples, a syntactically valid candidate wins."""
        spec = add_spec(target_language="typescript", tests=())
        client = ScriptedClient([code_response(ADD_TS, tag="typescript")])
        generated = generate(client, spec, CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 0
        assert generated.cache_path.suffix == ".ts"

    def test_generate_once_second_call_hits_cache(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        client = ScriptedClient([code_response(ADD_PY)])
        first = generate(client, add_spec(), config)
        second = generate(client, add_spec(), config)
        assert client.call_count == 1
        assert second.source == first.source

    def test_hit_under_the_lock_builds_no_prompt(self, tmp_path, monkeypatch):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config, retries_used=1)

        def no_prompt(*args, **kwargs):
            raise AssertionError("a prompt was built for a cached task")

        monkeypatch.setattr(codegen_mod, "build_codegen", no_prompt)
        generated = generate(ScriptedClient([]), add_spec(), config)
        assert generated.source == ADD_PY + "\n" and generated.retries_used == 1

    def test_concurrent_generate_runs_once(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        client = ScriptedClient([code_response(ADD_PY)] * 2)
        results, errors = [], []

        def work():
            try:
                results.append(generate(client, add_spec(), config))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert client.call_count == 1
        assert results[0].source == results[1].source


class TestForkServerOwnership:
    """generate and CompiledFunction own their fork servers: no harness
    process outlives them."""

    def test_no_child_left_after_generate_returns(self, tmp_path):
        before = live_children()
        client = ScriptedClient([code_response(FIB_WRONG), code_response(FIB_RIGHT)])
        generated = generate(client, fib_spec(), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1
        assert live_children() - before == set()

    def test_no_child_left_after_generation_fails(self, tmp_path):
        before = live_children()
        client = ScriptedClient([code_response(FIB_WRONG)] * 2)
        with pytest.raises(GenerationFailed):
            generate(client, fib_spec(), CodegenConfig(cache_dir=tmp_path, max_retries=1))
        assert live_children() - before == set()

    def test_no_child_left_after_compiled_function_closes(self, tmp_path):
        before = live_children()
        defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT},
                         tests=[{"input": {"x": 1, "y": 2}, "output": 3}], name="add",
                         client=ScriptedClient([code_response(ADD_PY)]))
        compiled = defined.compile(CodegenConfig(cache_dir=tmp_path))
        assert compiled(x=2, y=3) == 5
        assert compiled.call_isolated(x=2, y=3) == 5
        assert compiled.call_isolated(x=4, y=3) == 7
        assert len(live_children() - before) == 2  # the warm worker and the zygote
        compiled.close()
        assert live_children() - before == set()

    def test_no_test_examples_start_no_harness(self, tmp_path, monkeypatch):
        monkeypatch.setattr(subprocess, "Popen", refuse)
        client = ScriptedClient(["def  broken(((", code_response(ADD_PY)])
        generated = generate(client, add_spec(tests=()), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1

    def test_test_examples_share_one_fork_server(self, tmp_path, monkeypatch):
        servers = []
        real = codegen_mod.run_once

        def spy(*args, server=None, **kwargs):
            servers.append(server)
            return real(*args, server=server, **kwargs)

        monkeypatch.setattr(codegen_mod, "run_once", spy)
        spec = replace(fib_spec(), tests=fib_spec().tests + (Example({"n": 1}, [0, 1, 1]),))
        client = ScriptedClient([code_response(FIB_WRONG), code_response(FIB_RIGHT)])
        generate(client, spec, CodegenConfig(cache_dir=tmp_path))
        assert len(servers) == 3  # one for the wrong candidate, two for the right one
        assert servers[0] is not None and all(server is servers[0] for server in servers)
        assert not servers[0].alive


class TestInvoke:
    def test_factorial(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        path = cache_store(
            TaskSpec(
                name="calculateFactorial",
                template=parse("Calculate the factorial of {{n}}"),
                return_schema=INT,
                param_schemas=(("n", INT),),
            ),
            FACTORIAL_PY + "\n",
            config,
        )
        spec = TaskSpec(
            name="calculateFactorial",
            template=parse("Calculate the factorial of {{n}}"),
            return_schema=INT,
            param_schemas=(("n", INT),),
        )
        generated = cache_lookup(spec, config)
        assert generated.cache_path == path
        assert invoke(generated, {"n": 5}) == 120

    def test_throwing_code(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(tests=()), "def add(*, x, y):\n    raise RuntimeError('no')\n", config)
        generated = cache_lookup(add_spec(tests=()), config)
        with pytest.raises(ExecutionError):
            invoke(generated, {"x": 1, "y": 2})

    def test_typescript_has_no_harness(self, tmp_path):
        spec = add_spec(target_language="typescript", tests=())
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(spec, ADD_TS + "\n", config)
        generated = cache_lookup(spec, config)
        with pytest.raises(ToolchainUnavailable):
            invoke(generated, {"x": 1, "y": 2})


class TestCodegenConfig:
    def test_defaults(self):
        config = CodegenConfig()
        assert config.max_retries == 9
        assert config.temperature == 1.0
        assert str(config.cache_dir) == "askit"

    def test_validation(self):
        with pytest.raises(ValueError):
            CodegenConfig(max_retries=-1)

    def test_allowlist(self):
        assert CodegenConfig().allows("anything")
        config = CodegenConfig(codable_allowlist={"add", "math_*"})
        assert config.allows("add")
        assert config.allows("math_sum")
        assert not config.allows("subtract")
