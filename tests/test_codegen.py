import atexit
import gc
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import tempfile
import threading
import traceback
from dataclasses import replace
from pathlib import Path

import pytest

import askit
import askit.codegen as codegen_mod
import askit.runner as runner
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
from askit.encoding import canonical_json, stable_digest
from askit.errors import (
    AskitError,
    ExecutionError,
    GenerationFailed,
    SchemaError,
    ToolchainUnavailable,
)
from askit.prompts import Example, Violation, ViolationKind
from askit.runner import run_once, scratch_dir
from askit.template import parse
from askit.types import INT, STR, list_of
from conftest import count_starts, gone, live_children, parent_of, source_of
from schemagen import random_spec


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


def write_add(tmp_path):
    path = tmp_path / "add.py"
    path.write_text(ADD_PY + "\n", encoding="utf-8")
    return path


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

    @pytest.mark.parametrize("field", ["fewshot", "tests"])
    def test_example_must_bind_every_param(self, field):
        with pytest.raises(SchemaError, match="'y' is not bound"):
            TaskSpec(
                name="f",
                template=parse("use {{x}} and {{y}}"),
                return_schema=INT,
                **{field: (Example({"x": 1}, 1),)},
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

    @pytest.mark.parametrize("value", [["add", "add {{x}}", None], {"ü": [1.5, "✓"]}, "", [["x", "number"]] * 50])
    def test_stable_digest_is_hashlibs_sha256_of_the_canonical_json(self, value):
        expected = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
        assert stable_digest(value) == expected[:8] and stable_digest(value, length=64) == expected

    def test_digest_changes_with_name(self):
        assert spec_digest(add_spec()) != spec_digest(add_spec(name="add_b"))

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

    @pytest.mark.parametrize("language", ["python", "typescript"])
    def test_sidecar_takes_the_memoized_digest_and_keeps_its_bytes(self, tmp_path, language, monkeypatch):
        rng, calls = random.Random(1414), []
        real = codegen_mod.spec_digest
        monkeypatch.setattr(codegen_mod, "spec_digest", lambda spec: calls.append(spec) or real(spec))
        for index in range(100):
            spec = random_spec(rng, language)
            config = CodegenConfig(cache_dir=tmp_path / str(index))
            metadata = {  # the sidecar as cache_store wrote it with spec_digest called on every store
                "entry": spec.name,
                "language": spec.target_language,
                "template": spec.template.raw,
                "return_schema": codegen_mod.render(spec.return_schema),
                "param_schemas": codegen_mod._rendered_params(spec),
                "digest": real(spec),
                "retries_used": index % 3,
            }
            cache_store(spec, "def f():\n    return 1\n", config, retries_used=index % 3)
            cache_store(spec, "def f():\n    return 1\n", config, retries_used=index % 3)
            assert cache_paths(spec, config)[1].read_bytes() == (canonical_json(metadata) + "\n").encode("utf-8")
            assert sum(call is spec for call in calls) == 1  # once for the names and both sidecars


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
        assert found.from_cache

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

    def test_paths_are_joined_once_per_config_and_follow_its_cache_dir(self, tmp_path):
        spec = add_spec()
        config = CodegenConfig(cache_dir=tmp_path / "a")
        assert cache_paths(spec, config) is cache_paths(spec, config)
        assert [path.parent for path in cache_paths(spec, config)] == [tmp_path / "a"] * 2
        moved = replace(config, cache_dir=tmp_path / "b")
        assert [path.parent for path in cache_paths(spec, moved)] == [tmp_path / "b"] * 2
        assert config == CodegenConfig(cache_dir=tmp_path / "a") and hash(config) == hash(CodegenConfig(cache_dir=tmp_path / "a"))

    def test_no_temp_files_left_behind(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config)
        assert not list(tmp_path.glob("*.tmp"))


def _text_mode_lookup(spec, config):
    """cache_lookup as it read both files before its raw reads: a text-mode
    open for each, and json.load for the sidecar; an empty source is a miss."""
    code_path, meta_path = cache_paths(spec, config)
    try:
        with open(code_path, encoding="utf-8") as handle:
            source = handle.read()
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    if not source:
        return None
    try:
        with open(meta_path, encoding="utf-8") as handle:
            metadata = json.load(handle)
    except (OSError, ValueError):
        metadata = None
    recorded = metadata.get("retries_used") if isinstance(metadata, dict) else None
    return source, recorded if type(recorded) is int and recorded >= 0 else 0


def _lookup_outcome(lookup, spec, config):
    """What a lookup returns as (source, retries_used) or None, or the class it raises."""
    try:
        found = lookup(spec, config)
    except Exception as exc:  # noqa: BLE001
        return type(exc)
    if found is None or isinstance(found, tuple):
        return found
    return found.source, found.retries_used


_SOURCE_PIECES = [b"def add(*, x, y):", b"    return x + y", b"\n", b"\r\n", b"\r", b"\xef\xbb\xbf", b"\x00",
                  b"\xc3\xa9", b"\xe2\x9c\x93", b"\xf0\x9f\x98\x80", b"# ", b"\t", b"x" * 300]
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xe2\x9c", b"\xed\xa0\x80", b"\xc0\xaf", b"\x80"]
_JSON_SPACE = [b"", b" ", b"\n", b"\r\n", b"\r", b"\t"]


def _random_source(rng):
    pieces = [rng.choice(_SOURCE_PIECES) for _ in range(rng.randint(0, 40))]
    if rng.random() < 0.25:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(_BAD_UTF8))
    return b"".join(pieces)


def _random_sidecar(rng):
    space = lambda: rng.choice(_JSON_SPACE)  # noqa: E731
    value = rng.choice([b"0", b"3", b"-1", b"2.0", b"1e2", b"true", b'"2"', b"[1]", b"null", b"99999999999999999999"])
    text = b"{" + space() + b'"entry"' + space() + b":" + space() + b'"add\xc3\xa9"' + space() + b"," + space()
    text += b'"retries_used"' + space() + b":" + space() + value + space() + b"}" + space()
    roll = rng.random()
    if roll < 0.1:
        text = b"\xef\xbb\xbf" + text
    elif roll < 0.2:
        text = text[: rng.randint(0, len(text))]
    elif roll < 0.3:
        position = rng.randint(0, len(text))
        text = text[:position] + rng.choice([*_BAD_UTF8, b"\x00", b"\r", b'"\r"']) + text[position:]
    elif roll < 0.35:
        text = rng.choice([b"[1, 2]", b"", b"\r\n", b"{}\r\n{}"])
    return text


class TestRawLookupMatchesTextMode:
    """cache_lookup reads both files with os.read and parses the sidecar with
    harness.loads; what it returns must be what text-mode opens and json.load give."""

    @pytest.mark.parametrize("seed", range(300))
    def test_seeded_files(self, tmp_path, seed):
        rng = random.Random(seed)
        config = CodegenConfig(cache_dir=tmp_path)
        spec = add_spec()
        code_path, meta_path = cache_paths(spec, config)
        if rng.random() < 0.95:
            code_path.write_bytes(_random_source(rng))
        if rng.random() < 0.9:
            meta_path.write_bytes(_random_sidecar(rng))
        assert _lookup_outcome(cache_lookup, spec, config) == _lookup_outcome(_text_mode_lookup, spec, config)

    @pytest.mark.parametrize(
        "raw",
        [
            b"x = 1\r\n" * 20000,
            b"#" * 65535 + b"\r\n" + b"y = 2\r",  # a CRLF across the first 64 KiB read
            b"#" * 65535 + b"\xc3\xa9\n" + b"\r" * 70000,  # a 2-byte character across it
            b"#" * 65535 + b"\xc3" + b"\n" * 10,  # a truncated character across it
            b"\xef\xbb\xbf" + b"\x00\r" * 40000,
        ],
        ids=["crlf_lines", "crlf_across_reads", "char_across_reads", "bad_char_across_reads", "bom_nul_cr"],
    )
    def test_sources_over_64_kib(self, tmp_path, raw):
        config = CodegenConfig(cache_dir=tmp_path)
        spec = add_spec()
        cache_store(spec, "", config, retries_used=4)
        cache_paths(spec, config)[0].write_bytes(raw)
        expected = _lookup_outcome(_text_mode_lookup, spec, config)
        assert _lookup_outcome(cache_lookup, spec, config) == expected
        assert expected is None or expected[1] == 4

    def test_a_directory_in_place_of_the_source_raises_as_before(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        spec = add_spec()
        cache_store(spec, ADD_PY + "\n", config)
        code_path = cache_paths(spec, config)[0]
        code_path.unlink()
        code_path.mkdir()
        assert _lookup_outcome(_text_mode_lookup, spec, config) is IsADirectoryError
        assert _lookup_outcome(cache_lookup, spec, config) is IsADirectoryError

    def test_a_directory_in_place_of_the_sidecar_reads_as_no_retries(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        spec = add_spec()
        cache_store(spec, ADD_PY + "\n", config, retries_used=2)
        meta_path = cache_paths(spec, config)[1]
        meta_path.unlink()
        meta_path.mkdir()
        assert _lookup_outcome(cache_lookup, spec, config) == _lookup_outcome(_text_mode_lookup, spec, config)
        assert cache_lookup(spec, config).retries_used == 0


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
        assert not generated.from_cache
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

    def test_a_miss_returns_the_text_every_later_hit_reads(self, tmp_path):
        config = CodegenConfig(cache_dir=tmp_path)
        missed = generate(ScriptedClient([code_response("def add(*, x, y):\r\n    return x + y")]), add_spec(), config)
        hit = generate(ScriptedClient([]), add_spec(), config)
        assert missed.source == hit.source == ADD_PY + "\n"  # line ends as a text-mode read gives them
        assert (missed.from_cache, hit.from_cache) == (False, True)
        assert replace(missed, from_cache=True) == hit

    def test_hit_under_the_lock_builds_no_prompt(self, tmp_path, monkeypatch):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config, retries_used=1)

        def no_prompt(*args, **kwargs):
            raise AssertionError("a prompt was built for a cached task")

        monkeypatch.setattr(codegen_mod, "build_codegen", no_prompt)
        generated = generate(ScriptedClient([]), add_spec(), config)
        assert generated.source == ADD_PY + "\n" and generated.retries_used == 1
        assert generated.from_cache

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
        zygotes = live_children() - before
        assert len(zygotes) == 1  # the warm worker is not a child: the zygote forked it
        worker = compiled._worker.pid
        assert zygotes == {str(parent_of(worker))}
        compiled.close()
        assert gone(worker)  # its zygote has reaped it
        assert live_children() - before == zygotes  # the defined function still holds the zygote
        del compiled, defined
        assert live_children() - before == set()

    def test_askit_close_ends_the_zygotes_and_a_later_run_starts_them(self, tmp_path):
        before = live_children()
        defined = define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT},
                         tests=[{"input": {"x": 1, "y": 2}, "output": 3}], name="add",
                         client=ScriptedClient([code_response(ADD_PY)]))
        with defined.compile(CodegenConfig(cache_dir=tmp_path)) as compiled:
            assert compiled.call_isolated(x=2, y=3) == 5
            assert len(live_children() - before) == 1  # the zygote
            askit.close()
            assert live_children() - before == set()
            assert compiled.call_isolated(x=4, y=3) == 7
            assert len(live_children() - before) == 1  # the zygote, started again
        askit.close()
        assert live_children() - before == set()

    def test_no_test_examples_start_no_harness(self, tmp_path, monkeypatch):
        monkeypatch.setattr(subprocess, "Popen", refuse)
        client = ScriptedClient(["def  broken(((", code_response(ADD_PY)])
        generated = generate(client, add_spec(tests=()), CodegenConfig(cache_dir=tmp_path))
        assert generated.retries_used == 1

    def test_test_examples_share_one_fork_server(self, tmp_path, monkeypatch):
        before = live_children()
        servers, real_run_once = [], codegen_mod.run_once

        def spy(*args, **kwargs):
            servers.append(id(runner.fork_server()))  # an id: holding the server would keep it alive
            return real_run_once(*args, **kwargs)

        monkeypatch.setattr(codegen_mod, "run_once", spy)
        starts = count_starts(monkeypatch)
        spec = replace(fib_spec(), tests=fib_spec().tests + (Example({"n": 1}, [0, 1, 1]),))
        client = ScriptedClient([code_response(FIB_WRONG), code_response(FIB_RIGHT)])
        generate(client, spec, CodegenConfig(cache_dir=tmp_path))
        assert len(servers) == 2  # one run per candidate, whatever its number of test examples
        assert len(set(servers)) == 1
        assert starts == [["--fork-server"]]
        assert live_children() - before == set()

    def test_an_unheld_generate_starts_one_zygote(self, tmp_path, monkeypatch):
        gc.collect()  # nothing from earlier tests may hold the shared server
        runner.close()
        starts = count_starts(monkeypatch)
        client = ScriptedClient([code_response(FIB_WRONG), code_response(FIB_RIGHT)])
        assert generate(client, fib_spec(), CodegenConfig(cache_dir=tmp_path)).retries_used == 1
        assert starts == [["--fork-server"]]


def _add_defined(client):
    return define(INT, "add {{x}} and {{y}}", param_schemas={"x": INT, "y": INT},
                  tests=[{"input": {"x": 1, "y": 2}, "output": 3}], name="add", client=client)


def _next_compile_is_sound(config):
    """The cache rule after a fault: the next compile serves a complete entry
    whose source passes its tests, or generates again. Returns what it compiled."""
    client = ScriptedClient([code_response(ADD_PY)])
    defined = _add_defined(client)
    with defined.compile(config) as compiled:
        generated = compiled.generated
    if generated.from_cache:
        assert client.call_count == 0
        assert codegen_mod._run_test_examples(generated.source, defined.spec, config) is None, generated.source
    else:
        assert client.call_count == 1 and generated.source == ADD_PY + "\n"
        assert cache_lookup(defined.spec, config) == replace(generated, from_cache=True)
    return generated


# Damage that leaves a code file that still decodes, which lookup serves as it
# is: a sidecar digest of the source (ROADMAP item 2) is what would catch it.
SERVED_DAMAGE = pytest.mark.xfail(strict=True, raises=AssertionError, reason="a damaged source that decodes is served (FOUND in CHANGES.md)")


class TestCacheFaults:
    """Faults in a cache entry: a crash inside cache_store, damaged files,
    and one key compiled from two processes at once. After each, the next
    compile serves a complete entry whose source passes its tests, or
    generates again."""

    @pytest.mark.parametrize("step", ["sidecar", "tmp", "replace"])
    def test_a_crash_in_cache_store(self, tmp_path, step):
        config = CodegenConfig(cache_dir=tmp_path)
        code_path, meta_path = cache_paths(add_spec(), config)
        pid = os.fork()
        if pid == 0:
            try:  # the child ends at the step as a crash would: os._exit runs no cleanup
                write, move = codegen_mod._atomic_write, Path.replace

                def atomic_write(path, content):
                    write(path, content)
                    if (step, path) in (("sidecar", meta_path), ("replace", code_path)):
                        os._exit(0)

                def replace_file(self, target):
                    if (step, target) == ("tmp", code_path):
                        os._exit(0)
                    return move(self, target)

                codegen_mod._atomic_write, Path.replace = atomic_write, replace_file
                cache_store(add_spec(), ADD_PY + "\n", config, retries_used=1)
            finally:
                os._exit(1)  # the step was never reached
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        left = {"sidecar": [meta_path.name], "tmp": [code_path.name + ".tmp", meta_path.name],
                "replace": [code_path.name, meta_path.name]}[step]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(left)
        assert _next_compile_is_sound(config).from_cache == (step == "replace")

    @pytest.mark.parametrize(
        "target, damage, seed",
        [
            ("code", "empty", 0),
            *[pytest.param("code", damage, seed, marks=SERVED_DAMAGE) for damage in ("truncate", "flip") for seed in range(3)],
            *[("sidecar", damage, seed) for damage, seeds in (("empty", [0]), ("truncate", range(3)), ("flip", range(3))) for seed in seeds],
        ],
    )
    def test_a_damaged_file(self, tmp_path, target, damage, seed):
        config = CodegenConfig(cache_dir=tmp_path)
        cache_store(add_spec(), ADD_PY + "\n", config, retries_used=1)
        path = cache_paths(add_spec(), config)[target == "sidecar"]
        rng, data = random.Random(seed), bytearray(path.read_bytes())
        if damage == "empty":
            data.clear()
        elif damage == "truncate":
            del data[rng.randrange(1, len(data)):]
        else:
            for position in rng.sample(range(len(data)), 2):
                data[position] ^= 1 << rng.randrange(8)
        path.write_bytes(data)
        _next_compile_is_sound(config)

    def test_one_key_compiled_from_two_processes_at_once(self, tmp_path, monkeypatch):
        temp, config = tmp_path / "temp", CodegenConfig(cache_dir=tmp_path / "cache")
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        go_read, go_write = os.pipe()
        pids = []
        for index in range(2):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(go_write)
                    os.read(go_read, 1)  # both go on at once
                    client = ScriptedClient([code_response(ADD_PY)])
                    with _add_defined(client).compile(config) as compiled:
                        generated = compiled.generated
                        report = [client.call_count, generated.from_cache, generated.source, compiled(x=2, y=3)]
                    askit.close()
                    (tmp_path / f"report{index}.json").write_text(json.dumps(report))
                    status = 0
                except Exception:  # noqa: BLE001 - shown in the test's captured stderr
                    traceback.print_exc()
                finally:
                    os._exit(status)
            pids.append(pid)
        os.close(go_read)
        os.write(go_write, b"go")
        os.close(go_write)
        assert [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids] == [0, 0]
        reports = sorted(json.loads((tmp_path / f"report{index}.json").read_text()) for index in range(2))
        assert reports == [[0, True, ADD_PY + "\n", 5], [1, False, ADD_PY + "\n", 5]]  # generated once
        assert os.listdir(temp) == []
        _next_compile_is_sound(config)


def _fork_that_exits_normally():
    """Fork a copy of this process that runs what a normal exit runs (the
    atexit hooks, weakref.finalize's among them) and leaves."""
    pid = os.fork()
    if pid == 0:
        try:
            atexit._run_exitfuncs()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)


class TestForkSafeScratch:
    """A copy forked (by another thread, say) while a scratch directory is in
    use must not remove it when it exits: only the process that made it does.
    A run's directory is made by the zygote, inside the zygote's own."""

    def test_fork_server_run(self, tmp_path, monkeypatch):
        survived, real = [], runner.ForkServer._exchange

        def exchange(self, request, fds, timeout):
            _fork_that_exits_normally()
            survived.append(("scratch" in json.loads(request), os.path.isdir(os.path.dirname(self._proc.args[4]))))
            return real(self, request, fds, timeout)

        monkeypatch.setattr(runner.ForkServer, "_exchange", exchange)
        with runner.ForkServer() as server:
            assert server.run(*source_of(write_add(tmp_path)), "add", {"x": 1, "y": 2}) == 3
        assert survived == [(False, True)]

    def test_vetting_run(self, tmp_path, monkeypatch):
        survived, real = [], runner.ForkServer._exchange

        def exchange(self, request, fds, timeout):
            _fork_that_exits_normally()
            sent = json.loads(request)  # the candidate goes inline: no file is written
            survived.append((sent["source"], sent["text"], os.path.isdir(os.path.dirname(self._proc.args[4]))))
            return real(self, request, fds, timeout)

        monkeypatch.setattr(runner.ForkServer, "_exchange", exchange)
        assert codegen_mod._run_test_examples(ADD_PY + "\n", add_spec(), CodegenConfig(cache_dir=tmp_path)) is None
        assert survived == [("candidate.py", ADD_PY + "\n", True)]

    def test_tsc_check(self, tmp_path, monkeypatch):
        def tsc(argv, **kwargs):
            _fork_that_exits_normally()
            found = os.path.isfile(argv[-1])
            return subprocess.CompletedProcess(argv, 0 if found else 1, b"", b"" if found else b"candidate gone")

        monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/tsc")
        monkeypatch.setattr(codegen_mod.subprocess, "run", tsc)
        assert syntax_check("const x: number = 1;", "typescript") is None


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

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_invoke_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="^invoke_timeout must be positive$"):
            CodegenConfig(invoke_timeout=timeout)

    def test_allowlist(self):
        assert CodegenConfig().allows("anything")
        config = CodegenConfig(codable_allowlist={"add", "math_*"})
        assert config.allows("add")
        assert config.allows("math_sum")
        assert not config.allows("subtract")


def square_spec():
    return TaskSpec(
        name="square",
        template=parse("square {{n}}"),
        return_schema=INT,
        param_schemas=(("n", INT),),
        tests=(Example({"n": 1}, 1), Example({"n": 2}, 4), Example({"n": 3}, 9)),
        target_language="python",
    )


def _per_example_loop(source, spec, config):
    """The vetting loop from before one child per candidate: one run, and so
    one forked child, per test example, each sent as a list of one."""
    with scratch_dir("askit-vet-") as scratch:
        path = os.path.join(scratch, "candidate.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        for example in spec.tests:
            shown = canonical_json(dict(example.input))
            (actual,) = run_once(path, source, spec.name, [example.input], timeout=config.invoke_timeout)
            if isinstance(actual, AskitError):
                return Violation(ViolationKind.TEST_FAILURE, f"input {shown} raised: {actual}")
            if not output_equal(example.output, actual):
                return Violation(
                    ViolationKind.TEST_FAILURE,
                    f"input {shown}: expected {canonical_json(example.output)},"
                    f" got {canonical_json(actual)}",
                )
    return None


def _square_candidate(body_for_n, preamble=""):
    """A square(n) candidate: right, except where body_for_n names n."""
    cases = "".join(f"    if n == {n}:\n        {line}\n" for n, line in sorted(body_for_n.items()))
    return f"{preamble}import os, sys, time\ndef square(*, n):\n{cases}    return n * n\n"


FEEDBACK_CANDIDATES = {
    "wrong_value_at_1": _square_candidate({1: "return 2"}),
    "wrong_value_at_3": _square_candidate({3: "return -9"}),
    "raise_at_2": _square_candidate({2: "raise ValueError('two is bad')"}),
    "load_error": "import askit_no_such_module\ndef square(*, n):\n    return n * n\n",
    "sandbox_write": _square_candidate({1: "open('../escape.txt', 'w').write('out'); return 1"}),
    "timeout_at_2": _square_candidate({2: "time.sleep(30)"}),
    "exit_at_2": _square_candidate({2: "os._exit(3)"}),
    "unserializable_at_1": _square_candidate({1: "return {1}"}),
    "stderr_at_1_then_raise_at_2": _square_candidate({
        1: "print('noise from example 1', file=sys.stderr); return 1",
        2: "print('noise from example 2', file=sys.stderr); raise ValueError('two is bad')",
    }),
}


class TestOneChildPerCandidate:
    """Each candidate's test examples run in one forked child, in order, each
    in a fresh module namespace; the feedback is what one child per example gave."""

    @pytest.mark.parametrize("name", sorted(FEEDBACK_CANDIDATES))
    def test_feedback_matches_one_child_per_example(self, tmp_path, name):
        config = CodegenConfig(cache_dir=tmp_path, invoke_timeout=0.5)
        source, spec = FEEDBACK_CANDIDATES[name], square_spec()
        expected = _per_example_loop(source, spec, config)
        violation = codegen_mod._run_test_examples(source, spec, config)
        assert violation is not None and expected is not None
        assert (violation.kind, violation.detail) == (expected.kind, expected.detail)
        assert not (tmp_path.parent / "escape.txt").exists()

    def test_an_error_carries_only_its_own_examples_stderr(self, tmp_path):
        violation = codegen_mod._run_test_examples(
            FEEDBACK_CANDIDATES["stderr_at_1_then_raise_at_2"], square_spec(), CodegenConfig(cache_dir=tmp_path))
        assert violation.detail.startswith('input {"n":2} raised: ValueError: two is bad')
        assert "noise from example 2" in violation.detail and "noise from example 1" not in violation.detail

    @pytest.mark.parametrize(
        "body, detail",
        [
            ("print('bye', file=sys.stderr); os._exit(3)", 'input {"n":2} raised: harness exited with status 3\nbye'),
            ("time.sleep(30)", 'input {"n":2} raised: square exceeded 0.5s'),
            ("print('mine', file=sys.stderr); raise ValueError('two is bad')",
             'input {"n":2} raised: ValueError: two is bad\nmine'),
        ],
        ids=["exit", "timeout", "raise"],
    )
    def test_feedback_texts_are_byte_exact(self, tmp_path, body, detail):
        source = _square_candidate({1: "print('not mine', file=sys.stderr); return 1", 2: body})
        violation = codegen_mod._run_test_examples(source, square_spec(), CodegenConfig(cache_dir=tmp_path, invoke_timeout=0.5))
        assert violation.detail == detail

    def test_a_passing_candidate_is_one_run(self, tmp_path, monkeypatch):
        runs, real = [], codegen_mod.run_once
        monkeypatch.setattr(codegen_mod, "run_once", lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
        config = CodegenConfig(cache_dir=tmp_path)
        assert codegen_mod._run_test_examples(_square_candidate({}), square_spec(), config) is None
        assert [args[3] for args in runs] == [[{"n": 1}, {"n": 2}, {"n": 3}]]

    def test_only_the_failing_example_input_is_rendered(self, tmp_path, monkeypatch):
        rendered, real = [], codegen_mod.canonical_json
        monkeypatch.setattr(codegen_mod, "canonical_json", lambda value: rendered.append(value) or real(value))
        config = CodegenConfig(cache_dir=tmp_path)
        assert codegen_mod._run_test_examples(_square_candidate({}), square_spec(), config) is None
        assert rendered == []
        violation = codegen_mod._run_test_examples(FEEDBACK_CANDIDATES["wrong_value_at_3"], square_spec(), config)
        assert violation.detail == 'input {"n":3}: expected 9, got -9'
        assert {"n": 1} not in rendered and {"n": 2} not in rendered

    def test_a_later_example_still_runs_after_a_wrong_value(self, tmp_path, monkeypatch):
        seen, real = [], codegen_mod.run_once
        monkeypatch.setattr(codegen_mod, "run_once", lambda *args, **kw: seen.append(real(*args, **kw)) or seen[-1])
        config = CodegenConfig(cache_dir=tmp_path)
        violation = codegen_mod._run_test_examples(_square_candidate({1: "return 2"}), square_spec(), config)
        assert violation.detail == 'input {"n":1}: expected 1, got 2'
        assert seen == [[2, 4, 9]]  # all three ran; the first wrong value is the feedback

    def test_module_state_is_fresh_for_each_example(self, tmp_path):
        source = (
            "CALLS = 0\n"
            "def square(*, n):\n"
            "    global CALLS\n"
            "    CALLS += 1\n"
            "    return n * n * CALLS\n"
        )
        assert codegen_mod._run_test_examples(source, square_spec(), CodegenConfig(cache_dir=tmp_path)) is None

    def test_process_state_carries_from_one_example_to_the_next(self, tmp_path):
        source = _square_candidate({
            1: "open('state.txt', 'w').write('1'); return 1",
            2: "return 4 if os.path.exists('state.txt') else -1",
        })
        config = CodegenConfig(cache_dir=tmp_path)
        assert codegen_mod._run_test_examples(source, square_spec(), config) is None
        # One child per example saw no file: the contract changed here.
        assert _per_example_loop(source, square_spec(), config).detail == 'input {"n":2}: expected 4, got -1'

    def test_no_child_is_left_when_generate_returns_or_raises(self, tmp_path):
        gc.collect()  # a server that garbage of earlier tests still holds would serve this one
        before = live_children()
        raising = code_response(FEEDBACK_CANDIDATES["raise_at_2"])
        gc.disable()  # a reference cycle would keep the zygote until a collection
        try:
            client = ScriptedClient([raising, code_response(_square_candidate({}))])
            assert generate(client, square_spec(), CodegenConfig(cache_dir=tmp_path / "a")).retries_used == 1
            assert live_children() - before == set()
            config = CodegenConfig(cache_dir=tmp_path / "b", max_retries=1)
            with pytest.raises(GenerationFailed):
                generate(ScriptedClient([raising] * 2), square_spec(), config)
            assert live_children() - before == set()
        finally:
            gc.enable()
