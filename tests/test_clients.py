import _socket
import http.server
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from askit.clients import (
    ClientConfig,
    LiveClient,
    RecordingClient,
    ReplayClient,
    ScriptedClient,
    _TransientTransportFailure,
    _urllib_transport,
    fixture_key,
)
from askit.codegen import CodegenConfig
from askit.engine import Message, ask_until_valid
from askit.errors import (
    ClientError,
    FixtureMiss,
    HttpError,
    RequestTimeout,
    ResponseTooLarge,
    ScriptExhausted,
)
from askit.template import parse
from askit.types import INT
from conftest import DEMO_FIXTURES, REPO

MESSAGES = [Message("user", "hello")]


def envelope(answer):
    return "```json\n" + json.dumps({"reason": "", "answer": answer}) + "\n```"


class TestScriptedClient:
    def test_pops_in_order(self):
        client = ScriptedClient(["a", "b"])
        assert client.complete(MESSAGES, temperature=1.0) == "a"
        assert client.complete(MESSAGES, temperature=1.0) == "b"

    def test_exhaustion(self):
        client = ScriptedClient(["a"])
        client.complete(MESSAGES, temperature=1.0)
        with pytest.raises(ScriptExhausted):
            client.complete(MESSAGES, temperature=1.0)

    def test_call_count(self):
        client = ScriptedClient(["a", "b"])
        client.complete(MESSAGES, temperature=1.0)
        client.complete(MESSAGES, temperature=1.0)
        assert client.call_count == 2


class TestFixtureKey:
    def test_deterministic(self):
        assert fixture_key("m", 1.0, MESSAGES) == fixture_key("m", 1.0, MESSAGES)

    def test_temperature_bucketed_at_one_decimal(self):
        assert fixture_key("m", 1.0, MESSAGES) == fixture_key("m", 1.04, MESSAGES)
        assert fixture_key("m", 1.0, MESSAGES) != fixture_key("m", 1.2, MESSAGES)

    def test_sensitive_to_model_and_content(self):
        assert fixture_key("m1", 1.0, MESSAGES) != fixture_key("m2", 1.0, MESSAGES)
        assert fixture_key("m", 1.0, MESSAGES) != fixture_key("m", 1.0, [Message("user", "other")])


class TestRecordReplay:
    def test_round_trip_byte_exact(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        recorder = RecordingClient(ScriptedClient(["resp-1"], model_id="m"), store)
        recorder.complete(MESSAGES, temperature=1.0)
        replay = ReplayClient(store, model_id="m")
        assert replay.complete(MESSAGES, temperature=1.0) == "resp-1"

    def test_identical_requests_replay_in_order(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        recorder = RecordingClient(ScriptedClient(["first", "second"], model_id="m"), store)
        recorder.complete(MESSAGES, temperature=1.0)
        recorder.complete(MESSAGES, temperature=1.0)
        replay = ReplayClient(store, model_id="m")
        assert replay.complete(MESSAGES, temperature=1.0) == "first"
        assert replay.complete(MESSAGES, temperature=1.0) == "second"
        with pytest.raises(FixtureMiss):
            replay.complete(MESSAGES, temperature=1.0)

    def test_cycle_mode_wraps(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        RecordingClient(ScriptedClient(["only"], model_id="m"), store).complete(MESSAGES, temperature=1.0)
        replay = ReplayClient(store, model_id="m", cycle=True)
        assert [replay.complete(MESSAGES, temperature=1.0) for _ in range(3)] == ["only"] * 3

    def test_miss_names_the_digest(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        store.write_text("")
        replay = ReplayClient(store, model_id="m")
        with pytest.raises(FixtureMiss) as err:
            replay.complete(MESSAGES, temperature=1.0)
        assert err.value.key == fixture_key("m", 1.0, MESSAGES)
        assert err.value.key in str(err.value)

    def test_record_stores_full_request(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        RecordingClient(ScriptedClient(["resp"], model_id="m"), store).complete(MESSAGES, temperature=0.5)
        record = json.loads(store.read_text().splitlines()[0])
        assert set(record) == {"key", "request", "response"}
        assert record["request"]["model"] == "m"
        assert record["request"]["temperature"] == 0.5
        assert record["request"]["messages"] == [{"role": "user", "content": "hello"}]

    def test_record_line_is_pinned(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        RecordingClient(ScriptedClient(["resp"], model_id="m"), store).complete(MESSAGES, temperature=0.5)
        assert store.read_text(encoding="utf-8") == (
            '{"key": "1e659ae162e5def0", "request": {"model": "m", "temperature": 0.5,'
            ' "messages": [{"role": "user", "content": "hello"}]}, "response": "resp"}\n'
        )

    def test_demo_fixture_script_rebuilds_the_committed_store(self, tmp_path):
        store = tmp_path / "demo.jsonl"
        subprocess.run(
            [sys.executable, str(REPO / "scripts" / "make_demo_fixtures.py"), str(store)],
            check=True, capture_output=True, timeout=120,
        )
        assert store.read_bytes() == DEMO_FIXTURES.read_bytes()

    def test_delay_simulates_latency(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        RecordingClient(ScriptedClient(["resp"], model_id="m"), store).complete(MESSAGES, temperature=1.0)
        replay = ReplayClient(store, model_id="m", delay_s=0.05)
        started = time.perf_counter()
        replay.complete(MESSAGES, temperature=1.0)
        assert time.perf_counter() - started >= 0.05

    def test_recorder_output_reproduces_engine_run(self, tmp_path):
        store = tmp_path / "fx.jsonl"
        template = parse("What is {{a}} plus {{b}}?")
        args = {"a": 1, "b": 2}
        scripted = ScriptedClient(["thinking out loud", envelope(3)], model_id="m")
        recorded = ask_until_valid(
            RecordingClient(scripted, store), template, args, INT, config=CodegenConfig()
        )
        replayed = ask_until_valid(
            ReplayClient(store, model_id="m"), template, args, INT, config=CodegenConfig()
        )
        assert replayed.value == recorded.value == 3
        assert replayed.attempts == recorded.attempts == 2


class TestLiveClient:
    def config(self, **overrides):
        defaults = dict(model_id="m", api_key="k", base_url="https://example.test/v1")
        defaults.update(overrides)
        return ClientConfig(**defaults)

    def completion_body(self, text):
        return json.dumps({"choices": [{"message": {"content": text}}]}).encode()

    def test_success_parses_first_choice(self):
        seen = {}

        def transport(url, data, headers, timeout, max_bytes):
            seen["url"] = url
            seen["payload"] = json.loads(data)
            seen["auth"] = headers.get("Authorization")
            return 200, {}, self.completion_body("hi there")

        client = LiveClient(self.config(), transport=transport)
        assert client.complete(MESSAGES, temperature=0.2) == "hi there"
        assert seen["url"] == "https://example.test/v1/chat/completions"
        assert seen["payload"]["model"] == "m"
        assert seen["payload"]["temperature"] == 0.2
        assert seen["payload"]["n"] == 1
        assert seen["auth"] == "Bearer k"

    def test_http_error_carries_status_and_excerpt(self):
        client = LiveClient(self.config(), transport=lambda *a: (500, {}, b"server exploded"))
        with pytest.raises(HttpError) as err:
            client.complete(MESSAGES, temperature=1.0)
        assert err.value.status == 500
        assert "server exploded" in err.value.body_excerpt

    def test_rate_limit_retries_once(self):
        calls = []

        def transport(url, data, headers, timeout, max_bytes):
            calls.append(1)
            if len(calls) == 1:
                return 429, {"Retry-After": "0"}, b"slow down"
            return 200, {}, self.completion_body("ok")

        client = LiveClient(self.config(), transport=transport)
        assert client.complete(MESSAGES, temperature=1.0) == "ok"
        assert len(calls) == 2

    def test_transient_failure_retries_once_then_surfaces(self):
        calls = []

        def transport(url, data, headers, timeout, max_bytes):
            calls.append(1)
            raise _TransientTransportFailure("connection refused")

        client = LiveClient(self.config(), transport=transport)
        with pytest.raises(RequestTimeout):
            client.complete(MESSAGES, temperature=1.0)
        assert len(calls) == 2

    def test_response_too_large(self):
        client = LiveClient(
            self.config(max_response_bytes=4),
            transport=lambda *a: (200, {}, self.completion_body("x")),
        )
        with pytest.raises(ResponseTooLarge):
            client.complete(MESSAGES, temperature=1.0)

    def test_malformed_completion(self):
        client = LiveClient(self.config(), transport=lambda *a: (200, {}, b'{"weird": true}'))
        with pytest.raises(ClientError):
            client.complete(MESSAGES, temperature=1.0)

    def test_empty_dialogue_rejected(self):
        client = LiveClient(self.config(), transport=lambda *a: (200, {}, b"{}"))
        with pytest.raises(ValueError):
            client.complete([], temperature=1.0)


REAL_CREATE_CONNECTION = socket.create_connection  # taken before the suite's network guard


class _Handler(http.server.BaseHTTPRequestHandler):
    """Answers a POST to /ok with 200 and to /fail with 500, echoing the body."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status = 200 if self.path == "/ok" else 500
        self.send_response(status)
        self.send_header("X-Echo-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(b"echo:" + body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """Connections to 127.0.0.1 allowed again, and a server there; yields its base URL."""

    def connect(sock, address):
        assert address[0] == "127.0.0.1", address
        return _socket.socket.connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", connect)
    monkeypatch.setattr(socket, "create_connection", REAL_CREATE_CONNECTION)
    monkeypatch.setenv("no_proxy", "*")
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class TestUrllibTransport:
    def test_a_200_returns_status_headers_and_body(self, loopback):
        status, headers, body = _urllib_transport(f"{loopback}/ok", b"hello", {"Content-Type": "text/plain"}, 10.0, 1024)
        assert (status, headers["X-Echo-Length"], body) == (200, "5", b"echo:hello")

    def test_a_500_returns_its_status_and_body(self, loopback):
        status, headers, body = _urllib_transport(f"{loopback}/fail", b"oops", {}, 10.0, 1024)
        assert (status, headers["X-Echo-Length"], body) == (500, "4", b"echo:oops")

    def test_the_body_is_read_to_one_byte_over_the_cap(self, loopback):
        assert _urllib_transport(f"{loopback}/ok", b"x" * 100, {}, 10.0, 9)[2] == b"echo:xxxxx"

    def test_a_refused_port_is_a_transient_failure(self, loopback):
        with socket.socket() as bound:  # bound and not listening: a connection is refused
            bound.bind(("127.0.0.1", 0))
            with pytest.raises(_TransientTransportFailure, match="refused"):
                _urllib_transport(f"http://127.0.0.1:{bound.getsockname()[1]}/ok", b"", {}, 10.0, 1024)


def test_import_askit_loads_no_http_stack_and_no_openssl():
    """The HTTP stack and OpenSSL's hashlib cost about 3 MB of RSS each; only a live request loads the first."""
    code = (
        "import sys, askit\n"
        "print([name for name in ('http.client', 'urllib.request', 'ssl', 'email', '_hashlib') if name in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestClientConfig:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("ASKIT_MODEL", "model-from-env")
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        config = ClientConfig.from_env()
        assert config.model_id == "model-from-env"
        assert config.api_key == "sk-test"

    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("ASKIT_MODEL", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        config = ClientConfig.from_env()
        assert config.model_id == "gpt-3.5-turbo-16k"
        assert config.api_key == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(timeout=0)


def test_network_guard_blocks_sockets():
    with pytest.raises(RuntimeError):
        socket.create_connection(("127.0.0.1", 9))
    with pytest.raises(RuntimeError):
        socket.socket().connect(("127.0.0.1", 9))
