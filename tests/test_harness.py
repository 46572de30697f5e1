"""Execution harness: wire protocol, isolation, the worker loop and the fork server."""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from askit import harness, runner
from askit.errors import ExecutionError, ExecutionTimeout, ProtocolError
from askit.runner import HARNESS_PATH, Worker, _decode_response, run_once
from askit.runner import ForkServer

ADD_SOURCE = "def add(*, x, y):\n    return x + y\n"


def write_source(tmp_path, source, name="gen.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestWireProtocol:
    def test_request_and_response_documents_are_bit_exact(self, tmp_path):
        """Pins the harness protocol: one JSON document each way."""
        source = write_source(tmp_path, ADD_SOURCE)
        request = b'{"entry": "add", "args": {"x": 2, "y": 3}}'
        proc = subprocess.run(
            [sys.executable, "-I", "-B", str(HARNESS_PATH), str(source)],
            input=request,
            capture_output=True,
            cwd=tmp_path,
            timeout=30,
        )
        assert proc.returncode == 0
        assert proc.stdout == b'{"ok": true, "result": 5}\n'

    def test_error_document_shape(self, tmp_path):
        source = write_source(tmp_path, "def boom():\n    raise ValueError('nope')\n")
        request = b'{"entry": "boom", "args": {}}'
        proc = subprocess.run(
            [sys.executable, "-I", "-B", str(HARNESS_PATH), str(source)],
            input=request,
            capture_output=True,
            cwd=tmp_path,
            timeout=30,
        )
        document = json.loads(proc.stdout)
        assert document["ok"] is False
        assert "ValueError: nope" in document["error"]

    def test_stray_prints_do_not_corrupt_protocol(self, tmp_path):
        source = write_source(
            tmp_path,
            "print('module noise')\n"
            "def f(*, x):\n"
            "    print('call noise')\n"
            "    import sys\n"
            "    sys.stdout.write('more noise\\n')\n"
            "    return x\n",
        )
        assert run_once(source, "f", {"x": 7}) == 7


class TestRunOnce:
    def test_add(self, tmp_path):
        assert run_once(write_source(tmp_path, ADD_SOURCE), "add", {"x": 2, "y": 3}) == 5

    def test_factorial(self, tmp_path):
        source = (
            "def calculateFactorial(*, n):\n"
            "    result = 1\n"
            "    for i in range(2, n + 1):\n"
            "        result *= i\n"
            "    return result\n"
        )
        assert run_once(write_source(tmp_path, source), "calculateFactorial", {"n": 5}) == 120

    def test_raising_function(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    raise RuntimeError('bad')\n")
        with pytest.raises(ExecutionError, match="bad"):
            run_once(source, "f", {})

    def test_missing_entry(self, tmp_path):
        with pytest.raises(ExecutionError, match="no function"):
            run_once(write_source(tmp_path, ADD_SOURCE), "nope", {})

    def test_module_load_failure(self, tmp_path):
        source = write_source(tmp_path, "raise ImportError('cannot even load')\n")
        with pytest.raises(ExecutionError, match="failed to load"):
            run_once(source, "f", {})

    def test_unserializable_result(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    return {1, 2}\n")
        with pytest.raises(ExecutionError, match="JSON-serializable"):
            run_once(source, "f", {})

    def test_timeout(self, tmp_path):
        source = write_source(tmp_path, "import time\ndef f():\n    time.sleep(30)\n")
        started = time.perf_counter()
        with pytest.raises(ExecutionTimeout):
            run_once(source, "f", {}, timeout=0.8)
        assert time.perf_counter() - started < 10

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            _decode_response("this is not json")

    def test_decode_rejects_non_document(self):
        with pytest.raises(ProtocolError):
            _decode_response('{"no_ok_field": 1}')


class TestSandbox:
    def test_write_outside_scratch_fails_the_run(self, tmp_path):
        victim = tmp_path / "owned.txt"
        source = write_source(
            tmp_path,
            f"def f():\n    open({str(victim)!r}, 'w').write('gotcha')\n    return 1\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(source, "f", {})
        assert not victim.exists()

    def test_write_inside_scratch_is_allowed(self, tmp_path):
        source = write_source(
            tmp_path,
            "def f():\n"
            "    with open('notes.txt', 'w') as handle:\n"
            "        handle.write('fine')\n"
            "    return open('notes.txt').read()\n",
        )
        assert run_once(source, "f", {}) == "fine"

    def test_reads_outside_scratch_are_allowed(self, tmp_path):
        probe = tmp_path / "readable.txt"
        probe.write_text("data", encoding="utf-8")
        source = write_source(
            tmp_path, f"def f():\n    return open({str(probe)!r}).read()\n"
        )
        assert run_once(source, "f", {}) == "data"

    def test_socket_use_denied(self, tmp_path):
        source = write_source(
            tmp_path,
            "import socket\n"
            "def f():\n"
            "    socket.create_connection(('127.0.0.1', 9), timeout=1)\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(source, "f", {})

    def test_subprocess_denied(self, tmp_path):
        source = write_source(
            tmp_path,
            "import subprocess\n"
            "def f():\n"
            "    subprocess.run(['ls'])\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(source, "f", {})

    def test_delete_outside_scratch_denied(self, tmp_path):
        victim = tmp_path / "precious.txt"
        victim.write_text("keep me", encoding="utf-8")
        source = write_source(
            tmp_path,
            f"import os\ndef f():\n    os.remove({str(victim)!r})\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(source, "f", {})
        assert victim.exists()

    # Signal 0 and /bin/true keep each probe harmless should the hook miss it.
    @pytest.mark.parametrize(
        "call",
        [
            "os.kill(os.getppid(), 0)",
            "os.killpg(os.getpgid(0), 0)",
            "signal.pthread_kill(threading.get_ident(), 0)",
            "os.execv('/bin/true', ['true'])",
        ],
    )
    def test_signals_and_exec_denied(self, tmp_path, call):
        source = write_source(
            tmp_path,
            f"import os, signal, threading\ndef f():\n    {call}\n    return 1\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(source, "f", {})


class TestWorker:
    def test_serves_many_calls(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        with Worker(source) as worker:
            assert [worker.call("add", {"x": i, "y": 1}) for i in range(5)] == [1, 2, 3, 4, 5]

    def test_module_state_persists_across_calls(self, tmp_path):
        source = write_source(
            tmp_path,
            "calls = []\n"
            "def f():\n"
            "    calls.append(1)\n"
            "    return len(calls)\n",
        )
        with Worker(source) as worker:
            assert worker.call("f", {}) == 1
            assert worker.call("f", {}) == 2

    def test_function_error_keeps_worker_alive(self, tmp_path):
        source = write_source(
            tmp_path,
            "def f(*, n):\n"
            "    if n < 0:\n"
            "        raise ValueError('negative')\n"
            "    return n\n",
        )
        with Worker(source) as worker:
            with pytest.raises(ExecutionError, match="negative"):
                worker.call("f", {"n": -1})
            assert worker.call("f", {"n": 4}) == 4

    def test_call_timeout_kills_worker(self, tmp_path):
        source = write_source(tmp_path, "import time\ndef f():\n    time.sleep(30)\n")
        with Worker(source, call_timeout=0.5) as worker:
            with pytest.raises(ExecutionTimeout):
                worker.call("f", {})
            assert not worker.alive

    def test_relative_source_path(self, tmp_path, monkeypatch):
        write_source(tmp_path, ADD_SOURCE)
        monkeypatch.chdir(tmp_path)
        with Worker("gen.py") as worker:
            assert worker.call("add", {"x": 1, "y": 2}) == 3
        assert run_once("gen.py", "add", {"x": 1, "y": 2}) == 3

    def test_close_reaps_process(self, tmp_path):
        worker = Worker(write_source(tmp_path, ADD_SOURCE))
        assert worker.call("add", {"x": 1, "y": 1}) == 2
        worker.close()
        assert not worker.alive


COUNTER_SOURCE = "calls = []\ndef f():\n    calls.append(1)\n    return len(calls)\n"


class TestForkServer:
    def test_each_run_sees_fresh_module_state(self, tmp_path):
        source = write_source(tmp_path, COUNTER_SOURCE)
        with ForkServer() as server:
            assert server.run(source, "f", {}) == 1
            assert server.run(source, "f", {}) == 1

    def test_concurrent_runs_on_one_server_get_their_own_answers(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        results, errors = {}, []

        def work(caller):
            try:
                for i in range(5):
                    results[caller, i] = server.run(source, "add", {"x": caller, "y": i})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with ForkServer() as server:
            threads = [threading.Thread(target=work, args=(caller,)) for caller in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == {(caller, i): caller + i for caller in range(4) for i in range(5)}

    def test_run_scratch_is_cwd_tmpdir_and_home(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = write_source(
            tmp_path,
            "import os\ndef f():\n    return [os.getcwd(), os.environ['TMPDIR'], os.environ['HOME']]\n",
        )
        with ForkServer() as server:
            cwd, tmpdir, home = server.run(source, "f", {})
        assert cwd == tmpdir == home
        assert os.path.dirname(cwd) == os.path.realpath(tmp_path)
        assert os.path.basename(cwd).startswith("askit-run-")
        assert not os.path.exists(cwd)

    @pytest.mark.parametrize(
        "body, error, match",
        [
            ("import os\ndef f():\n    os._exit(3)\n", ExecutionError, "status 3"),
            ("import time\ndef f():\n    time.sleep(30)\n", ExecutionTimeout, "exceeded"),
            ("def f():\n    open('../outside.txt', 'w')\n", ExecutionError, "sandbox"),
        ],
        ids=["exit", "timeout", "sandbox"],
    )
    def test_next_run_succeeds_after_a_failed_child(self, tmp_path, body, error, match):
        failing = write_source(tmp_path, body, name="failing.py")
        good = write_source(tmp_path, ADD_SOURCE)
        with ForkServer() as server:
            assert server.run(good, "add", {"x": 1, "y": 1}) == 2
            zygote = server._proc.pid
            with pytest.raises(error, match=match):
                server.run(failing, "f", {}, timeout=0.5)
            assert server.run(good, "add", {"x": 2, "y": 3}) == 5
            assert server._proc.pid == zygote

    def test_zygote_death_fails_the_run_instead_of_hanging(self, tmp_path):
        slow = write_source(tmp_path, "import time\ndef f():\n    time.sleep(2)\n", name="slow.py")
        good = write_source(tmp_path, ADD_SOURCE)
        with ForkServer() as server:
            assert server.run(good, "add", {"x": 1, "y": 1}) == 2
            killer = threading.Timer(0.3, server._proc.kill)
            killer.start()
            started = time.perf_counter()
            with pytest.raises(ExecutionError):
                server.run(slow, "f", {}, timeout=30)
            assert time.perf_counter() - started < 1.5
            killer.join()
            assert server.run(good, "add", {"x": 2, "y": 3}) == 5  # a new zygote

    def test_stderr_tail_belongs_to_the_failing_run(self, tmp_path):
        noisy = write_source(tmp_path, "def f(*, tag):\n    print(tag)\n    raise ValueError(tag)\n")
        with ForkServer() as server:
            with pytest.raises(ExecutionError) as first:
                server.run(noisy, "f", {"tag": "first-run"})
            with pytest.raises(ExecutionError) as second:
                server.run(noisy, "f", {"tag": "second-run"})
        assert "first-run" in str(first.value)
        assert "first-run" not in str(second.value) and "second-run" in str(second.value)

    def test_close_reaps_zygote_and_run_once_starts_its_own(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        server = ForkServer()
        assert not server.alive  # started by the first run, not before
        assert server.run(source, "add", {"x": 1, "y": 2}) == 3
        assert server.alive
        server.close()
        assert not server.alive
        assert run_once(source, "add", {"x": 1, "y": 2}, server=None) == 3


def _run_by_worker(source, entry, args):
    with Worker(source) as worker:
        return worker.call(entry, args)


def _run_by_fork_server(source, entry, args):
    with ForkServer() as server:
        return server.run(source, entry, args)


class TestStdlibOnly:
    SITE_SOURCE = (
        "import sys\n"
        "def f():\n"
        "    return [sys.flags.no_site, [p for p in sys.path if 'site-packages' in p]]\n"
    )

    @pytest.mark.parametrize(
        "run", [run_once, _run_by_fork_server, _run_by_worker], ids=["run_once", "fork_server", "worker"]
    )
    def test_generated_code_runs_without_site(self, tmp_path, run):
        assert run(write_source(tmp_path, self.SITE_SOURCE), "f", {}) == [1, []]


class TestResponseCap:
    BIG_SOURCE = "def f():\n    return 'x' * 2048\n"

    def test_oversized_worker_response_kills_the_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESPONSE_BYTES", 1024)
        with Worker(write_source(tmp_path, self.BIG_SOURCE)) as worker:
            with pytest.raises(ExecutionError, match="exceeds 1024 bytes"):
                worker.call("f", {})
            assert not worker.alive

    def test_oversized_relayed_response_kills_the_zygote(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESPONSE_BYTES", 1024)
        good = write_source(tmp_path, ADD_SOURCE)
        with ForkServer() as server:
            assert server.run(good, "add", {"x": 1, "y": 1}) == 2
            with pytest.raises(ExecutionError, match="exceeds 1024 bytes"):
                server.run(write_source(tmp_path, self.BIG_SOURCE, name="big.py"), "f", {})
            assert not server.alive
            assert server.run(good, "add", {"x": 2, "y": 3}) == 5

    def test_cap_is_well_above_bulk_payloads(self):
        assert runner.MAX_RESPONSE_BYTES is harness.MAX_RESPONSE_BYTES
        assert harness.MAX_RESPONSE_BYTES >= 100 * len(json.dumps(list(range(10_000))))

    def test_read_line_stops_at_the_limit(self):
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"y" * 2048)
            assert harness.read_line(read_fd, 5.0, 1024) == (b"", "oversize")
            os.write(write_fd, b"ok\n")
            assert harness.read_line(read_fd, 5.0, 1024) == (b"ok", None)
            assert harness.read_line(read_fd, 0.05, 1024) == (b"", "timeout")
            os.close(write_fd)
            write_fd = None
            assert harness.read_line(read_fd, 5.0, 1024) == (b"", "closed")
        finally:
            os.close(read_fd)
            if write_fd is not None:
                os.close(write_fd)
