"""Execution harness: wire protocol, isolation, the worker loop and the fork server."""

import fcntl
import gc
import json
import math
import os
import select
import signal
import struct
import subprocess
import sys
import tempfile
import termios
import threading
import time
import traceback
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from askit import harness, runner
from askit.errors import ExecutionError, ExecutionTimeout, ProtocolError
from askit.runner import DEFAULT_INVOKE_TIMEOUT, HARNESS_PATH, Worker, WorkerLeft, _decode_response, run_once
from askit.runner import ForkServer
from conftest import REPO, count_starts, gone, live_children, parent_of, source_of

ADD_SOURCE = "def add(*, x, y):\n    return x + y\n"
# A result nested deeper than the recursion limit: the encoder raises RecursionError.
DEEP_SOURCE = (
    "def deep():\n"
    "    value = []\n"
    "    for _ in range(100_000):\n"
    "        value = [value]\n"
    "    return value\n"
)


def write_source(tmp_path, source, name="gen.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def _answer_bytes(source, request):
    """The bytes a Worker for `source` writes on its pipe `out` in answer to
    the request line `request` written on its pipe `in`."""
    with Worker(*source_of(source)) as worker:
        os.write(worker._fds["in"], request + b"\n")
        answer = b""
        while not answer.endswith(b"\n"):
            assert select.select([worker._fds["out"]], [], [], 30)[0], "no answer"
            answer += os.read(worker._fds["out"], 65536)
        return answer


class TestWireProtocol:
    def test_request_and_response_documents_are_bit_exact(self, tmp_path):
        """Pins the harness protocol: one JSON document each way."""
        source = write_source(tmp_path, ADD_SOURCE)
        request = b'{"entry": "add", "args": {"x": 2, "y": 3}}'
        assert _answer_bytes(source, request) == b'{"ok": true, "result": 5}\n'

    def test_error_document_shape(self, tmp_path):
        source = write_source(tmp_path, "def boom():\n    raise ValueError('nope')\n")
        request = b'{"entry": "boom", "args": {}}'
        document = json.loads(_answer_bytes(source, request))
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
        assert run_once(*source_of(source), "f", {"x": 7}) == 7

    def test_a_line_that_is_not_json_is_answered_and_the_worker_reads_on(self, tmp_path):
        # A blank line gets no answer; the next request line is answered as usual.
        with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
            os.write(worker._fds["in"], b'\n{not json\n{"entry": "add", "args": {"x": 2, "y": 3}}\n')
            answer = b""
            while answer.count(b"\n") < 2:
                assert select.select([worker._fds["out"]], [], [], 30)[0], "no answer"
                answer += os.read(worker._fds["out"], 65536)
        assert answer == (
            b'{"ok": false, "error": "request is not valid JSON: Expecting property name enclosed in double quotes:'
            b' line 1 column 2 (char 1)"}\n{"ok": true, "result": 5}\n'
        )

    @pytest.mark.parametrize("entry", [b'["add"]', b'{"name": "add"}'], ids=["list", "object"])
    def test_an_unhashable_entry_is_answered_and_the_worker_reads_on(self, tmp_path, entry):
        with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
            os.write(worker._fds["in"], b'{"entry": ' + entry + b', "args": {}}\n')
            assert select.select([worker._fds["out"]], [], [], 30)[0], "no answer"
            assert os.read(worker._fds["out"], 65536) == b'{"ok": false, "error": "request must be an object with an \'entry\' field"}\n'
            assert worker.call("add", {"x": 2, "y": 3}) == 5


class TestRunOnce:
    def test_add(self, tmp_path):
        assert run_once(*source_of(write_source(tmp_path, ADD_SOURCE)), "add", {"x": 2, "y": 3}) == 5

    def test_factorial(self, tmp_path):
        source = (
            "def calculateFactorial(*, n):\n"
            "    result = 1\n"
            "    for i in range(2, n + 1):\n"
            "        result *= i\n"
            "    return result\n"
        )
        assert run_once(*source_of(write_source(tmp_path, source)), "calculateFactorial", {"n": 5}) == 120

    def test_raising_function(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    raise RuntimeError('bad')\n")
        with pytest.raises(ExecutionError, match="bad"):
            run_once(*source_of(source), "f", {})

    def test_missing_entry(self, tmp_path):
        with pytest.raises(ExecutionError, match="no function"):
            run_once(*source_of(write_source(tmp_path, ADD_SOURCE)), "nope", {})

    def test_module_load_failure(self, tmp_path):
        source = write_source(tmp_path, "raise ImportError('cannot even load')\n")
        with pytest.raises(ExecutionError, match="failed to load"):
            run_once(*source_of(source), "f", {})

    def test_unserializable_result(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    return {1, 2}\n")
        with pytest.raises(ExecutionError, match="JSON-serializable"):
            run_once(*source_of(source), "f", {})

    def test_a_result_nested_past_the_recursion_limit_is_not_serializable(self, tmp_path):
        with pytest.raises(ExecutionError, match="^result is not JSON-serializable: maximum recursion depth"):
            run_once(*source_of(write_source(tmp_path, DEEP_SOURCE)), "deep", {})

    def test_timeout(self, tmp_path):
        source = write_source(tmp_path, "import time\ndef f():\n    time.sleep(30)\n")
        started = time.perf_counter()
        with pytest.raises(ExecutionTimeout):
            run_once(*source_of(source), "f", {}, timeout=0.8)
        assert time.perf_counter() - started < 10

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_a_run_and_a_worker_answer_for_a_name_that_names_no_file(self, tmp_path, monkeypatch, absolute):
        monkeypatch.chdir(tmp_path)
        name = str(tmp_path / "gone" / "gen.py") if absolute else "gen.py"
        text = "import os\ndef f():\n    return [__file__, os.getcwd()]\n"
        ran, cwd = run_once(name, text, "f", {})
        assert ran == (name if absolute else os.path.join(cwd, name))  # relative: in the run's own directory
        with Worker(name, text) as worker:
            ran, cwd = worker.call("f", {})
        assert ran == (name if absolute else os.path.join(cwd, name))
        assert not os.path.exists(name)

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
            run_once(*source_of(source), "f", {})
        assert not victim.exists()

    def test_write_inside_scratch_is_allowed(self, tmp_path):
        source = write_source(
            tmp_path,
            "def f():\n"
            "    with open('notes.txt', 'w') as handle:\n"
            "        handle.write('fine')\n"
            "    return open('notes.txt').read()\n",
        )
        assert run_once(*source_of(source), "f", {}) == "fine"

    def test_reads_outside_scratch_are_allowed(self, tmp_path):
        probe = tmp_path / "readable.txt"
        probe.write_text("data", encoding="utf-8")
        source = write_source(
            tmp_path, f"def f():\n    return open({str(probe)!r}).read()\n"
        )
        assert run_once(*source_of(source), "f", {}) == "data"

    def test_socket_use_denied(self, tmp_path):
        source = write_source(
            tmp_path,
            "import socket\n"
            "def f():\n"
            "    socket.create_connection(('127.0.0.1', 9), timeout=1)\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(*source_of(source), "f", {})

    def test_subprocess_denied(self, tmp_path):
        source = write_source(
            tmp_path,
            "import subprocess\n"
            "def f():\n"
            "    subprocess.run(['ls'])\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(*source_of(source), "f", {})

    def test_delete_outside_scratch_denied(self, tmp_path):
        victim = tmp_path / "precious.txt"
        victim.write_text("keep me", encoding="utf-8")
        source = write_source(
            tmp_path,
            f"import os\ndef f():\n    os.remove({str(victim)!r})\n",
        )
        with pytest.raises(ExecutionError, match="sandbox"):
            run_once(*source_of(source), "f", {})
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
            run_once(*source_of(source), "f", {})


class TestWorker:
    def test_serves_many_calls(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        with Worker(*source_of(source)) as worker:
            assert [worker.call("add", {"x": i, "y": 1}) for i in range(5)] == [1, 2, 3, 4, 5]

    def test_module_state_persists_across_calls(self, tmp_path):
        source = write_source(
            tmp_path,
            "calls = []\n"
            "def f():\n"
            "    calls.append(1)\n"
            "    return len(calls)\n",
        )
        with Worker(*source_of(source)) as worker:
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
        with Worker(*source_of(source)) as worker:
            with pytest.raises(ExecutionError, match="negative"):
                worker.call("f", {"n": -1})
            assert worker.call("f", {"n": 4}) == 4

    def test_call_timeout_defaults_to_the_invoke_timeout(self, tmp_path):
        with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
            assert worker.call_timeout == DEFAULT_INVOKE_TIMEOUT

    def test_call_timeout_kills_worker(self, tmp_path):
        source = write_source(tmp_path, "import time\ndef f():\n    time.sleep(30)\n")
        with Worker(*source_of(source), call_timeout=0.5) as worker:
            with pytest.raises(ExecutionTimeout):
                worker.call("f", {})
            assert not worker.alive

    def test_relative_source_path(self, tmp_path, monkeypatch):
        write_source(tmp_path, ADD_SOURCE)
        monkeypatch.chdir(tmp_path)
        with Worker(*source_of("gen.py")) as worker:
            assert worker.call("add", {"x": 1, "y": 2}) == 3
        assert run_once(*source_of("gen.py"), "add", {"x": 1, "y": 2}) == 3

    @pytest.mark.parametrize(
        "args",
        [
            {"text": "héllo ✓ 😀 \u2028", "ключ": {"日本": "語"}},
            {"nan": float("nan"), "inf": float("inf"), "minus_inf": float("-inf")},
            {"pair": (1, (2, "x")), "empty": ()},
            {"big": 10**300 + 7, "neg": -(10**301)},
        ],
        ids=["non_ascii", "nan_inf", "tuples", "big_ints"],
    )
    def test_request_line_is_what_json_dumps_writes(self, tmp_path, monkeypatch, args):
        written, real_write_line = [], runner.write_line
        with Worker(*source_of(write_source(tmp_path, "def f(**kwargs):\n    return sorted(kwargs)\n"))) as worker:
            monkeypatch.setattr(runner, "write_line", lambda fd, text: written.append(text) or real_write_line(fd, text))
            assert worker.call("f", args) == sorted(args)
        assert [line + "\n" for line in written] == [json.dumps({"entry": "f", "args": args}, ensure_ascii=False) + "\n"]

    def test_an_unserializable_argument_raises_what_json_raises_and_the_worker_answers_on(self, tmp_path):
        expected = _outcome(lambda request: json.dumps(request, ensure_ascii=False), {"entry": "add", "args": {"x": object(), "y": 1}})
        assert expected[0] is TypeError
        with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
            with pytest.raises(TypeError, match=f"^{expected[1]}$"):
                worker.call("add", {"x": object(), "y": 1})
            assert worker.call("add", {"x": 1, "y": 2}) == 3

    def test_a_result_nested_past_the_recursion_limit_is_an_error_and_the_worker_answers_on(self, tmp_path):
        with Worker(*source_of(write_source(tmp_path, DEEP_SOURCE + ADD_SOURCE))) as worker:
            with pytest.raises(ExecutionError, match="^result is not JSON-serializable: maximum recursion depth"):
                worker.call("deep", {})
            assert worker.call("add", {"x": 1, "y": 2}) == 3

    def test_close_reaps_process(self, tmp_path):
        worker = Worker(*source_of(write_source(tmp_path, ADD_SOURCE)))
        assert worker.call("add", {"x": 1, "y": 1}) == 2
        worker.close()
        assert not worker.alive


class TestForkedWorker:
    """A Worker is a child of the shared zygote, not of this process."""

    def test_each_worker_sees_fresh_module_state(self, tmp_path):
        dirty = write_source(
            tmp_path,
            "import sys, fnmatch\n"
            "sys.modules['askit_leak'] = sys\n"
            "LEAK = 1\n"
            "def f():\n"
            "    global LATER\n"
            "    LATER = 2\n"
            "    return 0\n",
            name="dirty.py",
        )
        probe = write_source(
            tmp_path,
            "import sys\n"
            "def f():\n"
            "    return sorted(globals()), [m for m in ('askit_leak', 'fnmatch') if m in sys.modules]\n",
            name="probe.py",
        )
        server = runner.fork_server()
        try:
            with Worker(*source_of(dirty)) as worker:
                assert worker.call("f", {}) == 0
            assert [run_once(*source_of(dirty), "f", {}) for _ in range(2)] == [0, 0]
            workers = [Worker(*source_of(probe)) for _ in range(2)]
            assert all(worker._zygote is server for worker in workers)
            for worker in workers:
                # The zygote's preload (json, traceback) may be there; nothing else is.
                assert worker.call("f", {}) == [["__builtins__", "__file__", "__name__", "f", "sys"], []]
                worker.close()
        finally:
            server.close()

    def test_worker_is_a_zygote_child_reaped_after_close(self, tmp_path):
        worker = Worker(*source_of(write_source(tmp_path, ADD_SOURCE)))
        assert worker.call("add", {"x": 1, "y": 1}) == 2
        assert parent_of(worker.pid) == worker._zygote._proc.pid
        worker.close()
        assert not worker.alive
        assert gone(worker.pid)  # the zygote reaped it; no other request was needed
        with pytest.raises(ExecutionError, match="closed"):
            worker.call("add", {"x": 1, "y": 1})

    def test_worker_ends_and_is_reaped_when_its_owner_exits_without_closing(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        owner = (
            "import os, sys\n"
            f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
            "from askit.runner import Worker\n"
            f"worker = Worker(*{source_of(source)!r})\n"
            "assert worker.call('add', {'x': 1, 'y': 2}) == 3\n"
            "print(worker.pid, worker._zygote._proc.pid, flush=True)\n"
            "print(worker._scratch, os.path.dirname(worker._zygote._proc.args[4]), flush=True)\n"
            "os._exit(0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", owner], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids, scratches = proc.stdout.splitlines()
        worker, zygote = map(int, pids.split())
        deadline = time.monotonic() + 5.0
        while (parent := parent_of(worker)) is not None:  # until reaped
            # Never orphaned: the zygote saw end of input and reaped it
            # (0 is read while the zygote releases the reaped worker).
            assert parent in (zygote, 0)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert gone(zygote, zombie_ok=True)
        for scratch in scratches.split():  # removed by the harness: the owner cannot
            assert os.path.basename(scratch).startswith("askit-worker-")
            assert not os.path.exists(scratch)

    def test_a_busy_worker_and_its_zygote_end_when_their_owner_dies(self, tmp_path):
        source = write_source(tmp_path, "def spin():\n    while True:\n        pass\n")
        owner = (
            "import os, sys\n"
            f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
            "from askit.harness import write_line\n"
            "from askit.runner import Worker\n"
            f"worker = Worker(*{source_of(source)!r})\n"
            "write_line(worker._fds['in'], '{\"entry\": \"spin\", \"args\": {}}')\n"
            "print(worker.pid, worker._zygote._proc.pid, flush=True)\n"
            "os._exit(0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", owner], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        worker, zygote = map(int, proc.stdout.split())
        try:
            assert gone(worker), "the worker outlived its owner"
            assert gone(zygote, zombie_ok=True), "the zygote outlived its owner"
        finally:
            for pid in (worker, zygote):
                if not gone(pid, timeout=0, zombie_ok=True):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("answering", [False, True], ids=["idle", "answering"])
    def test_a_worker_whose_owner_dies_after_closing_the_zygote_removes_its_scratch(self, tmp_path, answering):
        # No zygote is left to do it: the worker's input ends, or its answer
        # finds `out` closed, and either means that its owner has gone.
        source = write_source(tmp_path, "import time\ndef f():\n    time.sleep(0.3)\n    return 1\n")
        owner = (
            "import os, sys\n"
            f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
            "from askit import runner\n"
            "from askit.harness import write_line\n"
            "from askit.runner import Worker\n"
            f"worker = Worker(*{source_of(source)!r})\n"
            "assert worker.call('f', {}) == 1\n"
            "runner.close()\n"
            + ("write_line(worker._fds['in'], '{\"entry\": \"f\", \"args\": {}}')\n" if answering else "")
            + "print(worker.pid, worker._scratch, flush=True)\n"
            "os._exit(0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", owner], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        worker, scratch = proc.stdout.split()
        assert gone(int(worker), zombie_ok=True)
        assert os.path.basename(scratch).startswith("askit-worker-") and not os.path.exists(scratch)

    def test_an_inflight_run_and_a_worker_outlive_their_zygote(self, tmp_path):
        # Once forked, neither needs the zygote nor holds its protocol pipe open.
        good = write_source(tmp_path, ADD_SOURCE)
        slow = write_source(tmp_path, SLOW_PID_SOURCE, name="slow.py")
        with Worker(*source_of(good)) as worker:
            assert worker.call("add", {"x": 1, "y": 1}) == 2
            server = worker._zygote
            killer = threading.Timer(0.3, server._proc.kill)
            killer.start()
            child = server.run(*source_of(slow), "f", {}, timeout=5)
            killer.join()
            assert worker.call("add", {"x": 2, "y": 2}) == 4
            assert server.run(*source_of(good), "add", {"x": 2, "y": 3}) == 5  # a new zygote
        assert gone(child, zombie_ok=True)  # orphaned with its zygote gone: killed, reaped by init

    def test_a_worker_start_is_not_held_up_by_a_slow_run(self, tmp_path):
        slow = write_source(tmp_path, SLOW_SOURCE, name="slow.py")
        with _running_in_a_thread(lambda: run_once(*source_of(slow), "f", {}, timeout=30)):
            started = time.perf_counter()
            with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
                assert worker.call("add", {"x": 1, "y": 2}) == 3
            assert time.perf_counter() - started < 0.5

    def test_a_spawn_on_an_idle_pool_boots_one_zygote(self, tmp_path, monkeypatch):
        starts = count_starts(monkeypatch)
        server = ForkServer()
        try:
            server.spawn(*source_of(write_source(tmp_path, ADD_SOURCE)), [], scratch=str(tmp_path))  # no pipe ends: refused
        except ExecutionError:
            pass
        finally:
            assert server.alive and starts == [["--fork-server"]]
            server.close()

    def test_bare_workers_in_a_loop_share_one_zygote(self, tmp_path, monkeypatch):
        gc.collect()  # nothing from earlier tests may hold the shared server
        runner.close()
        starts = count_starts(monkeypatch)
        source = write_source(tmp_path, ADD_SOURCE)
        for i in range(20):
            worker = Worker(*source_of(source))  # it holds the server, which forks the next one too
            assert worker.call("add", {"x": i, "y": 1}) == i + 1
        worker.close()
        assert starts == [["--fork-server"]]

    @pytest.mark.parametrize("mode", [["SOURCE"], ["SOURCE", "--serve"], []], ids=["source", "serve", "no-argument"])
    def test_every_mode_but_the_fork_server_is_gone(self, tmp_path, mode):
        source = str(write_source(tmp_path, ADD_SOURCE))
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", str(HARNESS_PATH), *(source if arg == "SOURCE" else arg for arg in mode)],
            input=b'{"entry": "add", "args": {"x": 2, "y": 3}}', capture_output=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"usage: harness.py --fork-server\n")


COUNTER_SOURCE = "calls = []\ndef f():\n    calls.append(1)\n    return len(calls)\n"


SLOW_SOURCE = "import time\ndef f():\n    time.sleep(1)\n    return 1\n"
SLOW_PID_SOURCE = "import os, time\ndef f():\n    time.sleep(1)\n    return os.getpid()\n"


@contextmanager
def _running_in_a_thread(work):
    """Run work() in another thread while the body runs, from 0.2 s after it
    starts; the body's exit waits for work's result, which must be 1."""
    results = []
    thread = threading.Thread(target=lambda: results.append(work()))
    thread.start()
    time.sleep(0.2)
    try:
        yield
    finally:
        thread.join(timeout=30)
    assert results == [1]


class TestForkServer:
    def test_each_run_sees_fresh_module_state(self, tmp_path):
        source = write_source(tmp_path, COUNTER_SOURCE)
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", {}) == 1
            assert server.run(*source_of(source), "f", {}) == 1

    def test_a_list_of_argument_sets_is_answered_in_order_by_one_child(self, tmp_path):
        source = write_source(tmp_path, "import os\nCALLS = 0\ndef f(*, x):\n    global CALLS\n"
                                        "    CALLS += 1\n    return [x, CALLS, os.getpid()]\n")
        with ForkServer() as server:
            outcomes = server.run(*source_of(source), "f", [{"x": 1}, {"x": 2}, {"x": 3}])
            assert server.run(*source_of(source), "f", []) == []
        assert [outcome[:2] for outcome in outcomes] == [[1, 1], [2, 1], [3, 1]]  # a fresh namespace each
        assert len({outcome[2] for outcome in outcomes}) == 1  # one child

    def test_a_failure_ends_the_outcomes_and_the_child(self, tmp_path, monkeypatch):
        source = write_source(tmp_path, "import sys\ndef f(*, x):\n    print(f'ran {x}', file=sys.stderr)\n"
                                        "    if x == 2:\n        raise ValueError('two')\n    return x\n")
        logged = _logs_of_each_child(monkeypatch)
        with ForkServer() as server:
            outcomes = server.run(*source_of(source), "f", [{"x": 1}, {"x": 2}, {"x": 3}])
            assert server.run(*source_of(source), "f", {"x": 4}) == 4
        logged = sorted(log.split() for log in logged)
        assert outcomes[0] == 1 and len(outcomes) == 2
        assert isinstance(outcomes[1], ExecutionError) and str(outcomes[1]) == "ValueError: two\nran 2"
        assert logged == [["ran", "1", "ran", "2"], ["ran", "4"]]  # the third set never ran

    def test_each_argument_set_has_its_own_timeout(self, tmp_path):
        source = write_source(tmp_path, "import time\ndef f(*, s):\n    time.sleep(s)\n    return s\n")
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", [{"s": 0.3}] * 3, timeout=0.6) == [0.3] * 3
            outcomes = server.run(*source_of(source), "f", [{"s": 0.0}, {"s": 30}, {"s": 0.0}], timeout=0.5)
            assert server.run(*source_of(source), "f", {"s": 0.0}) == 0.0
        assert outcomes[0] == 0.0 and len(outcomes) == 2
        assert isinstance(outcomes[1], ExecutionTimeout) and "exceeded 0.5s" in str(outcomes[1])

    def test_each_argument_set_has_its_own_response_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESPONSE_BYTES", 1024)
        source = write_source(tmp_path, "def f(*, n):\n    return 'x' * n\n")
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", [{"n": 700}] * 3) == ["x" * 700] * 3  # 2,100 bytes in all
            outcomes = server.run(*source_of(source), "f", [{"n": 700}, {"n": 2048}, {"n": 700}])
            assert server.alive  # the run's child was killed, not the zygote
        assert outcomes[0] == "x" * 700 and len(outcomes) == 2
        assert isinstance(outcomes[1], ExecutionError) and "exceeds 1024 bytes" in str(outcomes[1])

    def test_a_failed_run_ties_no_reference_cycle_to_its_server(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    raise ValueError('no')\n")
        gc.disable()  # a cycle would keep the server, and its zygote, until a collection
        try:
            server = ForkServer()
            try:
                server.run(*source_of(source), "f", {})
            except ExecutionError:
                pass
            outcomes = server.run(*source_of(source), "f", [{}, {}])  # held by this frame, which called the run
            assert isinstance(outcomes[0], ExecutionError) and len(outcomes) == 1
            proc, collected = server._proc, weakref.ref(server)
            del server
            assert collected() is None
            assert proc.wait(timeout=5) is not None
        finally:
            gc.enable()

    def test_concurrent_runs_on_one_server_get_their_own_answers(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        results, errors = {}, []

        def work(caller):
            try:
                for i in range(5):
                    results[caller, i] = server.run(*source_of(source), "add", {"x": caller, "y": i})
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
            cwd, tmpdir, home = server.run(*source_of(source), "f", {})
            zygote_scratch = os.path.dirname(server._proc.args[4])
        assert cwd == tmpdir == home
        assert os.path.dirname(cwd) == os.path.realpath(zygote_scratch)  # made by the zygote, in its own directory
        assert os.path.dirname(zygote_scratch) == str(tmp_path)
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
            assert server.run(*source_of(good), "add", {"x": 1, "y": 1}) == 2
            zygote = server._proc.pid
            with pytest.raises(error, match=match):
                server.run(*source_of(failing), "f", {}, timeout=0.5)
            assert server.run(*source_of(good), "add", {"x": 2, "y": 3}) == 5
            assert server._proc.pid == zygote

    def test_a_run_outlives_its_zygote(self, tmp_path):
        slow = write_source(tmp_path, SLOW_PID_SOURCE, name="slow.py")
        good = write_source(tmp_path, ADD_SOURCE)
        with ForkServer() as server:
            assert server.run(*source_of(good), "add", {"x": 1, "y": 1}) == 2
            zygote = server._proc
            killer = threading.Timer(0.3, zygote.kill)
            killer.start()
            child = server.run(*source_of(slow), "f", {}, timeout=5)
            killer.join()
            assert server.run(*source_of(good), "add", {"x": 2, "y": 3}) == 5
            assert server._proc is not zygote and zygote.returncode is not None  # a new zygote; the old one reaped
        assert gone(child, zombie_ok=True)  # orphaned with its zygote gone: killed, reaped by init

    def test_stderr_tail_belongs_to_the_failing_run(self, tmp_path):
        noisy = write_source(tmp_path, "def f(*, tag):\n    print(tag)\n    raise ValueError(tag)\n")
        with ForkServer() as server:
            with pytest.raises(ExecutionError) as first:
                server.run(*source_of(noisy), "f", {"tag": "first-run"})
            with pytest.raises(ExecutionError) as second:
                server.run(*source_of(noisy), "f", {"tag": "second-run"})
        assert "first-run" in str(first.value)
        assert "first-run" not in str(second.value) and "second-run" in str(second.value)

    def test_a_fast_run_is_not_held_up_by_a_slow_one(self, tmp_path):
        slow = write_source(tmp_path, SLOW_SOURCE, name="slow.py")
        with _running_in_a_thread(lambda: run_once(*source_of(slow), "f", {}, timeout=30)):
            started = time.perf_counter()
            assert run_once(*source_of(write_source(tmp_path, ADD_SOURCE)), "add", {"x": 1, "y": 2}) == 3
            assert time.perf_counter() - started < 0.5

    def test_concurrent_failing_runs_overlap_and_carry_only_their_own_tails(self, tmp_path):
        noisy = write_source(
            tmp_path, "import sys, time\ndef f(*, tag):\n    print(tag, file=sys.stderr)\n"
                      "    time.sleep(0.5)\n    raise ValueError(tag)\n")
        assert run_once(*source_of(write_source(tmp_path, ADD_SOURCE, name="add.py")), "add", {"x": 1, "y": 2}) == 3  # zygote up
        errors = {}

        def fail(tag):
            errors[tag] = str(run_once(*source_of(noisy), "f", [{"tag": tag}])[0])

        threads = [threading.Thread(target=fail, args=(tag,)) for tag in ("first-run", "second-run")]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert time.perf_counter() - started < 0.9  # one after the other would take 1 s
        assert errors == {tag: f"ValueError: {tag}\n{tag}" for tag in ("first-run", "second-run")}

    def test_a_failed_zygote_start_leaves_no_scratch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = write_source(tmp_path, ADD_SOURCE)

        def no_descriptors(*args, **kwargs):
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(subprocess, "Popen", no_descriptors)
        with ForkServer() as server:
            for _ in range(3):
                with pytest.raises(OSError, match="Too many open files"):
                    server.run(*source_of(source), "add", {"x": 1, "y": 2})
        assert sorted(path.name for path in tmp_path.iterdir()) == ["gen.py"]

    def test_close_reaps_zygote_and_run_once_starts_its_own(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        server = ForkServer()
        assert not server.alive  # started by the first run, not before
        assert server.run(*source_of(source), "add", {"x": 1, "y": 2}) == 3
        assert server.alive
        server.close()
        assert not server.alive
        assert run_once(*source_of(source), "add", {"x": 1, "y": 2}) == 3


class TestForkPool:
    """The process's shared fork server, runner.fork_server()."""

    PARENT_SOURCE = "import os\ndef f():\n    return os.getppid()\n"

    def test_close_kills_and_reaps_the_zygote_at_once(self, tmp_path):
        with Worker(*source_of(write_source(tmp_path, ADD_SOURCE))) as worker:
            assert worker.call("add", {"x": 1, "y": 2}) == 3
            zygote = worker._zygote._proc
            started = time.perf_counter()
            worker._zygote.close()
            assert zygote.returncode == -signal.SIGKILL
            assert time.perf_counter() - started < 1.5
            assert worker.call("add", {"x": 2, "y": 2}) == 4  # a forked child needs nothing from its zygote

    def test_shared_pool_ends_with_its_last_holder(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        server = runner.fork_server()
        assert runner.fork_server() is server
        assert run_once(*source_of(source), "add", {"x": 1, "y": 2}) == 3
        assert run_once(*source_of(source), "add", {"x": 2, "y": 2}) == 4
        zygote = server._proc
        assert zygote.poll() is None
        del server
        assert zygote.poll() is not None
        assert run_once(*source_of(source), "add", {"x": 3, "y": 2}) == 5  # a new server, for this run alone

    def test_close_ends_the_zygotes_and_the_next_run_starts_one(self, tmp_path):
        source = write_source(tmp_path, self.PARENT_SOURCE)
        server = runner.fork_server()
        first = run_once(*source_of(source), "f", {})
        runner.close()
        assert not server.alive
        assert run_once(*source_of(source), "f", {}) != first
        assert runner.fork_server() is server
        server.close()

    def test_forked_child_starts_a_pool_of_its_own(self, tmp_path):
        source = write_source(tmp_path, self.PARENT_SOURCE)
        server = runner.fork_server()
        zygote = run_once(*source_of(source), "f", {})
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                mine = run_once(*source_of(source), "f", {})
                os.write(write_fd, f"{runner.fork_server() is not server} {mine != zygote}".encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as answer:
            assert answer.read() == "True True"
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert server.alive
        assert run_once(*source_of(source), "f", {}) == zygote  # the caller's zygote still serves
        server.close()


class TestCompileOnce:
    def test_source_rewritten_in_place_with_same_size_and_mtime_is_recompiled(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    return 1\n")
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", {}) == 1
            stat = os.stat(source)
            source.write_text("def f():\n    return 2\n", encoding="utf-8")
            os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert os.stat(source).st_size == stat.st_size
            assert server.run(*source_of(source), "f", {}) == 2

    @pytest.mark.parametrize(
        "content",
        [b"def f(:\n    return 1\n", b"def f():\n    return 1\x00\n"],
        ids=["syntax-error", "null-byte"],
    )
    def test_load_errors_match_the_one_shot_mode_on_every_run(self, tmp_path, content):
        source = tmp_path / "gen.py"
        source.write_bytes(content)
        # What the removed one-shot mode, `harness.py SOURCE`, answered: the
        # error of reading and compiling the file.
        try:
            compile(source.read_text(encoding="utf-8"), str(source), "exec")
        except (SyntaxError, ValueError) as exc:
            expected = "generated source failed to load: " + harness.error_line(exc)
        with ForkServer() as server:
            for _ in range(2):
                with pytest.raises(ExecutionError) as raised:
                    server.run(*source_of(source), "f", {})
                assert str(raised.value) == expected

    def test_compile_once_reuses_the_code_object_until_the_text_changes(self, tmp_path):
        source, cache = str(write_source(tmp_path, ADD_SOURCE)), {}
        first = harness.compile_once(*source_of(source), cache)
        assert harness.compile_once(*source_of(source), cache) is first
        write_source(tmp_path, ADD_SOURCE.replace("x + y", "y + x"))
        second = harness.compile_once(*source_of(source), cache)
        assert second is not first and second.co_filename == source
        assert cache == {source: (ADD_SOURCE.replace("x + y", "y + x"), second)}
        # What cannot be compiled comes back as the exception, for the child to report.
        assert isinstance(harness.compile_once("bad.py", "def (", cache), SyntaxError)
        assert isinstance(harness.compile_once("nul.py", "x = 1\x00\n", cache), (SyntaxError, ValueError))

    def test_compile_once_keeps_a_code_object_per_path_up_to_a_bound(self, tmp_path):
        cache = {}
        first, second = (str(write_source(tmp_path, ADD_SOURCE, name=name)) for name in ("a.py", "b.py"))
        codes = [harness.compile_once(*source_of(path), cache) for path in (first, second)]
        assert codes[0] is not codes[1]
        again = [harness.compile_once(*source_of(path), cache) for path in (first, second, first)]
        assert all(code is expected for code, expected in zip(again, [*codes, codes[0]]))
        for index in range(2 * harness.COMPILED_PATHS):
            harness.compile_once(*source_of(write_source(tmp_path, ADD_SOURCE, name=f"c{index}.py")), cache)
            assert 1 <= len(cache) <= harness.COMPILED_PATHS

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"), reason="Linux /proc only")
    def test_zygote_reaps_each_child_after_answering(self, tmp_path):
        source = write_source(tmp_path, ADD_SOURCE)
        with ForkServer() as server:
            for i in range(3):
                assert server.run(*source_of(source), "add", {"x": i, "y": 1}) == i + 1
                zygote = server._proc.pid
                children = Path(f"/proc/{zygote}/task/{zygote}/children")
                deadline = time.monotonic() + 1.0
                while children.read_text().split() and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert children.read_text().split() == []

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"), reason="Linux /proc only")
    def test_back_to_back_runs_on_one_zygote_all_answer_and_leave_no_zombie(self, tmp_path):
        # The zygote kills an answered child, then adds it to its reap set: the
        # other order lets SIGCHLD reap a child that exited first, and the kill
        # then fails (or hits a reused pid).
        source = write_source(tmp_path, ADD_SOURCE)
        server = runner.fork_server()
        try:
            assert run_once(*source_of(source), "add", {"x": 0, "y": 1}) == 1
            zygote = server._proc.pid
            assert [run_once(*source_of(source), "add", {"x": i, "y": 1}) for i in range(1000)] == list(range(1, 1001))
            assert server._proc.pid == zygote
            children = Path(f"/proc/{zygote}/task/{zygote}/children")
            deadline = time.monotonic() + 1.0
            while children.read_text().split() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert children.read_text().split() == []
        finally:
            server.close()

    @pytest.mark.parametrize("start", [lambda source: Worker(*source_of(source)), lambda source: ForkServer()], ids=["worker", "fork_server"])
    def test_harness_starts_from_bytecode_in_its_own_scratch(self, tmp_path, start):
        source = write_source(tmp_path, ADD_SOURCE)
        with start(source) as process:
            if isinstance(process, ForkServer):
                assert process.run(*source_of(source), "add", {"x": 1, "y": 2}) == 3
            else:
                assert process.call("add", {"x": 1, "y": 2}) == 3
            started = process if isinstance(process, ForkServer) else process._zygote  # a worker is forked
            launched = started._proc.args[4]
            assert started._proc.args[1:4] == ["-I", "-S", "-B"]
            assert launched.endswith(".pyc")
            assert os.path.basename(os.path.dirname(launched)).startswith("askit-worker-")
            if process is not started:  # a worker, in a directory of its own
                assert os.path.basename(process._scratch).startswith("askit-worker-")


def _run_by_worker(name, text, entry, args):
    with Worker(name, text) as worker:
        return worker.call(entry, args)


def _run_by_fork_server(name, text, entry, args):
    with ForkServer() as server:
        return server.run(name, text, entry, args)


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
        assert run(*source_of(write_source(tmp_path, self.SITE_SOURCE)), "f", {}) == [1, []]

    # The harness starts on built-in and C modules only; these pure-Python
    # ones cost about 25 ms of every harness start.
    HEAVY_SOURCE = (
        "import sys\n"
        "def f():\n"
        "    return [name for name in ('json', 're', 'enum', 'traceback') if name in sys.modules]\n"
    )

    @pytest.mark.parametrize(
        "run", [run_once, _run_by_fork_server, _run_by_worker], ids=["run_once", "fork_server", "worker"]
    )
    def test_harness_imports_no_heavy_modules(self, tmp_path, run):
        assert run(*source_of(write_source(tmp_path, self.HEAVY_SOURCE)), "f", {}) == []

    # A source that imports a standard-library module the zygote lacks
    # makes it load json and traceback before it forks, once for all children.
    PRELOAD_SOURCE = (
        "import sys\n"
        "FOUND = [name for name in ('json', 'traceback', 're', 'fnmatch') if name in sys.modules]\n"
        "import fnmatch\n"
        "def f():\n"
        "    return FOUND\n"
    )

    def test_fork_server_children_inherit_json_and_traceback_for_imports(self, tmp_path):
        source = write_source(tmp_path, self.PRELOAD_SOURCE)
        assert _run_by_fork_server(*source_of(source), "f", {}) == ["json", "traceback", "re"]


def _open_fds(pid="self"):
    """The descriptor numbers a process holds open."""
    return sorted(os.listdir(f"/proc/{pid}/fd"))


def _until(condition):
    """Wait up to 10 s for condition() to hold. A reaped child leaves its
    zygote's children list at the waitid, before the zygote writes its status
    on the child's `out`, closes its copy of it and recycles its directory: so
    a row waits for what it asserts, not for the list to empty."""
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _settled(zygote):
    """Wait until the zygote holds only its standard descriptors and its
    socket: every child's `out` closed. The reap that closes the last one
    recycles its directory next, before the zygote reads another request."""
    _until(lambda: len(_open_fds(zygote)) == 4)


def _children_in(zygote, directory):
    """The pids of the zygote's children that work in a directory under `directory`."""
    inside = []
    for pid in Path(f"/proc/{zygote}/task/{zygote}/children").read_text().split():
        try:
            if os.readlink(f"/proc/{pid}/cwd").startswith(directory + os.sep):
                inside.append(pid)
        except OSError:  # exited meanwhile
            pass
    return inside


def _unread_bytes(fd):
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, bytes(4)))[0]


def _logs_of_each_child(monkeypatch):
    """What each child of a _Child logged, in a list that fills as each is ended."""
    logged, end = [], runner._end_child

    def end_and_read(fds, *rest):
        logged.append(os.pread(fds["log"], 1 << 16, 0).decode())
        end(fds, *rest)

    monkeypatch.setattr(runner, "_end_child", end_and_read)
    return logged


def _askit_entries(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("askit-"))


def _state(pid):
    """A process's state letter: R, S, T (stopped), Z and so on."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]


RAN_SOURCE = "import sys\ndef f(*, n=0):\n    print('ran', file=sys.stderr, flush=True)\n    return 'x' * n\n"
HELD_SOURCE = "import sys, time\ndef f(*, n):\n    print('ran', file=sys.stderr, flush=True)\n    time.sleep(n)\n    return n\n"
# A run that waits until its directory has no link left (its zygote's went), then writes a file there or not.
UNLINKED_SOURCE = ("import os, time\ndef f(*, write=False):\n    while os.stat('.').st_nlink:\n        time.sleep(0.001)\n"
                   "    if write:\n        open('out.txt', 'w').write('x')\n    return 'done'\n")


def _compiled(cache_dir, source, task="Repeat x {{n}} times"):
    """The CompiledFunction `f` of a cache hit on `source`: no client call."""
    from askit.api import define
    from askit.clients import ScriptedClient
    from askit.codegen import CodegenConfig, cache_store
    from askit.types import INT, STR

    defined = define(STR, task, param_schemas={"n": INT}, name="f", client=ScriptedClient([]))
    config = CodegenConfig(cache_dir=cache_dir)
    cache_store(defined.spec, source, config)
    return defined.compile(config)


class TestChannelFaults:
    """Faults on the zygote's socket and on a child's pipes. Each row waits on
    pipes and pidfds, not on time, and checks that the call ran at most once,
    that the error names its cause, and that no process, descriptor or
    scratch directory is left."""

    @pytest.mark.parametrize(
        "run, handed",
        [(True, 0), (True, 3), (False, 0), (False, 2), (False, 4), (True, 9)],
        ids=["run-none", "run-extra", "worker-none", "worker-missing", "worker-extra", "past-the-room"],
    )
    def test_wrong_descriptors_are_refused(self, tmp_path, monkeypatch, run, handed):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = str(write_source(tmp_path, RAN_SOURCE))
        mine, children = _open_fds(), live_children()
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", {}) == ""
            zygote = server._proc.pid
            pipes = [os.pipe() for _ in range(handed)]
            try:
                kind = "run" if run else "worker"
                with pytest.raises(ExecutionError, match=rf"^fork request is malformed: ValueError\('\d descriptors for a {kind}'\)$"):
                    server.spawn(*source_of(source), [end for _, end in pipes], **({"entry": "f", "args": [{}]} if run else {"scratch": str(tmp_path)}))
                _settled(zygote)  # the first run's pipe closed, and none of those sent kept
            finally:
                for _, end in pipes:
                    os.close(end)
            for reader, _ in pipes:  # no copy of a write end is left anywhere, the kernel's drops included
                os.set_blocking(reader, False)
                assert os.read(reader, 1) == b""
                os.close(reader)
            assert server.run(*source_of(source), "f", {"n": 2}) == "xx" and server._proc.pid == zygote
        assert sorted(path.name for path in tmp_path.iterdir()) == ["gen.py"]
        assert (_open_fds(), live_children()) == (mine, children)

    @pytest.mark.parametrize("run", [True, False], ids=["run", "worker"])
    def test_a_request_without_text_is_refused(self, tmp_path, run):
        pipes, log = [os.pipe() for _ in range(1 if run else 2)], os.memfd_create("log")
        request = {"source": "gen.py", **({"entry": "f", "args": [{}]} if run else {"scratch": str(tmp_path)})}
        try:
            with ForkServer() as server:
                assert server.run("gen.py", RAN_SOURCE, "f", {}) == ""
                with server._lock:
                    line, pidfd = server._exchange(harness.dumps(request), [end for _, end in pipes] + [log], 5)
                assert server.run("gen.py", RAN_SOURCE, "f", {"n": 2}) == "xx"
        finally:
            for fd in (*(fd for pipe in pipes for fd in pipe), log):
                os.close(fd)
        assert pidfd == []
        with pytest.raises(ExecutionError, match=r"^fork request is malformed: KeyError\('text'\)$"):
            _decode_response(line)

    def test_a_worker_killed_mid_answer_longer_than_a_pipe(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = write_source(tmp_path, RAN_SOURCE)
        server = runner.fork_server()
        assert server.run(*source_of(source), "f", {}) == ""  # the zygote is up before the count
        mine = _open_fds()
        with Worker(*source_of(source)) as worker:
            out, pidfd = worker._fds["out"], worker._fds["pidfd"]
            capacity = fcntl.fcntl(out, fcntl.F_GETPIPE_SZ)
            harness.write_line(worker._fds["in"], json.dumps({"entry": "f", "args": {"n": 4 * capacity}}))
            deadline = time.monotonic() + 10
            while _unread_bytes(out) < capacity:  # until the worker blocks on a full pipe
                assert time.monotonic() < deadline
                time.sleep(0.001)
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            assert gone(worker.pid)
            _settled(server._proc.pid)  # reaped, and the full pipe left no room for its exit status
            with pytest.raises(WorkerLeft, match="^harness closed its output\nran$"):
                worker.call("f", {"n": 1})  # nothing sent: it has left
            assert os.pread(worker._fds["log"], 100, 0) == b"ran\n"  # the call ran once
            pid, scratch = worker.pid, worker._scratch
        assert gone(pid) and not os.path.exists(scratch)
        assert _open_fds() == mine
        assert sorted(path.name for path in tmp_path.iterdir() if path.name.startswith("askit-run-")) == []

    def test_a_worker_killed_while_its_caller_drains_a_long_answer(self, tmp_path):
        source = write_source(tmp_path, RAN_SOURCE)
        with Worker(*source_of(source)) as worker:
            out, pidfd = worker._fds["out"], worker._fds["pidfd"]
            capacity = fcntl.fcntl(out, fcntl.F_GETPIPE_SZ)
            harness.write_line(worker._fds["in"], json.dumps({"entry": "f", "args": {"n": 200_000}}))
            deadline = time.monotonic() + 10
            while _unread_bytes(out) < capacity:  # until the worker blocks on a full pipe
                assert time.monotonic() < deadline
                time.sleep(0.001)
            signal.pidfd_send_signal(pidfd, signal.SIGSTOP)  # it writes no more of its answer
            while _state(worker.pid) != "T":
                assert time.monotonic() < deadline
                time.sleep(0.001)
            worker._unread += os.read(out, capacity // 2)  # what the caller has read: room for the exit status
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            assert gone(worker.pid)  # reaped, after its exit status went into that room
            with pytest.raises(ExecutionError, match="^harness exited with status -9\nran$"):
                worker._receive("f", 10)

    def test_the_zygote_killed_between_a_fork_request_and_its_answer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = write_source(tmp_path, RAN_SOURCE)
        logged, send = _logs_of_each_child(monkeypatch), runner.send_line

        def send_and_kill(channel, text, fds=()):
            os.kill(zygote.pid, signal.SIGSTOP)  # it reads nothing more
            send(channel, text, fds)
            os.kill(zygote.pid, signal.SIGKILL)

        mine, children = _open_fds(), live_children()
        with ForkServer() as server:
            assert server.run(*source_of(source), "f", {}) == ""
            zygote, home = server._proc, os.path.dirname(server._proc.args[4])
            monkeypatch.setattr(runner, "send_line", send_and_kill)
            # Killed with the request unread, the zygote resets the connection.
            with pytest.raises(ExecutionError, match=r"^fork server failed \(\[Errno 104\] Connection reset by peer\): $"):
                server.run(*source_of(source), "f", {"n": 1})
            assert zygote.returncode == -signal.SIGKILL
            assert not os.path.exists(home)  # removed with its zygote, not at the next spawn
            monkeypatch.setattr(runner, "send_line", send)
            assert server.run(*source_of(source), "f", {"n": 2}) == "xx"  # by a new zygote
            assert server._proc is not zygote
        assert logged == ["ran\n", "", "ran\n"]  # the killed request forked nothing
        assert sorted(path.name for path in tmp_path.iterdir()) == ["gen.py"]
        assert (_open_fds(), live_children()) == (mine, children)

    def test_closing_the_zygote_during_a_fork_request_waits_for_its_answer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        send, receive, closer = runner.send_line, runner.receive_line, []

        def send_then_close(channel, line, fds=()):
            send(channel, line, fds)
            closer.append(threading.Thread(target=server.close))
            closer[0].start()
            closer[0].join(0.05)  # over at once, unless close() waits for this request

        def receive_with_the_child_in_place(channel):
            line, received = receive(channel)
            pid = json.loads(line)["result"]
            _until(lambda: os.readlink(f"/proc/{pid}/cwd").startswith(home + os.sep))
            return line, received

        mine, children = _open_fds(), live_children()
        with ForkServer() as server:
            assert server.run("gen.py", RAN_SOURCE, "f", {}) == ""
            zygote, home = server._proc, os.path.dirname(server._proc.args[4])
            monkeypatch.setattr(runner, "send_line", send_then_close)
            monkeypatch.setattr(runner, "receive_line", receive_with_the_child_in_place)
            assert server.run("slow.py", UNLINKED_SOURCE, "f", {}) == "done"  # closed after the answer, then its directory went
            closer[0].join(10)
        assert zygote.returncode == -signal.SIGKILL and not os.path.exists(home)
        assert sorted(path.name for path in tmp_path.iterdir()) == []
        assert (_open_fds(), live_children()) == (mine, children)

    def test_an_idle_worker_killed_and_called_at_once(self, tmp_path, monkeypatch):
        # The call runs at most once: on a replacement, or it fails and names the exit.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        server = runner.fork_server()
        assert server.run("gen.py", RAN_SOURCE, "f", {}) == ""  # the zygote is up before the count
        logged = _logs_of_each_child(monkeypatch)
        mine, children, scratch = _open_fds(), live_children(), _askit_entries(tmp_path)
        with _compiled(tmp_path / "cache", RAN_SOURCE) as compiled:
            assert compiled(n=1) == "x"
            worker = compiled._worker
            signal.pidfd_send_signal(worker._fds["pidfd"], signal.SIGKILL)
            outcome = _outcome(compiled, {"n": 2})  # no wait for the exit
            replaced = compiled._worker is not worker
            assert outcome == (("value", "'xx'") if replaced else (ExecutionError, "harness exited with status -9\nran"))
        assert gone(worker.pid)
        assert "".join(logged).count("ran") == 1 + replaced
        assert (_open_fds(), live_children(), _askit_entries(tmp_path)) == (mine, children, scratch)

    def test_a_worker_killed_after_its_call_started(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        server = runner.fork_server()
        assert server.run("gen.py", RAN_SOURCE, "f", {}) == ""  # the zygote is up before the count
        logged = _logs_of_each_child(monkeypatch)
        mine, children, scratch = _open_fds(), live_children(), _askit_entries(tmp_path)
        with _compiled(tmp_path / "cache", HELD_SOURCE) as compiled:
            outcome = []
            caller = threading.Thread(target=lambda: outcome.append(_outcome(compiled, {"n": 60})))
            caller.start()
            deadline = time.monotonic() + 10
            while (worker := compiled._worker) is None or os.pread(worker._fds["log"], 8, 0) != b"ran\n":
                assert time.monotonic() < deadline
                time.sleep(0.001)
            signal.pidfd_send_signal(worker._fds["pidfd"], signal.SIGKILL)
            caller.join(10)
            assert outcome == [(ExecutionError, "harness exited with status -9\nran")]
            assert compiled(n=0) == 0 and compiled._worker is not worker  # the next call, on a replacement
        assert gone(worker.pid)
        assert logged == ["ran\n", "ran\n"]  # the killed call was not run again
        assert (_open_fds(), live_children(), _askit_entries(tmp_path)) == (mine, children, scratch)

    def test_the_zygote_killed_while_its_workers_sit_idle(self, tmp_path, monkeypatch):
        gc.collect()
        runner.close()  # the zygote starts again, under tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        starts, logged = count_starts(monkeypatch), _logs_of_each_child(monkeypatch)
        mine, children = _open_fds(), live_children()
        with _compiled(tmp_path / "cache", RAN_SOURCE) as first, _compiled(tmp_path / "cache", RAN_SOURCE, "Echo {{n}}") as second:
            assert (first(n=1), second(n=2)) == ("x", "xx")
            workers, zygote = [first._worker, second._worker], runner.fork_server()._proc
            zygote.kill()
            zygote.wait()
            assert (first(n=3), second(n=1)) == ("xxx", "x")  # the workers still answer
            assert [first._worker, second._worker] == workers
            assert first.call_isolated(n=2) == "xx"  # on a new zygote
            assert len(starts) == 2 and runner.fork_server()._proc is not zygote
            runner._kill(workers[0]._fds["pidfd"], wait=10)  # an orphan now: no zygote writes its exit status
            assert first(n=1) == "x" and first._worker is not workers[0]  # replaced on the next call
        runner.close()
        assert all(gone(worker.pid, zombie_ok=True) for worker in workers)  # orphans: reaped by init
        assert "".join(logged).count("ran") == 6  # each call once
        assert (_open_fds(), live_children(), _askit_entries(tmp_path)) == (mine, children, [])


class TestRunDirectories:
    """Each run works in an empty, private directory that the zygote keeps
    for the next run only when the child left it as made."""

    PROBE_SOURCE = (
        "import os\n"
        "def f():\n"
        "    return [os.getcwd(), os.environ['TMPDIR'], os.environ['HOME'], os.listdir('.'), os.access('.', os.W_OK)]\n"
    )

    @pytest.mark.parametrize(
        "body",
        ["open('left.txt', 'w').write('x')", "os.mkdir('sub')", "os.chmod('.', 0o500)"],
        ids=["file", "subdirectory", "read-only"],
    )
    def test_the_run_after_one_that_changed_its_directory_gets_a_clean_one(self, tmp_path, body):
        dirty = write_source(tmp_path, f"import os\ndef f():\n    {body}\n    return os.getcwd()\n", name="dirty.py")
        probe = write_source(tmp_path, self.PROBE_SOURCE, name="probe.py")
        with ForkServer() as server:
            clean = server.run(*source_of(probe), "f", {})
            home = os.path.dirname(server._proc.args[4])  # the zygote's scratch directory
            _settled(server._proc.pid)  # the clean run's directory back in the pool
            used = server.run(*source_of(dirty), "f", {})
            _settled(server._proc.pid)
            cwd, tmpdir, home_env, listed, writable = server.run(*source_of(probe), "f", {})
            _settled(server._proc.pid)
            assert server.run(*source_of(probe), "f", {})[0] == cwd  # a directory left as made is kept
        assert used == clean[0]  # the directory of the clean run before
        assert (listed, writable) == ([], True) and cwd == tmpdir == home_env != used
        assert not os.path.exists(used) and not os.path.exists(home)  # close() leaves no run directory

    def test_a_run_loses_its_directory_when_its_zygote_is_closed_under_it(self, tmp_path):
        outcomes = {}
        with ForkServer() as server:
            assert server.run(*source_of(write_source(tmp_path, ADD_SOURCE)), "add", {"x": 1, "y": 2}) == 3
            zygote, home = server._proc.pid, os.path.dirname(server._proc.args[4])
            _settled(zygote)  # the first run's child reaped: the zygote's only children are the two below
            runs = [threading.Thread(target=lambda write=write: outcomes.update(
                {write: _outcome(server.run, "slow.py", UNLINKED_SOURCE, "f", {"write": write})})) for write in (True, False)]
            for run in runs:
                run.start()
            _until(lambda: len(_children_in(zygote, home)) == 2)  # both forked, each in its own directory
            children = _children_in(zygote, home)
            server.close()
            assert not os.path.exists(home)  # at once, with both runs in flight
            for run in runs:
                run.join(10)
        assert outcomes[False] == ("value", "'done'")  # its child still answers
        kind, error = outcomes[True]
        assert kind is ExecutionError and "FileNotFoundError" in error, error
        assert all(gone(int(pid), zombie_ok=True) for pid in children)

    def test_closing_under_a_run_then_exiting_leaves_nothing_in_the_temp_dir(self, tmp_path):
        temp = tmp_path / "temp"
        temp.mkdir()
        owner = (
            "import os, sys, threading\n"
            f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
            "import askit\n"
            "from askit import runner\n"
            "server = runner.fork_server()\n"
            "def close_and_exit():\n"
            "    zygote = server._proc.pid\n"
            "    with open(f'/proc/{zygote}/task/{zygote}/children') as children:\n"
            "        print(children.read(), flush=True)\n"
            "    askit.close()\n"
            "    os._exit(0)\n"
            "threading.Timer(0.2, close_and_exit).start()\n"
            "server.run('slow.py', 'import time\\ndef f():\\n    time.sleep(0.5)\\n', 'f', {})\n"
        )
        proc = subprocess.run([sys.executable, "-c", owner], env={**os.environ, "TMPDIR": str(temp)},
                              capture_output=True, text=True, timeout=60)
        children = proc.stdout.split()  # the run's child, forked before the timer fired
        assert all([gone(int(pid), zombie_ok=True) for pid in children])  # no process outlives this row
        assert proc.returncode == 0 and children, proc.stderr
        assert os.listdir(temp) == []

    def test_back_to_back_runs_use_a_few_directories(self):
        # A request often comes before the last child is reaped: two idle directories cover it.
        text = "import os\ndef f():\n    return os.getcwd()\n"
        with ForkServer() as server:
            used = {server.run("probe.py", text, "f", {}) for _ in range(500)}
        assert len(used) <= 6, len(used)

    def test_isolated_calls_and_vetting_runs_create_nothing_in_the_temp_dir(self, tmp_path, monkeypatch):
        from askit.api import define
        from askit.clients import ScriptedClient
        from askit.codegen import CodegenConfig
        from askit.types import INT

        code = "def calculateFactorial(*, n):\n    result = 1\n    for i in range(2, n + 1):\n        result *= i\n    return result\n"
        temp = tmp_path / "temp"
        temp.mkdir()
        runner.close()  # the shared zygote starts again, under `temp`
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        config = CodegenConfig(cache_dir=tmp_path / "cache")
        tasks = [
            define(INT, f"Calculate the factorial of {{{{n}}}} ({i})", param_schemas={"n": INT}, name="calculateFactorial",
                   tests=[{"input": {"n": 5}, "output": 120}], client=ScriptedClient([f"```python\n{code}```"]))
            for i in range(6)
        ]
        with tasks[0].compile(config) as compiled:  # a vetting run, which starts the zygote
            assert [compiled.call_isolated(n=3) for _ in range(5)] == [6] * 5
            zygote = runner.fork_server()._proc
            time.sleep(0.05)  # past the clock tick of the last change in `temp`
            before = os.stat(temp).st_mtime_ns, sorted(os.listdir(temp))
            assert [compiled.call_isolated(n=n) for n in range(50)] == [math.factorial(n) for n in range(50)]
            for task in tasks[1:]:
                task.compile(config).close()
            assert (os.stat(temp).st_mtime_ns, sorted(os.listdir(temp))) == before
            home = os.path.dirname(zygote.args[4])
            _until(lambda: len(set(os.listdir(home)) - {"harness.pyc"}) <= 2)  # each reaped run's directory recycled
            assert all(name.startswith("askit-run-") for name in os.listdir(home) if name != "harness.pyc")


class TestResponseCap:
    BIG_SOURCE = "def f():\n    return 'x' * 2048\n"

    def test_oversized_worker_response_kills_the_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESPONSE_BYTES", 1024)
        with Worker(*source_of(write_source(tmp_path, self.BIG_SOURCE))) as worker:
            with pytest.raises(ExecutionError, match="exceeds 1024 bytes"):
                worker.call("f", {})
            assert not worker.alive

    def test_oversized_run_response_kills_the_child_not_the_zygote(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESPONSE_BYTES", 1024)
        good = write_source(tmp_path, ADD_SOURCE)
        big = write_source(tmp_path, "import os\ndef f():\n    print(os.getpid())\n    return 'x' * 2048\n", name="big.py")
        with ForkServer() as server:
            assert server.run(*source_of(good), "add", {"x": 1, "y": 1}) == 2
            zygote = server._proc.pid
            (outcome,) = server.run(*source_of(big), "f", [{}])
            assert isinstance(outcome, ExecutionError) and "exceeds 1024 bytes" in str(outcome)
            assert gone(int(str(outcome).split()[-1]))  # the child, which the zygote reaped
            assert server.alive and server._proc.pid == zygote
            assert server.run(*source_of(good), "add", {"x": 2, "y": 3}) == 5

    def test_an_oversized_answer_carries_only_what_the_function_logged(self, tmp_path):
        source = write_source(tmp_path, "def f():\n    print('big')\n    return 'x' * (17 << 20)\n")
        (outcome,) = run_once(*source_of(source), "f", [{}])  # an exception without traceback
        assert isinstance(outcome, ExecutionError)
        assert str(outcome) == f"response exceeds {harness.MAX_RESPONSE_BYTES} bytes\nbig"

    def test_cap_is_well_above_bulk_payloads(self):
        assert runner.MAX_RESPONSE_BYTES is harness.MAX_RESPONSE_BYTES
        assert harness.MAX_RESPONSE_BYTES >= 100 * len(json.dumps(list(range(10_000))))

    def test_read_line_stops_at_the_limit(self):
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)  # as read_line requires
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

    def test_read_line_keeps_what_it_read_past_a_line_and_caps_each_line(self):
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)  # as read_line requires
        try:
            unread = bytearray()
            os.write(write_fd, b"a" * 700 + b"\n" + b"b" * 700 + b"\n" + b"c" * 100)
            assert harness.read_line(read_fd, 5.0, 1024, unread) == (b"a" * 700, None)
            assert harness.read_line(read_fd, 5.0, 1024, unread) == (b"b" * 700, None)
            assert unread == b"c" * 100
            os.write(write_fd, b"c\n")
            assert harness.read_line(read_fd, 5.0, 1024, unread) == (b"c" * 101, None)
            assert unread == b""
        finally:
            os.close(read_fd)
            os.close(write_fd)


def _outcome(function, *args):
    """The value `function` returns, or the type and text of what it raises."""
    try:
        return "value", repr(function(*args))
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


class _Circular(dict):
    pass


CIRCULAR = _Circular()
CIRCULAR["self"] = CIRCULAR


class TestJSONMatchesJson:
    """harness.dumps and harness.loads against json, the reference."""

    @pytest.mark.parametrize(
        "value",
        [
            {"ok": True, "result": [1, 2.5, -0.0, None, False, "x"]},
            {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
            (1, (2, [3, ()])),
            [float("nan"), float("inf"), float("-inf")],
            {"big": 10**300, "neg": -(10**40)},
            10**5000,
            "héllo ✓ 😀   \x00 \" \\ \n",
            {"é": {"ü": ["日本"]}},
            {1, 2},
            {"result": object()},
            {(1, 2): "tuple key"},
            CIRCULAR,
        ],
        ids=[
            "document", "non_string_keys", "tuples", "nan_inf", "big_ints", "int_over_digit_limit",
            "non_ascii_str", "non_ascii_keys", "set", "object", "tuple_key", "circular",
        ],
    )
    def test_dumps(self, value):
        assert _outcome(harness.dumps, value) == _outcome(lambda v: json.dumps(v, ensure_ascii=False), value)

    def test_dumps_forgets_a_failed_call(self):
        response = {"ok": True, "result": object()}
        with pytest.raises(TypeError):
            harness.dumps(response)
        response["result"] = 1  # the same dict, no longer holding the object
        assert harness.dumps(response) == '{"ok": true, "result": 1}'

    @pytest.mark.parametrize(
        "text",
        [
            '{"entry": "add", "args": {"x": 2, "y": 3}}',
            ' \t\r\n[1, -0, 2.5e3, 1e400, NaN, Infinity, -Infinity, true, null] \n',
            '"\\ud83d\\ude00 \\u00e9"',
            '{"é": "✓", "a": {"a": {"a": []}}}',
            "1" * 5000,
            "",
            "   ",
            "{",
            '{"a": }',
            "[1,]",
            '"a\x01"',
            '"\\x"',
            "{} {}",
            "1 x",
            '{"a": 1}\n\x0b',
            "﻿{}",
        ],
        ids=[
            "request", "numbers_and_constants", "escapes", "non_ascii", "int_over_digit_limit",
            "empty", "blank", "open_brace", "missing_value", "trailing_comma", "control_char",
            "bad_escape", "extra_document", "extra_word", "extra_vertical_tab", "bom",
        ],
    )
    def test_loads(self, text):
        assert _outcome(harness.loads, text) == _outcome(json.loads, text)

    def test_encode_response_of_an_unserializable_result_stays_ascii(self):
        response = {"ok": True, "result": {"ü": {1, 2}}}
        assert harness.encode_response(response) == (
            '{"ok": false, "error": "result is not JSON-serializable: Object of type set is not JSON serializable"}'
        )

    def test_encode_response_of_a_result_nested_past_the_recursion_limit(self):
        namespace = {}
        exec(DEEP_SOURCE, namespace)
        document = json.loads(harness.encode_response({"ok": True, "result": namespace["deep"]()}))
        assert document["ok"] is False
        assert document["error"].startswith("result is not JSON-serializable: maximum recursion depth exceeded")
        assert harness.encode_response({"ok": True, "result": [[1]]}) == '{"ok": true, "result": [[1]]}'


class _StrFails(Exception):
    def __str__(self):
        raise RuntimeError("no text")


class _StrNotText(Exception):
    def __str__(self):
        return 42


class _ElsewhereError(Exception):
    pass


_ElsewhereError.__module__ = "askit_generated"


class _NoModuleError(Exception):
    pass


_NoModuleError.__module__ = None


def _raised(source):
    try:
        exec(compile(source, "<generated>", "exec"), {})
    except BaseException as exc:  # noqa: BLE001
        return exc
    raise AssertionError("source did not raise")


def _with_notes(*notes):
    exc = ValueError("bad")
    for note in notes:
        exc.add_note(note)
    return exc


def _with_raw_notes(notes):
    exc = ValueError("bad")
    exc.__notes__ = notes
    return exc


ERROR_CASES = [
    ("message", lambda: ValueError("nope")),
    ("empty", lambda: ValueError()),
    ("blank", lambda: ValueError("  ")),
    ("multi_line", lambda: RuntimeError("first\nsecond\n")),
    ("key_error", lambda: KeyError("k")),
    ("str_raises", lambda: _StrFails("x")),
    ("str_not_text", lambda: _StrNotText()),
    ("generated_module", lambda: _ElsewhereError("from generated code")),
    ("non_string_module", lambda: _NoModuleError("where")),
    ("nested_class", lambda: TestErrorLineMatchesTraceback.Inner("qualname")),
    ("system_exit", lambda: SystemExit(3)),
    ("syntax_error", lambda: _raised("def f(:\n    pass\n")),
    ("indentation_error", lambda: _raised("def f():\nreturn 1\n")),
    ("name_error", lambda: _raised("lenn([])")),
    ("attribute_error", lambda: _raised("[].apend(1)")),
    ("import_error", lambda: _raised("from os import pathh")),
    ("module_not_found", lambda: _raised("import no_such_module_anywhere")),
    ("raw_notes", lambda: _with_raw_notes("not a list")),
]
if sys.version_info >= (3, 11):
    ERROR_CASES += [
        ("exception_group", lambda: ExceptionGroup("several", [ValueError("a"), KeyError("b")])),
        ("notes", lambda: _with_notes("first note", "second\nnote")),
        ("empty_note", lambda: _with_notes("")),
    ]


class TestErrorLineMatchesTraceback:
    class Inner(Exception):
        pass

    @pytest.mark.parametrize("make", [make for _, make in ERROR_CASES], ids=[name for name, _ in ERROR_CASES])
    def test_error_line(self, make):
        exc = make()
        assert harness.error_line(exc) == traceback.format_exception_only(type(exc), exc)[-1].strip()
