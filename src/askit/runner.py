"""Parent-side drivers for the execution harness.

Worker keeps one harness process alive in serve mode: the generated module
is loaded once and stays warm, so module state persists across calls and a
call costs a pipe round trip. Requests are serialized over its pipe.

ForkServer keeps one zygote harness alive that never loads generated code.
Each run() makes a fresh askit-run-* scratch directory under
tempfile.gettempdir() and sends one request; the zygote forks a child that
works in that directory, installs the sandbox, loads the source and answers
once. Every run therefore gets a fresh process with fresh module state, for
the cost of a fork instead of an interpreter start. The zygote starts at the
first run and is replaced when it is found dead before a request is sent;
runs on one server are serialized. Whoever creates a ForkServer closes it:
codegen.generate around the vetting of its candidates, CompiledFunction in
close(). run_once without a server starts one for that single call.

Both share one plumbing: the interpreter launch without `site` (so generated
code sees the standard library only) and with a minimal environment, one
request line out and one response line back under a deadline and a size cap
(MAX_RESPONSE_BYTES), a stderr log for error messages, and a shutdown that
also runs when the owner is garbage-collected.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ExecutionError, ExecutionTimeout, ProtocolError
from .harness import MAX_RESPONSE_BYTES, read_line

HARNESS_PATH = Path(__file__).with_name("harness.py")

DEFAULT_INVOKE_TIMEOUT = 10.0
# Time the zygote gets on top of a run's own timeout to fork, reap and reply.
FORK_SERVER_GRACE = 5.0


def _child_env(scratch: str) -> dict[str, str]:
    # Deliberately minimal: no API keys, no PYTHONPATH, temp dir inside scratch.
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONDONTWRITEBYTECODE": "1",
        "TMPDIR": scratch,
        "HOME": scratch,
        "LANG": os.environ.get("LANG", "C.UTF-8"),
    }


def _encode_request(entry: str, args: Mapping[str, Any]) -> str:
    return json.dumps({"entry": entry, "args": dict(args)}, ensure_ascii=False)


def _decode_response(raw: str, stderr_tail: Callable[[], str] = lambda: "") -> Any:
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(f"harness output is not valid JSON: {raw[:200]!r}") from exc
    if not isinstance(document, dict) or "ok" not in document:
        raise ProtocolError(f"harness output is not a response document: {raw[:200]!r}")
    if not document["ok"]:
        error = document.get("error", "unknown error")
        if document.get("timeout"):
            raise ExecutionTimeout(error)
        tail = stderr_tail()
        if tail:
            error = f"{error}\n{tail}"
        raise ExecutionError(error)
    return document.get("result")


def run_once(
    source_path: str | Path,
    entry: str,
    args: Mapping[str, Any],
    timeout: float = DEFAULT_INVOKE_TIMEOUT,
    python: str | None = None,
    server: ForkServer | None = None,
) -> Any:
    """Execute entry(**args) from a source file in a fresh forked process.

    The child comes from `server`, or from a fork server started and closed
    for this call alone.
    """
    if server is not None:
        return server.run(source_path, entry, args, timeout)
    with ForkServer(python) as own:
        return own.run(source_path, entry, args, timeout)


class _HarnessProcess:
    """One harness process and its pipes; see the module docstring."""

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def _start(self, harness_args: list[str], python: str | None) -> None:
        scratch = tempfile.TemporaryDirectory(prefix="askit-worker-")
        self._stderr_path = Path(scratch.name) / "stderr.log"
        stderr_handle = open(self._stderr_path, "wb")
        # -I: harness directory off sys.path, PYTHON* env vars ignored; -S: no
        # `site`, no .pth hooks (over half the start-up); -B: no bytecode.
        self._proc = subprocess.Popen(
            [python or sys.executable, "-I", "-S", "-B", str(HARNESS_PATH), *harness_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr_handle,
            cwd=scratch.name,
            env=_child_env(scratch.name),
            bufsize=0,
        )
        self._finalizer = weakref.finalize(self, _shutdown, self._proc, scratch, stderr_handle)

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def close(self) -> None:
        if self._proc is not None:
            self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _exchange(self, request: str, timeout: float | None) -> str:
        """One request line out, one response line back; hold self._lock.

        A process that fails to answer, or answers past the size cap, is
        killed: its pipe can no longer be trusted to line up.
        """
        if self._proc.poll() is not None:
            raise ExecutionError(f"harness exited with status {self._proc.returncode}: {self._stderr_tail()}")
        try:
            self._proc.stdin.write((request + "\n").encode("utf-8"))
        except OSError as exc:
            self._kill()
            raise ExecutionError(f"harness pipe closed: {self._stderr_tail()}") from exc
        line, why = read_line(self._proc.stdout.fileno(), timeout, MAX_RESPONSE_BYTES)
        if why is None:
            return line.decode("utf-8", errors="replace")
        self._kill()
        if why == "timeout":
            raise ExecutionTimeout(f"no response within {timeout}s")
        if why == "oversize":
            raise ExecutionError(f"harness response exceeds {MAX_RESPONSE_BYTES} bytes")
        raise ExecutionError(f"harness closed its output: {self._stderr_tail()}")

    def _kill(self) -> None:
        self._proc.kill()
        self._proc.wait(timeout=5.0)

    def _stderr_tail(self, since: int = 0) -> str:
        """The last 500 bytes the harness wrote to stderr after offset `since`."""
        try:
            with open(self._stderr_path, "rb") as log:
                log.seek(max(since, log.seek(0, os.SEEK_END) - 500))
                return log.read().decode("utf-8", errors="replace").strip()
        except OSError:
            return ""


class Worker(_HarnessProcess):
    """A long-lived harness process answering one request per line.

    The generated module is loaded once and stays warm, so state it keeps at
    module level persists across calls; run_once is the fully isolated
    variant. Thread-safe: calls are serialized by an internal lock.
    """

    def __init__(self, source_path: str | Path, python: str | None = None, call_timeout: float = 30.0):
        super().__init__()
        self.source_path = os.path.abspath(source_path)  # the harness runs elsewhere
        self.call_timeout = call_timeout
        self._start([self.source_path, "--serve"], python)

    def call(self, entry: str, args: Mapping[str, Any]) -> Any:
        with self._lock:
            raw = self._exchange(_encode_request(entry, args), self.call_timeout)
        return _decode_response(raw, self._stderr_tail)


class ForkServer(_HarnessProcess):
    """A zygote harness that forks one fresh child per run; see the module
    docstring for its life cycle. Thread-safe: runs are serialized."""

    def __init__(self, python: str | None = None):
        super().__init__()
        self._python = python

    def run(
        self,
        source_path: str | Path,
        entry: str,
        args: Mapping[str, Any],
        timeout: float | None = DEFAULT_INVOKE_TIMEOUT,
    ) -> Any:
        """entry(**args) from `source_path`, in a child forked for this run."""
        with tempfile.TemporaryDirectory(prefix="askit-run-") as scratch:
            request = {
                "source": os.path.abspath(source_path),
                "scratch": scratch,
                "timeout": timeout,
                "entry": entry,
                "args": dict(args),
            }
            with self._lock:
                if not self.alive:
                    self.close()
                    self._start(["--fork-server"], self._python)
                logged = os.path.getsize(self._stderr_path)
                raw = self._exchange(
                    json.dumps(request, ensure_ascii=False),
                    None if timeout is None else timeout + FORK_SERVER_GRACE,
                )
                return _decode_response(raw, lambda: self._stderr_tail(logged))


def _shutdown(proc, scratch, stderr_handle):
    try:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=2.0)
    finally:
        for stream in (proc.stdin, proc.stdout):
            try:
                if stream:
                    stream.close()
            except OSError:
                pass
        try:
            stderr_handle.close()
        except OSError:
            pass
        scratch.cleanup()
