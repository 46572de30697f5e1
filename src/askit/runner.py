"""Parent-side drivers for the execution harness.

Worker keeps one harness process alive in serve mode: the generated module
is loaded once and stays warm, so module state persists across calls and a
call costs a pipe round trip. Requests are serialized over its pipe.

ForkServer keeps one zygote harness alive that never runs generated code.
Each run() makes a fresh askit-run-* scratch directory under
tempfile.gettempdir() and sends one request; the zygote compiles the source
(once per path and text) and forks a child that works in that directory,
installs the sandbox, runs the code and answers once. Every run therefore
gets a fresh process with fresh module state, for the cost of a fork instead
of an interpreter start. The zygote starts at the first run, or at start(),
and is replaced when it is found dead before a request is sent; runs on one
server are serialized.

A process shares one ForkPool of two fork servers, which take runs in turn:
one zygote reaps its last child while the other forks the next, and two
callers run in parallel. The pool's first run starts both zygotes, so the
second boots while the first run waits for its own. run_once, and through it
codegen's vetting and CompiledFunction.call_isolated, runs on the pool that
fork_pool() returns. This module holds the pool by a weak reference only;
its holders keep it alive: codegen.generate while it runs, each open
CompiledFunction (in a forked copy, from its first call_isolated on), a
DefinedFunction from its first compile miss on, and the `askit` command
line for the whole command. When the last holder is closed or collected
the servers' finalizers end both zygotes; close() ends them at once, and
later runs start them again. A forked copy of the process drops the pool
and starts its own.

All share one plumbing: the launch `python -I -S -B <scratch>/harness.pyc`
of harness.py's bytecode, compiled once per parent process and written into
the process's own askit-worker-* scratch directory, without `site` (so
generated code sees the standard library only) and with a minimal
environment, one request line out and one response line back under a
deadline and a size cap (MAX_RESPONSE_BYTES), a stderr log for error
messages, and a shutdown that also runs when the owner is garbage-collected.
Only the process that started a harness process ever signals it or removes
its scratch directory: in a forked copy it reads as not alive, and closing it
there closes that copy's pipes alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import marshal
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ExecutionError, ExecutionTimeout, ProtocolError
from .harness import MAX_RESPONSE_BYTES, read_line

HARNESS_PATH = Path(__file__).with_name("harness.py")

DEFAULT_INVOKE_TIMEOUT = 10.0
# Time the zygote gets on top of a run's own timeout to fork, reap and reply.
FORK_SERVER_GRACE = 5.0


@functools.cache
def _harness_pyc() -> bytes:
    """harness.py as .pyc bytes, compiled once per process. Run as a script,
    a .pyc is checked for its magic number only, not for flags, mtime or size."""
    code = compile(HARNESS_PATH.read_bytes(), str(HARNESS_PATH), "exec", dont_inherit=True, optimize=0)
    return MAGIC_NUMBER + bytes(12) + marshal.dumps(code)


def _child_env(scratch: str) -> dict[str, str]:
    # Deliberately minimal: no API keys, no PYTHONPATH, temp dir inside scratch.
    return {
        "PATH": os.environ.get("PATH", ""),
        "TMPDIR": scratch,
        "HOME": scratch,
        "LANG": os.environ.get("LANG", "C.UTF-8"),
    }


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
) -> Any:
    """Execute entry(**args) from a source file in a fresh process forked
    by the process's shared zygotes."""
    return fork_pool().run(source_path, entry, args, timeout)


class _HarnessProcess:
    """One harness process and its pipes; see the module docstring."""

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def _start(self, harness_args: list[str]) -> None:
        # mkdtemp, not TemporaryDirectory: its finalizer would remove the
        # directory in a forked copy of this process too.
        scratch = tempfile.mkdtemp(prefix="askit-worker-")
        self._stderr_path = Path(scratch) / "stderr.log"
        stderr_handle = open(self._stderr_path, "wb")
        harness = Path(scratch) / "harness.pyc"  # not compiled at each start
        harness.write_bytes(_harness_pyc())
        # -I: script directory off sys.path, PYTHON* env vars ignored; -S: no
        # `site`, no .pth hooks (over half the start-up); -B: no bytecode writes.
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-B", str(harness), *harness_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr_handle,
            cwd=scratch,
            env=_child_env(scratch),
            bufsize=0,
        )
        self._owner = os.getpid()
        self._finalizer = weakref.finalize(self, _shutdown, self._proc, scratch, stderr_handle, self._owner)

    @property
    def alive(self) -> bool:
        """Running, and started by this process, not by the one it was forked from."""
        return self._proc is not None and self._owner == os.getpid() and self._proc.poll() is None

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

    def __init__(self, source_path: str | Path, call_timeout: float = DEFAULT_INVOKE_TIMEOUT):
        super().__init__()
        self.source_path = os.path.abspath(source_path)  # the harness runs elsewhere
        self.call_timeout = call_timeout
        self._start([self.source_path, "--serve"])

    def call(self, entry: str, args: Mapping[str, Any]) -> Any:
        request = json.dumps({"entry": entry, "args": dict(args)}, ensure_ascii=False)
        with self._lock:
            raw = self._exchange(request, self.call_timeout)
        return _decode_response(raw, self._stderr_tail)


class ForkServer(_HarnessProcess):
    """A zygote harness that forks one fresh child per run; see the module
    docstring for its life cycle. Thread-safe: runs are serialized."""

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
                self._ensure_zygote()
                logged = os.path.getsize(self._stderr_path)
                raw = self._exchange(
                    json.dumps(request, ensure_ascii=False),
                    None if timeout is None else timeout + FORK_SERVER_GRACE,
                )
                return _decode_response(raw, lambda: self._stderr_tail(logged))

    def start(self) -> None:
        """Start the zygote now, unless it runs or a run holds this server."""
        if self._lock.acquire(blocking=False):
            try:
                self._ensure_zygote()
            finally:
                self._lock.release()

    def _ensure_zygote(self) -> None:  # hold self._lock
        if not self.alive:
            self.close()
            self._start(["--fork-server"])


class ForkPool:
    """Two fork servers that take runs in turn; see the module docstring."""

    def __init__(self):
        self._servers = (ForkServer(), ForkServer())
        self._turns = itertools.count()

    def run(
        self,
        source_path: str | Path,
        entry: str,
        args: Mapping[str, Any],
        timeout: float | None = DEFAULT_INVOKE_TIMEOUT,
    ) -> Any:
        """entry(**args) from `source_path`, on the next server in turn."""
        turn = next(self._turns)
        if turn == 0:
            self._servers[1].start()  # it boots while the first run waits for the other
        return self._servers[turn % 2].run(source_path, entry, args, timeout)

    def close(self) -> None:
        for server in self._servers:
            server.close()


_pool_lock = threading.Lock()
_pool: weakref.ref[ForkPool] | None = None


def fork_pool() -> ForkPool:
    """The process's shared pool; a new one when no holder keeps one alive.
    Its zygotes start at its first run."""
    global _pool
    with _pool_lock:
        pool = _pool() if _pool is not None else None
        if pool is None:
            pool = ForkPool()
            _pool = weakref.ref(pool)
        return pool


def close() -> None:
    """End the shared zygotes now; later runs start them again."""
    pool = _pool() if _pool is not None else None
    if pool is not None:
        pool.close()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)  # a forked copy starts zygotes of its own


def _shutdown(proc, scratch, stderr_handle, owner):
    mine = os.getpid() == owner  # in a forked copy: close its pipes, nothing more
    try:
        if mine and proc.poll() is None:
            # End of input first: a zygote that SIGTERM reaches just before it
            # blocks reading its next request handles the signal only after
            # that read returns, so end of input is what makes it leave.
            proc.stdin.close()
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=2.0)
    finally:
        for stream in (proc.stdin, proc.stdout, stderr_handle):
            try:
                if stream:
                    stream.close()
            except OSError:
                pass
        if mine:
            shutil.rmtree(scratch, ignore_errors=True)
