"""Parent-side drivers for the execution harness.

ForkServer keeps one zygote harness alive that never runs generated code.
Each run() makes a fresh askit-run-* scratch directory and sends one request
for a list of argument sets; the zygote forks one fresh child that works
there, installs the sandbox and answers the sets in order, each in a fresh
module namespace (process-wide state carries over). The zygote starts at its
first request and is replaced when found dead before one; requests to one
server are serialized.

A Worker is a long-lived child that a zygote forks: it loads the generated
module once, so module state persists across calls and a call costs a round
trip over two FIFOs in its askit-worker-* scratch directory. This process
is not its parent: it ends the worker through a pidfd, which never names a
reused pid, and the zygote reaps it.

A process shares one ForkServer, which fork_server() returns and this module
holds by a weak reference only. run_once (codegen's vetting, call_isolated)
runs on it and every Worker is forked by it. Its holders keep it alive:
codegen.generate while it runs, each open CompiledFunction (in a forked
copy, from its first call_isolated on), a DefinedFunction from its first
compile miss on, the `askit` command line, and each Worker. When the last
holder goes, the zygote ends; close() ends it at once (open workers still
answer), and a later request starts it again. A forked copy of the process
drops the server and starts its own.

The zygote is the only interpreter askit starts: `python -I -S -B
<scratch>/harness.pyc`, from bytecode compiled once per process, in its
own askit-worker-* scratch directory, without `site` (generated code sees
the standard library only) and with a minimal environment. A request is one
line each way under a deadline and a size cap (MAX_RESPONSE_BYTES); every
harness process logs to a stderr.log and is shut down when its owner is
closed or collected. Only the process that made a scratch directory removes
it (scratch_dir), and only the one that started a harness process signals
it: in a forked copy it reads as not alive, and closing it there closes that
copy's descriptors.
"""

from __future__ import annotations

import functools
import json
import marshal
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import weakref
from contextlib import contextmanager
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .errors import AskitError, ExecutionError, ExecutionTimeout, ProtocolError
from .harness import MAX_RESPONSE_BYTES, read_line, write_line

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


def _decode_response(raw: str, stderr_tail: Callable[[], str] = lambda: "") -> dict:
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
    return document


def run_once(
    source_path: str | Path,
    entry: str,
    args: Mapping[str, Any] | Sequence[Mapping[str, Any]],
    timeout: float = DEFAULT_INVOKE_TIMEOUT,
) -> Any:
    """Execute entry(**args) from a source file in a fresh process forked
    by the process's shared zygote; see ForkServer.run."""
    return fork_server().run(source_path, entry, args, timeout)


@contextmanager
def scratch_dir(prefix: str):
    """A new directory under tempfile.gettempdir(), removed on leaving by the
    process that made it only: TemporaryDirectory's finalizer would also
    remove it in a forked copy that exits normally, under its maker's feet."""
    path, owner = tempfile.mkdtemp(prefix=prefix), os.getpid()
    try:
        yield path
    finally:
        _remove_scratch(path, owner)


def _remove_scratch(path: str, owner: int) -> None:
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


def _ready(fd: int, timeout: float = 0.0) -> bool:
    """Readable or hung up within `timeout` s; a pidfd is once its process exits."""
    return bool(select.select([fd], [], [], timeout)[0])


class _HarnessProcess:
    """A harness process, its request and response descriptors and its
    stderr log; see the module docstring."""

    _finalizer = None

    def __init__(self):
        self._lock = threading.Lock()
        self._unread = bytearray()  # read past the last response line

    def _start(self, harness_args: list[str]) -> None:
        scratch, self._unread = tempfile.mkdtemp(prefix="askit-worker-"), bytearray()
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
        self._requests, self._responses = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        self._owner = os.getpid()
        self._finalizer = weakref.finalize(self, _shutdown, self._proc, scratch, stderr_handle, self._owner)

    @property
    def alive(self) -> bool:
        """Running, not closed, and started by this process, not by the one it was forked from."""
        return bool(self._finalizer and self._finalizer.alive) and self._owner == os.getpid() and not self._exited()

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _exited(self) -> bool:
        return self._proc.poll() is not None

    def _exchange(self, request: str, timeout: float | None) -> str:
        """One request line out, its first response line back; hold self._lock."""
        try:
            write_line(self._requests, request)
        except OSError as exc:
            self._kill()
            raise ExecutionError(f"harness pipe closed: {self._stderr_tail()}") from exc
        return self._receive(timeout)

    def _receive(self, timeout: float | None) -> str:
        """The next response line; hold self._lock. A process that does not answer,
        or answers past the size cap, is killed: its channel may not line up."""
        line, why = read_line(self._responses, timeout, MAX_RESPONSE_BYTES, self._unread)
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
    """A warm harness process for one source, forked by the process's
    shared zygote, which it holds; see the module docstring. run_once is
    the fully isolated variant. Thread-safe: calls are serialized."""

    def __init__(self, source_path: str | Path, call_timeout: float = DEFAULT_INVOKE_TIMEOUT):
        super().__init__()
        self.source_path = os.path.abspath(source_path)  # the worker runs elsewhere
        self.call_timeout = call_timeout
        scratch, self._owner, fds = tempfile.mkdtemp(prefix="askit-worker-"), os.getpid(), {}
        self._stderr_path = Path(scratch) / "stderr.log"
        fifo_in, fifo_out = os.path.join(scratch, "in"), os.path.join(scratch, "out")
        try:
            for fifo in (fifo_in, fifo_out):
                os.mkfifo(fifo, 0o600)
            fds["responses"] = os.open(fifo_out, os.O_RDONLY | os.O_NONBLOCK)
            # Connect before the worker exists, so that it never reads end of
            # file before its first request; this reader only lets the open pass.
            reader = os.open(fifo_in, os.O_RDONLY | os.O_NONBLOCK)
            try:
                fds["requests"] = os.open(fifo_in, os.O_WRONLY)
                self._zygote = fork_server()
                self.pid = self._zygote.spawn(self.source_path, scratch)
            finally:
                os.close(reader)
            fds["pidfd"] = os.pidfd_open(self.pid)
            # The worker holds the only write end of `out` until it exits, so
            # no hang-up there now proves that the pidfd names the live worker.
            if _ready(fds["responses"]):
                raise ExecutionError(f"worker exited at start: {self._stderr_tail()}")
        except BaseException:
            _end_worker(fds, scratch, self._owner)
            raise
        self._requests, self._responses, self._pidfd = fds["requests"], fds["responses"], fds["pidfd"]
        self._finalizer = weakref.finalize(self, _end_worker, fds, scratch, self._owner)

    def call(self, entry: str, args: Mapping[str, Any]) -> Any:
        request = json.dumps({"entry": entry, "args": dict(args)}, ensure_ascii=False)
        with self._lock:
            if not self._finalizer.alive:  # its descriptor numbers may name other files by now
                raise ExecutionError("worker is closed")
            raw = self._exchange(request, self.call_timeout)
        return _decode_response(raw, self._stderr_tail).get("result")

    def _exited(self) -> bool:
        return _ready(self._pidfd)

    def _kill(self) -> None:
        _kill_worker(self._pidfd)


class ForkServer(_HarnessProcess):
    """A zygote harness that forks one fresh child per run, and warm
    workers; see the module docstring. Thread-safe: requests are serialized."""

    def run(
        self,
        source_path: str | Path,
        entry: str,
        args: Mapping[str, Any] | Sequence[Mapping[str, Any]],
        timeout: float | None = DEFAULT_INVOKE_TIMEOUT,
    ) -> Any:
        """entry(**args) from `source_path`, in a child forked for this run:
        for one mapping, its result or its failure raised; for a list, one
        outcome per call (each timed apart) up to the first failure, whose
        outcome is the exception it would raise."""
        if isinstance(args, Mapping):
            outcomes = self.run(source_path, entry, [args], timeout)
            if isinstance(outcomes[0], AskitError):
                raise outcomes.pop()  # held by no local of this frame, which its traceback holds
            return outcomes[0]
        grace, outcomes = None if timeout is None else timeout + FORK_SERVER_GRACE, []
        with scratch_dir("askit-run-") as scratch:
            request = json.dumps({"source": os.path.abspath(source_path), "scratch": scratch, "timeout": timeout,
                                  "entry": entry, "args": [dict(arg_set) for arg_set in args]}, ensure_ascii=False)
            with self._lock:
                self._ensure_zygote()
                logged = os.path.getsize(self._stderr_path)
                while len(outcomes) < len(args):
                    try:
                        raw = self._receive(grace) if outcomes else self._exchange(request, grace)
                        document = _decode_response(raw, lambda since=logged: self._stderr_tail(since))
                    except AskitError as exc:  # ExecutionError, ExecutionTimeout or ProtocolError
                        # A copy without traceback: through its frames' callers, the caller's
                        # frame would hold it in a reference cycle, and with it the zygote.
                        return [*outcomes, type(exc)(*exc.args)]
                    outcomes.append(document.get("result"))
                    logged = document.get("logged", logged)
        return outcomes

    def spawn(self, source_path: str, scratch: str) -> int:
        """The pid of a new warm worker for `source_path`, answering on the FIFOs in `scratch`."""
        request = json.dumps({"worker": True, "source": source_path, "scratch": scratch}, ensure_ascii=False)
        with self._lock:
            self._ensure_zygote()
            logged = os.path.getsize(self._stderr_path)
            raw = self._exchange(request, FORK_SERVER_GRACE)
            return _decode_response(raw, lambda: self._stderr_tail(logged)).get("result")

    def _ensure_zygote(self) -> None:  # hold self._lock
        if not self.alive:
            self.close()
            self._start(["--fork-server"])


_server_lock = threading.Lock()
_server: weakref.ref[ForkServer] | None = None


def fork_server() -> ForkServer:
    """The process's shared fork server; a new one when no holder keeps one
    alive. Its zygote starts at its first request."""
    global _server
    with _server_lock:
        server = _server() if _server is not None else None
        if server is None:
            server = ForkServer()
            _server = weakref.ref(server)
        return server


def close() -> None:
    """End the shared zygote now; a later request starts it again."""
    server = _server() if _server is not None else None
    if server is not None:
        server.close()


def _forget_server() -> None:
    global _server, _server_lock
    _server, _server_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_server)  # a forked copy starts a zygote of its own


def _kill_worker(pidfd: int) -> None:
    """SIGKILL through a pidfd, then wait until the worker has exited; its zygote reaps it."""
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        return
    _ready(pidfd, 2.0)


def _end_worker(fds: dict[str, int], scratch: str, owner: int) -> None:
    """Kill the worker and close its descriptors; in a forked copy, the latter alone."""
    try:
        if os.getpid() == owner and "pidfd" in fds:
            _kill_worker(fds["pidfd"])
    finally:
        for fd in fds.values():
            os.close(fd)
        _remove_scratch(scratch, owner)


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
        _remove_scratch(scratch, owner)
