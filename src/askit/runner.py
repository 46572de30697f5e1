"""Parent-side drivers for the execution harness.

ForkServer keeps one zygote harness alive that never runs generated code.
Its lock covers one fork request, sent over a socket pair with the child's
pipe ends and its log, which the zygote answers with the pid and a pidfd of
a child. The caller then talks to that child alone over the pipes, enforces
each answer's timeout and size cap (MAX_RESPONSE_BYTES), and kills it
through the pidfd, which never names a reused pid; the zygote reaps it, then
answers for it with its exit status. Every child logs to an anonymous file
in memory that its caller makes (_Child) and reads with pread (_tail). Each
run() forks one fresh child that answers a list of argument sets in order,
each in a fresh module namespace (process-wide state carries over), in a
directory (askit-run-*) that the zygote makes in its own and keeps for the
next run when the child left it as made. A Worker loads the generated module
once, so module state persists across calls, and answers each line on `in`
until end of input, in a directory (askit-worker-*) its caller makes, since
a worker outlives a zygote that close() kills. Every fork request carries
the source's text inline, so a child runs the text its caller holds and the
zygote reads no caller file. The zygote starts at the first fork request and
is replaced when found dead before one.

A process shares one ForkServer, which fork_server() returns and this module
holds by a weak reference only. run_once (codegen's vetting, call_isolated)
runs on it and every Worker is forked by it. Its holders keep it alive:
codegen.generate while it runs, each open CompiledFunction (in a forked
copy, from its first call_isolated on), a DefinedFunction from its first
compile miss on, the `askit` command line, and each Worker. When the last
holder goes, or at close(), the zygote is killed and its directory removed:
open workers still answer, and so does a run in flight, but its directory is
gone. A later request starts the zygote again; at end of input (the process
has gone) it kills every child it forked. A forked copy starts its own.

The zygote is the only interpreter askit starts: `python -I -S -B
<scratch>/harness.pyc`, from bytecode compiled once per process, in its
own askit-worker-* scratch directory, without `site` (generated code sees
the standard library only) and with a minimal environment. A fork request is
one line each way under a deadline; the zygote logs to an anonymous file in
memory too. Only the process that made a scratch directory removes it
(scratch_dir; the zygote's, with the run directories in it, when the zygote
ends: _shutdown), or once it has gone the harness, and only the one
that started the zygote or asked for a child signals it: in a forked copy
either reads as not alive, and closing it there closes that copy's descriptors.
"""

from __future__ import annotations

import _socket
import functools
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
from contextlib import contextmanager, suppress
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import AskitError, ExecutionError, ExecutionTimeout, ProtocolError
from .harness import MAX_RESPONSE_BYTES, dumps, loads, read_line, receive_line, send_line, write_line

HARNESS_PATH = Path(__file__).with_name("harness.py")

DEFAULT_INVOKE_TIMEOUT = 10.0
# Time the zygote gets to answer a fork request.
FORK_SERVER_GRACE = 5.0


@functools.cache
def _harness_pyc() -> bytes:
    """harness.py as .pyc bytes, compiled once per process. Run as a script,
    a .pyc is checked for its magic number only, not for flags, mtime or size."""
    code = compile(HARNESS_PATH.read_bytes(), str(HARNESS_PATH), "exec", dont_inherit=True, optimize=0)
    return MAGIC_NUMBER + bytes(12) + marshal.dumps(code)


def _child_env(scratch: str) -> dict[str, str]:
    # Deliberately minimal: no API keys, no PYTHONPATH, temp dir inside scratch.
    return {"PATH": os.environ.get("PATH", ""), "TMPDIR": scratch, "HOME": scratch, "LANG": os.environ.get("LANG", "C.UTF-8")}


def _decode_response(raw: str, log: int | None = None, since: int = 0) -> dict:
    try:
        document = loads(raw)
    except ValueError as exc:
        raise ProtocolError(f"harness output is not valid JSON: {raw[:200]!r}") from exc
    if not isinstance(document, dict) or "ok" not in document:
        raise ProtocolError(f"harness output is not a response document: {raw[:200]!r}")
    if not document["ok"]:
        raise _failure(document.get("error", "unknown error"), log, since)
    return document


def _failure(error: str, log: int | None, since: int = 0) -> ExecutionError:
    tail = _tail(log, since) if log is not None else ""
    return ExecutionError(f"{error}\n{tail}" if tail else error)


def _tail(log: int, since: int = 0) -> str:
    """The last 500 bytes of the log `log` (a descriptor) written after offset
    `since`, read with pread: the log's writers share its file offset."""
    size = os.fstat(log).st_size
    start = max(since, size - 500)
    return os.pread(log, size - start, start).decode("utf-8", errors="replace").strip()


def run_once(name: str | Path, text: str, entry: str, args: Mapping[str, Any] | Sequence[Mapping[str, Any]],
             timeout: float = DEFAULT_INVOKE_TIMEOUT) -> Any:
    """Execute entry(**args) from the source `text` in a fresh process forked
    by the process's shared zygote; see ForkServer.run."""
    return fork_server().run(name, text, entry, args, timeout)


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


def _remove_scratch(path: str | None, owner: int) -> None:
    if path is not None and os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


class _Closing:
    """Closed on leaving a `with` block."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class _Child(_Closing):
    """A child that a zygote forked, seen from its caller: a pidfd, the read
    end of the pipe `out` it answers on, its log (an anonymous file in
    memory, the child's fds 1 and 2) and, for a warm worker, the write end
    of the pipe `in` it reads and a new askit-worker-* scratch directory.
    `run` holds a run's fields (entry, args); see harness.fork_request."""

    def __init__(self, zygote: ForkServer, name: str | Path, text: str, **run):
        self._owner, self._unread, self._fds, self._exits = os.getpid(), bytearray(), {}, select.poll()
        self._scratch = None if run else tempfile.mkdtemp(prefix="askit-worker-")
        fds, handed = self._fds, []  # handed: the child's pipe ends, which the zygote gets
        try:
            fds["out"], out = os.pipe()
            handed.append(out)
            os.set_blocking(fds["out"], False)  # for read_line; the child's end blocks
            fds["log"] = os.memfd_create("askit-log")
            if not run:
                reader, fds["in"] = os.pipe()
                handed.append(reader)
                run["scratch"] = self._scratch
            self.pid, fds["pidfd"] = zygote.spawn(name, text, [*handed, fds["log"]], **run)
            for fd in (fds["out"], fds["pidfd"]):
                self._exits.register(fd, select.POLLIN)
        except BaseException:
            _end_child(fds, self._unread, self._exits, self._scratch, self._owner)
            raise
        finally:
            for fd in handed:
                os.close(fd)
        self._finalizer = weakref.finalize(self, _end_child, fds, self._unread, self._exits, self._scratch, self._owner)

    @property
    def alive(self) -> bool:
        """Not closed, forked for this process (not for the one it was forked from) and not exited."""
        return self._finalizer.alive and self._owner == os.getpid() and not _has_left(self._fds, self._unread, self._exits)

    def _receive(self, entry: str, timeout: float | None, since: int = 0) -> dict:
        """The next answer on `out`, or the failure it reports raised with what
        the child logged after offset `since`. A child that does not answer
        within `timeout` s, or answers past MAX_RESPONSE_BYTES, is killed
        first, so that it logs nothing more."""
        out, log = self._fds["out"], self._fds["log"]
        line, why = b"", None
        while not line and why is None:  # an exit status starts on a line of its own
            line, why = read_line(out, timeout, MAX_RESPONSE_BYTES, self._unread)
        if why is None:
            try:
                return _decode_response(line.decode("utf-8", errors="replace"), log, since)
            except ProtocolError:  # a child killed in mid-answer: its exit status may follow
                status, _ = read_line(out, 0, MAX_RESPONSE_BYTES, self._unread)
                if status:
                    _decode_response(status.decode("utf-8", errors="replace"), log, since)
                raise
        # Nothing in time: no exit status yet either. Too much: the child is still
        # writing a line longer than a pipe holds. End of file: the zygote died, or
        # the child died with its answer filling the pipe, which left no room for its status.
        if why != "closed":
            _kill(self._fds["pidfd"], wait=2.0)
        if why == "timeout":
            raise ExecutionTimeout(f"{entry} exceeded {timeout}s")
        error = f"response exceeds {MAX_RESPONSE_BYTES} bytes" if why == "oversize" else "harness closed its output"
        raise _failure(error, log, since)

    def close(self) -> None:
        self._finalizer()


class WorkerLeft(ExecutionError):
    """Nothing was sent: the Worker was closed, is another process's or has exited; a new one may take the call."""


class Worker(_Child):
    """A warm harness process for one source, forked by the process's
    shared zygote, which it holds; see the module docstring. run_once is
    the fully isolated variant. Thread-safe: one lock serializes each call
    with its liveness check (which reads `out`, so outside the lock it would
    take another call's unread answer for an exit) and with close()."""

    def __init__(self, name: str | Path, text: str, call_timeout: float = DEFAULT_INVOKE_TIMEOUT):
        self.call_timeout = call_timeout
        self._lock, self._zygote = threading.Lock(), fork_server()
        super().__init__(self._zygote, name, text)

    def call(self, entry: str, args: Mapping[str, Any]) -> Any:
        """entry(**args) in the worker; WorkerLeft when it was gone before the send."""
        request = dumps({"entry": entry, "args": dict(args)})
        with self._lock:
            if not self._finalizer.alive or self._owner != os.getpid():  # its descriptors may name other files
                raise WorkerLeft("worker is closed" if self._owner == os.getpid() else "worker is another process's")
            if _has_left(self._fds, self._unread, self._exits):
                try:
                    self._receive(entry, self.call_timeout)  # its exit status, or end of file
                except AskitError as exc:
                    raise WorkerLeft(*exc.args) from None
                raise WorkerLeft("worker has exited")  # what it read was a late answer to a call that timed out
            with suppress(BrokenPipeError):  # it has exited since: its exit status is the answer
                write_line(self._fds["in"], request)
            return self._receive(entry, self.call_timeout).get("result")

    def close(self) -> None:
        with self._lock:  # not under a call that reads its descriptors
            super().close()


class ForkServer(_Closing):
    """The zygote: a harness process that never runs generated code and
    forks the child of each run and each warm worker; see the module
    docstring. Thread-safe: a fork request and close() hold its lock (an RLock)."""

    _finalizer = None

    def __init__(self):
        self._lock = threading.RLock()

    def run(self, name: str | Path, text: str, entry: str, args: Mapping[str, Any] | Sequence[Mapping[str, Any]],
            timeout: float | None = DEFAULT_INVOKE_TIMEOUT) -> Any:
        """entry(**args) from the source `text`, in a child forked for this run:
        for one mapping, its result or its failure raised; for a list, one
        outcome per call (each timed apart) up to the first failure, whose
        outcome is the exception it would raise. The text goes with the fork
        request and is compiled under `name`, which a relative name places in
        the run's own directory; no file of that name is read or written."""
        if isinstance(args, Mapping):
            outcomes = self.run(name, text, entry, [args], timeout)
            if isinstance(outcomes[0], AskitError):
                raise outcomes.pop()  # held by no local of this frame, which its traceback holds
            return outcomes[0]
        outcomes, logged, sets = [], 0, [dict(arg_set) for arg_set in args]
        try:
            with _Child(self, name, text, entry=entry, args=sets) as child:
                while len(outcomes) < len(sets):
                    document = child._receive(entry, timeout, logged)
                    outcomes.append(document.get("result"))
                    logged = document.get("logged", logged)
        except AskitError as exc:  # ExecutionError, ExecutionTimeout or ProtocolError
            # A copy without traceback: through its frames' callers, the caller's
            # frame would hold it in a reference cycle, and with it the zygote.
            outcomes.append(type(exc)(*exc.args))
        return outcomes

    def spawn(self, name: str | Path, text: str, fds: Sequence[int], **fields) -> tuple[int, int]:
        """The pid and a pidfd of a child forked for the source `text`, named
        `name`, that answers on the pipe end fds[0] and logs to fds[-1]: given
        an `entry` and a list of `args`, a run's child in a directory of the
        zygote's, else a warm worker in the directory `scratch`, which reads the
        pipe end fds[1]; see harness.fork_request."""
        request = dumps({"source": os.fspath(name), "text": text, **fields})
        with self._lock:
            if not self.alive:
                self.close()
                self._start()
            line, pidfd = self._exchange(request, fds, FORK_SERVER_GRACE)
        return _decode_response(line).get("result"), *pidfd  # the zygote sends a pidfd with a pid only

    @property
    def alive(self) -> bool:
        """Running, not closed, and started by this process, not by the one it was forked from."""
        return bool(self._finalizer and self._finalizer.alive) and self._owner == os.getpid() and self._proc.poll() is None

    def close(self) -> None:
        with self._lock:  # not under a fork request, which reads the socket and the log
            if self._finalizer is not None:
                self._finalizer()

    def _start(self) -> None:
        scratch, ends = tempfile.mkdtemp(prefix="askit-worker-"), ()
        try:
            channel, zygote_end = ends = _socket.socketpair()
            ends += (log := os.fdopen(os.memfd_create("askit-log"), "rb", buffering=0),)  # the zygote's stderr
            harness = Path(scratch) / "harness.pyc"  # not compiled at each start
            harness.write_bytes(_harness_pyc())
            # -I: script directory off sys.path, PYTHON* env vars ignored; -S: no
            # `site`, no .pth hooks (over half the start-up); -B: no bytecode writes.
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-B", str(harness), "--fork-server"],
                stdin=zygote_end.fileno(),
                stdout=zygote_end.fileno(),
                stderr=log.fileno(),
                cwd=scratch,
                env=_child_env(scratch),
            )
        except BaseException:
            for end in ends:
                end.close()
            shutil.rmtree(scratch, ignore_errors=True)
            raise
        zygote_end.close()
        self._owner, self._channel, self._log = os.getpid(), channel, log.fileno()
        self._finalizer = weakref.finalize(self, _shutdown, self._proc, (channel, log), scratch, self._owner)

    def _exchange(self, request: str, fds: Sequence[int], timeout: float) -> tuple[str, list[int]]:
        """One fork request out with the pipe ends `fds`, its one-line answer
        back with the descriptors sent along; hold self._lock. A zygote that
        fails it, or does not answer in time, is closed."""
        self._channel.settimeout(timeout)
        try:
            send_line(self._channel, request, fds)
            line, received = receive_line(self._channel)
            why = "closed" if line is None else None
        except OSError as exc:
            why, received = str(exc), []
        if why is not None:
            tail = _tail(self._log)  # before close() closes the log
            self.close()
            raise ExecutionError(f"fork server failed ({why}): {tail}")
        return line.decode("utf-8", errors="replace"), received


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


def _kill(pidfd: int, wait: float = 0.0) -> None:
    """SIGKILL through a pidfd, then wait up to `wait` s for the exit (the pidfd reads as ready); the zygote reaps."""
    with suppress(ProcessLookupError):
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    select.select([pidfd], [], [], wait)


def _has_left(fds: dict[str, int], unread: bytearray, exits: select.poll) -> bool:
    """Whether a forked child has exited, or none was forked; `exits` polls
    `out` (a late answer, or the exit status) and the pidfd."""
    return "pidfd" not in fds or bool(unread) or bool(exits.poll(0))


def _end_child(fds: dict[str, int], unread: bytearray, exits: select.poll, scratch: str | None, owner: int) -> None:
    """Kill a forked child unless it has left, close its descriptors and
    remove a worker's scratch directory (a run's is the zygote's); in a
    forked copy, close the descriptors alone."""
    try:
        if os.getpid() == owner and not _has_left(fds, unread, exits):
            _kill(fds["pidfd"])
    finally:
        for fd in fds.values():
            os.close(fd)
        fds.clear()
        _remove_scratch(scratch, owner)


def _shutdown(proc, ends, scratch, owner):
    """The one way a zygote ends: kill and reap it, close its socket and its
    log, and remove its directory with the run directories in it, even under a
    run in flight; in a forked copy, close them alone."""
    try:
        if os.getpid() == owner:
            proc.kill()
            proc.wait()
    finally:
        for end in ends:
            end.close()
        _remove_scratch(scratch, owner)
