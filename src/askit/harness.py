"""Child-process harness: a zygote that forks the children that run generated code.

Run as a script, its only mode; the parent starts it from bytecode and imports
it only for MAX_RESPONSE_BYTES, its line readers and writers, dumps and loads:

    python -I -S -B harness.py --fork-server        one forked child per line

The zygote never runs generated code and reads no caller's file. Its stdin
and stdout are one end of a socket pair. It answers each request line with
the pid of a child it forks, sent along with a pidfd of that child
(fork_request), or an error:

    {"source": <name>, "text": <str>, "entry": ..., "args": [{...}, ...]}   a run
    {"source": <name>, "text": <str>, "scratch": <dir>}                     a warm worker

A request line carries, as SCM_RIGHTS data, the write end of the pipe `out`
the child answers on, for a worker the read end of the pipe `in` it reads,
and the child's log, an anonymous file in memory (its fds 1 and 2, so stray
prints cannot corrupt its answers): 2 descriptors for a run, 3 for a worker.
The caller holds the other ends and reads the log with pread. "text" is the
source, compiled under the name "source" joined to the child's directory
(an absolute name stays as it is); no file of that name is read or written.
A worker works in its caller's "scratch"; a run in a directory (mode 0700)
that the zygote makes in its own working directory and, once it has reaped
the child, keeps for the next run if it is as made and fewer than two are
kept, else removes (recycle). One JSON document per line each way:

    request   {"entry": <name>, "args": {...}}
    response  {"ok": true, "result": ...}
    response  {"ok": false, "error": <text>}

A run's child answers the sets on `out` in order, each in a fresh namespace,
up to its first error document, and leaves (answer_each); a worker loads the
source once and answers each line on `in` until end of file (serve). The
caller enforces timeouts and the size cap and kills through the pidfd. The
zygote keeps its copy of each child's `out`: once it has reaped an exited
child (on SIGCHLD, one waitid) it writes {"ok": false, "error": "harness
exited with status N"} there, after a newline, which ends the line of a
child killed in mid-answer. Its owner ends it with SIGKILL; a child needs
nothing from it. End of input means that the owner has gone without ending
it: the zygote kills every child, reaps them, and removes their scratch
directories and its own.

Before executing the generated source an audit-hook sandbox is installed in
the process that runs it: file writes, renames and deletes outside the
scratch directory (the working directory) are denied, as are sockets,
subprocesses, exec and signals to other processes. This is containment
against careless generated code, not a security boundary against a
determined adversary; a wall-clock timeout is enforced from outside.

This file is self-contained (stdlib only): started without `site`, neither
the harness nor generated code sees site-packages or runs .pth hooks. At
start it imports only built-in and C modules (os, sys, select, time,
itertools, _signal, _json, _socket, _thread): json, re, enum and traceback
would add about 25 ms, over half of a harness start. loads, dumps,
error_line and remove_tree stand in for them and for shutil; rare paths
(malformed JSON, an unserializable result, a SyntaxError, notes) import the
real module.
"""

import os
import select
import sys
import time

import _json
import _signal
import _socket
import _thread
import itertools

# Longest response line, newline excluded, that either side of a pipe accepts.
MAX_RESPONSE_BYTES = 16 << 20
SUCCESS = '{"ok": true'  # how encode_response starts every success

WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC | os.O_EXCL

DENIED_ALWAYS = {
    "socket.connect",
    "socket.connect_ex",
    "socket.bind",
    "socket.sendto",
    "socket.sendmsg",
    "subprocess.Popen",
    "os.system",
    "os.exec",
    "os.posix_spawn",
    "os.spawn",
    "os.fork",
    "os.forkpty",
    "os.kill",
    "os.killpg",
    "signal.pthread_kill",
}

PATH_EVENTS = {
    "os.mkdir",
    "os.rmdir",
    "os.remove",
    "os.rename",
    "os.replace",
    "os.link",
    "os.symlink",
    "os.truncate",
    "os.chmod",
    "shutil.rmtree",
    "shutil.move",
}


def sandbox_hook(scratch_root):
    """The audit hook that confines generated code to `scratch_root`."""
    allowed_prefix = os.path.realpath(scratch_root) + os.sep
    devnull = os.path.realpath(os.devnull)

    def allowed(path):
        if isinstance(path, int) or path is None:
            return True  # fd-based ops act on files that passed the open check
        if isinstance(path, bytes):
            path = os.fsdecode(path)
        if not isinstance(path, str):
            return True
        real = os.path.realpath(path)
        return real == devnull or real == allowed_prefix[:-1] or real.startswith(allowed_prefix)

    def hook(event, args):
        if event in DENIED_ALWAYS:
            raise PermissionError(f"sandbox: {event} is not allowed in generated code")
        if event == "open":
            path, mode, flags = args
            writing = ("w" in mode or "a" in mode or "x" in mode or "+" in mode) if mode else bool(flags & WRITE_FLAGS)
            if writing and not allowed(path):
                raise PermissionError(f"sandbox: write outside scratch directory: {path!r}")
        elif event in PATH_EVENTS:
            for candidate in args[:2]:
                if not allowed(candidate):
                    raise PermissionError(f"sandbox: {event} outside scratch directory: {candidate!r}")

    return hook


class _JSONDecoderContext:  # what _json.make_scanner reads from a json.JSONDecoder()
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}.__getitem__


_scan_json = _json.make_scanner(_JSONDecoderContext)
JSON_WHITESPACE = " \t\n\r"


def loads(text):
    """json.loads(text) for a str."""
    try:
        value, end = _scan_json(text, 0 if text[:1] not in JSON_WHITESPACE else len(text) - len(text.lstrip(JSON_WHITESPACE)))
        if end == len(text) or end >= len(text.rstrip(JSON_WHITESPACE)):
            return value
    except Exception:  # noqa: BLE001 - StopIteration, or SystemError without json.decoder
        pass
    import json  # malformed or trailing input: json raises its own error
    return json.loads(text)


def _not_serializable(value):  # json.JSONEncoder.default
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


_encoders = _thread._local()  # one per thread: an encoder's markers dict is not shared


def dumps(value):
    """json.dumps(value, ensure_ascii=False)."""
    if (encode := getattr(_encoders, "encode", None)) is None:
        # markers, default, encoder, indent, separators, sort_keys, skipkeys, allow_nan
        encode = _encoders.encode = _json.make_encoder({}, _not_serializable, _json.encode_basestring, None, ": ", ", ", False, False, True)
    try:
        return "".join(encode(value, 0))
    except BaseException:
        encode.markers.clear()  # the ids that an encoding which raised left behind
        raise


# Exceptions whose line traceback builds from more than type and str(): the
# source line of a SyntaxError and, from Python 3.12 on, "Did you mean" hints.
# Checked up to 3.13; a later Python may hint more, so traceback does it all.
_TRACEBACK_FORMATS = (SyntaxError, *((ImportError, NameError, AttributeError) if sys.version_info >= (3, 12) else ()))
if sys.version_info >= (3, 14):
    _TRACEBACK_FORMATS = BaseException


def error_line(exc):
    """traceback.format_exception_only(type(exc), exc)[-1].strip()."""
    try:
        text = str(exc)
        plain = getattr(exc, "__notes__", None) is None and not isinstance(exc, _TRACEBACK_FORMATS)
    except BaseException:  # noqa: BLE001 - traceback has its own fallback text
        plain = False
    if not plain:
        import traceback
        return traceback.format_exception_only(type(exc), exc)[-1].strip()
    name, module = type(exc).__qualname__, type(exc).__module__
    if module not in ("__main__", "builtins"):
        name = f"{module if isinstance(module, str) else '<unknown>'}.{name}"
    return (f"{name}: {text}" if text else name).strip()


def preload(text):
    """Import json and traceback, and with them re, enum, collections,
    functools, tokenize and linecache, when a line of the source `text`
    starting with `import` or `from` names a standard-library module not
    loaded yet. Much of the pure-Python standard library builds on these;
    each child would otherwise load them again, about 10 ms for re alone."""
    for words in (line.replace(",", " ").split() for line in text.splitlines()):
        if words[:1] in (["import"], ["from"]):
            named = {word.partition(".")[0] for word in words[1:]} & sys.stdlib_module_names
            if named - sys.modules.keys():
                import json, traceback  # noqa: F401
                return


# Names the zygote's compile cache keeps before it starts over: one per
# function run by absolute path (a process may compile many functions) and
# per run directory of a relative one, such as a vetted candidate's.
COMPILED_PATHS = 64


def compile_once(name, text, cache):
    """The code object of the source `text` compiled under the file name
    `name` (after preload), compiled only when the text differs from the one
    `cache` holds for that name; the exception when it does not compile,
    which the child reports. `cache` maps a name to its (text, code object)."""
    try:
        cached = cache.get(name)
        if cached is None or cached[0] != text:
            preload(text)
            if len(cache) >= COMPILED_PATHS:
                cache.clear()
            cached = cache[name] = text, compile(text, name, "exec")
        return cached[1]
    except Exception as exc:  # noqa: BLE001 - the child reports it
        return exc


def load(source_path, code):
    """The module's namespace and None, or an empty one and the load error (`code` is compile_once's)."""
    namespace = {"__name__": "askit_generated", "__file__": source_path}
    try:
        if isinstance(code, BaseException):
            raise code
        exec(code, namespace)
        return namespace, None
    except BaseException as exc:  # noqa: BLE001
        return {}, f"generated source failed to load: {error_line(exc)}"


def handle_request(namespace, load_error, request):
    if load_error is not None:
        return {"ok": False, "error": load_error}
    try:
        entry = request["entry"]
        args = request.get("args") or {}
        function = namespace.get(entry)
    except (TypeError, KeyError):  # not a dict, no entry, or an unhashable one
        return {"ok": False, "error": "request must be an object with an 'entry' field"}
    if not callable(function):
        return {"ok": False, "error": f"generated source defines no function named {entry!r}"}
    try:
        result = function(**args)
    except BaseException as exc:  # noqa: BLE001 - everything becomes an error doc
        return {"ok": False, "error": error_line(exc)}
    return {"ok": True, "result": result}


def encode_response(response):
    try:
        return dumps(response)
    except (TypeError, ValueError, RecursionError) as exc:
        import json  # this text stays ASCII-escaped
        return json.dumps({"ok": False, "error": f"result is not JSON-serializable: {exc}"})


def write_line(fd, text):
    data = (text + "\n").encode("utf-8")
    if (written := os.write(fd, data)) < len(data):  # a line longer than the pipe holds
        data = memoryview(data)[written:]
        while data:
            data = data[os.write(fd, data):]


def read_line(fd, timeout, limit, data=None):
    """The first line on `fd` (non-blocking: a line already there costs no
    select), without its newline, read within `timeout` seconds (None: no
    limit). Returns (line, None) or (b"", why), where why is "timeout",
    "closed" (end of file first) or "oversize" (over `limit`). `data`, a
    bytearray, keeps what is read past the line for the next call."""
    deadline = None if timeout is None else time.monotonic() + timeout
    data = bytearray() if data is None else data
    while (end := data.find(b"\n")) < 0 and len(data) <= limit:
        try:
            chunk = os.read(fd, 65536)
        except BlockingIOError:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not select.select([fd], [], [], remaining)[0]:
                return b"", "timeout"
            continue
        if not chunk:
            return b"", "closed"
        if not data and chunk.find(b"\n") == len(chunk) - 1 <= limit:
            return chunk[:-1], None  # one whole line, as a warm call's answer comes
        data += chunk
    if end < 0 or end > limit:
        return b"", "oversize"
    line, data[:end + 1] = bytes(data[:end]), b""
    return line, None


def send_line(channel, text, fds=()):
    """write_line on the stream socket `channel`, with the descriptors `fds`."""
    data = (text + "\n").encode("utf-8")
    rights = [(_socket.SOL_SOCKET, _socket.SCM_RIGHTS, b"".join(fd.to_bytes(4, sys.byteorder) for fd in fds))]
    if (sent := channel.sendmsg([data], rights, _socket.MSG_NOSIGNAL)) < len(data):  # EPIPE, never SIGPIPE
        channel.sendall(data[sent:], _socket.MSG_NOSIGNAL)  # not sendall(b""), which fails once the peer has gone


def receive_line(channel):
    """The next line on the stream socket `channel` without its newline (None at end
    of file), and the descriptors sent with it; a peer sends no line before the answer."""
    data, fds = bytearray(), []
    while not data.endswith(b"\n"):
        # Room for 4 descriptors, more than a line may carry, so that extra ones show.
        chunk, ancillary, _, _ = channel.recvmsg(65536, _socket.CMSG_SPACE(16), _socket.MSG_CMSG_CLOEXEC)
        for _, _, payload in ancillary:  # SCM_RIGHTS: nothing else is enabled
            fds += memoryview(payload).cast("i")
        if not chunk:
            return None, fds
        data += chunk
    return bytes(data[:-1]), fds


def fork_child(scratch, log, inherited, body):
    """Fork a child that logs to `log` (its fds 1 and 2), closes the zygote's
    descriptors in `inherited`, changes into `scratch` (also its TMPDIR and
    HOME), installs the sandbox, runs body() and leaves with os._exit; its
    pid. Hook and environment are made before the fork: a page a child writes costs a fault."""
    hook = sandbox_hook(scratch)
    os.environ["TMPDIR"] = os.environ["HOME"] = scratch
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _signal.signal(_signal.SIGCHLD, _signal.SIG_DFL)
            _signal.pthread_sigmask(_signal.SIG_UNBLOCK, {_signal.SIGCHLD})
            for fd in (1, 2):
                os.dup2(log, fd)
            for fd in inherited:
                os.close(fd)
            os.chdir(scratch)
            sys.addaudithook(hook)
            body()
            status = 0
        except BaseException:  # noqa: BLE001
            sys.__excepthook__(*sys.exc_info())
        finally:
            try:
                sys.stdout.flush()  # stray prints reach the log
                sys.stderr.flush()
            finally:
                os._exit(status)
    return pid


_run_numbers = itertools.count()  # names the run directories the zygote makes


def fork_request(line, fds, channel, children, compiled, idle):
    """Fork the child that the fork request `line` asks for; its pid and a
    pidfd. A run's child (the request has "args") answers them (answer_each)
    in a directory from `idle`, which reap fills, or a new one; a warm worker
    reads requests from the pipe end fds[1] (serve). Each answers on the
    pipe end fds[0], which `children` keeps for reap with the directory, and
    logs to fds[-1]; the other descriptors in `fds` are closed. `compiled` is
    the compile_once cache. SIGCHLD is blocked: no reap until `children` holds the pid."""
    try:
        request = loads(line.decode("utf-8"))
        source, text, run = request["source"], request["text"], "args" in request
        if len(fds) != (2 if run else 3):
            raise ValueError(f"{len(fds)} descriptors for a {'run' if run else 'worker'}")
        if run and not idle:
            idle.append(os.path.join(os.getcwd(), f"askit-run-{next(_run_numbers)}"))
            os.mkdir(idle[-1], 0o700)
        scratch = idle.pop() if run else request["scratch"]
        source = os.path.join(scratch, source)  # an absolute name stays as it is
        code = compile_once(source, text, compiled)
        out, *pipe_in, log = fds
        body = (lambda: answer_each(source, request, code, out)) if run else (lambda: serve(*pipe_in, out, source, code, scratch))
        pid = fork_child(scratch, log, (channel.fileno(), log, *(kept for kept, _, _ in children.values())), body)
        children[pid] = fds.pop(0), scratch, run
        try:
            return pid, os.pidfd_open(pid)
        except OSError:
            os.kill(pid, _signal.SIGKILL)  # not reaped, so not reused: SIGCHLD is blocked
            raise
    finally:
        for fd in fds:
            os.close(fd)


def serve(pipe_in, out, source, code, scratch):
    """A worker's life: load once, answer each line on `pipe_in` until end of
    input. That, or a closed `out`, means that its caller, who would kill it,
    has gone: then it removes its scratch directory."""
    namespace, load_error = load(source, code)
    try:
        for line in os.fdopen(pipe_in, "rb"):
            if line := line.decode("utf-8").strip():
                try:
                    response = handle_request(namespace, load_error, loads(line))
                except ValueError as exc:  # from loads: handle_request raises no ValueError
                    response = {"ok": False, "error": f"request is not valid JSON: {exc}"}
                write_line(out, encode_response(response))
    except BrokenPipeError:
        pass
    remove_tree(scratch)


def answer_each(source_path, request, code, fd):
    """A run's child: answer each argument set of `request` in order with one
    line on `fd`, each in a fresh namespace, up to the first error. A success
    also carries "logged", the log's size after its set's output."""
    for args in request["args"]:
        response = handle_request(*load(source_path, code), {**request, "args": args})
        sys.stdout.flush()
        sys.stderr.flush()
        response["logged"] = os.fstat(2).st_size
        write_line(fd, line := encode_response(response))
        if not line.startswith(SUCCESS):
            return


def reap(children, idle):
    """Reap each child in `children` that has exited, with one waitid. It maps a
    pid to the zygote's copy of that child's `out`, its scratch directory and
    whether it ran a run (whose directory goes to recycle): the child's exit
    status then goes to `out` as an error document, which its caller reads in
    place of an answer; a full pipe drops it (the copy shares the child's file
    description, so it is made non-blocking only now)."""
    for pid in list(children):
        try:
            exited = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG)
        except ChildProcessError:  # reaped meanwhile, by a reap that interrupted this one
            continue
        if exited is None:
            continue
        status = exited.si_status if exited.si_code == os.CLD_EXITED else -exited.si_status
        out, scratch, run = children.pop(pid)
        try:
            os.set_blocking(out, False)  # after a newline: a child killed in mid-answer left its line open
            write_line(out, "\n" + encode_response({"ok": False, "error": f"harness exited with status {status}"}))
        except OSError:  # the caller has gone, or reads no more
            pass
        os.close(out)
        if run:
            recycle(scratch, idle)


def recycle(scratch, idle):
    """Keep a reaped run's directory in `idle` if it is as made (empty, mode
    0700) and fewer than two are: the next request may come before the last
    child is reaped. Else remove it."""
    try:
        if len(idle) < 2 and os.lstat(scratch).st_mode == 0o40700 and not os.listdir(scratch):
            idle.append(scratch)
            return
    except OSError:  # gone, or its mode denies the listing
        pass
    remove_tree(scratch)


def remove_tree(directory):
    """shutil.rmtree(directory, ignore_errors=True), each directory made
    writable first, without shutil, which would bring re to every later child."""
    try:
        os.chmod(directory, 0o700)
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    remove_tree(entry.path)
                else:
                    os.unlink(entry.path)
        os.rmdir(directory)
    except (OSError, RecursionError):  # RecursionError: a tree deeper than the stack is left
        pass


def main(argv):
    if argv[1:] != ["--fork-server"]:
        print("usage: harness.py --fork-server", file=sys.stderr)
        return 2

    # Claim the protocol socket: no child may read or write it.
    channel = _socket.socket(fileno=os.dup(0))
    os.dup2(2, 1)
    devnull_fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull_fd, 0)
    os.close(devnull_fd)

    compiled, children, idle = {}, {}, []
    _signal.signal(_signal.SIGCHLD, lambda signum, frame: reap(children, idle))
    while (received := receive_line(channel))[0] is not None:
        # A child that exits meanwhile, often the last one, is reaped once the answer is out.
        _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGCHLD})
        pidfd = []
        try:
            pid, *pidfd = fork_request(*received, channel, children, compiled, idle)
            response = {"ok": True, "result": pid}
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            response = {"ok": False, "error": f"fork request is malformed: {exc!r}"}
        except OSError as exc:
            response = {"ok": False, "error": f"fork request failed: {exc}"}
        try:
            send_line(channel, encode_response(response), pidfd)
        except OSError:  # the owner has gone: end of input comes next
            pass
        for fd in pidfd:
            os.close(fd)
        _signal.pthread_sigmask(_signal.SIG_UNBLOCK, {_signal.SIGCHLD})
    # The owner has gone without ending the zygote: no child has a caller now.
    _signal.signal(_signal.SIGCHLD, _signal.SIG_DFL)
    for pid, (_, scratch, _) in children.items():
        os.kill(pid, _signal.SIGKILL)
        os.waitpid(pid, 0)
        remove_tree(scratch)
    remove_tree(os.getcwd())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
