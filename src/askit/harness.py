"""Child-process harness that loads generated source and calls one function.

Run as a plain script by `python -I -S -B`, never imported by the parent:

    python -I -S -B harness.py SOURCE_FILE          one request, one response
    python -I -S -B harness.py SOURCE_FILE --serve  one request per line, loop
    python -I -S -B harness.py --fork-server        one forked child per line

Wire protocol, one JSON document per direction:

    request   {"entry": <name>, "args": {...}}
    response  {"ok": true, "result": ...}
    response  {"ok": false, "error": <text>}

The harness keeps the protocol channel to itself: the real stdout/stdin file
descriptors are duplicated away before user code runs, fd 1 is pointed at
stderr (so stray prints cannot corrupt responses) and fd 0 at /dev/null.

The fork server is a zygote: it never loads generated code itself. Each of
its requests also names the source file, a scratch directory and a timeout
in seconds:

    {"source": <path>, "scratch": <dir>, "timeout": <s>, "entry": ..., "args": ...}

For each one it forks a child that changes into the scratch directory
(which becomes its TMPDIR and HOME as well), installs the sandbox, loads the
source, answers the request exactly as the one-shot mode does and leaves
with os._exit. The zygote waits for that child, kills it on timeout or when
its response grows past MAX_RESPONSE_BYTES, and relays exactly one response
line; a timeout is reported as {"ok": false, "timeout": true, ...}. The
parent (runner.ForkServer) creates every scratch directory and removes it.
Before its first request the zygote compiles an empty string, so that its
children inherit the compiler's lazy state instead of each building it.

Before executing the generated source an audit-hook sandbox is installed in
the process that runs it: file writes, renames and deletes outside the
scratch directory (the working directory) are denied, as are sockets,
subprocesses, exec and signals to other processes. This is containment
against careless generated code, not a security boundary against a
determined adversary; a wall-clock timeout is enforced from outside.

This file is intentionally self-contained (stdlib only): the parent starts it
without `site`, so neither the harness nor generated code sees site-packages
or runs .pth hooks, and generated code can import the standard library only.
"""

import json
import os
import select
import signal
import sys
import time
import traceback

# Longest response line, newline excluded, that either side of a pipe accepts.
MAX_RESPONSE_BYTES = 16 << 20

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


def install_sandbox(scratch_root):
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

    sys.addaudithook(hook)


def load_module(source_path):
    with open(source_path, encoding="utf-8") as handle:
        source = handle.read()
    namespace = {"__name__": "askit_generated", "__file__": source_path}
    code = compile(source, source_path, "exec")
    exec(code, namespace)
    return namespace


def load(source_path):
    """The module's namespace and None, or an empty one and the load error."""
    try:
        return load_module(source_path), None
    except BaseException as exc:  # noqa: BLE001
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return {}, f"generated source failed to load: {line}"


def handle_request(namespace, load_error, request):
    if load_error is not None:
        return {"ok": False, "error": load_error}
    try:
        entry = request["entry"]
        args = request.get("args") or {}
    except (TypeError, KeyError):
        return {"ok": False, "error": "request must be an object with an 'entry' field"}
    function = namespace.get(entry)
    if not callable(function):
        return {"ok": False, "error": f"generated source defines no function named {entry!r}"}
    try:
        result = function(**args)
    except BaseException as exc:  # noqa: BLE001 - everything becomes an error doc
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return {"ok": False, "error": line}
    return {"ok": True, "result": result}


def encode_response(response):
    try:
        return json.dumps(response, ensure_ascii=False)
    except (TypeError, ValueError) as exc:
        return json.dumps({"ok": False, "error": f"result is not JSON-serializable: {exc}"})


def answer(source_path, request):
    """Load the source fresh and answer one request: the one-shot run."""
    return encode_response(handle_request(*load(source_path), request))


def write_line(fd, text):
    data = memoryview((text + "\n").encode("utf-8"))
    while data:
        data = data[os.write(fd, data):]


def read_line(fd, timeout, limit):
    """The first line on `fd`, without its newline, read within `timeout`
    seconds (None: no limit). Returns (line, None) or (b"", why), where why
    is "timeout", "closed" (end of file first) or "oversize" (over `limit`)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    data = bytearray()
    while (end := data.find(b"\n")) < 0 and len(data) <= limit:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        if not select.select([fd], [], [], remaining)[0]:
            return b"", "timeout"
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"", "closed"
        data += chunk
    if end < 0 or end > limit:
        return b"", "oversize"
    return bytes(data[:end]), None


def run_forked(request, protocol_fds):
    """Answer `request` in a forked child; the response line it wrote, or an
    error document when it wrote none in time."""
    scratch, timeout = request["scratch"], request["timeout"]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            for fd in (read_fd, *protocol_fds):
                os.close(fd)
            os.chdir(scratch)
            os.environ["TMPDIR"] = os.environ["HOME"] = scratch
            install_sandbox(scratch)
            write_line(write_fd, answer(request["source"], request))
            status = 0
        except BaseException:  # noqa: BLE001
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()  # stray prints reach the stderr log
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(write_fd)
    try:
        line, why = read_line(read_fd, timeout, MAX_RESPONSE_BYTES)
    finally:
        # Reap the child on every path; one still running here has answered,
        # closed its pipe, overrun its time or outgrown the response limit.
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if why is None:
        return line.decode("utf-8", errors="replace")
    if why == "timeout":
        error = {"ok": False, "timeout": True, "error": f"{request.get('entry')} exceeded {timeout}s"}
    elif why == "oversize":
        error = {"ok": False, "error": f"response exceeds {MAX_RESPONSE_BYTES} bytes"}
    else:
        error = {"ok": False, "error": f"harness exited with status {status}"}
    return encode_response(error)


def main(argv):
    fork_server = argv[1:] == ["--fork-server"]
    if len(argv) < 2 or (argv[1].startswith("--") and not fork_server):
        print("usage: harness.py SOURCE_FILE [--serve] | harness.py --fork-server", file=sys.stderr)
        return 2

    # Claim the protocol descriptors before any user code can touch them.
    protocol_out = os.dup(1)
    protocol_in = os.dup(0)
    os.dup2(2, 1)
    devnull_fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull_fd, 0)
    os.close(devnull_fd)
    requests = os.fdopen(protocol_in, "r", encoding="utf-8")

    def respond(response):
        write_line(protocol_out, encode_response(response))

    def lines():
        for line in requests:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError as exc:
                respond({"ok": False, "error": f"request is not valid JSON: {exc}"})

    if fork_server:
        # A terminated zygote still reaps the child it is waiting for, then
        # leaves at once: it holds nothing worth finalizing.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
        # Without `site` nothing has compiled yet; a child would spend about
        # 2 ms building the compiler's lazy state in its first compile().
        compile("", "<warm-up>", "exec")
        try:
            for request in lines():
                try:
                    response = run_forked(request, (protocol_in, protocol_out))
                except (TypeError, KeyError) as exc:
                    response = encode_response({"ok": False, "error": f"fork request is malformed: {exc!r}"})
                write_line(protocol_out, response)
        except SystemExit:
            pass
        os._exit(0)

    source_path = argv[1]
    install_sandbox(os.getcwd())
    if "--serve" in argv[2:]:
        namespace, load_error = load(source_path)
        for request in lines():
            respond(handle_request(namespace, load_error, request))
        return 0
    # Drain the request before touching user code so a large payload can
    # never deadlock against a module that is slow to load.
    raw = requests.read()
    try:
        request = json.loads(raw)
    except ValueError as exc:
        respond({"ok": False, "error": f"request is not valid JSON: {exc}"})
        return 0
    write_line(protocol_out, answer(source_path, request))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
