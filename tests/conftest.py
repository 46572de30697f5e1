"""Suite-wide guards and shared paths.

The whole suite runs offline: every in-process socket connection attempt is
turned into an error. Harness child processes additionally deny sockets via
their own sandbox hook.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_TASKS = REPO / "tasks" / "demo.json"
DEMO_FIXTURES = REPO / "fixtures" / "demo.jsonl"


def _deny(*args, **kwargs):
    raise RuntimeError("network access is disabled during tests")


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    monkeypatch.setattr(socket.socket, "connect", _deny)
    monkeypatch.setattr(socket.socket, "connect_ex", _deny)
    monkeypatch.setattr(socket, "create_connection", _deny)


def live_children():
    """Process ids of this process's children that are still running."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update((task / "children").read_text().split())
        except OSError:
            continue
    return pids


def parent_of(pid) -> int | None:
    """The parent pid of a process that exists (a zombie included), else None."""
    try:
        return int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def gone(pid, timeout: float = 5.0, zombie_ok: bool = False) -> bool:
    """Whether the process has exited and been reaped (or, with zombie_ok,
    at least exited) within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return True
        if zombie_ok and state in ("Z", "X"):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def source_of(path) -> tuple[str, str]:
    """The name and the text that a run or a Worker takes for the source file at `path`."""
    return str(path), Path(path).read_text(encoding="utf-8")


def count_starts(monkeypatch):
    """The arguments after the script of each harness interpreter started from
    now on, in a list that fills as runner.ForkServer._start is called."""
    from askit import runner

    starts, real_start = [], runner.ForkServer._start

    def start(self):
        real_start(self)
        starts.append(self._proc.args[5:])

    monkeypatch.setattr(runner.ForkServer, "_start", start)
    return starts


@pytest.fixture
def golden():
    def read(name: str) -> str:
        return (GOLDEN / name).read_text(encoding="utf-8")

    return read
