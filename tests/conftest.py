"""Suite-wide guards and shared paths.

The whole suite runs offline: every in-process socket connection attempt is
turned into an error. Harness child processes additionally deny sockets via
their own sandbox hook.
"""

from __future__ import annotations

import socket
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


@pytest.fixture
def golden():
    def read(name: str) -> str:
        return (GOLDEN / name).read_text(encoding="utf-8")

    return read
