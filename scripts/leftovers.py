#!/usr/bin/env python3
"""Run tier-1 with TMPDIR set to a fresh directory, then check that it left
nothing behind. Run from the repository root:

    python scripts/leftovers.py
    python scripts/leftovers.py tests/test_harness.py -k TestRunDirectories

Arguments are passed on to pytest, after `-q --continue-on-collection-errors`.
Once pytest has exited, the script waits up to SETTLE_SECONDS until the
directory holds nothing but pytest's own `pytest-of-*` and no process other
than this one names the directory in /proc/*/cmdline (a zygote, or a child
it forked, does). It prints one line per leftover and exits 1 if any is
still there; else it removes the directory and exits with pytest's status.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SETTLE_SECONDS = 5.0


def leftovers(directory: str) -> list[str]:
    """What a test run left in `directory`: each entry other than pytest-of-*,
    and each process other than this one whose command line names it."""
    found = [f"entry: {name}" for name in sorted(os.listdir(directory)) if not name.startswith("pytest-of-")]
    named, me = os.fsencode(directory), str(os.getpid())
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit() or proc.name == me:
            continue
        try:
            argv = (proc / "cmdline").read_bytes()
        except OSError:  # exited meanwhile, or not ours to read
            continue
        if named in argv:
            command = os.fsdecode(argv).replace("\0", " ").strip()
            found.append(f"process {proc.name}: {command}")
    return found


def settled(directory: str, timeout: float) -> list[str]:
    """leftovers(directory) once it is empty, or as it is after `timeout` s."""
    deadline = time.monotonic() + timeout
    while (found := leftovers(directory)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return found


def main(argv: list[str]) -> int:
    directory = tempfile.mkdtemp(prefix="askit-leftovers-")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    status = subprocess.call([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv],
                             cwd=REPO, env={**os.environ, "TMPDIR": directory, "PYTHONPATH": path})
    found = settled(directory, SETTLE_SECONDS)
    for line in found:
        print(f"leftover in {directory}: {line}", file=sys.stderr)
    if found:
        return 1
    shutil.rmtree(directory, ignore_errors=True)
    print(f"no leftovers (pytest exited {status})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
