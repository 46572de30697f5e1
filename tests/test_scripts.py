import importlib.util
import subprocess
import sys

from conftest import REPO


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


interleave, leftovers, loc = _script("interleave"), _script("leftovers"), _script("loc")


def test_summarize_pairs_runs_and_counts_lower_values_as_wins():
    runs = {
        "against": [{"a_us": 10.0, "b_us": 1.0}, {"a_us": 12.0, "b_us": 1.0}, {"a_us": 11.0, "b_us": 1.0}],
        "this": [{"a_us": 9.0, "b_us": 1.0}, {"a_us": 13.0, "b_us": 2.0}, {"a_us": 10.504, "b_us": 1.0}],
    }
    assert interleave.summarize(runs, ["a_us", "b_us"]) == {
        "a_us": {
            "against_median": 11.0,
            "this_median": 10.5,
            "this_wins": 2,
            "against_runs": [10.0, 12.0, 11.0],
            "this_runs": [9.0, 13.0, 10.504],
        },
        "b_us": {
            "against_median": 1.0,
            "this_median": 1.0,
            "this_wins": 0,  # a tie is no win
            "against_runs": [1.0, 1.0, 1.0],
            "this_runs": [1.0, 2.0, 1.0],
        },
    }


def test_median_us_reads_nanoseconds():
    assert interleave.median_us([3_000, 1_000, 2_123_456]) == 3.0


def test_leftovers_names_each_entry_but_pytests_and_each_process_naming_the_directory(tmp_path):
    for name in ("pytest-of-someone", "askit-worker-x", "askit-run-0"):
        (tmp_path / name).mkdir()
    assert leftovers.leftovers(str(tmp_path)) == ["entry: askit-run-0", "entry: askit-worker-x"]
    (tmp_path / "askit-run-0").rmdir()
    (tmp_path / "askit-worker-x").rmdir()
    assert leftovers.settled(str(tmp_path), 0) == []
    code = "import sys; print(flush=True); sys.stdin.read()"  # up, then held until its input ends
    holder = subprocess.Popen([sys.executable, "-I", "-S", "-c", code, str(tmp_path / "harness.pyc")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline() == b"\n"
        assert leftovers.leftovers(str(tmp_path)) == [f"process {holder.pid}: {sys.executable} -I -S -c {code} {tmp_path}/harness.pyc"]
    finally:
        holder.communicate()
    assert leftovers.settled(str(tmp_path), 5) == []


SYNTHETIC_MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code

# a comment line


class Box:
    """Class docstring."""

    label = """a string that is no docstring,
over two lines"""

    def open(self):
        """Function docstring."""
        return os.sep
'''


def test_loc_counts_all_lines_and_the_lines_that_hold_code(tmp_path):
    assert loc.count(SYNTHETIC_MODULE) == (17, 6)  # import, class, label's two lines, def, return
    (tmp_path / "a.py").write_text(SYNTHETIC_MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.counts(tmp_path) == {"a.py": (17, 6), "b.py": (2, 1)}
    assert loc.table({"a.py": (17, 6), "b.py": (2, 1)}, {"a.py": (20, 8), "c.py": (5, 5)}) == [
        "module          lines   code  against   code   diff   code",
        "a.py               17      6       20      8     -3     -2",
        "b.py                2      1        0      0     +2     +1",
        "c.py                0      0        5      5     -5     -5",
        "total              19      7       25     13     -6     -6",
    ]
