import importlib.util

from conftest import REPO

_spec = importlib.util.spec_from_file_location("interleave", REPO / "scripts" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


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
