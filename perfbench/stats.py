"""Latency samples with a fixed memory footprint, and percentiles."""

from __future__ import annotations

import random
from array import array


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Samples:
    """Up to `capacity` latencies in seconds, then a uniform reservoir.

    The buffer is allocated up front, so the memory a run uses does not grow
    with the number of operations the program manages to complete.
    """

    def __init__(self, capacity: int, seed: int = 0):
        self._buffer = array("d", [0.0]) * capacity
        self._rng = random.Random(seed)
        self.count = 0

    def add(self, seconds: float) -> None:
        capacity = len(self._buffer)
        if self.count < capacity:
            self._buffer[self.count] = seconds
        else:
            slot = self._rng.randrange(self.count + 1)
            if slot < capacity:
                self._buffer[slot] = seconds
        self.count += 1

    def values(self) -> array:
        return self._buffer[: min(self.count, len(self._buffer))]

    def quantile(self, q: float) -> float:
        """The q-quantile; 0.0 when no op succeeded (its count is 0 too)."""
        values = self.values()
        return percentile(values, q) if len(values) else 0.0

    def extend(self, other: "Samples") -> None:
        for value in other.values():
            self.add(value)
