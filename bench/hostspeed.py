"""Host-speed reference: fixed work, independent of wedgelift, timed between
the benchmark's rounds so that its timings can be scaled to one host speed.

The benchmark runs on shared hosts whose speed drifts, with the load their
other tenants put on them, by as much as 1.5x to 2x over tens of seconds.
Such a drift moves most of a run's timings and this reference together
(least so a multi-second op, which the reference samples only at its ends),
while a change to the library moves the library's timings alone. So each
timing is reported as `elapsed * NOMINAL_S / reference`, with `reference` the
time this work took around it: the time the op would have taken on a host
that runs the reference in NOMINAL_S. The raw times are printed beside them.

The reference mixes the kinds of work the library does: interpreted method
calls and dict updates (the scalar field ops), XOR and lowest-bit arithmetic
on 4096-bit Python integers (GF(2) elimination on bitset rows), and a numpy
gather and XOR-reduce over a table larger than the L2 cache (table lookups,
encoding and repair sums), each about a third of the time.
"""

from __future__ import annotations

import time

import numpy as np

# About what measure() gives on an unloaded 2-core Xeon sandbox; a scale,
# so that scaled timings read close to that host's raw ones.
NOMINAL_S = 0.008

_rng = np.random.default_rng(20201124)
_TABLE = _rng.integers(0, 1 << 62, size=1 << 20, dtype=np.int64)
_INDEX = _rng.integers(0, 1 << 20, size=1 << 17, dtype=np.int64)
_ROWS = [int.from_bytes(_rng.bytes(512), "little") | 1 << 4095 for _ in range(64)]


class _Accumulator:
    def __init__(self) -> None:
        self.total = 0
        self.seen: dict[int, int] = {}

    def add(self, a: int, b: int) -> int:
        self.total = (self.total * 31 + a ^ b) & 0xFFFF
        self.seen[self.total & 255] = b
        return self.total


def _interpreted() -> int:
    acc = _Accumulator()
    for i in range(12000):
        acc.add(i, i >> 3)
    return acc.total


def _bigint() -> int:
    low = 0
    for _ in range(60):
        x = 0
        for row in _ROWS:
            x ^= row
            low += (x & -x).bit_length() + (x >> 2048).bit_length()
    return low


def _gather() -> int:
    x = 0
    for _ in range(4):
        x ^= int(np.bitwise_xor.reduce(_TABLE[_INDEX]))
    return x


_PARTS = (_interpreted, _bigint, _gather)


def _fastest(part, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        part()
        best = min(best, time.perf_counter() - start)
    return best


def measure(repeats: int = 3) -> float:
    """The host's current speed, as the seconds the reference work takes on
    it: the sum over its parts of each part's fastest of `repeats` passes, so
    that a pause of the process during one pass does not count."""
    return sum(_fastest(part, repeats) for part in _PARTS)
