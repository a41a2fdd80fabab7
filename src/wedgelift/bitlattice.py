"""Bit patterns of nonnegative integers: the 2-shadow (all submasks) of a value.

Values are plain ints; bit i of x is the coefficient of 2^i.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import UsageError


def enumerate_2_shadow(y: int) -> Iterator[int]:
    """Yield every i with i <= y bitwise (all 2^popcount(y) submasks), increasing.

    Increasing integer order keeps downstream output deterministic.
    """
    if y < 0:
        raise UsageError("shadow bound must be nonnegative")
    # Submasks of y in increasing order: add 1 then clear the non-y bits,
    # which carries into the next-larger submask.
    s = 0
    while True:
        yield s
        if s == y:
            return
        s = (s - y) & y
