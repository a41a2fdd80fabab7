"""Bit patterns: the 2-shadow enumeration, checked against independent oracles.

The coset criterion sums over the 2-shadow of a & b because C(x, y) is odd
exactly when y lies in the 2-shadow of x (Lucas at p = 2). That fact is
checked against a Pascal-triangle recurrence mod 2 and exact integer
binomials, and enumerate_2_shadow is checked against both the bitwise
definition and the binomial parities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgelift import UsageError, enumerate_2_shadow

WIDTH = 12
BOUND = 1 << WIDTH


def odd_binomials(x: int) -> list[int]:
    """Every y with C(x, y) odd, increasing, by exact integer binomials."""
    return [y for y in range(x + 1) if math.comb(x, y) % 2]


# ---------------------------------------------------------------------------
# Fixed examples
# ---------------------------------------------------------------------------


def test_in_2_shadow_examples() -> None:
    shadow = set(enumerate_2_shadow(0b1010))
    assert {0b0010, 0, 0b1010} <= shadow
    assert 0b0100 not in shadow
    assert 0b1011 not in shadow


def test_binom_mod2_examples() -> None:
    # Row x=5 of Pascal's triangle: 1 5 10 10 5 1 -> parities 1 1 0 0 1 1.
    assert list(enumerate_2_shadow(5)) == [0, 1, 4, 5]
    assert odd_binomials(5) == [0, 1, 4, 5]
    assert list(enumerate_2_shadow(0)) == [0]
    assert 2 not in set(enumerate_2_shadow(4))
    assert 3 in set(enumerate_2_shadow(7))


def test_enumerate_2_shadow_examples() -> None:
    assert list(enumerate_2_shadow(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(enumerate_2_shadow(0)) == [0]
    assert list(enumerate_2_shadow(0b11)) == [0, 1, 2, 3]


def test_width_violations_raise() -> None:
    with pytest.raises(UsageError):
        list(enumerate_2_shadow(-1))


# ---------------------------------------------------------------------------
# Oracles for binomial parity
# ---------------------------------------------------------------------------


def test_binom_mod2_against_pascal_recurrence() -> None:
    """Row-by-row Pascal triangle mod 2 up to x = 2^12, no binomial identity used."""
    n = BOUND + 1
    row = np.zeros(n, dtype=np.uint8)
    row[0] = 1
    claimed_x = np.arange(n, dtype=np.int64)
    for x in range(n):
        if x:
            nxt = row.copy()
            nxt[1:] ^= row[:-1]
            row = nxt
        # C(x, y) mod 2 = 1 iff y & ~x == 0, vectorized over all y
        claimed = ((claimed_x & ~x) == 0).astype(np.uint8)
        claimed[x + 1 :] = 0
        if not np.array_equal(row, claimed):
            raise AssertionError(f"parity mismatch in Pascal row x={x}")


def test_binom_mod2_against_math_comb_exhaustive() -> None:
    for x in range(257):
        assert list(enumerate_2_shadow(x)) == odd_binomials(x)


def test_binom_mod2_against_math_comb_random() -> None:
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x = int(rng.integers(0, BOUND + 1))
        y = int(rng.integers(0, BOUND + 1))
        # math.comb returns 0 for y > x, and no submask of x exceeds x.
        assert (y in set(enumerate_2_shadow(x))) == bool(math.comb(x, y) % 2)


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------

ints12 = st.integers(min_value=0, max_value=BOUND - 1)


@given(x=ints12, y=ints12)
def test_shadow_iff_and_fixes_x(x: int, y: int) -> None:
    member = x in set(enumerate_2_shadow(y))
    assert member == (x & y == x)
    assert member == (x | y == y)
    assert member == bool(math.comb(y, x) % 2)


@settings(max_examples=60)
@given(y=st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_enumerate_2_shadow_properties(y: int) -> None:
    subs = list(enumerate_2_shadow(y))
    assert len(subs) == 1 << bin(y).count("1")
    assert all(s & ~y == 0 for s in subs)
    assert subs == sorted(subs)
    assert len(set(subs)) == len(subs)
    assert subs[0] == 0 and subs[-1] == y


@given(y=st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_enumerate_matches_filter(y: int) -> None:
    assert list(enumerate_2_shadow(y)) == [s for s in range(256) if s & ~y == 0]
