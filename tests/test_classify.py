"""Monomial classification: brute-force oracle, coset criterion, block criterion.

The three methods are independent implementations; the tests force them into
exhaustive agreement at every desk-scale instantiation before the counts they
produce are frozen as constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from wedgelift import (
    CosetFamily,
    FieldSpec,
    OracleBudgetError,
    UsageError,
    bad_mask,
    count_bad,
    count_bad_closed_form,
    is_bad_block_criterion,
    is_bad_coset_criterion,
    is_good_oracle,
    is_good_oracle_sampled,
    make_coset_family,
    make_field,
    wedge_point_set,
    wedge_restriction,
)
import wedgelift.classify as classify_module
from wedgelift.classify import (
    Monomial,
    Wedge,
    classification,
    oracle_cost,
    oracle_good_mask,
    restriction_grid,
    write_classification_csv,
)

from reference import (
    is_good_oracle_sampled_reference,
    restriction_grid_reference,
    wedge_point_set_reference,
    wedge_restriction_reference,
)

# Exhaustively recomputed bad-monomial counts for every subgroup order of
# every field up to GF(64), frozen after the oracle/criterion agreement tests
# below passed.
BAD_COUNTS = {
    (4, 1): 9,
    (4, 3): 7,
    (8, 1): 27,
    (8, 7): 15,
    (16, 1): 81,
    (16, 3): 63,
    (16, 5): 49,
    (16, 15): 31,
    (64, 1): 729,
    (64, 3): 627,
    (64, 7): 417,
    (64, 9): 343,
    (64, 21): 225,
    (64, 63): 127,
}

# (q, h) -> (ell_prime, d) wherever the subgroup order has the block shape
# h = (q-1)/(2^ell_prime - 1) with ell = ell_prime * d.
BLOCK_FORMS = {
    (4, 1): (2, 1),
    (4, 3): (1, 2),
    (8, 1): (3, 1),
    (8, 7): (1, 3),
    (16, 1): (4, 1),
    (16, 5): (2, 2),
    (16, 15): (1, 4),
    (64, 1): (6, 1),
    (64, 9): (3, 2),
    (64, 21): (2, 3),
    (64, 63): (1, 6),
}


def all_families(specs: list[FieldSpec]) -> list[CosetFamily]:
    out = []
    for spec in specs:
        q = spec.q
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            out.append(make_coset_family(spec, h))
    return out


# ---------------------------------------------------------------------------
# Wedge geometry
# ---------------------------------------------------------------------------


def test_wedge_point_set_size_and_membership(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    q = 16
    for coset in family.cosets:
        for point in [(0, 0), (3, 11), (15, 15), (7, 0)]:
            wedge = Wedge(coset, point)
            pts = wedge_point_set(f16, wedge)
            assert len(pts) == 5 * (q - 1) + 1
            assert point in pts
            x, y = point
            for (u, v) in pts:
                if u == x:
                    assert v == y, "only the wedge point sits on the vertical"
                else:
                    slope = f16.mul(f16.inv(u ^ x), v ^ y)
                    assert slope in coset
            # Conversely every point with a coset slope is included.
            for u in range(q):
                for v in range(q):
                    on_wedge = (u, v) == point or (
                        u != x and f16.mul(f16.inv(u ^ x), v ^ y) in coset
                    )
                    assert ((u, v) in pts) == on_wedge


def test_single_slope_wedge_is_one_line(f16: FieldSpec) -> None:
    # Subgroup order 1: every coset is a single slope, so a wedge is one
    # affine line with exactly q points.
    family = make_coset_family(f16, 1)
    assert all(len(c) == 1 for c in family.cosets)
    pts = wedge_point_set(f16, Wedge(family.cosets[4], (3, 12)))
    assert len(pts) == 16
    assert (3, 12) in pts
    (alpha,) = family.cosets[4]
    assert pts == frozenset((t, f16.mul(alpha, t ^ 3) ^ 12) for t in range(16))


def test_wedges_same_coset_intersections(f16: FieldSpec) -> None:
    """Two wedges with the same coset at distinct points share exactly the
    pairwise line intersections, cross-checked by enumeration."""
    family = make_coset_family(f16, 5)
    coset = family.cosets[1]
    p1, p2 = (2, 9), (11, 4)
    pts1 = wedge_point_set(f16, Wedge(coset, p1))
    pts2 = wedge_point_set(f16, Wedge(coset, p2))
    expected = set()
    for a1 in coset:
        for a2 in coset:
            # Solve a1(T - x1) + y1 = a2(T - x2) + y2 for T.
            lhs = a1 ^ a2
            rhs = f16.mul(a1, p1[0]) ^ p1[1] ^ f16.mul(a2, p2[0]) ^ p2[1]
            if lhs == 0:
                continue  # parallel distinct lines (distinct points, same slope)
            t = f16.mul(f16.inv(lhs), rhs)
            expected.add((t, f16.mul(a1, t ^ p1[0]) ^ p1[1]))
    assert pts1 & pts2 == expected


def test_monomial_range_check(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    with pytest.raises(UsageError):
        is_good_oracle(family, Monomial(16, 0))
    with pytest.raises(UsageError):
        is_bad_coset_criterion(Monomial(-1, 3), 5, 4)


# ---------------------------------------------------------------------------
# Wedge restrictions: fixed values
# ---------------------------------------------------------------------------


def test_restriction_of_constant_vanishes(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    for coset in family.cosets:
        for point in [(0, 0), (5, 7)]:
            assert wedge_restriction(f16, [((0, 0), 1)], Wedge(coset, point)) == 0


def test_all_max_monomial_witness_at_origin() -> None:
    """X^(q-1) Y^(q-1) restricts to exactly 1 on the wedge at the origin for
    every coset of every family: each of the h(q-1) nonzero line points
    contributes 1, and h(q-1) is odd."""
    for ell in (2, 3, 4):
        spec = make_field(ell)
        q = spec.q
        poly = [((q - 1, q - 1), 1)]
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            family = make_coset_family(spec, h)
            for coset in family.cosets:
                assert wedge_restriction(spec, poly, Wedge(coset, (0, 0))) == 1


def test_all_max_monomial_frozen_values_gf16(f16: FieldSpec) -> None:
    # Honest recomputed values at specific points, frozen: the point
    # (g^-1, 0) gives 0 for every coset (it is not a witness); (g^-1, 1)
    # depends on the coset.
    family = make_coset_family(f16, 5)
    ginv = f16.inv(f16.generator)
    poly = [((15, 15), 1)]
    at = lambda coset, point: wedge_restriction(f16, poly, Wedge(coset, point))
    for coset in family.cosets:
        assert at(coset, (ginv, 0)) == 0
        assert at(coset, (0, 0)) == 1
    assert [at(c, (ginv, 1)) for c in family.cosets] == [0, 1, 0]


def test_good_monomial_restricts_to_zero_everywhere(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    m = Monomial(14, 1)  # good: a|b = 15 but no submask of a&b=0 is = 1 mod 5
    assert not is_bad_coset_criterion(m, 5, 4)
    for coset in family.cosets:
        grid = restriction_grid(f16, coset, [m])
        assert not grid.any()


def test_restriction_grid_matches_scalar_restriction(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = Monomial(int(rng.integers(16)), int(rng.integers(16)))
        coset = family.cosets[int(rng.integers(3))]
        grid = restriction_grid(f16, coset, [m])[0]
        x, y = int(rng.integers(16)), int(rng.integers(16))
        scalar = wedge_restriction(f16, [((m.a, m.b), 1)], Wedge(coset, (x, y)))
        assert int(grid[x, y]) == scalar


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("ell, h", [(2, 3), (3, 7), (4, 1), (4, 3), (4, 5), (4, 15),
                                   (5, 1), (5, 31), (6, 9), (6, 21), (6, 63)])
def test_restriction_grid_matches_reference(ell: int, h: int, chunk, monkeypatch) -> None:
    """The batched grids equal the slope-by-slope reference bit for bit,
    dtype included, on a random batch of 40 monomials that holds a = 0 and
    b = 0 (0^0 = 1). The batch crosses chunk boundaries at q = 64 with the
    default chunk (16 monomials) and everywhere with a 5-monomial chunk. The
    families run from one coset of the subgroup (h = q - 1) to 31 (q32h1)."""
    spec = make_field(ell)
    q = spec.q
    if chunk is not None:
        monkeypatch.setattr(classify_module, "BATCH_BYTES", 8 * q * q * chunk)
    assert (classify_module._grid_chunk(q) < 40) == (chunk is not None or q == 64)
    rng = np.random.default_rng(100 * ell + h)
    monomials = rng.integers(q, size=(40, 2))
    monomials[:4] = [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
    monomials[4:8, 0] = 0
    monomials[8:12, 1] = 0
    for coset in make_coset_family(spec, h).cosets:
        grids = restriction_grid(spec, coset, monomials)
        assert grids.shape == (40, q, q) and grids.dtype == np.uint16  # as the reference's
        for m, grid in zip(monomials, grids):
            expected = restriction_grid_reference(spec, coset, Monomial(*map(int, m)))
            assert np.array_equal(grid, expected), (q, h, m)


def test_restriction_grid_rejects_bad_exponents(f16: FieldSpec) -> None:
    coset = make_coset_family(f16, 5).cosets[0]
    assert restriction_grid(f16, coset, []).shape == (0, 16, 16)
    with pytest.raises(UsageError, match=r"got \(16, 2\)"):
        restriction_grid(f16, coset, [(1, 1), (16, 2), (-1, 0)])


def test_restriction_grid_rejects_non_cosets(f16: FieldSpec) -> None:
    """The grid groups slopes by coset of the subgroup of order len(coset),
    so any other tuple of slopes is refused; a coset in any order is not."""
    family = make_coset_family(f16, 5)
    coset, other = family.cosets[1], family.cosets[2]
    g = f16.generator
    monomials = [(3, 7), (0, 15), (12, 0)]
    refused = {
        (): "coset size 0 does not divide",
        (1, 2): "coset size 2 does not divide",
        (0, *coset[1:]): "distinct and nonzero",
        (coset[0], coset[0], *coset[2:]): "distinct and nonzero",
        (1, g, f16.mul(g, g)): "not a coset of the subgroup of order 3",
        (*coset[:4], other[0]): "not a coset of the subgroup of order 5",
        (16, *coset[1:]): "not an element",
    }
    for slopes, message in refused.items():
        with pytest.raises(UsageError, match=message):
            restriction_grid(f16, slopes, monomials)
    assert np.array_equal(restriction_grid(f16, coset[::-1], monomials),
                          restriction_grid(f16, coset, monomials))


@pytest.mark.parametrize("ell, orders", [(4, (1, 3, 5, 15)), (6, (3, 9, 21))])
def test_line_sum_equals_point_set_sum(ell: int, orders: tuple[int, ...]) -> None:
    """The restriction summed over the wedge's lines equals the sum over its
    point set: the odd coset size cancels the point p, which every line
    passes through, down to one copy. Each polynomial has a bad monomial, so
    that some of the sums are nonzero."""
    spec = make_field(ell)
    q = spec.q
    rng = np.random.default_rng(ell)
    nonzero = 0

    def value(poly, u: int, v: int) -> int:
        acc = 0
        for (a, b), coeff in poly:
            acc ^= spec.mul(coeff, spec.mul(spec.pow(u, a), spec.pow(v, b)))
        return acc

    for h in orders:
        family = make_coset_family(spec, h)
        bad = [(a, b) for a in range(q) for b in range(q)
               if is_bad_coset_criterion(Monomial(a, b), h, ell)]
        for _ in range(4):
            poly = [(bad[int(rng.integers(len(bad)))], int(rng.integers(1, q)))]
            poly += [
                ((int(rng.integers(q)), int(rng.integers(q))), int(rng.integers(1, q)))
                for _ in range(int(rng.integers(3)))
            ]
            coset = family.cosets[int(rng.integers(family.t))]
            wedge = Wedge(coset, (int(rng.integers(q)), int(rng.integers(q))))
            point_sum = 0
            for u, v in wedge_point_set(spec, wedge):
                point_sum ^= value(poly, u, v)
            assert wedge_restriction(spec, poly, wedge) == point_sum
            nonzero += point_sum != 0
    assert nonzero > 0


def _random_poly(rng, q: int, bad: list[tuple[int, int]]) -> list:
    """One to four terms: a bad monomial with a coefficient != 1, random
    terms whose coefficients may be 0, and sometimes a repeated exponent."""
    poly = [(bad[int(rng.integers(len(bad)))], int(rng.integers(2, q)))]
    poly += [
        ((int(rng.integers(q)), int(rng.integers(q))), int(rng.integers(q)))
        for _ in range(int(rng.integers(3)))
    ]
    if rng.integers(2):
        poly.append((poly[int(rng.integers(len(poly)))][0], int(rng.integers(q))))
    return poly


@pytest.mark.parametrize(
    "ell, h", [(2, 3), (4, 1), (4, 5), (4, 15), (5, 31), (6, 9), (6, 63)]
)
def test_wedge_functions_match_scalar_reference(ell: int, h: int) -> None:
    """The gathered point set and restriction equal the point-by-point scalar
    references on random wedges, for polynomials with several terms,
    repeated exponents, coefficients 0 and != 1, and the empty polynomial."""
    spec = make_field(ell)
    q = spec.q
    family = make_coset_family(spec, h)
    bad = [(a, b) for a in range(q) for b in range(q)
           if is_bad_coset_criterion(Monomial(a, b), h, ell)]
    rng = np.random.default_rng(1000 * ell + h)
    fixed = [[], [((q - 1, q - 1), 1)], [((q - 1, q - 1), 0)],
             [((0, 0), 1), ((q - 1, q - 1), 1), ((q - 1, q - 1), 1)]]
    polys = fixed + [_random_poly(rng, q, bad) for _ in range(12 if q < 64 else 4)]
    nonzero = 0
    for poly in polys:
        coset = family.cosets[int(rng.integers(family.t))]
        wedge = Wedge(coset, (int(rng.integers(q)), int(rng.integers(q))))
        value = wedge_restriction(spec, poly, wedge)
        assert value == wedge_restriction_reference(spec, poly, wedge), (poly, wedge)
        assert wedge_point_set(spec, wedge) == wedge_point_set_reference(spec, wedge)
        nonzero += value != 0
    assert nonzero > 0


def test_wedge_functions_past_the_table_guard() -> None:
    """At q = 8192 the q x q field tables are refused, but the wedge
    functions need only O(h*q) memory: on singleton cosets (q - 1 = 8191 is
    prime, so h = 1) they and the sampled oracle match the scalar references."""
    spec = make_field(13)
    q = spec.q
    with pytest.raises(UsageError, match="exceeds the desk-scale guard"):
        spec.mul_table()
    rng = np.random.default_rng(13)
    for _ in range(3):
        wedge = Wedge((int(rng.integers(1, q)),), (int(rng.integers(q)), int(rng.integers(q))))
        poly = [((int(rng.integers(q)), int(rng.integers(q))), int(rng.integers(q)))
                for _ in range(3)]
        assert wedge_restriction(spec, poly, wedge) == wedge_restriction_reference(spec, poly, wedge)
        assert wedge_point_set(spec, wedge) == wedge_point_set_reference(spec, wedge)
    family = make_coset_family(spec, 1)
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for m in [Monomial(q - 1, q - 1), Monomial(5, 9), Monomial(0, 0)]:
        answer = is_good_oracle_sampled(family, m, 2, ours)
        assert answer == is_good_oracle_sampled_reference(family, m, 2, theirs), m
    assert ours.integers(2**30) == theirs.integers(2**30)


@pytest.mark.parametrize("ell, h", [(4, 5), (5, 31), (6, 9)])
def test_sampled_oracle_matches_reference_loop(ell: int, h: int) -> None:
    """On 200 seeded monomials the sampled oracle gives the reference loop's
    answers and leaves its generator where the reference leaves its own:
    the same draws, in the same order, with the same early return."""
    spec = make_field(ell)
    q = spec.q
    family = make_coset_family(spec, h)
    pick = np.random.default_rng(ell)
    ours, theirs = np.random.default_rng(50 + ell), np.random.default_rng(50 + ell)
    answers = []
    for _ in range(200):
        m = Monomial(int(pick.integers(q)), int(pick.integers(q)))
        answer = is_good_oracle_sampled(family, m, 2, ours)
        assert answer == is_good_oracle_sampled_reference(family, m, 2, theirs), m
        assert ours.bit_generator.state == theirs.bit_generator.state, m
        answers.append(answer)
    assert True in answers and False in answers
    assert ours.integers(2**30) == theirs.integers(2**30)


def test_sampled_oracle_rejects_negative_wedges(f16: FieldSpec) -> None:
    """A negative wedge count is refused before any draw: X^15 Y^15 is bad at
    q16h5, and -3 wedges would otherwise answer 'good'. Zero wedges find no
    witness and draw nothing."""
    family = make_coset_family(f16, 5)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(UsageError, match="wedges must be nonnegative"):
        is_good_oracle_sampled(family, Monomial(15, 15), -3, rng)
    assert rng.bit_generator.state == state
    assert is_good_oracle_sampled(family, Monomial(15, 15), 0, rng)
    assert rng.bit_generator.state == state
    assert not is_good_oracle(family, Monomial(15, 15))


def test_wedge_restriction_rejects_non_elements(f16: FieldSpec) -> None:
    """Every input is checked before the gather, where numpy would wrap a
    negative index or read past a table row: exponents in [0, q-1],
    coefficients, slopes and both coordinates in [0, q)."""
    coset = make_coset_family(f16, 5).cosets[1]
    wedge = Wedge(coset, (3, 7))
    for poly in ([((16, 1), 1)], [((1, -1), 1)], [((2, 3), 16)]):
        with pytest.raises(UsageError):
            wedge_restriction(f16, poly, wedge)
    poly = [((15, 15), 1)]
    bad_wedges = [Wedge(coset[:-1] + (16,), (3, 7))]
    bad_wedges += [Wedge(coset, p) for p in [(16, 7), (-1, 7), (3, 16), (3, -1)]]
    for bad in bad_wedges:
        with pytest.raises(UsageError, match="is not an element of GF"):
            wedge_restriction(f16, poly, bad)


def test_wedge_restriction_names_the_first_bad_input(f16: FieldSpec) -> None:
    """With two bad inputs, the one the scalar walk meets first is named, as
    the reference does: every exponent before the wedge's slope or x, and
    those before any coefficient."""
    coset = make_coset_family(f16, 5).cosets[1]
    cases = [
        ([((1, 2), 17), ((16, 1), 1)], Wedge(coset, (3, 7))),
        ([((1, 2), 17)], Wedge((18,) + coset[1:], (3, 7))),
        ([((1, 2), 17)], Wedge(coset, (20, 7))),
    ]
    for poly, wedge in cases:
        with pytest.raises(UsageError) as ours:
            wedge_restriction(f16, poly, wedge)
        with pytest.raises(UsageError) as theirs:
            wedge_restriction_reference(f16, poly, wedge)
        assert str(ours.value) == str(theirs.value), (poly, wedge)


def test_wedge_point_set_rejects_y_outside_field(f16: FieldSpec) -> None:
    """y is only XORed into the points, so it is checked like x: an
    unchecked y = 16 or -1 would put every point off the plane."""
    coset = make_coset_family(f16, 5).cosets[0]
    for point in [(0, 16), (0, -1), (16, 0), (-1, 0)]:
        with pytest.raises(UsageError, match="is not an element of GF"):
            wedge_point_set(f16, Wedge(coset, point))
    with pytest.raises(UsageError):
        wedge_point_set(f16, Wedge((16,), (0, 0)))


def test_wedge_functions_make_no_scalar_field_calls(f16: FieldSpec, monkeypatch) -> None:
    """With the scalar FieldSpec ops made to fail, the wedge functions and
    the sampled oracle still answer: they only gather from the tables."""
    family = make_coset_family(f16, 5)
    wedge = Wedge(family.cosets[2], (5, 9))
    expected = wedge_restriction_reference(f16, [((15, 15), 3), ((7, 8), 1)], wedge)

    def forbidden(*args):
        raise AssertionError("scalar field call")

    for op in ("add", "mul", "pow", "inv"):
        monkeypatch.setattr(FieldSpec, op, forbidden)
    assert wedge_restriction(f16, [((15, 15), 3), ((7, 8), 1)], wedge) == expected
    assert len(wedge_point_set(f16, wedge)) == 5 * 15 + 1
    assert is_good_oracle_sampled(family, Monomial(14, 1), 8, np.random.default_rng(3))


# ---------------------------------------------------------------------------
# Oracle vs criterion: exhaustive agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_oracle_matches_coset_criterion_exhaustive(ell: int) -> None:
    spec = make_field(ell)
    q = spec.q
    for h in [d for d in range(1, q) if (q - 1) % d == 0]:
        family = make_coset_family(spec, h)
        for a in range(q):
            for b in range(q):
                m = Monomial(a, b)
                assert is_good_oracle(family, m) == (
                    not is_bad_coset_criterion(m, h, ell)
                ), (q, h, a, b)


def test_fixed_classifications_gf16_h5() -> None:
    assert is_bad_coset_criterion(Monomial(15, 15), 5, 4)
    assert is_bad_coset_criterion(Monomial(15, 5), 5, 4)
    assert is_bad_coset_criterion(Monomial(5, 15), 5, 4)
    assert not is_bad_coset_criterion(Monomial(14, 1), 5, 4)
    assert not is_bad_coset_criterion(Monomial(0, 0), 5, 4)
    # (15, 0): i = 0 is a submask of a&b with 0 = b (mod 5), so bad.
    assert is_bad_coset_criterion(Monomial(15, 0), 5, 4)
    # a|b < q-1 is always good regardless of the submask condition.
    assert not is_bad_coset_criterion(Monomial(7, 3), 5, 4)


def test_block_criterion_examples() -> None:
    # ell' = 2, d = 2 (GF(16), h = 5): exponent bits split into two 2-bit
    # blocks; bad needs a|b = 15 and no block with the (0,1)/(1,0) pattern
    # at a shared position.
    assert is_bad_block_criterion(Monomial(0b1111, 0b1111), 2, 2)
    assert is_bad_block_criterion(Monomial(0b1111, 0b0101), 2, 2)
    # blocks of a: [01, 11], blocks of b: [11, 01]; position 0 has (a,b) bits
    # (0,1) in block 0 and (1,0) in block 1 -> good.
    assert not is_bad_block_criterion(Monomial(0b0111, 0b1101), 2, 2)
    assert not is_bad_block_criterion(Monomial(0b1110, 0b0001), 2, 2)


def test_block_criterion_matches_coset_criterion_everywhere() -> None:
    for (q, h), (ell_prime, d) in BLOCK_FORMS.items():
        ell = q.bit_length() - 1
        assert ell == ell_prime * d
        for a in range(q):
            for b in range(q):
                m = Monomial(a, b)
                assert is_bad_block_criterion(m, ell_prime, d) == (
                    is_bad_coset_criterion(m, h, ell)
                ), (q, h, a, b)


def test_oracle_full_grid_gf64_sampled_monomials(fam64_9: CosetFamily) -> None:
    """500 random monomials at GF(64), h=9: the exhaustive oracle (all q^2
    wedges per coset, which subsumes any random wedge sample) agrees with the
    coset criterion on every one."""
    rng = np.random.default_rng(22)
    q = 64
    monomials = [Monomial(int(rng.integers(q)), int(rng.integers(q))) for _ in range(500)]
    good = oracle_good_mask(fam64_9, monomials, budget=oracle_cost(fam64_9) * 500)
    for m, g in zip(monomials, good):
        assert g == (not is_bad_coset_criterion(m, 9, 6)), m


@pytest.mark.parametrize("ell, h", [(5, 1), (6, 21)])
def test_oracle_sweep_matches_bad_mask(ell: int, h: int) -> None:
    """The exhaustive oracle over all q^2 monomials equals the coset
    criterion at q32h1 (31 cosets of one slope) and q64h21 (3 cosets)."""
    family = make_coset_family(make_field(ell), h)
    q = family.q
    monomials = np.indices((q, q)).reshape(2, -1).T
    good = oracle_good_mask(family, monomials, budget=oracle_cost(family) * q * q)
    assert np.array_equal(good.reshape(q, q), ~bad_mask(family))


def test_sampled_oracle_api_gf64(fam64_9: CosetFamily) -> None:
    rng = np.random.default_rng(23)
    q = 64
    checked_good = checked_bad = 0
    while checked_good < 4 or checked_bad < 4:
        m = Monomial(int(rng.integers(q)), int(rng.integers(q)))
        bad = is_bad_coset_criterion(m, 9, 6)
        sampled = is_good_oracle_sampled(fam64_9, m, 200, rng)
        if bad:
            # 200 random wedges among q^2 per coset: a bad monomial has many
            # witnesses; all bad monomials sampled here must be caught.
            assert not sampled, m
            checked_bad += 1
        else:
            assert sampled, m
            checked_good += 1


def test_oracle_budget_guard(fam16_5: CosetFamily) -> None:
    cost = oracle_cost(fam16_5)
    assert cost == 16 * 16 * 3 * (5 * 15 + 1)
    with pytest.raises(OracleBudgetError, match="oracle infeasible"):
        is_good_oracle(fam16_5, Monomial(1, 1), budget=cost - 1)
    # At exactly the cost the call is allowed.
    assert is_good_oracle(fam16_5, Monomial(1, 1), budget=cost)


def test_oracle_good_mask_chunks_cosets_and_budget(fam16_5: CosetFamily, monkeypatch) -> None:
    """With 7-monomial chunks the q16h5 sweep over its 3 cosets takes many
    gathers and still equals the coset criterion on all 256 monomials; each
    coset after the first sees only the monomials no earlier coset found
    bad. The budget covers the cost of every monomial in the batch."""
    monkeypatch.setattr(classify_module, "BATCH_BYTES", 8 * 16 * 16 * 7)
    seen = []
    real = classify_module.restriction_grid

    def recording(spec, coset, monomials):
        seen.append((coset, [tuple(map(int, m)) for m in monomials]))
        return real(spec, coset, monomials)

    monkeypatch.setattr(classify_module, "restriction_grid", recording)
    monomials = [Monomial(a, b) for a in range(16) for b in range(16)]
    bad = np.array([is_bad_coset_criterion(m, 5, 4) for m in monomials])
    cost = oracle_cost(fam16_5) * len(monomials)
    good = oracle_good_mask(fam16_5, monomials, budget=cost)
    assert good.dtype == bool and np.array_equal(good, ~bad)

    assert all(len(batch) <= 7 for _, batch in seen)
    survivors, sizes = monomials, []
    for coset in fam16_5.cosets:
        checked = [m for c, batch in seen if c == coset for m in batch]
        assert checked == survivors
        sizes.append(len(checked))
        nonzero = real(fam16_5.field, coset, checked).reshape(len(checked), -1).any(axis=1)
        survivors = [m for m, z in zip(checked, nonzero) if not z]
    assert len(survivors) == 256 - 49
    assert sizes[0] == 256 > sizes[1] >= sizes[2]

    with pytest.raises(OracleBudgetError, match="oracle infeasible"):
        oracle_good_mask(fam16_5, monomials, budget=cost - 1)
    assert oracle_good_mask(fam16_5, [], budget=0).shape == (0,)


# ---------------------------------------------------------------------------
# Counts, closed form, and the bound
# ---------------------------------------------------------------------------


def test_bad_counts_frozen() -> None:
    for (q, h), expected in BAD_COUNTS.items():
        spec = make_field(q.bit_length() - 1)
        assert count_bad(make_coset_family(spec, h)) == expected, (q, h)


def test_closed_form_matches_count_wherever_block_applies() -> None:
    for (q, h), (ell_prime, d) in BLOCK_FORMS.items():
        spec = make_field(q.bit_length() - 1)
        family = make_coset_family(spec, h)
        closed = count_bad_closed_form(ell_prime, d)
        assert closed == ((1 << (d + 1)) - 1) ** ell_prime
        assert closed == count_bad(family) == BAD_COUNTS[q, h]


def _odd_divisor_families(max_ell: int):
    for ell in range(1, max_ell + 1):
        q = 1 << ell
        for h in range(1, q, 2):
            if (q - 1) % h == 0:
                yield ell, h


# Every h | q - 1 for q <= 128, then q = 256 at h = 17 and h = 255.
MASK_FAMILIES = list(_odd_divisor_families(7)) + [(8, 17), (8, 255)]


@pytest.mark.parametrize("ell,h", MASK_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in MASK_FAMILIES])
def test_bad_mask_equals_scalar_criterion(ell, h) -> None:
    """The vectorised mask is the coset criterion on every one of the q^2
    monomials, and read-only."""
    q = 1 << ell
    mask = bad_mask(make_coset_family(make_field(ell), h))
    assert mask.shape == (q, q) and mask.dtype == bool
    assert not mask.flags.writeable
    expected = [
        [is_bad_coset_criterion(Monomial(a, b), h, ell) for b in range(q)] for a in range(q)
    ]
    assert mask.tolist() == expected


# (ell, h, ell_prime, d): every block family of q = 1024 and two of q = 4096.
LARGE_BLOCK_FAMILIES = [
    (10, 1, 10, 1), (10, 33, 5, 2), (10, 341, 2, 5), (10, 1023, 1, 10),
    (12, 65, 6, 2), (12, 585, 3, 4),
]


@pytest.mark.parametrize(
    "ell,h,ell_prime,d", LARGE_BLOCK_FAMILIES,
    ids=[f"q{1 << e}h{h}" for e, h, _, _ in LARGE_BLOCK_FAMILIES],
)
def test_bad_mask_sum_matches_closed_form_at_large_q(ell, h, ell_prime, d) -> None:
    """Beyond the scalar criterion's reach the mask still counts
    (2^(d+1) - 1)^ell' bad monomials: 16 807 at q1024h33, 29 791 at
    q4096h585."""
    q = 1 << ell
    assert h == (q - 1) // ((1 << ell_prime) - 1) and ell_prime * d == ell
    family = make_coset_family(make_field(ell), h)
    assert int(bad_mask(family).sum()) == count_bad_closed_form(ell_prime, d)


def test_naive_bound_relation_recorded() -> None:
    """The coset-count product t*q is no bound: the bad count stays under it
    for some families and exceeds it for others; (t+1)*q bounds them all.
    Both relations are frozen per family."""
    violations = set()
    for (q, h), count in BAD_COUNTS.items():
        spec = make_field(q.bit_length() - 1)
        family = make_coset_family(spec, h)
        t = family.t
        assert count <= (t + 1) * q, "corrected bound must always hold"
        if count > t * q:
            violations.add((q, h))
    assert violations == {(4, 3), (8, 7), (16, 5), (16, 15), (64, 21), (64, 63)}


def test_count_bad_closed_form_validates_inputs() -> None:
    with pytest.raises(UsageError):
        count_bad_closed_form(0, 2)
    with pytest.raises(UsageError):
        count_bad_closed_form(2, 0)


# ---------------------------------------------------------------------------
# Classification array and CSV export
# ---------------------------------------------------------------------------


def _csv_rows(path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,bad,criterion_used"
    return [line.split(",") for line in lines[1:]]


def test_classification_rows_lex_order_and_criterion(tmp_path, f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    bad = classification(family)
    assert bad.shape == (16, 16) and bad.dtype == bool
    assert not bad.flags.writeable
    assert np.array_equal(bad, bad_mask(family))
    write_classification_csv(tmp_path / "coset.csv", bad, "coset")
    rows = _csv_rows(tmp_path / "coset.csv")
    assert len(rows) == 256
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (a, b) for a in range(16) for b in range(16)
    ]
    assert {r[3] for r in rows} == {"coset"}
    assert sum(int(r[2]) for r in rows) == 49

    block = classification(family, 2, 2)
    assert block.shape == (16, 16) and block.dtype == bool
    assert not block.flags.writeable
    scalar = [
        [is_bad_block_criterion(Monomial(a, b), 2, 2) for b in range(16)]
        for a in range(16)
    ]
    assert np.array_equal(block, scalar)
    write_classification_csv(tmp_path / "block.csv", block, "block")
    block_rows = _csv_rows(tmp_path / "block.csv")
    assert {r[3] for r in block_rows} == {"block"}
    assert [r[:3] for r in block_rows] == [r[:3] for r in rows]


def test_classification_block_parameters_must_match(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    with pytest.raises(UsageError, match="given together"):
        classification(family, 2)
    with pytest.raises(UsageError, match="do not match"):
        classification(family, 1, 4)


def test_classification_csv_golden(tmp_path, f4: FieldSpec) -> None:
    family = make_coset_family(f4, 3)
    path = tmp_path / "out.csv"
    write_classification_csv(path, classification(family), "coset")
    bad = {(0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)}
    expected = ["a,b,bad,criterion_used"] + [
        f"{a},{b},{1 if (a, b) in bad else 0},coset"
        for a in range(4)
        for b in range(4)
    ]
    assert path.read_text().splitlines() == expected
