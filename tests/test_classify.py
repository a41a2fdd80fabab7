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
    wedge_restriction,
)
import wedgelift.classify as classify_module
from wedgelift.bitlattice import enumerate_2_shadow
from wedgelift.classify import (
    Monomial,
    Wedge,
    bad_bound,
    classification,
    oracle_cost,
    oracle_good_mask,
    write_classification_csv,
)

import reference
from reference import (
    field_pow,
    is_good_oracle_sampled_reference,
    pow_vector,
    restriction_grid_reference,
    restriction_grids_reference,
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
            pts = wedge_point_set_reference(f16, wedge)
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
    pts = wedge_point_set_reference(f16, Wedge(family.cosets[4], (3, 12)))
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
    pts1 = wedge_point_set_reference(f16, Wedge(coset, p1))
    pts2 = wedge_point_set_reference(f16, Wedge(coset, p2))
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
        grid = restriction_grids_reference(f16, coset, [m])
        assert not grid.any()


def test_restriction_grid_matches_scalar_restriction(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = Monomial(int(rng.integers(16)), int(rng.integers(16)))
        coset = family.cosets[int(rng.integers(3))]
        grid = restriction_grids_reference(f16, coset, [m])[0]
        x, y = int(rng.integers(16)), int(rng.integers(16))
        scalar = wedge_restriction(f16, [((m.a, m.b), 1)], Wedge(coset, (x, y)))
        assert int(grid[x, y]) == scalar


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("ell, h", [(2, 3), (3, 7), (4, 1), (4, 3), (4, 5), (4, 15),
                                   (5, 1), (5, 31), (6, 9), (6, 21), (6, 63)])
def test_restriction_grid_matches_reference(ell: int, h: int, chunk, monkeypatch) -> None:
    """The batched test-side grids equal the slope-by-slope reference bit for
    bit, dtype included, on a random batch of 40 monomials that holds a = 0
    and b = 0 (0^0 = 1). The batch crosses chunk boundaries at q = 64 with
    the default chunk (16 monomials) and everywhere with a 5-monomial chunk.
    The families run from one coset of the subgroup (h = q - 1) to 31
    (q32h1)."""
    spec = make_field(ell)
    q = spec.q
    if chunk is not None:
        monkeypatch.setattr(reference, "BATCH_BYTES", 8 * q * q * chunk)
    assert (reference.BATCH_BYTES // (8 * q * q) < 40) == (chunk is not None or q == 64)
    rng = np.random.default_rng(100 * ell + h)
    monomials = rng.integers(q, size=(40, 2))
    monomials[:4] = [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
    monomials[4:8, 0] = 0
    monomials[8:12, 1] = 0
    for coset in make_coset_family(spec, h).cosets:
        grids = restriction_grids_reference(spec, coset, monomials)
        assert grids.shape == (40, q, q) and grids.dtype == np.uint16  # as the reference's
        for m, grid in zip(monomials, grids):
            expected = restriction_grid_reference(spec, coset, Monomial(*map(int, m)))
            assert np.array_equal(grid, expected), (q, h, m)


@pytest.mark.parametrize("ell, h, sample", [(4, 5, None), (6, 9, 12)])
def test_restriction_grid_dilation(ell: int, h: int, sample) -> None:
    """The dilation (x, y) -> (x, gamma*y) maps the wedges of slope coset C
    to those of gamma*C and scales X^a Y^b by gamma^b, so
    R_{gamma C}[x, gamma*y] = gamma^b * R_C[x, y] for every gamma != 0, the
    fact that lets the oracle decide every coset from the subgroup's sums.
    It is checked on the scalar reference grids alone: on every monomial at
    q16h5, and at q64h9 on a seeded sample that holds bad monomials, whose
    grids are not zero."""
    spec = make_field(ell)
    q = spec.q
    family = make_coset_family(spec, h)
    mul = spec.mul_table()
    coset_of = {alpha: coset for coset in family.cosets for alpha in coset}
    if sample is None:
        monomials = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(2309)
        bad = np.argwhere(bad_mask(family))
        picked = bad[rng.choice(len(bad), sample // 2, replace=False)]
        monomials = picked.tolist() + rng.integers(q, size=(sample // 2, 2)).tolist()
    nonzero = 0
    for a, b in monomials:
        grids = {c: restriction_grid_reference(spec, c, Monomial(a, b)) for c in family.cosets}
        nonzero += any(grid.any() for grid in grids.values())
        for gamma in range(1, q):
            scale = mul[field_pow(spec, gamma, b)]
            for coset, grid in grids.items():
                dilated = grids[coset_of[spec.mul(gamma, coset[0])]]
                assert np.array_equal(dilated[:, mul[gamma]], scale[grid]), (a, b, gamma, coset)
    assert nonzero >= (49 if sample is None else sample // 2)


def _line_sums_by_definition(spec: FieldSpec, a: int, b: int) -> np.ndarray:
    """G[s] = sum_U U^a (U + s)^b for every s, one term per (U, s)."""
    shifted = np.arange(spec.q)[:, None] ^ np.arange(spec.q)  # [U, s] -> U + s
    terms = spec.mul_table()[pow_vector(spec, a)[:, None], pow_vector(spec, b)[shifted]]
    return np.bitwise_xor.reduce(terms, axis=0)


@pytest.mark.parametrize("ell, h, sample", [(4, 5, None), (6, 9, 40)])
def test_line_sums_scale_under_dilation(ell: int, h: int, sample) -> None:
    """The line-sum vector G[s] = sum_U U^a (U + s)^b, computed from its
    definition, satisfies G[s] = s^(a+b) * G[1] for every s != 0 (substitute
    U = s*V), so G[0] and G[1] fix it: scaling (i) of the oracle. Checked on
    every monomial at q16h5, and at q64h9 on a seeded sample that holds bad
    monomials. Scaling (ii), S_H[beta0*y] = beta0^b * S_H[y] for beta0 in H,
    is test_restriction_grid_dilation with gamma in H, since gamma*H = H."""
    spec = make_field(ell)
    q = spec.q
    mul = spec.mul_table()
    if sample is None:
        monomials = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(2401)
        bad = np.argwhere(bad_mask(make_coset_family(spec, h)))
        picked = bad[rng.choice(len(bad), sample // 2, replace=False)]
        monomials = picked.tolist() + rng.integers(q, size=(sample // 2, 2)).tolist()
    nonzero = 0
    for a, b in monomials:
        line_sums = _line_sums_by_definition(spec, a, b)
        nonzero += bool(line_sums[1])
        scaled = mul[pow_vector(spec, a + b)[1:], line_sums[1]]
        assert np.array_equal(line_sums[1:], scaled), (a, b)
    assert nonzero >= (1 if sample is None else sample // 2)


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
            acc ^= spec.mul(coeff, spec.mul(field_pow(spec, u, a), field_pow(spec, v, b)))
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
            for u, v in wedge_point_set_reference(spec, wedge):
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
    """The gathered restriction equals the point-by-point scalar reference
    on random wedges, for polynomials with several terms,
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
        nonzero += value != 0
    assert nonzero > 0


def test_wedge_functions_past_the_table_guard() -> None:
    """At q = 8192 the q x q field tables are refused, but the wedge
    functions need only O(h*q) memory: on singleton cosets (q - 1 = 8191 is
    prime, so h = 1) wedge_restriction and the sampled oracle match the
    scalar references."""
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


def test_wedge_point_set_rejects_y_outside_field(f16: FieldSpec) -> None:
    """The wedge's point set is checked before any sum is read from it. y is
    only XORed into the points, so it is checked like x: an unchecked y = 16
    or -1 would put every point off the plane. The empty polynomial reads no
    exponent, so only the wedge's own check can refuse it."""
    coset = make_coset_family(f16, 5).cosets[0]
    for point in [(0, 16), (0, -1), (16, 0), (-1, 0)]:
        with pytest.raises(UsageError, match="is not an element of GF"):
            wedge_restriction(f16, [], Wedge(coset, point))
    with pytest.raises(UsageError):
        wedge_restriction(f16, [], Wedge((16,), (0, 0)))


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


def test_wedge_functions_make_no_scalar_field_calls(f16: FieldSpec, monkeypatch) -> None:
    """With the scalar FieldSpec ops made to fail, wedge_restriction and the
    sampled oracle still answer: they only gather from the tables."""
    family = make_coset_family(f16, 5)
    wedge = Wedge(family.cosets[2], (5, 9))
    expected = wedge_restriction_reference(f16, [((15, 15), 3), ((7, 8), 1)], wedge)

    def forbidden(*args):
        raise AssertionError("scalar field call")

    for op in ("mul", "inv"):
        monkeypatch.setattr(FieldSpec, op, forbidden)
    assert wedge_restriction(f16, [((15, 15), 3), ((7, 8), 1)], wedge) == expected
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


@pytest.mark.parametrize("ell, h", [(5, 1), (6, 21), (7, 127), (7, 1)])
def test_oracle_sweep_matches_bad_mask(ell: int, h: int) -> None:
    """The exhaustive oracle over all q^2 monomials equals the coset
    criterion at q32h1 (31 cosets of one slope), q64h21 (3 cosets),
    q128h127 (one coset) and q128h1 (127 cosets of one slope)."""
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
    assert cost == 5 * 16 + (3 * 3 + 4) * 5
    with pytest.raises(OracleBudgetError, match="oracle infeasible"):
        is_good_oracle(fam16_5, Monomial(1, 1), budget=cost - 1)
    # At exactly the cost the call is allowed.
    assert is_good_oracle(fam16_5, Monomial(1, 1), budget=cost)


def test_oracle_budget_error_gives_advice_that_works(fam16_5: CosetFamily) -> None:
    """The budget error advises a larger budget or fewer monomials, and
    either one lets the same sweep through."""
    monomials = [(1, 1), (3, 0), (14, 2)]
    budget = oracle_cost(fam16_5) * len(monomials) - 1
    with pytest.raises(
        OracleBudgetError,
        match=rf"^oracle infeasible: {budget + 1} table reads exceed budget {budget}; "
        r"raise the budget \(--budget\) or pass fewer monomials$",
    ):
        oracle_good_mask(fam16_5, monomials, budget=budget)
    whole = oracle_good_mask(fam16_5, monomials, budget=budget + 1)
    fewer = [oracle_good_mask(fam16_5, part, budget=budget) for part in (monomials[:2], monomials[2:])]
    assert np.array_equal(np.concatenate(fewer), whole)


_MALFORMED_EXPONENTS = {
    "float-in-batch": (lambda fam: oracle_good_mask(fam, [(14, 1), (1.5, 2)]), "integer exponents"),
    "integral-float": (lambda fam: oracle_good_mask(fam, np.array([[2.0, 2.0]])), "integer exponents"),
    "flat-batch": (lambda fam: oracle_good_mask(fam, [1, 2, 3, 4]), "exponent pairs"),
    "triple-in-batch": (lambda fam: oracle_good_mask(fam, [(1, 2, 3)]), "exponent pairs"),
    "ragged-batch": (lambda fam: oracle_good_mask(fam, [(1, 2), (3,)]), "exponent pairs"),
    "outside-in-batch": (lambda fam: oracle_good_mask(fam, [(1, 1), (16, 2), (-1, 0)]),
                         r"got \(16, 2\)"),
    "float-oracle": (lambda fam: is_good_oracle(fam, Monomial(1.5, 2)), "integer exponents"),
    "triple-oracle": (lambda fam: is_good_oracle(fam, (1, 2, 3)), "exponent pairs"),
    "float-sampled": (lambda fam: is_good_oracle_sampled(
        fam, Monomial(1.5, 2), 3, np.random.default_rng(0)), "integer exponents"),
    "float-coset-criterion": (lambda fam: is_bad_coset_criterion(Monomial(1.5, 2), 5, 4),
                              "integer exponents"),
    "triple-coset-criterion": (lambda fam: is_bad_coset_criterion((1, 2, 3), 5, 4),
                               "integer exponents"),
    "float-block-criterion": (lambda fam: is_bad_block_criterion(Monomial(1.5, 2), 2, 2),
                              "integer exponents"),
    "float-wedge-term": (lambda fam: wedge_restriction(
        fam.field, [((1.5, 2), 1)], Wedge(fam.cosets[0], (3, 7))), "integer exponents"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_EXPONENTS))
def test_exponents_must_be_integer_pairs(case: str, fam16_5: CosetFamily) -> None:
    """Every classifier refuses, with UsageError, an exponent that is not an
    integer (where a truncation would decide (1, 2) for (1.5, 2)) and a batch
    of any shape but (M, 2) (where a flat list would be read as pairs)."""
    call, message = _MALFORMED_EXPONENTS[case]
    with pytest.raises(UsageError, match=message):
        call(fam16_5)


def test_exponents_accept_numpy_integers(fam16_5: CosetFamily) -> None:
    """Numpy integer exponents of any width decide as Python ints do, and an
    empty batch is the empty answer."""
    pairs = [(14, 1), (15, 15), (0, 0)]
    expected = [True, False, True]
    for dtype in (np.uint8, np.int32, np.int64, np.uint64):
        assert oracle_good_mask(fam16_5, np.array(pairs, dtype=dtype)).tolist() == expected
    m = Monomial(np.int64(15), np.uint8(15))
    assert not is_good_oracle(fam16_5, m) and is_bad_coset_criterion(m, 5, 4)
    assert oracle_good_mask(fam16_5, np.empty((0, 2), dtype=np.int64)).shape == (0,)


class _CountingTable(np.ndarray):
    """A field table that records the number of entries each indexing or
    take reads from it in `reads`, and hands out plain arrays."""

    reads: list[int] = []

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        self.reads.append(out.size)
        return out

    def take(self, *args, **kwargs):
        out = np.asarray(super().take(*args, **kwargs))
        self.reads.append(out.size)
        return out


@pytest.mark.parametrize("ell, h", [(2, 3), (4, 5), (4, 1), (5, 31), (6, 9), (6, 63)])
def test_oracle_cost_counts_table_reads(ell: int, h: int, monkeypatch) -> None:
    """oracle_cost is the number of entries a sweep reads from the
    multiplication and power tables, per monomial: with both tables wrapped
    to count their reads, oracle_good_mask over all q^2 monomials, in
    chunks of 7, reads exactly oracle_cost * q^2 of them."""
    spec = make_field(ell)
    family = make_coset_family(spec, h)
    q = family.q
    reads = []
    monkeypatch.setattr(_CountingTable, "reads", reads)
    for name, table in (("mul", spec.mul_table()), ("power", spec.power_table())):
        monkeypatch.setitem(spec._tables, name, table.view(_CountingTable))
    monkeypatch.setattr(classify_module, "BATCH_BYTES", 16 * q * 7)
    monomials = np.indices((q, q)).reshape(2, -1).T
    oracle_good_mask(family, monomials, budget=oracle_cost(family) * q * q)
    assert len(reads) == 7 * -(-q * q // 7)
    assert sum(reads) == oracle_cost(family) * q * q


def test_oracle_good_mask_chunks_cosets_and_budget(fam16_5: CosetFamily, monkeypatch) -> None:
    """With 7-monomial chunks (a chunk's (M, 2, q) index array for G takes
    16q bytes a monomial) a sweep of all 256 monomials takes ceil(256/7) = 37
    passes of the line- and coset-sum helper whatever the coset count (3 at
    q16h5, 15 at q16h1), and still equals the coset criterion on every
    monomial. The budget covers the cost of every monomial in the batch."""
    monkeypatch.setattr(classify_module, "BATCH_BYTES", 16 * 16 * 7)
    chunks = []
    real = classify_module._line_and_coset_sums

    def recording(spec, subgroup, a, b):
        chunks.append(len(a))
        return real(spec, subgroup, a, b)

    monkeypatch.setattr(classify_module, "_line_and_coset_sums", recording)
    monomials = [Monomial(a, b) for a in range(16) for b in range(16)]
    families = (fam16_5, make_coset_family(fam16_5.field, 1))
    assert [family.t for family in families] == [3, 15]
    for family in families:
        bad = np.array([is_bad_coset_criterion(m, family.subgroup_order, 4) for m in monomials])
        cost = oracle_cost(family) * len(monomials)
        chunks.clear()
        good = oracle_good_mask(family, monomials, budget=cost)
        assert good.dtype == bool and np.array_equal(good, ~bad)
        assert len(chunks) == 37 and max(chunks) == 7 and sum(chunks) == 256, family.t

        with pytest.raises(OracleBudgetError, match="oracle infeasible"):
            oracle_good_mask(family, monomials, budget=cost - 1)
    assert oracle_good_mask(fam16_5, [], budget=0).shape == (0,)


@pytest.mark.parametrize("ell, h, sample", [(4, 5, None), (4, 1, None), (5, 1, None), (6, 9, 200)])
def test_line_and_coset_sums_match_definitions(ell: int, h: int, sample) -> None:
    """The oracle's helper returns G at s = 0 and s = 1 as the line sums'
    definition gives them, S_H at y = 0 and at y = antilog[k] (k < t) as the
    x = 1 row of the test-side restriction grid of H gives it, and
    sigma_H = sum_{beta in H} beta^-a: on all monomials at q16h5, q16h1 and
    q32h1, and at q64h9 on a seeded sample. Where a + b is q - 1 or
    2(q - 1), G[0] != 0 enters S_H at y = 1."""
    spec = make_field(ell)
    q = spec.q
    family = make_coset_family(spec, h)
    if sample is None:
        monomials = np.indices((q, q)).reshape(2, -1).T
    else:
        monomials = np.random.default_rng(2402).integers(q, size=(sample, 2))
    subgroup = np.array(family.subgroup, dtype=np.intp)
    g, sums, sigma = classify_module._line_and_coset_sums(spec, subgroup, *monomials.T)
    grids = restriction_grids_reference(spec, family.subgroup, monomials)
    ys = [0, *spec.antilog[: family.t].tolist()]
    assert np.array_equal(sums, grids[:, 1, ys]), (q, h)
    for m, (a, b) in enumerate(monomials.tolist()):
        assert np.array_equal(g[m], _line_sums_by_definition(spec, a, b)[:2]), (a, b)
        assert sigma[m] == np.bitwise_xor.reduce(pow_vector(spec, q - 1 - a)[subgroup]), (a, b)
    assert (g[:, 0] != 0).any() and sums.any()


def test_oracle_equals_union_of_coset_grids() -> None:
    """The one-pass oracle is good exactly where no coset's full restriction
    grid has a nonzero entry: on all q^2 monomials at every odd h | q-1 for
    q <= 32, and on 300 seeded monomials at q64h{1, 9, 63}."""
    cases = [(ell, None, [h for h in range(1, 1 << ell) if ((1 << ell) - 1) % h == 0])
             for ell in (2, 3, 4, 5)]
    cases.append((6, 300, [1, 9, 63]))
    for ell, sampled, orders in cases:
        spec = make_field(ell)
        q = spec.q
        if sampled is None:
            monomials = np.indices((q, q)).reshape(2, -1).T
        else:
            monomials = np.random.default_rng(2206).integers(q, size=(sampled, 2))
        for h in orders:
            family = make_coset_family(spec, h)
            bad = np.zeros(len(monomials), dtype=bool)
            for coset in family.cosets:
                grids = restriction_grids_reference(spec, coset, monomials)
                bad |= grids.reshape(len(monomials), -1).any(axis=1)
            budget = oracle_cost(family) * len(monomials)
            good = oracle_good_mask(family, monomials, budget)
            assert np.array_equal(good, ~bad), (q, h)


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
        assert count <= bad_bound(q, h), "corrected bound must always hold"
        if count > t * q:
            violations.add((q, h))
    assert violations == {(4, 3), (8, 7), (16, 5), (16, 15), (64, 21), (64, 63)}


def test_bad_bound_counts_q_monomials_per_multiple() -> None:
    """bad_bound's derivation, by brute force at q <= 16: for each of the
    t + 1 multiples j = k*h in [0, q-1], exactly q monomials with a|b = q-1
    have a submask i of a&b with b - i = j, and the bad monomials are those
    that have one for some j."""
    for ell in (2, 3, 4):
        q = 1 << ell
        for h in (h for h in range(1, q, 2) if (q - 1) % h == 0):
            t = (q - 1) // h
            pairs = [(a, b) for a in range(q) for b in range(q) if a | b == q - 1]
            witnessed = set()
            for k in range(t + 1):
                have = {(a, b) for a, b in pairs
                        if any(b - i == k * h for i in enumerate_2_shadow(a & b))}
                assert len(have) == q, (q, h, k)
                witnessed |= have
            bad = {(a, b) for a, b in pairs if is_bad_coset_criterion(Monomial(a, b), h, ell)}
            assert bad == witnessed
            assert bad_bound(q, h) == (t + 1) * q


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
