"""GF(2^ell) arithmetic, coset families, power sums, and the parameter planner.

Field axioms are property-tested; the published modulus table is re-verified
for irreducibility from scratch; power-sum values are checked by direct
summation against the case-split formula they feed.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgelift import (
    MODULUS_TABLE,
    FieldSpec,
    UsageError,
    is_irreducible,
    make_coset_family,
    make_field,
    plan_dyadic_parameters,
    smallest_irreducible,
)
from wedgelift.field import additive_fft

from reference import additive_fft_reference, field_pow, pow_vector, subgroup_power_sum, trace2

AXIOM_ELLS = (2, 3, 4, 6, 8)


# ---------------------------------------------------------------------------
# Modulus table and construction
# ---------------------------------------------------------------------------


def _poly_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _poly_mulmod(a: int, b: int, f: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a = _poly_mod(a << 1, f)
    return acc


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _rabin_irreducible(f: int, n: int) -> bool:
    """Independent oracle: f (degree n over GF(2)) is irreducible iff
    x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x, f) = 1 for every prime p | n."""
    x = _poly_mod(0b10, f)
    powers = [x]
    for _ in range(n):
        powers.append(_poly_mulmod(powers[-1], powers[-1], f))
    if powers[n] != x:
        return False
    primes = {p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))}
    return all(_poly_gcd(powers[n // p] ^ x, f) == 1 for p in primes)


def test_modulus_table_is_irreducible() -> None:
    for ell, modulus in MODULUS_TABLE.items():
        assert modulus >> ell == 1, "modulus must be monic of degree ell"
        assert is_irreducible(modulus, ell)
        assert _rabin_irreducible(modulus, ell)


def test_irreducibility_test_against_rabin_oracle() -> None:
    # Every monic polynomial of degree 2..9 is classified identically by the
    # library's trial-division test and an independent squaring/gcd test.
    for degree in range(2, 10):
        for f in range(1 << degree, 1 << (degree + 1)):
            assert is_irreducible(f, degree) == _rabin_irreducible(f, degree), bin(f)


def test_modulus_table_values() -> None:
    assert MODULUS_TABLE == {
        2: 0b111,
        3: 0b1011,
        4: 0b10011,
        6: 0b1000011,
        8: 0b100011011,
        10: 0b10000001001,
        12: 0b1000001010011,
    }


def test_make_field_uses_table_moduli() -> None:
    for ell, modulus in MODULUS_TABLE.items():
        assert make_field(ell).modulus == modulus


def test_smallest_irreducible_untabulated_degrees() -> None:
    # Frozen outputs for every degree the table does not cover, up to the cap.
    expected = {
        1: 0b10,
        5: 0b100101,
        7: 0b10000011,
        9: 0b1000000011,
        11: 0b100000000101,
        13: 0b10000000011011,
        14: 0b100000000100001,
        15: 0b1000000000000011,
        16: 0b10000000000101011,
        17: 0x20009,
        18: 0x40009,
        19: 0x80027,
        20: 0x100009,
        21: 0x200005,
        22: 0x400003,
        23: 0x800021,
        24: 0x100001B,
    }
    for degree, modulus in expected.items():
        assert smallest_irreducible(degree) == modulus
        assert is_irreducible(modulus, degree)
        assert _rabin_irreducible(modulus, degree)
        # Nothing smaller (monic of the same degree) passes the independent
        # oracle, so the "smallest" claim holds.
        assert not any(
            _rabin_irreducible(f, degree) for f in range(1 << degree, modulus)
        )


def test_make_field_bounds() -> None:
    with pytest.raises(UsageError):
        make_field(0)
    with pytest.raises(UsageError):
        make_field(25)


def test_make_field_is_cached() -> None:
    assert make_field(4) is make_field(4)


def test_tables_are_freed_with_their_field() -> None:
    """Cached tables do not keep a field alive once make_field forgets it."""
    make_field.cache_clear()  # a fresh spec that no other test holds
    spec = make_field(5)
    spec.mul_table()
    spec.power_table()
    spec.trace_table()
    additive_fft(spec, np.eye(spec.q, dtype=np.uint16))
    ref = weakref.ref(spec)
    del spec
    make_field.cache_clear()
    gc.collect()
    assert ref() is None


def test_generator_is_smallest() -> None:
    # GF(4) through GF(64): the generator is the smallest element of
    # multiplicative order q-1 (brute-force check by repeated multiplication).
    for ell in (2, 3, 4, 6):
        spec = make_field(ell)
        q = spec.q

        def order(c: int) -> int:
            x, k = c, 1
            while x != 1:
                x = spec.mul(x, c)
                k += 1
            return k

        smallest = min(c for c in range(1, q) if order(c) == q - 1)
        assert spec.generator == smallest


# ---------------------------------------------------------------------------
# Arithmetic: fixed values and axioms
# ---------------------------------------------------------------------------


def test_gf16_known_products() -> None:
    spec = make_field(4)
    # x * x = x^2, x^3 * x = x^4 = x + 1 (mod x^4 + x + 1)
    assert spec.mul(0b0010, 0b0010) == 0b0100
    assert spec.mul(0b1000, 0b0010) == 0b0011
    assert spec.mul(0b1111, 0b0000) == 0
    assert spec.mul(1, 0b1011) == 0b1011


def test_inverse_and_pow_edge_cases() -> None:
    spec = make_field(4)
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)
    powers = spec.power_table()
    assert powers[0, 0] == 1  # empty product convention
    assert powers[5, 0] == 0
    for a in range(1, 16):
        assert spec.mul(a, spec.inv(a)) == 1
        assert powers[15, a] == 1


def test_element_range_checks() -> None:
    spec = make_field(2)
    with pytest.raises(UsageError):
        spec.mul(4, 1)
    with pytest.raises(UsageError):
        spec.mul(1, -1)


@settings(max_examples=200)
@given(data=st.data(), ell=st.sampled_from(AXIOM_ELLS))
def test_field_axioms(data: st.DataObject, ell: int) -> None:
    spec = make_field(ell)
    q = spec.q
    elt = st.integers(min_value=0, max_value=q - 1)
    a, b, c = data.draw(elt), data.draw(elt), data.draw(elt)
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.mul(a, spec.mul(b, c)) == spec.mul(spec.mul(a, b), c)
    assert spec.mul(a, b ^ c) == spec.mul(a, b) ^ spec.mul(a, c)  # addition is XOR
    assert spec.mul(a, 1) == a
    if a:
        assert spec.mul(a, spec.inv(a)) == 1


@settings(max_examples=100)
@given(data=st.data(), ell=st.sampled_from(AXIOM_ELLS))
def test_pow_matches_repeated_multiplication(data: st.DataObject, ell: int) -> None:
    spec = make_field(ell)
    a = data.draw(st.integers(min_value=0, max_value=spec.q - 1))
    n = data.draw(st.integers(min_value=0, max_value=2 * spec.q))
    acc = 1
    for _ in range(n):
        acc = spec.mul(acc, a)
    assert field_pow(spec, a, n) == acc


def test_pow_vector_matches_pow() -> None:
    spec = make_field(4)
    for n in (0, 1, 5, 14, 15, 23):
        vec = pow_vector(spec, n)
        assert vec.shape == (16,)
        assert [int(v) for v in vec] == [field_pow(spec, a, n) for a in range(16)]


def test_power_table_rows_are_pow_vectors(f16: FieldSpec, f64: FieldSpec) -> None:
    for spec in (make_field(1), make_field(2), f16, f64):
        table = spec.power_table()
        assert table.shape == (spec.q, spec.q) and table.dtype == np.uint16
        for n in range(spec.q):
            assert np.array_equal(table[n], pow_vector(spec, n))
        assert not table.flags.writeable


@pytest.mark.parametrize("ell", range(1, 7))
def test_additive_fft_of_monomials_is_pow_vector(ell: int) -> None:
    """Row i of the transform of the identity is t^i over every t in F_q,
    for every degree i < q, with 0^0 = 1 on the axis."""
    spec = make_field(ell)
    values = additive_fft(spec, np.eye(spec.q, dtype=np.uint16))
    assert values.dtype == np.uint16
    for i in range(spec.q):
        assert np.array_equal(values[i], pow_vector(spec, i)), i


def test_additive_fft_matches_power_table_sums(f64: FieldSpec) -> None:
    """Random rows, passed transposed (not contiguous), against sum_i c_i t^i
    gathered from the power table."""
    q = f64.q
    rng = np.random.default_rng(64)
    coeffs = rng.integers(0, q, size=(q, 5), dtype=np.uint16).T
    before = coeffs.copy()
    expected = np.bitwise_xor.reduce(f64.mul_table()[coeffs[:, :, None], f64.power_table()], axis=1)
    assert np.array_equal(additive_fft(f64, coeffs), expected)
    assert np.array_equal(coeffs, before)  # the input is not written


@pytest.mark.parametrize("ell", range(1, 9))
def test_additive_fft_equals_the_outer_batch_recursion(ell: int) -> None:
    """The batch-innermost transform equals the recursion with the batch on
    the outer axis, for 1, q and 3q random rows, as a C-contiguous uint16
    array; a transposed view reads as its copy does."""
    spec = make_field(ell)
    q = spec.q
    rng = np.random.default_rng(ell)
    for count in (1, q, 3 * q):
        coeffs = rng.integers(0, q, size=(count, q), dtype=np.uint16)
        values = additive_fft(spec, coeffs)
        assert values.dtype == np.uint16 and values.flags.c_contiguous
        assert np.array_equal(values, additive_fft_reference(spec, coeffs))
    view = rng.integers(0, q, size=(q, 3), dtype=np.uint16).T
    assert np.array_equal(additive_fft(spec, view), additive_fft_reference(spec, view.copy()))


def test_additive_fft_equals_the_outer_batch_recursion_at_q1024() -> None:
    spec = make_field(10)
    coeffs = np.random.default_rng(1024).integers(0, spec.q, size=(5, spec.q), dtype=np.uint16)
    assert np.array_equal(additive_fft(spec, coeffs), additive_fft_reference(spec, coeffs))


def test_additive_fft_twiddles_are_cached_per_field(f16: FieldSpec) -> None:
    """The per-level constants are built once per field, 3 (q - 1) of them."""
    additive_fft(f16, np.zeros((1, 16), dtype=np.uint16))
    twiddles = f16._tables["afft"]
    additive_fft(f16, np.ones((2, 16), dtype=np.uint16))
    assert f16._tables["afft"] is twiddles
    assert twiddles.shape == (3 * (16 - 1),) and not twiddles.flags.writeable


def test_additive_fft_rejects_wrong_width(f16: FieldSpec) -> None:
    with pytest.raises(UsageError, match="q = 16"):
        additive_fft(f16, np.zeros((2, 8), dtype=np.uint16))
    with pytest.raises(UsageError, match="q = 16"):
        additive_fft(f16, np.zeros(16, dtype=np.uint16))


def test_mul_table_matches_mul(f16: FieldSpec) -> None:
    table = f16.mul_table()
    assert table.shape == (16, 16)
    for a in range(16):
        for b in range(16):
            assert int(table[a, b]) == f16.mul(a, b)


# ---------------------------------------------------------------------------
# Trace to GF(2)
# ---------------------------------------------------------------------------


def test_trace_gf4_primitive_element() -> None:
    spec = make_field(2)
    # tr(w) = w + w^2 = w + (w + 1) = 1 for either primitive element of GF(4).
    assert trace2(spec, 0b10) == 1
    assert trace2(spec, 0b11) == 1
    assert trace2(spec, 0) == 0
    assert trace2(spec, 1) == 0  # tr(1) = 1 + 1 = 0 over GF(4)


def test_trace_definition_and_balance() -> None:
    for ell in AXIOM_ELLS:
        spec = make_field(ell)
        q = spec.q
        values = [trace2(spec, a) for a in range(q)]
        assert set(values) <= {0, 1}
        assert values.count(0) == q // 2  # trace is balanced
        for a in range(q):
            # Direct Frobenius-orbit sum, independent of the implementation.
            acc, x = 0, a
            for _ in range(ell):
                acc ^= x
                x = spec.mul(x, x)
            assert acc in (0, 1)
            assert values[a] == acc


@settings(max_examples=100)
@given(data=st.data(), ell=st.sampled_from(AXIOM_ELLS))
def test_trace_is_additive(data: st.DataObject, ell: int) -> None:
    spec = make_field(ell)
    elt = st.integers(min_value=0, max_value=spec.q - 1)
    a, b = data.draw(elt), data.draw(elt)
    assert trace2(spec, a ^ b) == trace2(spec, a) ^ trace2(spec, b)


def test_trace_table_matches_trace2() -> None:
    """The table built by linearity from the basis traces equals the
    reference's Frobenius sum element by element, for ell = 1..12."""
    for ell in range(1, 13):
        spec = make_field(ell)
        table = spec.trace_table()
        assert table.shape == (spec.q,) and table.dtype == np.uint8
        assert not table.flags.writeable
        assert table.tolist() == [trace2(spec, a) for a in range(spec.q)], ell


# ---------------------------------------------------------------------------
# Coset families
# ---------------------------------------------------------------------------


def test_coset_family_gf16_h5(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 5)
    assert family.t == 3
    assert family.subgroup == (1, 8, 10, 12, 15)
    assert family.cosets == (
        (1, 8, 10, 12, 15),
        (2, 3, 7, 11, 13),
        (4, 5, 6, 9, 14),
    )


def test_coset_family_partitions(f16: FieldSpec, f64: FieldSpec) -> None:
    for spec in (f16, f64):
        q = spec.q
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            family = make_coset_family(spec, h)
            assert family.subgroup == family.cosets[0]
            assert 1 in family.subgroup
            seen: set[int] = set()
            for coset in family.cosets:
                assert len(coset) == h
                assert list(coset) == sorted(coset)
                seen.update(coset)
            assert seen == set(range(1, q))
            # Subgroup closure and that each coset is an H-orbit.
            H = set(family.subgroup)
            assert {spec.mul(a, b) for a in H for b in H} == H
            for coset in family.cosets:
                rep = coset[0]
                assert set(coset) == {spec.mul(rep, s) for s in family.subgroup}


def test_coset_family_rejects_non_divisor(f16: FieldSpec) -> None:
    with pytest.raises(UsageError):
        make_coset_family(f16, 7)
    with pytest.raises(UsageError):
        make_coset_family(f16, 0)


# ---------------------------------------------------------------------------
# Power sums over the subgroup
# ---------------------------------------------------------------------------


def test_power_sum_trivial_subgroup(f16: FieldSpec) -> None:
    family = make_coset_family(f16, 1)
    for n in range(0, 31):
        assert subgroup_power_sum(f16, family.subgroup, n) == 1


def test_power_sum_case_split_exhaustive(f16: FieldSpec, f64: FieldSpec) -> None:
    """sum_{z in H} z^n is |H| mod 2 at n = 0 (and multiples of |H| keep value
    h mod 2), and 0 otherwise -- checked by direct summation for every
    subgroup of GF(16) and GF(64) and every n in [0, 2(q-1)]."""
    for spec in (f16, f64):
        q = spec.q
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            family = make_coset_family(spec, h)
            for n in range(0, 2 * (q - 1) + 1):
                direct = 0
                for z in family.subgroup:
                    direct ^= field_pow(spec, z, n)
                assert direct == subgroup_power_sum(spec, family.subgroup, n)
                expected = (h & 1) if n % h == 0 else 0
                assert direct == expected, (q, h, n)


# ---------------------------------------------------------------------------
# Dyadic parameter planner
# ---------------------------------------------------------------------------


def test_planner_examples() -> None:
    assert plan_dyadic_parameters(2, 2, 1) == (4, 5, 3)
    assert plan_dyadic_parameters(1, 1, 2) == (4, 5, 3)
    assert plan_dyadic_parameters(1, 1, 3) == (6, 9, 7)
    assert plan_dyadic_parameters(3, 2, 1) == (4, 15, 1)
    assert plan_dyadic_parameters(3, 2, 2) == (8, 85, 3)


def test_planner_matches_formula_and_divides() -> None:
    for b_exp in range(1, 4):
        for a_num in range(1, 1 << b_exp):
            for n in range(1, 4):
                ell = (1 << b_exp) * n
                if ell > 24:
                    continue
                got_ell, h, t = plan_dyadic_parameters(a_num, b_exp, n)
                assert got_ell == ell
                expected_h = math.prod(
                    (1 << ((1 << i) * n)) + 1
                    for i in range(b_exp)
                    if (a_num >> i) & 1
                )
                assert h == expected_h
                assert ((1 << ell) - 1) % h == 0
                assert t == ((1 << ell) - 1) // h
                # Redundancy exponent targeted by this triple: (1 + a/2^b)/2.
                alpha = (1 - a_num / (1 << b_exp)) / 2
                assert 0 < alpha < 0.5
                # h ~ q^(1 - 2*alpha) within integer rounding.
                assert abs(math.log2(h) - (1 - 2 * alpha) * ell) <= b_exp


def test_planner_rejects_bad_inputs() -> None:
    with pytest.raises(UsageError):
        plan_dyadic_parameters(0, 2, 1)  # a = 0 gives the trivial subgroup
    with pytest.raises(UsageError):
        plan_dyadic_parameters(4, 2, 1)  # a must be < 2^b
    with pytest.raises(UsageError):
        plan_dyadic_parameters(1, 1, 0)  # n >= 1
    with pytest.raises(UsageError):
        plan_dyadic_parameters(1, 3, 4)  # ell = 32 exceeds the desk-scale cap
