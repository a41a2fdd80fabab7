"""Disjoint repair groups: geometry, simulation, and fault sensitivity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wedgelift import (
    InvariantError,
    UsageError,
    build_code,
    build_repair_plan,
    encode,
    make_coset_family,
    make_field,
    simulate_parallel_reads,
    trace_code,
    verify_drgp,
    wedge_point_set,
)
import wedgelift.repair as repair_module
from wedgelift.classify import Wedge
from wedgelift.code import _origin_wedges
from wedgelift.linalg import gf2_echelon, pack_rows
from wedgelift.repair import _group_sums, _seed_spectra, _verify

from reference import (
    eval_monomial,
    group_sums_reference,
    kernel_codewords_reference,
    repair_groups_reference,
    verify_failures_reference,
)


def sums_of(plan, word):
    """Every group sum of every coordinate, (t, n), by the library's transform."""
    return _group_sums(plan, _seed_spectra(plan), word)


# ---------------------------------------------------------------------------
# Plan geometry
# ---------------------------------------------------------------------------


def test_plan_shapes(plan16_5, plan64_9, code4_3) -> None:
    assert plan16_5.seeds.shape == (3, 75)
    assert plan16_5.t == 3 and plan16_5.group_size == 75
    assert plan16_5.group(2, 255).shape == (75,)
    assert plan64_9.seeds.shape == (7, 567)
    plan4 = build_repair_plan(code4_3)
    assert plan4.seeds.shape == (1, 9)


def test_group_rejects_out_of_range(plan16_5) -> None:
    for j, p in [(3, 0), (-1, 0), (0, 256), (0, -1)]:
        with pytest.raises(UsageError, match="outside"):
            plan16_5.group(j, p)


def test_groups_match_wedge_point_sets(plan16_5) -> None:
    code = plan16_5.code
    spec = code.field
    q = 16
    for p in [0, 37, 255, 130]:
        x, y = divmod(p, q)
        for j, coset in enumerate(code.family.cosets):
            pts = wedge_point_set(spec, Wedge(coset, (x, y)))
            expected = sorted(u * q + v for (u, v) in pts if (u, v) != (x, y))
            assert plan16_5.group(j, p).tolist() == expected


def test_groups_disjoint_and_cover(plan16_5) -> None:
    q = 16
    for p in range(256):
        all_indices = np.concatenate([plan16_5.group(j, p) for j in range(3)])
        assert len(set(all_indices.tolist())) == all_indices.size
        assert p not in all_indices
        # Union of the t groups plus the coordinate: t*h*(q-1) + 1 points.
        assert all_indices.size + 1 == 3 * 5 * (q - 1) + 1 == 226


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15", "q32h31", "code64_9"])
def test_groups_equal_wedge_by_wedge_reference(name, request) -> None:
    """Every group translated from the t origin wedges equals, in values and
    dtype, the group built per (coset, x, alpha), whose every coordinate the
    reference checks for disjointness."""
    if name == "q32h31":
        code = build_code(make_coset_family(make_field(5), 31))
    else:
        code = request.getfixturevalue(name)
    plan = build_repair_plan(code)
    reference = repair_groups_reference(code)
    assert np.array_equal(plan.seeds, reference[:, 0])
    for j in range(plan.t):
        for p in range(code.length):
            group = plan.group(j, p)
            assert group.dtype == reference.dtype
            assert np.array_equal(group, reference[j, p])


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15", "q32h31", "code64_9"])
def test_transform_sums_equal_gathered_sums(name, request) -> None:
    """The Walsh–Hadamard sums equal the sums gathered over the reference
    groups, for F_q and binary codewords and for random words over F_q and
    GF(2) (nonzero syndromes), in values and dtype."""
    if name == "q32h31":
        code = build_code(make_coset_family(make_field(5), 31))
    else:
        code = request.getfixturevalue(name)
    plan = build_repair_plan(code)
    spectra = _seed_spectra(plan)
    groups = repair_groups_reference(code)
    q, n = code.field.q, code.length
    rng = np.random.default_rng(31)
    binary = trace_code(code).generator_matrix()
    words = [
        encode(code, rng.integers(0, q, size=len(code.good_monomials))),
        np.bitwise_xor.reduce(binary[rng.integers(0, 2, size=len(binary)) == 1], axis=0),
        rng.integers(0, q, size=n).astype(np.uint8),
        rng.integers(0, 2, size=n).astype(np.uint8),
        np.full(n, q - 1, dtype=np.uint8),
    ]
    for word in words:
        sums = _group_sums(plan, spectra, word)
        assert sums.dtype == word.dtype
        for j in range(plan.t):
            assert np.array_equal(sums[j], group_sums_reference(groups, word, j))
    codeword_sums = _group_sums(plan, spectra, words[0])
    assert (codeword_sums == words[0]).all()
    assert (_group_sums(plan, spectra, words[2]) != words[2]).any()


def _words_drawn_by_verify(code, trials, seed, binary=False):
    """The codewords verify_drgp draws for a seed, drawn the same way:
    encode(m) + lam * (X^(q-1) + Y^(q-1)), traced when binary."""
    rng = np.random.default_rng(seed)
    q, k = code.field.q, len(code.good_monomials)
    axes = eval_monomial(code.field, (q - 1, 0)) ^ eval_monomial(code.field, (0, q - 1))
    words = []
    for _ in range(trials):
        symbols = rng.integers(0, q, size=k + 1)
        word = encode(code, symbols[:k]) ^ code.field.mul_table()[symbols[k], axes]
        words.append(code.field.trace_table()[word] if binary else word)
    return words


def test_verify_records_match_gathered_reference(plan16_5, monkeypatch) -> None:
    """With encode patched to corrupt the words it hands out, the failure
    records are the gathered reference's, record for record, in the order
    trial, group, coordinate."""
    code = plan16_5.code
    faults = [{100: 1}, {}, {7: 9, 200: 4}]
    words = _words_drawn_by_verify(code, 3, 8)
    for word, fault in zip(words, faults):
        for p, error in fault.items():
            word[p] ^= error
    pending = iter(faults)

    def corrupted_encode(code, message):
        word = encode(code, message)
        for p, error in next(pending).items():
            word[p] ^= error
        return word

    monkeypatch.setattr(repair_module, "encode", corrupted_encode)
    failures = verify_drgp(plan16_5, trials=3, rng_seed=8)["failures"]
    assert len(failures) > 3 * 3
    assert failures == verify_failures_reference(repair_groups_reference(code), words)


def test_injected_fault_is_the_tampered_group(plan16_5) -> None:
    """The private fault path fails exactly as repair over the reference
    groups with member 0 of group 0 of coordinate 0 pointed at coordinate 0,
    for F_q and binary codewords."""
    code = plan16_5.code
    tampered = repair_groups_reference(code)
    tampered[0, 0, 0] = 0
    for binary in (False, True):
        report = _verify(plan16_5, 20, 2, binary, fault=True)
        words = _words_drawn_by_verify(code, 20, 2, binary)
        expected = verify_failures_reference(tampered, words)
        assert expected and report["failures"] == expected
        assert report["checks"] == 20 * 3 * 256


@pytest.mark.parametrize("ell,h", [(4, 5), (5, 31)], ids=["q16h5", "q32h31"])
def test_traced_words_span_the_kernel(ell, h, monkeypatch) -> None:
    """The binary words verify hands to the group sums lie in the row space
    of a full build's kernel_basis and, dim C + 16 of them, span it: their
    reduced row-echelon basis is kernel_basis itself, as is that of the same
    number of words drawn from the kernel rows by the reference."""
    code = build_code(make_coset_family(make_field(ell), h))
    plan = build_repair_plan(code)
    seen = []

    def recording_sums(plan, spectra, codeword):
        seen.append(codeword.copy())
        return _group_sums(plan, spectra, codeword)

    monkeypatch.setattr(repair_module, "_group_sums", recording_sums)
    trials = code.exact_dimension + 16
    assert verify_drgp(plan, trials, 18, binary=True)["failures"] == []
    assert len(seen) == trials and all(w.dtype == np.uint8 for w in seen)
    assert np.array_equal(seen, _words_drawn_by_verify(code, trials, 18, binary=True))
    for words in (seen, kernel_codewords_reference(code, trials, 18)):
        span = gf2_echelon([pack_rows(np.stack(words))], code.length).reduced()
        assert np.array_equal(span, code.kernel_basis)


@pytest.mark.parametrize("shift", [-1, 1])
def test_verify_refuses_a_code_whose_slack_is_not_one(code16_5, shift) -> None:
    """The draw spans C only when the good monomials and X^(q-1) + Y^(q-1)
    are a basis, so any other slack raises before a trial runs."""
    patched = dataclasses.replace(code16_5, exact_dimension=code16_5.exact_dimension + shift)
    plan = build_repair_plan(patched)
    for binary in (False, True):
        with pytest.raises(InvariantError, match=f"dimension slack {1 + shift} != 1"):
            verify_drgp(plan, 1, 0, binary=binary)


def _overlapping_seeds(family):
    seeds = _origin_wedges(family)
    seeds[1, 5] = seeds[0, 5]
    return seeds


def _seeds_holding_the_origin(family):
    seeds = _origin_wedges(family)
    seeds[2, 3] = 0
    return seeds


@pytest.mark.parametrize(
    "faulty,message",
    [(_overlapping_seeds, "not disjoint"), (_seeds_holding_the_origin, "its own coordinate")],
    ids=["overlap", "own"],
)
def test_seed_fault_makes_the_plan_raise(code16_5, monkeypatch, faulty, message) -> None:
    """The plan checks only the t origin wedges; a fault there is a fault in
    the groups of every coordinate, and raises."""
    monkeypatch.setattr(repair_module, "_origin_wedges", faulty)
    with pytest.raises(InvariantError, match=message):
        build_repair_plan(code16_5)


def test_groups_are_sorted_and_readonly(plan16_5) -> None:
    assert (np.diff(plan16_5.seeds, axis=1) > 0).all()
    for p in (0, 1, 77, 255):
        assert (np.diff(plan16_5.group(1, p)) > 0).all()
    with pytest.raises(ValueError):
        plan16_5.seeds[0, 0] = 1


# ---------------------------------------------------------------------------
# Repair verification over F_q
# ---------------------------------------------------------------------------


def test_verify_gf16_hundred_trials(plan16_5) -> None:
    report = verify_drgp(plan16_5, trials=100, rng_seed=0)
    assert report == {
        "code": "F_q",
        "q": 16,
        "h": 5,
        "t": 3,
        "trials": 100,
        "checks": 100 * 3 * 256,
        "failures": [],
        "seed": 0,
    }


def test_verify_is_deterministic(plan16_5) -> None:
    r1 = verify_drgp(plan16_5, trials=5, rng_seed=42)
    r2 = verify_drgp(plan16_5, trials=5, rng_seed=42)
    assert r1 == r2


def test_verify_gf64(plan64_9) -> None:
    report = verify_drgp(plan64_9, trials=100, rng_seed=7)
    assert report["checks"] == 100 * 7 * 4096
    assert report["failures"] == []


def test_verify_rejects_zero_trials(plan16_5) -> None:
    with pytest.raises(UsageError):
        verify_drgp(plan16_5, trials=0, rng_seed=0)


def test_verify_rejects_negative_seed(plan16_5) -> None:
    with pytest.raises(UsageError, match="seed"):
        verify_drgp(plan16_5, 1, -1)


def test_every_group_repairs_a_fixed_codeword(plan16_5, rng) -> None:
    code = plan16_5.code
    msg = rng.integers(0, 16, size=len(code.good_monomials))
    c = encode(code, msg)
    sums = sums_of(plan16_5, c)
    for j in range(3):
        assert np.array_equal(sums[j], c)


# ---------------------------------------------------------------------------
# Repair verification over GF(2)
# ---------------------------------------------------------------------------


def test_verify_binary_gf16(plan16_5) -> None:
    report = verify_drgp(plan16_5, trials=100, rng_seed=3, binary=True)
    assert report["failures"] == []
    assert report["checks"] == 100 * 3 * 256


def test_verify_binary_gf64(plan64_9) -> None:
    report = verify_drgp(plan64_9, trials=100, rng_seed=5, binary=True)
    assert report["failures"] == []
    assert report["checks"] == 100 * 7 * 4096


def test_binary_zero_codeword_trivially_repairs(plan16_5, trace16_5) -> None:
    c = np.zeros(256, dtype=np.uint8)
    assert (sums_of(plan16_5, c) == 0).all()


# ---------------------------------------------------------------------------
# Fault sensitivity: a corrupted word must be detected
# ---------------------------------------------------------------------------


def test_tampered_codeword_fails_verification(plan16_5, rng) -> None:
    code = plan16_5.code
    msg = rng.integers(0, 16, size=len(code.good_monomials))
    c = encode(code, msg)
    c = c.copy()
    c[100] ^= 1  # not a codeword anymore
    hit = int((sums_of(plan16_5, c) != c).sum())
    # Coordinate 100 now disagrees with all of its own groups, and it sits in
    # other coordinates' groups, so at least 3 + 3*75 checks cannot all pass.
    assert hit >= 3


# ---------------------------------------------------------------------------
# Parallel reads
# ---------------------------------------------------------------------------


def test_parallel_reads_agree(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    for p in [0, 99, 255]:
        for k in (1, 2, 3):
            values = simulate_parallel_reads(plan16_5, c, p, k)
            assert values == [int(c[p])] * k


def test_parallel_reads_bounds(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    with pytest.raises(UsageError, match="t=3"):
        simulate_parallel_reads(plan16_5, c, 0, 4)
    with pytest.raises(UsageError):
        simulate_parallel_reads(plan16_5, c, 0, 0)
    with pytest.raises(UsageError):
        simulate_parallel_reads(plan16_5, c, 256, 1)


def test_parallel_reads_reject_a_codeword_of_the_wrong_length(plan16_5, rng) -> None:
    """A word of 2n symbols, of n - 1 symbols or of shape (n, 1) is refused
    with a UsageError, not read as if it were a codeword of the plan's code
    (nor left to an IndexError)."""
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    for word in (np.concatenate([c, c]), c[:-1], c[:, None]):
        with pytest.raises(UsageError, match="codeword has shape"):
            simulate_parallel_reads(plan16_5, word, 7, 2)


def test_parallel_reads_survive_erasures(plan16_5, rng) -> None:
    """Erase the coordinate and an entire one of its repair groups; the
    remaining groups still recover the value (disjointness in action)."""
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    p = 123
    true_value = int(c[p])
    damaged = c.copy()
    damaged[p] = 0  # erased
    for idx in plan16_5.group(2, p):  # wipe the entire last group
        damaged[idx] = 15
    values = simulate_parallel_reads(plan16_5, damaged, p, 2)  # groups 0 and 1
    assert values == [true_value, true_value]


def test_parallel_reads_detect_disagreement(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    damaged = c.copy()
    damaged[int(plan16_5.group(0, 7)[0])] ^= 5  # corrupt one read path of p=7
    with pytest.raises(InvariantError, match="disagree"):
        simulate_parallel_reads(plan16_5, damaged, 7, 3)


def test_single_group_family(code4_3, rng) -> None:
    plan = build_repair_plan(code4_3)
    report = verify_drgp(plan, trials=100, rng_seed=9)
    assert report["t"] == 1
    assert report["failures"] == []
    report2 = verify_drgp(plan, trials=100, rng_seed=9, binary=True)
    assert report2["failures"] == []
    c = encode(code4_3, rng.integers(0, 4, size=9))
    assert simulate_parallel_reads(plan, c, 5, 1) == [int(c[5])]


def test_full_group_family_gf16(code16_15) -> None:
    # h = q-1: one coset covering F_q^x, one repair group of size 225.
    plan = build_repair_plan(code16_15)
    assert plan.seeds.shape == (1, 225)
    report = verify_drgp(plan, trials=100, rng_seed=13)
    assert report["failures"] == [] and report["checks"] == 100 * 256
    report2 = verify_drgp(plan, trials=100, rng_seed=13, binary=True)
    assert report2["failures"] == []
