"""Disjoint repair groups: geometry, simulation, and fault sensitivity."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from wedgelift import (
    InvariantError,
    MemoryGuardError,
    UsageError,
    build_code,
    build_repair_plan,
    encode,
    make_coset_family,
    make_field,
    simulate_parallel_reads,
    trace_code,
    verify_drgp,
)
import wedgelift.code as code_module
import wedgelift.repair as repair_module
from wedgelift.classify import Wedge
from wedgelift.code import WedgeLiftedCode, _origin_wedges
from wedgelift.linalg import gf2_echelon, pack_rows, unpack_rows
from wedgelift.repair import (
    _group_sums,
    _layout,
    _seed_labels,
    _seed_spectra_chunk,
    _transform,
    _verify,
    _verify_bytes,
)

from reference import (
    eval_monomial,
    group_sums_reference,
    kernel_codewords_reference,
    repair_groups_reference,
    seed_spectra_reference,
    verify_failures_reference,
    wedge_point_set_reference,
)
from test_code import CLOSURE_FAMILIES


def sums_of(plan, word):
    """Every group sum of every coordinate, (t, n), by the library's transform."""
    return _group_sums(plan, word)


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
            pts = wedge_point_set_reference(spec, Wedge(coset, (x, y)))
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
    groups = repair_groups_reference(code)
    q, n = code.field.q, code.length
    rng = np.random.default_rng(31)
    tc = trace_code(code)
    binary = unpack_rows(tc.kernel_rows(0, tc.binary_dimension), n)
    words = [
        encode(code, rng.integers(0, q, size=len(code.good_monomials))),
        np.bitwise_xor.reduce(binary[rng.integers(0, 2, size=len(binary)) == 1], axis=0),
        rng.integers(0, q, size=n).astype(np.uint8),
        rng.integers(0, 2, size=n).astype(np.uint8),
        np.full(n, q - 1, dtype=np.uint8),
    ]
    for word in words:
        sums = _group_sums(plan, word)
        assert sums.dtype == word.dtype
        for j in range(plan.t):
            assert np.array_equal(sums[j], group_sums_reference(groups, word, j))
    codeword_sums = _group_sums(plan, words[0])
    assert (codeword_sums == words[0]).all()
    assert (_group_sums(plan, words[2]) != words[2]).any()


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("k", range(1, 11))
def test_transform_is_the_sylvester_product(k, rows) -> None:
    """_transform(a) is a @ H for the Sylvester Hadamard matrix H of order
    n = 2^k, H[u, i] = (-1)^popcount(u & i), computed in Python integers mod
    2^64 on random full-width uint64 rows. Odd k, which the library never
    runs (n = q^2), ends the ping-pong in the buffer and is covered here."""
    n = 1 << k
    rng = np.random.default_rng(k * 10 + rows)
    a = rng.integers(0, 1 << 64, size=(rows, n), dtype=np.uint64, endpoint=False)
    sign = [[-1 if (u & i).bit_count() % 2 else 1 for i in range(n)] for u in range(n)]
    expected = [
        [sum(int(x) * s for x, s in zip(row, sign[u])) % (1 << 64) for u in range(n)]
        for row in a.tolist()
    ]
    got = _transform(a)
    assert got is a
    assert a.tolist() == expected


def _plan_of_family(ell, h):
    """A repair plan read from the family alone: the plan's seeds and the
    seed labels read nothing of the code but its family, so no rank is
    taken (which would dominate the test at q = 256)."""
    family = make_coset_family(make_field(ell), h)
    good = np.zeros((0, 2), dtype=np.intp)
    return build_repair_plan(
        WedgeLiftedCode(field=family.field, family=family, good_monomials=good,
                        exact_dimension=0, parity_rows=None)
    )


SPECTRA_FAMILIES = CLOSURE_FAMILIES + [(8, 17), (8, 255)]


@pytest.mark.parametrize("ell,h", [(4, 1), (6, 1), (4, 5)], ids=["q16h1", "q64h1", "q16h5"])
def test_group_sums_equal_gathered_sums_for_every_plane_count(ell, h) -> None:
    """The packed planes read back by one multiply equal the sums gathered
    over every group, in values and dtype: for random words over F_q, the
    all-(q-1) word, a word on the top plane alone, a one-plane word and the
    all-zero word. At h = 1 the slot width w is ell, so one word holds all
    ell planes and s = w, the edge where a multiply-based spread carries."""
    plan = _plan_of_family(ell, h)
    q, n = 1 << ell, plan.code.length
    w, per_word, rows, _ = _layout(plan, ell)
    assert rows == 1 and per_word >= ell and (w == ell) == (h == 1)
    rng = np.random.default_rng(ell * h)
    words = [
        rng.integers(0, q, size=n).astype(np.uint16),
        rng.integers(0, q, size=n).astype(np.uint8),
        np.full(n, q - 1, dtype=np.uint16),
        (rng.integers(0, 2, size=n) << (ell - 1)).astype(np.uint16),
        rng.integers(0, 2, size=n).astype(np.uint8),
        np.zeros(n, dtype=np.uint16),
    ]
    sums = [_group_sums(plan, word) for word in words]
    for word, got in zip(words, sums):
        assert got.dtype == word.dtype and got.shape == (plan.t, n)
    for j in range(plan.t):
        group = plan.seeds[j : j + 1, None, :] ^ np.arange(n, dtype=np.int32)[None, :, None]
        for word, got in zip(words, sums):
            assert np.array_equal(got[j], group_sums_reference(group, word, 0))
    assert not sums[-1].any()


@pytest.mark.parametrize(
    "h,rows,digest",
    [
        (17, 2, "271d84a06a6f5fcdd1d8b392ef56cf8a07d4b3e190e907c175a7e372ef180356"),
        (255, 3, "7ae71c6c9af03d8e208fda6c81e09f8cf076dd4c05a1ba875311236ba937e083"),
    ],
    ids=["q256h17", "q256h255"],
)
def test_group_sums_pinned_at_q256(h, rows, digest) -> None:
    """The sums of one seeded random word over F_256, whose 8 planes take
    two packed words a coordinate at h = 17 and three at h = 255, hash to
    what packing and reading out one plane at a time gave."""
    plan = _plan_of_family(8, h)
    assert _layout(plan, 8)[2] == rows
    word = np.random.default_rng(256).integers(0, 256, size=plan.code.length).astype(np.uint16)
    sums = _group_sums(plan, word)
    assert sums.dtype == np.uint16
    assert hashlib.sha256(sums.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("ell,h", SPECTRA_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in SPECTRA_FAMILIES])
def test_closed_form_spectra_equal_transformed_seeds(ell, h) -> None:
    """The closed-form seed spectra, -h + q * [labels = j] and h(q-1) at
    (0, 0), equal the butterfly transform of every seed's indicator as
    uint64 mod 2^64, whole and in chunks; each label j covers exactly
    h(q-1) cells and -1 the 2q - 1 cells with u = 0 or v = 0."""
    plan = _plan_of_family(ell, h)
    q, t = 1 << ell, plan.t
    labels = _seed_labels(plan)
    assert labels.dtype == np.int16 and labels.shape == (q * q,)
    counts = np.bincount(labels + 1, minlength=t + 1)
    assert counts[0] == 2 * q - 1
    assert (counts[1:] == h * (q - 1)).all()
    expected = seed_spectra_reference(plan)
    assert np.array_equal(_seed_spectra_chunk(plan, labels, 0, t), expected)
    for start in range(t):
        chunk = _seed_spectra_chunk(plan, labels, start, min(start + 2, t))
        assert chunk.dtype == np.uint64
        assert np.array_equal(chunk, expected[start : start + 2])


def test_seed_labels_are_made_once_per_plan(fam16_5, monkeypatch) -> None:
    """verify_drgp reads the plan's labels, made at the first call and
    kept read-only on the plan; later calls make none, and the sums are
    those of freshly made labels."""
    made = []

    def counting_labels(plan):
        made.append(plan)
        return _seed_labels(plan)

    monkeypatch.setattr(repair_module, "_seed_labels", counting_labels)
    plan = build_repair_plan(build_code(fam16_5, dimension_only=True))
    for seed in range(3):
        assert verify_drgp(plan, 2, seed)["failures"] == []
        assert verify_drgp(plan, 1, seed, binary=True)["failures"] == []
    assert made == [plan]
    assert not plan._labels.flags.writeable
    assert np.array_equal(plan._labels, _seed_labels(plan))


@pytest.mark.parametrize("binary,estimate", [(False, 154880), (True, 153856)], ids=["F_q", "binary"])
def test_verify_memory_guard_boundary(plan16_5, monkeypatch, binary, estimate) -> None:
    """Before its first trial verify charges its own arrays against the
    guard. At q16h5 (t = 3, n = 256): the sums, 3 * 256 uint16 symbols (or
    uint8 traces), and the word; the int16 labels, 512 bytes; one
    packed word of the 4 planes (or of the 1 binary plane), 2048 bytes; one
    chunk of all 3 seeds, whose products and transform buffer take
    2 * 3 * 2048 bytes and whose spectra and the booleans they are formed
    from 3 * 256 * 9; and NumPy's buffers for the product's two broadcast
    operands, 2 * 8192 uint64 entries. It runs at exactly that charge and
    is refused one byte below it."""
    assert _verify_bytes(plan16_5, binary) == estimate
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    assert verify_drgp(plan16_5, 2, 0, binary=binary)["failures"] == []
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    with pytest.raises(
        MemoryGuardError,
        match=rf"^repair check for q=16, t=3 needs ~{estimate} bytes \(guard {estimate - 1}\)$",
    ):
        verify_drgp(plan16_5, 2, 0, binary=binary)


@pytest.mark.parametrize("binary", [False, True], ids=["F_q", "binary"])
@pytest.mark.parametrize("name", ["plan16_5", "plan64_9", "q256h17", "q256h255"])
def test_verify_charge_bounds_the_sums_peak(name, binary, request) -> None:
    """The charge is at least what verify holds while it forms one word's
    sums: the labels, the word, and the peak that tracemalloc sees numpy
    allocate inside _group_sums, for a word with every bit plane set. At
    q = 256 the products take two packed words a coordinate (h = 17) and
    three (h = 255)."""
    plan = _plan_of_family(8, int(name[5:])) if name.startswith("q") else request.getfixturevalue(name)
    q, n = plan.code.field.q, plan.code.length
    labels = plan._labels
    word = np.ones(n, dtype=np.uint8) if binary else np.full(n, q - 1, dtype=np.uint16)
    tracemalloc.start()
    try:
        _group_sums(plan, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak + labels.nbytes + word.nbytes
    assert held <= _verify_bytes(plan, binary)


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
    """The binary words verify hands to the group sums lie in the trace code
    of a full build and, dim C + 16 of them, span it: their reduced
    row-echelon basis is its whole kernel_rows, as is that of the same
    number of words drawn from the kernel rows by the reference."""
    code = build_code(make_coset_family(make_field(ell), h))
    binary = trace_code(code)
    plan = build_repair_plan(code)
    seen = []

    def recording_sums(plan, codeword):
        seen.append(codeword.copy())
        return _group_sums(plan, codeword)

    monkeypatch.setattr(repair_module, "_group_sums", recording_sums)
    trials = code.exact_dimension + 16
    assert verify_drgp(plan, trials, 18, binary=True)["failures"] == []
    assert len(seen) == trials and all(w.dtype == np.uint8 for w in seen)
    assert np.array_equal(seen, _words_drawn_by_verify(code, trials, 18, binary=True))
    for words in (seen, kernel_codewords_reference(code, trials, 18)):
        span = gf2_echelon([pack_rows(np.stack(words))], code.length).reduced()
        assert np.array_equal(span, binary.kernel_rows(0, binary.binary_dimension))


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
