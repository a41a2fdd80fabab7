"""Code construction: evaluation vectors, parity ranks, kernels, trace codes.

Every frozen dimension below was recomputed through two additional
eliminators (dense numpy GF(2) and dense GF(2^ell)) before being fixed as a
constant, so the packed rank path never certifies itself; its parity rows,
kernel and trace generators are compared bit for bit with the big-int
reference. Checks against the wedges take every wedge row from the
reference enumerator as big ints, not the code's reduced rows or its
translation closure, so they do not lean on the packed elimination.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np
import pytest

from wedgelift import (
    InvariantError,
    MemoryGuardError,
    UsageError,
    WedgeLiftedCode,
    build_code,
    count_bad_closed_form,
    encode,
    make_coset_family,
    make_field,
    redundancy_exponent,
    trace_code,
)
import wedgelift.code as code_module
import wedgelift.linalg as linalg_module
from wedgelift._io import atomic_write_text
from wedgelift.bitlattice import enumerate_2_shadow
from wedgelift.classify import Monomial, Wedge, restriction_grid, wedge_point_set
from wedgelift.code import (
    _axes_codeword,
    export_matrix,
    iter_parity_rows,
    write_descriptor,
)
from wedgelift.classify import bad_mask, count_bad, is_bad_coset_criterion
from wedgelift.linalg import closure_bytes, gf2_echelon, pack_rows

from reference import (
    array_to_bitset,
    bitset_to_array,
    check_good_annihilated_reference,
    encode_reference,
    eval_monomial,
    gf2_rank,
    gf2_rref,
    gfq_rank,
    iter_wedge_rows,
    numpy_gf2_rank,
    packed_to_ints,
    traced_span,
    wedge_rows,
)


# (q, h) -> (good monomials, exact dimension). The dimension exceeds the
# good-monomial count by exactly 1 at every desk-scale instantiation.
FROZEN_DIMS = {
    (4, 3): (9, 10),
    (16, 5): (207, 208),
    (16, 15): (225, 226),
    (64, 9): (3753, 3754),
}


# ---------------------------------------------------------------------------
# Evaluation vectors
# ---------------------------------------------------------------------------


def test_eval_monomial_constant_is_all_ones(f16) -> None:
    vec = eval_monomial(f16, Monomial(0, 0))
    assert vec.shape == (256,)
    assert (vec == 1).all()


def test_eval_monomial_power_patterns(f16) -> None:
    q = 16
    # X^(q-1): 1 wherever x != 0 (rows), 0 on the x = 0 row.
    vec = eval_monomial(f16, Monomial(q - 1, 0))
    assert (vec[:q] == 0).all()
    assert (vec[q:] == 1).all()
    # X^(q-1) Y^(q-1): indicator of both coordinates nonzero.
    vec = eval_monomial(f16, Monomial(q - 1, q - 1))
    grid = vec.reshape(q, q)
    assert (grid[0] == 0).all() and (grid[:, 0] == 0).all()
    assert (grid[1:, 1:] == 1).all()


def test_eval_monomial_xy_is_mul_table(f4) -> None:
    assert np.array_equal(
        eval_monomial(f4, Monomial(1, 1)).reshape(4, 4), f4.mul_table()
    )


def test_eval_monomial_coordinate_order(f16) -> None:
    # Coordinate x*q + y holds x^a * y^b (row-major in x).
    vec = eval_monomial(f16, Monomial(3, 7))
    for x, y in [(0, 0), (1, 5), (9, 14), (15, 15)]:
        assert int(vec[x * 16 + y]) == f16.mul(f16.pow(x, 3), f16.pow(y, 7))


# ---------------------------------------------------------------------------
# Parity rows
# ---------------------------------------------------------------------------


def test_parity_rows_are_wedge_indicators(f16) -> None:
    from wedgelift import wedge_point_set
    from wedgelift.classify import Wedge

    family = make_coset_family(f16, 5)
    blocks = list(iter_wedge_rows(family))
    # One (q, q^2/64) block of uint64 words per (coset, x).
    assert len(blocks) == 3 * 16
    assert all(b.shape == (16, 4) and b.dtype == np.uint64 for b in blocks)
    rows = [r for b in blocks for r in packed_to_ints(b)]
    assert len(rows) == 3 * 256
    # Ordered (coset, x, y); spot-check a handful against the geometry.
    idx = 0
    for coset in family.cosets:
        for x in range(16):
            for y in range(16):
                if (x * 7 + y) % 61 == 0:  # sparse deterministic sample
                    expected = 0
                    for (u, v) in wedge_point_set(f16, Wedge(coset, (x, y))):
                        expected |= 1 << (u * 16 + v)
                    assert rows[idx] == expected, (coset[0], x, y)
                idx += 1
    # Every row has the wedge cardinality.
    assert {bin(r).count("1") for r in rows} == {5 * 15 + 1}


def test_seed_rows_are_the_wedges_at_the_origin(f16) -> None:
    """iter_parity_rows yields one (1, words) block per coset: the wedge at
    (0, 0), which is the reference enumerator's row (coset, x=0, y=0)."""
    family = make_coset_family(f16, 5)
    seeds = list(iter_parity_rows(family))
    assert len(seeds) == family.t == 3
    assert all(b.shape == (1, 4) and b.dtype == np.uint64 for b in seeds)
    origin = [block[:1] for block in iter_wedge_rows(family)][::16]
    assert [packed_to_ints(b) for b in seeds] == [packed_to_ints(b) for b in origin]


# Every odd h | q - 1 for q <= 32, and two families at q = 64.
CLOSURE_FAMILIES = [
    (ell, h)
    for ell in range(1, 6)
    for h in range(1, 1 << ell, 2)
    if ((1 << ell) - 1) % h == 0
] + [(6, 9), (6, 63)]


@pytest.mark.parametrize("ell,h", CLOSURE_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in CLOSURE_FAMILIES])
def test_closure_rref_equals_rref_of_every_wedge(ell, h, code64_9) -> None:
    """parity_rows, found from t seeds by translation closure, is the RREF of
    all t*q^2 wedge rows of the reference enumerator: by big-int gf2_rref up
    to q = 16, by the packed elimination of the whole stream above."""
    family = make_coset_family(make_field(ell), h)
    code = code64_9 if (ell, h) == (6, 9) else build_code(family)
    if ell <= 4:
        rref = gf2_rref(wedge_rows(family))
        assert packed_to_ints(code.parity_rows) == [rref[c] for c in sorted(rref)]
    else:
        assert np.array_equal(code.parity_rows, gf2_echelon(iter_wedge_rows(family), code.length).reduced())
    assert code.redundancy == len(code.parity_rows)


# Every odd h | q - 1 for q <= 64.
FAMILIES_TO_Q64 = [
    (ell, h)
    for ell in range(1, 7)
    for h in range(1, 1 << ell, 2)
    if ((1 << ell) - 1) % h == 0
]


@pytest.mark.parametrize("ell,h", FAMILIES_TO_Q64, ids=[f"q{1 << e}h{h}" for e, h in FAMILIES_TO_Q64])
def test_axes_codeword_is_annihilated_by_every_parity_row(ell, h, code64_9) -> None:
    """X^(q-1) + Y^(q-1), the one codeword verify adds to encode's words,
    is the reference evaluation of those two monomials and has even overlap
    with every reduced parity row, so it lies in the code; neither of its
    monomials is good."""
    family = make_coset_family(make_field(ell), h)
    code = code64_9 if (ell, h) == (6, 9) else build_code(family)
    q = code.field.q
    word = _axes_codeword(q)
    expected = eval_monomial(code.field, Monomial(q - 1, 0)) ^ eval_monomial(
        code.field, Monomial(0, q - 1)
    )
    assert word.dtype == np.uint16 and np.array_equal(word, expected)
    overlaps = np.bitwise_count(code.parity_rows & pack_rows(word[None].astype(np.uint8)))
    assert not (overlaps.sum(axis=1) % 2).any()
    bad = bad_mask(family)
    assert bad[q - 1, 0] and bad[0, q - 1]


# ---------------------------------------------------------------------------
# Build: dimensions via independent eliminators
# ---------------------------------------------------------------------------


def test_dimensions_frozen(code4_3, code16_5, code16_15, code64_9) -> None:
    for code, key in [
        (code4_3, (4, 3)),
        (code16_5, (16, 5)),
        (code16_15, (16, 15)),
        (code64_9, (64, 9)),
    ]:
        n_good, dim = FROZEN_DIMS[key]
        assert len(code.good_monomials) == n_good
        assert code.exact_dimension == dim
        assert code.dimension_slack == 1
        assert code.length == key[0] ** 2
        assert code.redundancy == key[0] ** 2 - dim


def test_rank_cross_checked_by_dense_eliminators(code4_3, code16_5, code16_15) -> None:
    for code in (code4_3, code16_5, code16_15):
        parity = np.stack([bitset_to_array(r, code.length) for r in wedge_rows(code.family)])
        # Dense GF(2) elimination, no bitsets involved.
        assert numpy_gf2_rank(parity) == code.redundancy
        # Dense elimination over the big field: same rank for a 0/1 matrix.
        assert gfq_rank(parity.astype(np.uint16), code.field) == code.redundancy


def test_kernel_basis_properties(code16_5) -> None:
    code = code16_5
    assert code.kernel_basis is not None
    basis = packed_to_ints(code.kernel_basis)
    assert len(basis) == code.exact_dimension
    assert gf2_rank(basis) == code.exact_dimension
    n = code.length
    rows = wedge_rows(code.family)
    for vec in basis[:: 16]:
        assert vec < 1 << n
        for row in rows:
            assert bin(vec & row).count("1") % 2 == 0


def test_nullspace_sampling_gf4(code4_3, rng) -> None:
    # Random GF(2) combinations of the kernel basis stay annihilated by all
    # 16 parity rows (sampled nullspace enumeration).
    basis = packed_to_ints(code4_3.kernel_basis)
    rows = wedge_rows(code4_3.family)
    for _ in range(50):
        picks = rng.integers(0, 2, size=len(basis))
        vec = 0
        for bit, b in zip(picks, basis):
            if bit:
                vec ^= b
        for row in rows:
            assert bin(vec & row).count("1") % 2 == 0


def test_kernel_and_trace_match_big_int_reference(code4_3, code16_5, code16_15, code64_9) -> None:
    """kernel_basis is the big-int RREF of the kernel vectors read off the
    gf2_rref of the parity rows (a unit vector per free column plus pivot
    bits), and binary_generators is bit-identical to the RREF of the trace
    rows tr(2^j * g), the trace code by its definition. At q32h31 and q64h9,
    where the big-int path is too slow, the trace rows are eliminated by the
    packed reference instead."""
    for code in (code4_3, code16_5, code16_15):
        n = code.length
        rref = gf2_rref(wedge_rows(code.family))
        kernel = []
        for f in range(n):
            if f not in rref:
                v = 1 << f
                for col, row in rref.items():
                    if row >> f & 1:
                        v |= 1 << col
                kernel.append(v)
        kernel_rref = gf2_rref(kernel)
        assert packed_to_ints(code.kernel_basis) == [kernel_rref[c] for c in sorted(kernel_rref)]

        spec = code.field
        raw = [
            array_to_bitset(spec.trace_table()[spec.mul_table()[1 << j, bitset_to_array(g, n)]])
            for g in kernel
            for j in range(spec.ell)
        ]
        traced = gf2_rref(raw)
        binary = trace_code(code)
        assert packed_to_ints(binary.binary_generators) == [traced[c] for c in sorted(traced)]

    for code in (build_code(make_coset_family(make_field(5), 31)), code64_9):
        assert np.array_equal(trace_code(code).binary_generators, traced_span(code))


def _patch_bad_mask(monkeypatch, good: set[tuple[int, int]], q: int) -> None:
    """Make build_code read a mask whose good monomials are exactly `good`."""
    mask = np.ones((q, q), dtype=bool)
    mask[tuple(np.array(sorted(good)).T)] = False
    monkeypatch.setattr(code_module, "bad_mask", lambda family: mask)


def _good_set(code) -> set[tuple[int, int]]:
    return set(map(tuple, code.good_monomials.tolist()))


def test_annihilation_check_fires_on_a_bad_monomial(fam16_5, code16_5, monkeypatch) -> None:
    """A bad monomial slipped into the good set makes the full build's seed
    check raise."""
    bad = Monomial(15, 15)
    real = _good_set(code16_5)
    assert bad not in real
    _patch_bad_mask(monkeypatch, real | {bad}, 16)
    with pytest.raises(InvariantError, match=r"good monomial \(15, 15\) violates"):
        build_code(fam16_5)


@pytest.mark.parametrize("ell,h", CLOSURE_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in CLOSURE_FAMILIES])
def test_true_good_set_passes_seed_and_reference_checks(ell, h, code64_9) -> None:
    """The good set passes the seed check (on the t wedges at the origin) and
    the reference check against every reduced parity row."""
    family = make_coset_family(make_field(ell), h)
    code = code64_9 if (ell, h) == (6, 9) else build_code(family)
    code_module._check_good_annihilated(family, code.good_monomials)
    check_good_annihilated_reference(code.field, code.good_monomials, code.parity_rows)


# (ell, h, stride): every bad monomial up to q = 16, every stride-th above.
MUTATION_FAMILIES = [(4, 1, 1), (4, 3, 1), (4, 5, 1), (4, 15, 1), (5, 31, 9), (6, 9, 50)]


@pytest.mark.parametrize(
    "ell,h,stride", MUTATION_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h, _ in MUTATION_FAMILIES]
)
def test_seed_check_fires_on_the_shadow_of_a_bad_monomial(ell, h, stride, code64_9, monkeypatch) -> None:
    """good | shadow(m), for a bad m, is closed under 2-shadows, so only the
    seed sums can reject it: they must, the build must raise, and the
    reference check must fail on the monomials it adds (the true good set
    passes it on its own, see above)."""
    family = make_coset_family(make_field(ell), h)
    code = code64_9 if (ell, h) == (6, 9) else build_code(family)
    q = family.q
    good = _good_set(code)
    bad = [Monomial(a, b) for a in range(q) for b in range(q) if (a, b) not in good]
    assert len(bad) == count_bad(family)
    for m in bad[::stride]:
        added = {Monomial(a, b) for a in enumerate_2_shadow(m.a) for b in enumerate_2_shadow(m.b)} - good
        mutated = good | added
        with pytest.raises(InvariantError, match="violates a wedge parity check"):
            code_module._check_good_annihilated(family, np.array(sorted(mutated)))
        with pytest.raises(InvariantError, match="violates a wedge parity check"):
            check_good_annihilated_reference(code.field, np.array(sorted(added)), code.parity_rows)
        _patch_bad_mask(monkeypatch, mutated, q)
        with pytest.raises(InvariantError):
            build_code(family)


def test_closure_half_catches_a_bad_monomial_with_zero_seed_sums(fam16_5, code16_5, monkeypatch) -> None:
    """(1, 15) is bad but sums to zero over every wedge at the origin, so
    only the 2-shadow closure rejects it: its shadow (0, 15) is bad."""
    spec = fam16_5.field
    m = Monomial(1, 15)
    values = eval_monomial(spec, m)
    for coset in fam16_5.cosets:
        total = 0
        for u, v in wedge_point_set(spec, Wedge(coset, (0, 0))):
            total ^= int(values[u * 16 + v])
        assert total == 0
    real = _good_set(code16_5)
    assert m not in real and Monomial(0, 15) not in real
    _patch_bad_mask(monkeypatch, real | {m}, 16)
    with pytest.raises(InvariantError, match=r"good monomial \(1, 15\) has a 2-shadow outside"):
        build_code(fam16_5)


def test_generator_rows_lie_in_kernel(code16_5) -> None:
    # Every good-monomial evaluation vector satisfies every wedge parity
    # check over the field (sum of values over the wedge support is 0).
    code = code16_5
    gen = code.generator_matrix()
    n = code.length
    supports = [np.nonzero(bitset_to_array(r, n))[0] for r in wedge_rows(code.family)]
    for row in gen[:: 13]:
        for support in supports:
            assert np.bitwise_xor.reduce(row[support]) == 0


def test_good_monomial_grids_vanish_sampled(code64_9, rng) -> None:
    code = code64_9
    sample = rng.choice(len(code.good_monomials), size=20, replace=False)
    monomials = [code.good_monomials[int(i)] for i in sample]
    for coset in code.family.cosets:
        assert not restriction_grid(code.field, coset, monomials).any()


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15"])
def test_parity_rows_are_rref_of_wedge_rows(name, request) -> None:
    """parity_rows is the big-int RREF of every raw wedge row, sorted by
    pivot, as a read-only (redundancy, words) packed array; the kernel basis
    and the trace generators are read-only too."""
    code = request.getfixturevalue(name)
    n = code.length
    rref = gf2_rref(wedge_rows(code.family))
    expected = [rref[c] for c in sorted(rref)]
    assert code.parity_rows.shape == (code.redundancy, -(-n // 64))
    assert code.parity_rows.dtype == np.uint64
    assert packed_to_ints(code.parity_rows) == expected
    assert np.array_equal(
        code.parity_check_matrix(), np.stack([bitset_to_array(r, n) for r in expected])
    )
    for rows in (code.parity_rows, code.kernel_basis, trace_code(code).binary_generators):
        assert not rows.flags.writeable


def test_parity_export_does_not_depend_on_batching(fam16_5, monkeypatch, tmp_path) -> None:
    """With 8-row elimination batches (each bit step of the closure split
    into batches of the translates of 8 basis rows, not one batch of all of
    them) the exported parity file is byte for byte the same."""
    default = tmp_path / "default.txt"
    export_matrix(default, build_code(fam16_5).parity_check_matrix(), q=16)
    monkeypatch.setattr(linalg_module, "MIN_BATCH_ROWS", 1)
    monkeypatch.setattr(linalg_module, "BATCH_BYTES", 8 * 4 * 8)
    monkeypatch.setattr(code_module, "BATCH_BYTES", 8 * 4 * 8)
    small = tmp_path / "small.txt"
    export_matrix(small, build_code(fam16_5).parity_check_matrix(), q=16)
    assert small.read_text().splitlines()[0] == "# q=16 rows=48 cols=256"
    assert small.read_bytes() == default.read_bytes()


# (ell, h) -> sha256 of a full build's (kernel_basis, parity_rows) bytes, as
# a read-out that eliminated the column-reversed basis a second time gave them.
PINNED_BUILDS = {
    (5, 31): (
        "4a59814e2e928619161f3825b06d7099d181100885ac839a296ef9c9c861ef50",
        "5205ffa8e3bae14b59690ab6608ffc644f65a35ac7fe1a0d55765aa90f4c8eb2",
    ),
    (6, 9): (
        "37d641ff09e4cb798d160e0ca4ee1fec16a4e7caf790f3253029478c3194a170",
        "925a3aed6fff21a3427ab9e64142ec16b2ce74045346869084cd3861f5cdc434",
    ),
    (6, 63): (
        "a64e4511c1100d6a7578aec6e5523a04b17cbf5582d055890fe4f4e82e3136c7",
        "7a33d07932b15acf1cd40e51dd49ada8e95e2e3dfc5384a82e7850b68bba7dec",
    ),
    (7, 127): (
        "bbbd75ca1c9db3e4da2b099de4dbeee03e691d67047d18701fceebcf1e651066",
        "c6760834ec84ea41b093fbf2e56c71f3cfef1ca0cf78a23b55456862f9f953b1",
    ),
}


@pytest.mark.parametrize("ell,h", PINNED_BUILDS, ids=[f"q{1 << e}h{h}" for e, h in PINNED_BUILDS])
def test_full_build_bytes_pinned(ell, h, monkeypatch) -> None:
    """A full build's kernel basis and parity rows are bit for bit the pinned
    ones, and the build runs exactly one elimination (one GF2Echelon)."""
    import hashlib

    made = []
    init = linalg_module.GF2Echelon.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg_module.GF2Echelon, "__init__", counting)
    code = build_code(make_coset_family(make_field(ell), h))
    digests = tuple(
        hashlib.sha256(rows.tobytes()).hexdigest() for rows in (code.kernel_basis, code.parity_rows)
    )
    assert digests == PINNED_BUILDS[ell, h]
    assert len(made) == 1


def test_dimension_only_build(fam16_5, code16_5) -> None:
    code = build_code(fam16_5, dimension_only=True)
    assert code.exact_dimension == code16_5.exact_dimension
    assert code.parity_rows is None and code.kernel_basis is None
    with pytest.raises(UsageError, match="dimension-only"):
        code.parity_check_matrix()


@pytest.mark.parametrize("ell,h,redundancy", [(7, 127, 254), (8, 255, 510)], ids=["q128h127", "q256h255"])
def test_exact_redundancy_beyond_q64(ell, h, redundancy) -> None:
    """Dimension-only redundancies at q = 128 and q = 256, first measured by
    eliminating every wedge row (5.4 s and 155 s); they equal bad - 1."""
    family = make_coset_family(make_field(ell), h)
    code = build_code(family, dimension_only=True)
    assert code.redundancy == redundancy
    assert code.redundancy == count_bad(family) - 1


def test_memory_guard(monkeypatch) -> None:
    spec = make_field(8)
    family = make_coset_family(spec, 255)
    with pytest.raises(MemoryGuardError, match="dimension_only"):
        build_code(family)
    # A generous guard cannot be bypassed by accident: the dense generator
    # matrix alone takes 2 * q^4 bytes (8 GiB at q = 256).
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", 1 << 30)
    with pytest.raises(MemoryGuardError):
        build_code(family)


def test_memory_guard_boundary(f16, monkeypatch) -> None:
    """A full build's estimate at q = 16 is the dense generator matrix,
    2 * 16^4 bytes, above the closure's estimate for every t <= 15: the
    build passes at exactly the estimate and raises one byte below it, at
    q16h5 (t = 3) and at q16h1 (t = 15)."""
    estimate = 2 * 16**4
    for h, redundancy in [(5, 48), (1, 80)]:
        family = make_coset_family(f16, h)
        assert estimate > closure_bytes(16**2, (family.t + 1) * 16)
        monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
        assert build_code(family).redundancy == redundancy
        monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
        with pytest.raises(MemoryGuardError, match="dimension_only"):
            build_code(family)


def test_dimension_only_memory_guard_boundary(fam16_5, monkeypatch) -> None:
    """A dimension-only build holds what the translation closure holds, in
    rows of q^2 / 8 = 32 bytes at q16h5 (t = 3): the parity basis, at most
    (t + 1) * q = 64 rows, and 24 bytes of pivot data per row; one batch of
    translates and one temporary, each at most the 64-row rank bound; and
    the 2^TABLE_BITS = 256-row table. It builds at exactly that estimate and
    raises one byte below it."""
    estimate = (64 + 2 * 64 + 256) * 32 + 64 * 24
    assert closure_bytes(16**2, 64) == estimate
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    code = build_code(fam16_5, dimension_only=True)
    assert code.redundancy == 48
    assert code.redundancy * 16**2 // 8 <= estimate
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    with pytest.raises(MemoryGuardError, match="dimension-only build"):
        build_code(fam16_5, dimension_only=True)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_zero_and_units(code4_3, code16_5) -> None:
    for code in (code4_3, code16_5):
        k = len(code.good_monomials)
        zero = encode(code, [0] * k)
        assert (zero == 0).all()
        gen = code.generator_matrix()
        for i in range(k):
            msg = [0] * k
            msg[i] = 1
            assert np.array_equal(encode(code, msg), gen[i])


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15", "code64_9"])
def test_encode_matches_generator_matrix_reference(name, request, rng) -> None:
    """The coefficient-grid evaluation equals the message-weighted XOR sum of
    the generator rows, value for value and dtype for dtype."""
    code = request.getfixturevalue(name)
    q, k = code.field.q, len(code.good_monomials)
    gen = code.generator_matrix()
    mul = code.field.mul_table()
    messages = [rng.integers(0, q, size=k) for _ in range(3)]
    messages.append(np.full(k, q - 1))
    for msg in messages:
        reference = np.bitwise_xor.reduce(mul[msg[:, None], gen], axis=0)
        word = encode(code, msg)
        assert word.dtype == reference.dtype
        assert np.array_equal(word, reference)


@pytest.mark.parametrize("ell,h", CLOSURE_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in CLOSURE_FAMILIES])
def test_encode_matches_reference(ell, h, code64_9, rng) -> None:
    """The additive-FFT encode equals the power-table double gather value for
    value and dtype for dtype, on random messages, the all-zero message and
    the all-(q-1) message."""
    family = make_coset_family(make_field(ell), h)
    code = code64_9 if (ell, h) == (6, 9) else build_code(family)
    q, k = code.field.q, len(code.good_monomials)
    messages = [rng.integers(0, q, size=k) for _ in range(3)]
    messages += [np.zeros(k, dtype=np.int64), np.full(k, q - 1)]
    for msg in messages:
        word, reference = encode(code, msg), encode_reference(code, msg)
        assert word.shape == (q * q,)
        assert word.dtype == reference.dtype
        assert np.array_equal(word, reference)


def test_encode_q1024_matches_direct_evaluation() -> None:
    """At q1024h1023 the word equals sum_i m_i x^a_i y^b_i, each term taken
    from the log tables, at 16 coordinates: the origin, a point on each axis
    and 13 random points. encode reads only the field and the good
    monomials, so the code comes from bad_mask alone, with no rank."""
    family = make_coset_family(make_field(10), 1023)
    spec, q = family.field, family.q
    good = np.argwhere(~bad_mask(family))
    code = WedgeLiftedCode(
        field=spec, family=family, good_monomials=good,
        exact_dimension=len(good), parity_rows=None, kernel_basis=None,
    )
    rng = np.random.default_rng(1024)
    msg = rng.integers(0, q, size=len(good))
    word = encode(code, msg)
    assert word.shape == (q * q,) and word.dtype == np.uint16
    points = [(0, 0), (0, int(rng.integers(1, q))), (int(rng.integers(1, q)), 0)]
    points += [tuple(map(int, p)) for p in rng.integers(0, q, size=(13, 2))]
    log, antilog = spec.log, spec.antilog
    a, b = good.T
    for x, y in points:
        # x^a is 1 at a = 0 (0^0 = 1) and 0 at x = 0 < a; likewise y^b.
        live = (msg != 0) & ((a == 0) | (x != 0)) & ((b == 0) | (y != 0))
        exponents = log[msg] + a * log[x] + b * log[y]
        expected = np.bitwise_xor.reduce(antilog[exponents[live] % (q - 1)])
        assert int(word[x * q + y]) == int(expected), (x, y)


def test_generator_matrix_rows_are_monomial_evaluations(code4_3, code16_5) -> None:
    for code in (code4_3, code16_5):
        reference = np.stack([eval_monomial(code.field, m) for m in code.good_monomials])
        gen = code.generator_matrix()
        assert gen.dtype == reference.dtype
        assert np.array_equal(gen, reference)


def test_encode_random_messages_satisfy_checks(code16_5, rng) -> None:
    code = code16_5
    k = len(code.good_monomials)
    n = code.length
    supports = [np.nonzero(bitset_to_array(r, n))[0] for r in wedge_rows(code.family)]
    for _ in range(5):
        msg = rng.integers(0, 16, size=k)
        word = encode(code, msg)
        for support in supports:
            assert np.bitwise_xor.reduce(word[support]) == 0


def test_encode_validates_messages(code4_3) -> None:
    with pytest.raises(UsageError, match="message length"):
        encode(code4_3, [0])
    with pytest.raises(UsageError, match="symbols"):
        encode(code4_3, [4] + [0] * 8)


# ---------------------------------------------------------------------------
# Trace code
# ---------------------------------------------------------------------------


def test_trace_dimension_equals_parent(code4_3, code16_5, code16_15, code64_9) -> None:
    # tr(C) = C ∩ F_2^n because C has a 0/1 kernel basis. At q16h5 and
    # q32h31 the dimension is also compared with the rank of the traced span
    # tr(2^j * g), the trace code by its definition.
    for code in (code4_3, code16_5, code16_15, code64_9):
        tc = trace_code(code)
        assert tc.binary_dimension == code.exact_dimension
    for code in (code16_5, build_code(make_coset_family(make_field(5), 31))):
        assert trace_code(code).binary_dimension == len(traced_span(code))


def test_trace_rows_orthogonal_to_wedges(trace16_5) -> None:
    rows = wedge_rows(trace16_5.parent.family)
    for gen in packed_to_ints(trace16_5.binary_generators):
        for row in rows:
            assert bin(gen & row).count("1") % 2 == 0


def test_trace_rows_orthogonal_to_wedges_sampled_gf64(trace64_9, rng) -> None:
    rows = wedge_rows(trace64_9.parent.family)
    gens = packed_to_ints(trace64_9.binary_generators)
    for _ in range(200):
        g = gens[int(rng.integers(len(gens)))]
        r = rows[int(rng.integers(len(rows)))]
        assert bin(g & r).count("1") % 2 == 0


def test_trace_generator_matrix_shape(trace16_5) -> None:
    m = trace16_5.generator_matrix()
    assert m.shape == (208, 256)
    assert set(np.unique(m)) <= {0, 1}
    # Rows are in reduced echelon form: leading columns are distinct units.
    lead = [int(np.nonzero(row)[0][0]) for row in m]
    assert lead == sorted(lead) and len(set(lead)) == len(lead)


def test_binary_redundancy_meets_exact_bound(code16_5, code16_15, code4_3) -> None:
    """Binary redundancy <= sqrt(N) * t^log2(2 - 2^-d) with t = 2^ell'; the
    right side equals q * ((2^(d+1) - 1) / 2^d)^ell' = the closed-form bad
    count, computed exactly as a rational."""
    for code, (ell_prime, d) in [
        (code4_3, (1, 2)),
        (code16_5, (2, 2)),
        (code16_15, (1, 4)),
    ]:
        q = code.field.q
        bound = q * Fraction((1 << (d + 1)) - 1, 1 << d) ** ell_prime
        assert bound == count_bad_closed_form(ell_prime, d)
        tc = trace_code(code)
        binary_redundancy = code.length - tc.binary_dimension
        assert binary_redundancy <= bound
        assert bound - binary_redundancy == 1  # observed slack, frozen


def test_trace_requires_full_build(fam4_3) -> None:
    code = build_code(fam4_3, dimension_only=True)
    with pytest.raises(UsageError, match="kernel"):
        trace_code(code)


# ---------------------------------------------------------------------------
# Redundancy exponent
# ---------------------------------------------------------------------------


def test_redundancy_exponent_reference_values() -> None:
    assert abs(redundancy_exponent(2) - 0.702) < 5e-4
    assert abs(redundancy_exponent(3) - 0.651) < 5e-4
    assert abs(redundancy_exponent(4) - 0.619) < 5e-4
    assert abs(redundancy_exponent(1) - 0.7925) < 5e-5
    values = [redundancy_exponent(d) for d in range(1, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0.5 for v in values)
    assert redundancy_exponent(200) < 0.503
    with pytest.raises(UsageError):
        redundancy_exponent(0)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_export_matrix_golden(tmp_path) -> None:
    path = tmp_path / "m.txt"
    export_matrix(path, np.array([[0, 1, 15], [10, 11, 2]]), q=16)
    assert path.read_text() == "# q=16 rows=2 cols=3\n0 1 f\na b 2\n"


def test_export_matrix_rejects_entries_outside_the_field(tmp_path) -> None:
    for bad in ([[0, 16]], [[-1, 0]]):
        with pytest.raises(UsageError, match=r"\[0, 16\)"):
            export_matrix(tmp_path / "m.txt", np.array(bad), q=16)
    assert not (tmp_path / "m.txt").exists()


def test_descriptor_golden(tmp_path, code4_3) -> None:
    path = tmp_path / "d.json"
    write_descriptor(path, code4_3)
    assert json.loads(path.read_text()) == {
        "ell": 2,
        "modulus": 7,
        "subgroup_order": 3,
        "coordinate_order": "row-major-poly-basis",
    }


def test_exports_are_deterministic(tmp_path, code4_3) -> None:
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    export_matrix(p1, code4_3.generator_matrix(), q=4)
    export_matrix(p2, code4_3.generator_matrix(), q=4)
    assert p1.read_bytes() == p2.read_bytes()


def test_written_files_follow_umask(tmp_path) -> None:
    """Files are created with mode 0o666 minus the process umask (not the
    0o600 of a private temp file), also when they replace an older file."""
    path = tmp_path / "out.txt"
    for mask in (0o022, 0o077, 0o002):
        previous = os.umask(mask)
        try:
            atomic_write_text(path, "x\n")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == 0o666 & ~mask
        assert path.read_text() == "x\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_good_monomials_ordering(code4_3, code64_9) -> None:
    """good_monomials is the read-only (M, 2) array of the good exponent
    pairs, in lexicographic order: argwhere of the inverted bad mask."""
    goods = code4_3.good_monomials
    assert goods.shape == (9, 2)
    assert not goods.flags.writeable
    pairs = list(map(tuple, goods.tolist()))
    assert pairs == sorted(pairs)
    assert (3, 3) not in pairs
    assert (0, 0) in pairs
    for code in (code4_3, code64_9):
        q, h, ell = code.field.q, code.family.subgroup_order, code.field.ell
        assert code.good_monomials.tolist() == [
            [a, b] for a in range(q) for b in range(q)
            if not is_bad_coset_criterion(Monomial(a, b), h, ell)
        ]
