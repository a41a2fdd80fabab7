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
from wedgelift.classify import Monomial, Wedge
from wedgelift.code import (
    _axes_codeword,
    export_matrix,
    export_packed,
    iter_parity_rows,
    write_descriptor,
)
from wedgelift.classify import bad_mask, count_bad, is_bad_coset_criterion
from wedgelift.linalg import closure_bytes, gf2_echelon, pack_rows, unpack_rows

from reference import (
    array_to_bitset,
    bitset_to_array,
    check_good_annihilated_reference,
    encode_reference,
    eval_monomial,
    field_pow,
    gf2_rank,
    gf2_rref,
    gfq_rank,
    iter_wedge_rows,
    numpy_gf2_rank,
    packed_to_ints,
    origin_wedge_sums_reference,
    restriction_grids_reference,
    traced_span,
    wedge_point_set_reference,
    wedge_rows,
)


def all_generators(binary) -> np.ndarray:
    """Every generator of a trace code, packed: its whole kernel."""
    return binary.kernel_rows(0, binary.binary_dimension)


def all_evaluations(code) -> np.ndarray:
    """Every good-monomial evaluation row of an F_q code, its
    generator_chunks concatenated."""
    return np.concatenate(list(code.generator_chunks()))


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
        assert int(vec[x * 16 + y]) == f16.mul(field_pow(f16, x, 3), field_pow(f16, y, 7))


# ---------------------------------------------------------------------------
# Parity rows
# ---------------------------------------------------------------------------


def test_parity_rows_are_wedge_indicators(f16) -> None:
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
                    for (u, v) in wedge_point_set_reference(f16, Wedge(coset, (x, y))):
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
    basis = packed_to_ints(all_generators(trace_code(code)))
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
    basis = packed_to_ints(all_generators(trace_code(code4_3)))
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
    """The whole kernel is the big-int RREF of the kernel vectors read off
    the gf2_rref of the parity rows (a unit vector per free column plus
    pivot bits), and bit-identical to the RREF of the trace rows
    tr(2^j * g), the trace code by its definition. At q32h31 and q64h9,
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
        binary = trace_code(code)
        assert packed_to_ints(all_generators(binary)) == [kernel_rref[c] for c in sorted(kernel_rref)]

        spec = code.field
        raw = [
            array_to_bitset(spec.trace_table()[spec.mul_table()[1 << j, bitset_to_array(g, n)]])
            for g in kernel
            for j in range(spec.ell)
        ]
        traced = gf2_rref(raw)
        assert packed_to_ints(all_generators(binary)) == [traced[c] for c in sorted(traced)]

    for code in (build_code(make_coset_family(make_field(5), 31)), code64_9):
        assert np.array_equal(all_generators(trace_code(code)), traced_span(code))


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
        for u, v in wedge_point_set_reference(spec, Wedge(coset, (0, 0))):
            total ^= int(values[u * 16 + v])
        assert total == 0
    real = _good_set(code16_5)
    assert m not in real and Monomial(0, 15) not in real
    _patch_bad_mask(monkeypatch, real | {m}, 16)
    with pytest.raises(InvariantError, match=r"good monomial \(1, 15\) has a 2-shadow outside"):
        build_code(fam16_5)


@pytest.mark.parametrize("ell", range(2, 8), ids=[f"q{1 << e}" for e in range(2, 8)])
def test_origin_wedge_sums_match_point_lists(ell) -> None:
    """The seed check's sums along the lines of each origin wedge, one
    product per monomial and coset, equal the sums over the wedge's point
    list, for all q^2 monomials at every odd h | q - 1."""
    spec = make_field(ell)
    q = spec.q
    every = np.argwhere(np.ones((q, q), dtype=bool))
    for h in range(1, q, 2):
        if (q - 1) % h == 0:
            family = make_coset_family(spec, h)
            sums = code_module._origin_wedge_sums(family, every)
            assert sums.shape == (q * q, family.t)
            assert np.array_equal(sums, origin_wedge_sums_reference(family, every)), h


def test_generator_rows_lie_in_kernel(code16_5) -> None:
    # Every good-monomial evaluation vector satisfies every wedge parity
    # check over the field (sum of values over the wedge support is 0).
    code = code16_5
    gen = all_evaluations(code)
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
        assert not restriction_grids_reference(code.field, coset, monomials).any()


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15"])
def test_parity_rows_are_rref_of_wedge_rows(name, request) -> None:
    """parity_rows is the big-int RREF of every raw wedge row, sorted by
    pivot, as a read-only (redundancy, words) packed array."""
    code = request.getfixturevalue(name)
    n = code.length
    rref = gf2_rref(wedge_rows(code.family))
    expected = [rref[c] for c in sorted(rref)]
    assert code.parity_rows.shape == (code.redundancy, -(-n // 64))
    assert code.parity_rows.dtype == np.uint64
    assert packed_to_ints(code.parity_rows) == expected
    assert np.array_equal(
        unpack_rows(code.parity_rows, n), np.stack([bitset_to_array(r, n) for r in expected])
    )
    assert not code.parity_rows.flags.writeable


def test_parity_export_does_not_depend_on_batching(fam16_5, monkeypatch, tmp_path) -> None:
    """With 8-row elimination batches (each bit step of the closure split
    into batches of the translates of 8 basis rows, not one batch of all of
    them) the exported parity file is byte for byte the same."""
    def export(path) -> None:
        code = build_code(fam16_5)
        export_packed(path, [code.parity_rows], (code.redundancy, code.length), q=16)

    default = tmp_path / "default.txt"
    export(default)
    monkeypatch.setattr(linalg_module, "MIN_BATCH_ROWS", 1)
    monkeypatch.setattr(linalg_module, "BATCH_BYTES", 8 * 4 * 8)
    monkeypatch.setattr(code_module, "BATCH_BYTES", 8 * 4 * 8)
    small = tmp_path / "small.txt"
    export(small)
    assert small.read_text().splitlines()[0] == "# q=16 rows=48 cols=256"
    assert small.read_bytes() == default.read_bytes()


# (ell, h) -> sha256 of a full build's trace generators (the GF(2) kernel)
# and parity rows, as a read-out that eliminated the column-reversed basis a
# second time gave them.
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
    """A full build's parity rows and the kernel trace_code reads from them
    are bit for bit the pinned ones, and build and trace together run
    exactly one elimination (one GF2Echelon)."""
    import hashlib

    made = []
    init = linalg_module.GF2Echelon.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg_module.GF2Echelon, "__init__", counting)
    code = build_code(make_coset_family(make_field(ell), h))
    kernel = all_generators(trace_code(code))
    digests = tuple(hashlib.sha256(rows.tobytes()).hexdigest() for rows in (kernel, code.parity_rows))
    assert digests == PINNED_BUILDS[ell, h]
    assert len(made) == 1


def record_kernel_rows(monkeypatch) -> list[tuple[int, int]]:
    """The (lo, hi) of every range of kernel rows formed from now on."""
    ranges = []
    rows = linalg_module.RrefKernel.rows

    def recording(self, lo, hi):
        ranges.append((lo, hi))
        return rows(self, lo, hi)

    monkeypatch.setattr(linalg_module.RrefKernel, "rows", recording)
    return ranges


@pytest.mark.parametrize("ell,h", PINNED_BUILDS, ids=[f"q{1 << e}h{h}" for e, h in PINNED_BUILDS])
def test_kernel_chunks_reproduce_pinned_bytes(ell, h, monkeypatch) -> None:
    """With chunks of 100 rows, the last one short, and sub-ranges of
    BATCH_BYTES / (8 * (rank + 1)) rows, the last of each range short too,
    the reads of the whole kernel keep the pinned sha256: kernel_rows of
    the whole range, the generator_chunks concatenated and the kernel_rows
    of ranges that cut across the chunks. Each forms every row exactly
    once."""
    import hashlib

    code = build_code(make_coset_family(make_field(ell), h))
    binary = trace_code(code)
    dim = binary.binary_dimension
    monkeypatch.setattr(linalg_module, "BATCH_BYTES", 100 * (code.length // 8))
    ranges = record_kernel_rows(monkeypatch)
    views = [
        all_generators(binary),
        np.concatenate(list(binary.generator_chunks())),
        np.concatenate([binary.kernel_rows(lo, min(lo + 333, dim)) for lo in range(0, dim, 333)]),
    ]
    for rows in views:
        assert hashlib.sha256(rows.tobytes()).hexdigest() == PINNED_BUILDS[ell, h][0]
    chunks = [(lo, min(lo + 100, dim)) for lo in range(0, dim, 100)]
    assert len(chunks) >= 10 and 0 < dim % 100
    assert ranges[: 1 + len(chunks)] == [(0, dim), *chunks]
    assert len(ranges) == 1 + len(chunks) + -(-dim // 333)
    step = linalg_module.BATCH_BYTES // (8 * (code.redundancy + 1))
    assert 1 < step < dim and 0 < dim % step


def test_kernel_rows_bounds(trace16_5) -> None:
    """kernel_rows(lo, hi) reads integers (numpy ones too) with
    0 <= lo <= hi <= binary_dimension; any other range is a UsageError, and
    an empty one is an empty array."""
    dim = trace16_5.binary_dimension
    for lo, hi in [(5, 4), (-1, 3), (0, dim + 1), (dim + 1, dim + 1), (-2, -1), (1.5, 3), (0, 2.0)]:
        with pytest.raises(UsageError, match="kernel rows"):
            trace16_5.kernel_rows(lo, hi)
    assert trace16_5.kernel_rows(dim, dim).shape == (0, 4)
    assert np.array_equal(trace16_5.kernel_rows(np.int64(3), np.uint8(5)), trace16_5.kernel_rows(3, 5))
    assert np.array_equal(trace16_5.kernel_rows(dim - 1, dim), all_generators(trace16_5)[-1:])


def test_whole_kernel_peak_is_its_packed_result(trace64_9) -> None:
    """kernel_rows(0, binary_dimension) at q64h9 (3 754 rows, about 126 set
    bits each) forms its rows in bounded sub-ranges: its tracemalloc peak is
    at most 8 MiB above the 1.8 MiB packed result it returns."""
    import tracemalloc

    tracemalloc.start()
    try:
        rows = all_generators(trace64_9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (3754, 64)
    assert peak - rows.nbytes <= 8 << 20


def test_kernel_is_read_by_trace_code_alone(fam16_5, monkeypatch) -> None:
    """No build forms a kernel row, in full or dimension-only mode, nor does
    trace_code or reading binary_dimension; the kernel is formed only when
    kernel_rows asks for it, and neither the code nor the trace code keeps
    it."""
    ranges = record_kernel_rows(monkeypatch)
    build_code(fam16_5, dimension_only=True)
    code = build_code(fam16_5)
    binary = trace_code(code)
    assert binary.binary_dimension == 208
    assert ranges == []
    all_generators(binary)
    assert ranges == [(0, 208)]
    assert not hasattr(code, "kernel_basis")
    assert not hasattr(linalg_module.GF2Echelon, "kernel")
    # The trace code holds the parent's parity rows themselves and arrays of
    # one entry per parity row.
    kernel = binary._kernel
    assert kernel.basis is code.parity_rows
    held = [v for v in [*vars(binary).values(), *vars(kernel).values()] if isinstance(v, np.ndarray)]
    assert all(v is code.parity_rows or v.shape == (48,) for v in held) and len(held) == 4


def test_trace_code_at_q256_under_the_default_guard() -> None:
    """q256h255 under the 2 GiB default guard: build_code + trace_code give
    binary_dimension 65 026 in well under 2 s at a tracemalloc peak under
    64 MB; a chunk of generators is orthogonal over GF(2) to every parity
    row, each with its free column as lowest set bit; and the F_q generators
    come four rows (512 KiB of uint16) at a time, the constant first."""
    import time
    import tracemalloc

    family = make_coset_family(make_field(8), 255)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = build_code(family)
        binary = trace_code(code)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert binary.binary_dimension == 65026
    assert peak < 64 << 20
    assert elapsed < 2.0
    lo = binary.binary_dimension - 64
    chunk = binary.kernel_rows(lo, lo + 64)
    products = np.bitwise_count(chunk[:, None, :] & code.parity_rows[None, :, :]).sum(axis=2)
    assert not (products % 2).any()
    free = binary._kernel.free_columns(lo, lo + 64)
    assert np.array_equal(linalg_module.lowest_set_columns(chunk), free)
    assert (np.bitwise_count(chunk).sum(axis=1) > 1).any()
    first = next(code.generator_chunks())
    assert first.shape == (4, 65536) and (first[0] == 1).all()


def test_dimension_only_build(fam16_5, code16_5) -> None:
    code = build_code(fam16_5, dimension_only=True)
    assert code.exact_dimension == code16_5.exact_dimension
    assert code.parity_rows is None


@pytest.mark.parametrize("ell,h,redundancy", [(7, 127, 254), (8, 255, 510)], ids=["q128h127", "q256h255"])
def test_exact_redundancy_beyond_q64(ell, h, redundancy) -> None:
    """Dimension-only redundancies at q = 128 and q = 256, first measured by
    eliminating every wedge row (5.4 s and 155 s); they equal bad - 1."""
    family = make_coset_family(make_field(ell), h)
    code = build_code(family, dimension_only=True)
    assert code.redundancy == redundancy
    assert code.redundancy == count_bad(family) - 1


def test_memory_guard() -> None:
    """Under the default 2 GiB guard a full build is refused, before any
    work, where the closure and the reduced copy of its basis do not fit:
    at q1024h93 (t = 11) the closure is charged 1.71 GiB for a basis of at
    most 12 * 1024 rows of 128 KiB and the good monomials 16 MiB, which
    fits; the copy takes 1.5 GiB more."""
    family = make_coset_family(make_field(10), 93)
    bound = 12 * 1024
    closure = closure_bytes(1024**2, bound)
    assert closure == (bound + 2 * 256 + 256) * 2**17 + 24 * bound
    code_module._guard_build(family, dimension_only=True)
    with pytest.raises(
        MemoryGuardError,
        match=rf"full build for q=1024, t=11 needs ~{closure + 16 * 2**20 + bound * 2**17} bytes "
        rf"\(guard 2147483648\); build with dimension_only=True",
    ):
        build_code(family)


def test_memory_guard_boundary(f16, monkeypatch) -> None:
    """A full build's estimate is the closure's, the good monomials' 16
    bytes for each of at most q^2, and the reduced() copy of the basis, at
    most (t + 1) * q rows of q^2/8 bytes: 22 016 bytes at q16h5 (t = 3)
    and 51 200 at q16h1 (t = 15). The build passes at exactly the estimate
    and raises one byte below it."""
    for h, redundancy, estimate in [(5, 48, 22016), (1, 80, 51200)]:
        family = make_coset_family(f16, h)
        bound = (family.t + 1) * 16
        assert estimate == closure_bytes(16**2, bound) + 16 * 256 + bound * 32
        monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
        assert build_code(family).redundancy == redundancy
        monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
        with pytest.raises(MemoryGuardError, match=f"full build for q=16, t={family.t} needs ~{estimate} bytes"):
            build_code(family)


@pytest.mark.parametrize("view,estimate", [("binary generators", 208 * 256 // 8)])
def test_dense_views_guard_boundary(view, estimate, trace16_5, monkeypatch) -> None:
    """A matrix read from a code is charged where it is made, for the bytes
    it holds: at q16h5 the packed binary generators kernel_rows(0, 208)
    208 * 256/8. It is made at exactly its charge and refused one byte
    below it. (The F_q generators come a chunk at a time and are never
    held whole.)"""
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    assert trace16_5.kernel_rows(0, 208).nbytes == estimate
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    with pytest.raises(MemoryGuardError, match=rf"^{view} for q=16, t=3 needs ~{estimate} bytes \(guard {estimate - 1}\)$"):
        trace16_5.kernel_rows(0, 208)


BUILD_PEAK_FAMILIES = [(6, 9), (6, 63), (7, 127), (8, 255)]


@pytest.mark.parametrize("dimension_only", [True, False], ids=["dimension-only", "full"])
@pytest.mark.parametrize("ell,h", BUILD_PEAK_FAMILIES, ids=[f"q{1 << e}h{h}" for e, h in BUILD_PEAK_FAMILIES])
def test_build_peak_within_guard_charge(ell, h, dimension_only, monkeypatch) -> None:
    """The whole of build_code, bad_mask, the good monomials, the closure,
    the reduced copy and the annihilation check, holds no more at its
    tracemalloc peak than the guard charges it."""
    import tracemalloc

    family = make_coset_family(make_field(ell), h)
    # The field's tables are made once per field and kept by it, not the build.
    for table in (family.field.mul_table, family.field.power_table, family.field.trace_table):
        table()
    charges = []
    guard = code_module._guard_bytes

    def recording(what, fam, estimated, hint=""):
        charges.append(estimated)
        guard(what, fam, estimated, hint)

    monkeypatch.setattr(code_module, "_guard_bytes", recording)
    tracemalloc.start()
    try:
        code = build_code(family, dimension_only=dimension_only)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code.redundancy == count_bad(family) - 1
    assert len(charges) == 1 and peak <= charges[0]


def test_dimension_only_memory_guard_boundary(fam16_5, monkeypatch) -> None:
    """A dimension-only build holds the good monomials, charged 16 bytes
    for each of the q^2 = 256 monomials, and what the translation closure
    holds, in rows of q^2 / 8 = 32 bytes at q16h5 (t = 3): the parity
    basis, at most (t + 1) * q = 64 rows, and 24 bytes of pivot data per
    row; one batch of translates and one temporary, each at most the
    64-row rank bound; and the 2^TABLE_BITS = 256-row table. It builds at
    exactly that estimate (19 968 bytes) and raises one byte below it."""
    closure = (64 + 2 * 64 + 256) * 32 + 64 * 24
    assert closure_bytes(16**2, 64) == closure
    estimate = closure + 16 * 256
    assert estimate == 19968
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
        gen = all_evaluations(code)
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
    gen = all_evaluations(code)
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
        exact_dimension=len(good), parity_rows=None,
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


def test_generator_matrix_rows_are_monomial_evaluations(code4_3, code16_5, monkeypatch) -> None:
    """The chunks hold the good-monomial evaluations in message order, in
    chunks of BATCH_BYTES // (2 * q^2) rows, the last one shorter; the rows
    are the same at any chunk size."""
    for code in (code4_3, code16_5):
        reference = np.stack([eval_monomial(code.field, m) for m in code.good_monomials])
        gen = all_evaluations(code)
        assert gen.dtype == reference.dtype
        assert np.array_equal(gen, reference)
    monkeypatch.setattr(code_module, "BATCH_BYTES", 2 * 256 * 50)
    chunks = list(code16_5.generator_chunks())
    assert [len(c) for c in chunks] == [50, 50, 50, 50, 7]
    assert np.array_equal(np.concatenate(chunks), gen)


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


def test_encode_refuses_what_it_would_mangle(code16_5) -> None:
    """Floats are refused, not truncated (1.7 would encode as 1), and a
    message of the right length in the wrong shape is refused by its shape.
    An empty message is checked only for its length."""
    k = len(code16_5.good_monomials)
    for message in ([1.7] * k, np.ones(k, dtype=np.float32), [True] * k):
        with pytest.raises(UsageError, match="must be integers, got dtype"):
            encode(code16_5, message)
    with pytest.raises(UsageError, match=rf"got shape \(1, {k}\)"):
        encode(code16_5, np.ones((1, k), dtype=np.int64))
    with pytest.raises(UsageError, match=r"got shape \(0,\)"):
        encode(code16_5, [])
    for dtype in (np.uint8, np.int16, np.uint64):
        ones = np.ones(k, dtype=dtype)
        assert np.array_equal(encode(code16_5, ones), encode(code16_5, [1] * k))
    empty = WedgeLiftedCode(
        field=code16_5.field, family=code16_5.family,
        good_monomials=np.zeros((0, 2), dtype=np.int64), exact_dimension=0, parity_rows=None,
    )
    assert not encode(empty, []).any()


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
    for gen in packed_to_ints(all_generators(trace16_5)):
        for row in rows:
            assert bin(gen & row).count("1") % 2 == 0


def test_trace_rows_orthogonal_to_wedges_sampled_gf64(trace64_9, rng) -> None:
    rows = wedge_rows(trace64_9.parent.family)
    gens = packed_to_ints(all_generators(trace64_9))
    for _ in range(200):
        g = gens[int(rng.integers(len(gens)))]
        r = rows[int(rng.integers(len(rows)))]
        assert bin(g & r).count("1") % 2 == 0


def test_trace_generator_matrix_shape(trace16_5) -> None:
    m = unpack_rows(all_generators(trace16_5), 256)
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
    with pytest.raises(UsageError, match="parity rows missing"):
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
    export_matrix(path, [np.array([[0, 1, 15]]), np.array([[10, 11, 2]])], (2, 3), q=16)
    assert path.read_text() == "# q=16 rows=2 cols=3\n0 1 f\na b 2\n"


def test_export_matrix_mixes_entry_widths(tmp_path) -> None:
    """Entries of 1 to 4 hex digits side by side, in blocks whose largest
    entry has fewer digits than q - 1, are written as formatting each one
    gives them; a 1 in the last column of a 0/1 block ends its row."""
    path = tmp_path / "m.txt"
    q = 1 << 16
    rng = np.random.default_rng(16)
    blocks = [
        rng.integers(0, q, size=(3, 5)) >> rng.integers(0, 16, size=(3, 5)),
        np.array([[0, 15, 9, 1, 3]]),
        np.array([[0, 1, 0, 0, 1], [1, 0, 0, 1, 0]], dtype=np.uint8),
        np.array([[255, 16, 0, 4095, 4096]]),
    ]
    export_matrix(path, blocks, (7, 5), q=q)
    lines = [" ".join(format(v, "x") for v in row) for block in blocks for row in block.tolist()]
    assert path.read_text() == f"# q={q} rows=7 cols=5\n" + "".join(line + "\n" for line in lines)


def test_export_matrix_rejects_entries_outside_the_field(tmp_path) -> None:
    """Entries outside [0, q) and rows of the wrong width are refused in
    any chunk, also after earlier chunks were fine, and leave no file."""
    good = np.array([[0, 1]])
    for bad in ([[0, 16]], [[-1, 0]]):
        with pytest.raises(UsageError, match=r"\[0, 16\)"):
            export_matrix(tmp_path / "m.txt", [good, np.array(bad)], (2, 2), q=16)
    for bad in ([[0, 1, 2]], [0, 1]):
        with pytest.raises(UsageError, match="matrix rows must hold 2 entries"):
            export_matrix(tmp_path / "m.txt", [good, np.array(bad)], (2, 2), q=16)
    assert list(tmp_path.iterdir()) == []


def test_export_packed_matches_export_matrix(tmp_path, code16_5, trace16_5) -> None:
    """Packed rows, in one block or in uneven chunks, are written byte for
    byte as export_matrix writes their 0/1 matrix; a shape whose row count
    the chunks do not give is refused, and neither the file nor a temp file
    is left behind."""
    n = code16_5.length
    for rows in (code16_5.parity_rows, all_generators(trace16_5)):
        export_matrix(tmp_path / "dense.txt", [unpack_rows(rows, n)], (len(rows), n), q=16)
        chunks = [rows[:7], rows[7:8], rows[8:]]
        export_packed(tmp_path / "packed.txt", chunks, (len(rows), n), q=16)
        assert (tmp_path / "packed.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()
    for nrows in (207, 209):
        with pytest.raises(UsageError, match=f"matrix has 208 rows, expected {nrows}"):
            export_packed(tmp_path / "short.txt", trace16_5.generator_chunks(), (nrows, n), q=16)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dense.txt", "packed.txt"]


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
    shape = (len(code4_3.good_monomials), code4_3.length)
    export_matrix(p1, code4_3.generator_chunks(), shape, q=4)
    export_matrix(p2, code4_3.generator_chunks(), shape, q=4)
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
