"""GF(2) elimination (packed and big-int bitsets) and the dense GF(2^ell) eliminator
of tests/reference.py.

The packed eliminator the library uses is compared against the big-int
reference (`gf2_rank`, `gf2_rref` in tests/reference.py), and both against a
from-scratch numpy row-reduction; the subfield identity (0/1 matrices keep
their rank over the extension field) is *tested* against the dense
eliminator rather than assumed. The packed translate is
compared with unpacked column permutations, the table reduction with a
reduction one pivot at a time, and the translation closure with the RREF of
every translate of its seeds. Kernels are taken of translation closures,
whose row spaces are invariant under the column reversal the kernel read-out
relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgelift import make_coset_family, make_field
from wedgelift.code import iter_parity_rows
from wedgelift.linalg import (
    TABLE_BITS,
    GF2Echelon,
    gf2_echelon,
    pack_rows,
    translate_rows,
    translation_closure,
    unpack_rows,
)

from reference import (
    array_to_bitset,
    bitset_to_array,
    gf2_rank,
    gf2_rref,
    gfq_rank,
    ints_to_packed,
    iter_wedge_rows,
    numpy_gf2_rank,
    packed_to_ints,
)


def random_bit_matrix(rng: np.random.Generator, nrows: int, ncols: int) -> np.ndarray:
    return rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)


def rows_to_bitsets(matrix: np.ndarray) -> list[int]:
    return [array_to_bitset(row) for row in matrix]


# ---------------------------------------------------------------------------
# Bitset <-> array round trips
# ---------------------------------------------------------------------------


def test_bitset_roundtrip_examples() -> None:
    assert bitset_to_array(0b1011, 6).tolist() == [1, 1, 0, 1, 0, 0]
    assert array_to_bitset(np.array([1, 1, 0, 1, 0, 0], dtype=np.uint8)) == 0b1011
    assert array_to_bitset(np.zeros(10, dtype=np.uint8)) == 0
    assert bitset_to_array(0, 4).tolist() == [0, 0, 0, 0]


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=(1 << 200) - 1), st.integers(200, 260))
def test_bitset_roundtrip_random(bits: int, ncols: int) -> None:
    assert array_to_bitset(bitset_to_array(bits, ncols)) == bits


# ---------------------------------------------------------------------------
# GF(2) rank / rref / nullspace
# ---------------------------------------------------------------------------


def test_rank_examples() -> None:
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b111, 0b011, 0b100]) == 2
    identity = [1 << j for j in range(20)]
    assert gf2_rank(identity) == 20


def test_rank_against_numpy_random() -> None:
    rng = np.random.default_rng(11)
    for _ in range(60):
        nrows = int(rng.integers(1, 40))
        ncols = int(rng.integers(1, 40))
        m = random_bit_matrix(rng, nrows, ncols)
        assert gf2_rank(rows_to_bitsets(m)) == numpy_gf2_rank(m)


def test_rank_row_invariance() -> None:
    rng = np.random.default_rng(12)
    m = random_bit_matrix(rng, 15, 25)
    base = gf2_rank(rows_to_bitsets(m))
    doubled = np.vstack([m, m])
    assert gf2_rank(rows_to_bitsets(doubled)) == base
    # Adding a row that is a sum of existing rows does not raise the rank.
    extra = m[0] ^ m[3] ^ m[7]
    assert gf2_rank(rows_to_bitsets(np.vstack([m, extra[None, :]]))) == base


def test_rref_properties() -> None:
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = random_bit_matrix(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        bitsets = rows_to_bitsets(m)
        rref = gf2_rref(bitsets)
        assert len(rref) == gf2_rank(bitsets)
        for col, row in rref.items():
            assert row & (1 << col), "pivot bit present"
            for other_col, other_row in rref.items():
                if other_col != col:
                    assert not other_row & (1 << col), "pivot column cleared"
        # Row space is preserved: every original row reduces to zero.
        for row in bitsets:
            acc = row
            for col, pivot_row in sorted(rref.items()):
                if acc & (1 << col):
                    acc ^= pivot_row
            assert acc == 0


def packed_kernel(bitsets: list[int], ncols: int) -> list[int]:
    echelon = gf2_echelon([ints_to_packed(bitsets, ncols)], ncols)
    return packed_to_ints(echelon.kernel())


def test_nullspace_properties() -> None:
    """The kernel of translation closures, the spaces the library takes
    kernels of: at widths up to 256 the kernel pivots and free columns, and
    the reversed pivots the read-out uses, fall in several words and on both
    sides of bits 63 and 64. Seeds below the full closure leave free columns
    between the pivots. Closures without rows, of only zero rows and of full
    rank (random seeds) are included. The rank is counted independently, on
    every translate of the seeds."""
    rng = np.random.default_rng(14)
    cases = []
    for ncols in (1, 2, 4, 16, 64, 128, 256):
        cases += [seeds_below_full_closure(rng, nseeds, ncols) for nseeds in (1, 2, 3)]
        cases.append(random_bit_matrix(rng, 2, ncols))
    cases += [np.zeros((0, 128), dtype=np.uint8), np.zeros((5, 256), dtype=np.uint8)]
    ranks = []
    for m in cases:
        ncols = m.shape[1]
        every = every_translate(m)
        kernel = translation_closure([pack_rows(m)], ncols).kernel()
        basis = packed_to_ints(kernel)
        rank = gf2_rank(rows_to_bitsets(every))
        assert len(basis) == ncols - rank
        ranks.append((ncols, rank))
        # The kernel's own RREF, rows in increasing pivot (lowest set bit).
        rref = gf2_rref(basis)
        assert basis == [rref[c] for c in sorted(rref)]
        assert all(vec < (1 << ncols) for vec in basis)
        # Orthogonal to every translate of every seed.
        products = unpack_rows(kernel, ncols).astype(np.int64) @ every.T.astype(np.int64)
        assert not (products % 2).any(), "orthogonal to rows"
        # Basis independence.
        assert gf2_rank(basis) == len(basis)
    assert sum(rank == ncols for ncols, rank in ranks) >= 4
    assert any(0 < rank < ncols // 2 for ncols, rank in ranks if ncols > 64)
    assert sum(rank == 0 for _, rank in ranks) >= 2


def test_closure_is_invariant_under_column_reversal() -> None:
    """The basis of a translation closure, with its columns reversed
    (j -> ncols - 1 - j, the translate by ncols - 1), reduces to zero against
    the closure: the fact GF2Echelon.kernel reads its reversed-pivot basis
    from. A space that is not translation-invariant fails the same check."""
    rng = np.random.default_rng(25)
    for ncols in (1, 2, 4, 16, 64, 128, 256):
        for nseeds in (1, 2, 3):
            m = seeds_below_full_closure(rng, nseeds, ncols)
            closure = translation_closure([pack_rows(m)], ncols)
            reversed_rows = pack_rows(unpack_rows(closure.reduced(), ncols)[:, ::-1])
            assert not reduce_by_pivots(reversed_rows, closure).any()
    lowest = gf2_echelon([ints_to_packed([0b0001], 4)], 4)
    assert reduce_by_pivots(ints_to_packed([0b1000], 4), lowest).any()


def test_nullspace_trivial_cases() -> None:
    assert packed_kernel([], 3) == [0b001, 0b010, 0b100]
    assert packed_kernel([1 << j for j in range(4)], 4) == []


def test_kernel_of_full_rank_rows_is_empty() -> None:
    """A full-rank input has a (0, words) kernel, not an empty sequence."""
    for ncols in (4, 64, 70):
        echelon = gf2_echelon([ints_to_packed([1 << j for j in range(ncols)], ncols)], ncols)
        kernel = echelon.kernel()
        assert kernel.shape == (0, -(-ncols // 64)) and kernel.dtype == np.uint64


# ---------------------------------------------------------------------------
# Packed eliminator against the big-int reference
# ---------------------------------------------------------------------------


def packed_rref(echelon: GF2Echelon) -> dict[int, int]:
    return dict(zip(sorted(echelon.pivots.tolist()), packed_to_ints(echelon.reduced())))


def eliminate(m: np.ndarray, cuts=()) -> GF2Echelon:
    """Packed elimination of m, fed as blocks split before the rows in cuts."""
    return gf2_echelon(np.split(pack_rows(m), list(cuts)), m.shape[1])


def test_pack_roundtrip_and_padding() -> None:
    rng = np.random.default_rng(18)
    for ncols in (1, 16, 63, 64, 65, 130):
        m = random_bit_matrix(rng, 5, ncols)
        packed = pack_rows(m)
        assert packed.shape == (5, -(-ncols // 64))
        assert np.array_equal(unpack_rows(packed, ncols), m)
        assert packed_to_ints(packed) == rows_to_bitsets(m)
        assert np.array_equal(ints_to_packed(rows_to_bitsets(m), ncols), packed)


def test_packed_matches_references_random() -> None:
    """Rank against big-int and numpy elimination, RREF against big-int
    gf2_rref, at widths on both sides of word boundaries."""
    rng = np.random.default_rng(19)
    for ncols in (1, 7, 16, 63, 64, 65, 127, 128, 200):
        for _ in range(6):
            nrows = int(rng.integers(1, 2 * ncols + 3))
            m = random_bit_matrix(rng, nrows, ncols)
            if rng.integers(2):
                # Low-rank rows: products of thin factors.
                k = int(rng.integers(1, max(2, ncols // 3)))
                m = (random_bit_matrix(rng, nrows, k).astype(np.int64)
                     @ random_bit_matrix(rng, k, ncols) % 2).astype(np.uint8)
            bitsets = rows_to_bitsets(m)
            echelon = eliminate(m)
            assert echelon.rank == gf2_rank(bitsets) == numpy_gf2_rank(m)
            assert packed_rref(echelon) == gf2_rref(bitsets)


def test_packed_q4h3_width_padding_never_free() -> None:
    """q = 4: 16 columns inside one 64-bit word; the 48 padding columns are
    neither pivots nor free columns of the kernel. The kernel's pivots
    (lowest set bits) are the columns below 16 that are not the highest set
    column of a row in the highest-pivot RREF of the rows."""
    from wedgelift import make_coset_family

    family = make_coset_family(make_field(2), 3)
    blocks = list(iter_wedge_rows(family))
    assert all(b.shape == (4, 1) for b in blocks)
    rows = [r for b in blocks for r in packed_to_ints(b)]
    echelon = gf2_echelon(blocks, 16)
    assert echelon.rank == gf2_rank(rows) == 6
    assert packed_rref(echelon) == gf2_rref(rows)
    assert all(p < 16 for p in echelon.pivots)
    free = sorted(set(range(16)) - set(echelon.pivots.tolist()))
    top = {15 - c for c in gf2_rref(int(f"{r:016b}"[::-1], 2) for r in rows)}
    kernel = packed_kernel(rows, 16)
    assert len(kernel) == len(free) == 10
    assert all(v < 1 << 16 for v in kernel)
    assert [(v & -v).bit_length() - 1 for v in kernel] == sorted(set(range(16)) - top)


def test_packed_empty_and_zero_rows() -> None:
    empty = gf2_echelon([], 70)
    assert empty.rank == 0 and empty.reduced().shape == (0, 2)
    assert packed_to_ints(empty.kernel()) == [1 << j for j in range(70)]
    zeros = eliminate(np.zeros((9, 70), dtype=np.uint8), cuts=[4])
    assert zeros.rank == 0 and packed_rref(zeros) == {}
    assert gf2_echelon([np.zeros((0, 1), dtype=np.uint64)], 10).rank == 0


def test_packed_duplicate_rows_and_block_boundaries() -> None:
    """Duplicated rows add nothing, and the RREF does not depend on where the
    stream is cut into blocks or on the row order."""
    rng = np.random.default_rng(20)
    for ncols in (16, 100, 150):
        m = random_bit_matrix(rng, 40, ncols)
        m = np.vstack([m, m[::3], m[:5] ^ m[5:10]])
        reference = gf2_rref(rows_to_bitsets(m))
        for cuts in ([], [1], [7, 8, 30], list(range(1, len(m))), [len(m) - 1]):
            echelon = eliminate(m, cuts)
            assert packed_rref(echelon) == reference
        assert packed_rref(eliminate(m[::-1], [13, 29])) == reference


def test_packed_leaves_input_and_validates() -> None:
    blocks = [pack_rows(np.eye(3, 70, dtype=np.uint8)), pack_rows(np.ones((2, 70), dtype=np.uint8))]
    before = [b.copy() for b in blocks]
    assert gf2_echelon(blocks, 70).rank == 4
    assert all(np.array_equal(b, c) for b, c in zip(blocks, before))
    with pytest.raises(ValueError, match="words per row"):
        gf2_echelon([np.zeros((1, 3), dtype=np.uint64)], 70)
    with pytest.raises(ValueError, match="past column 70"):
        gf2_echelon([np.array([[0, 1 << 6]], dtype=np.uint64)], 70)


# ---------------------------------------------------------------------------
# Translation closure
# ---------------------------------------------------------------------------


def test_translate_rows_is_the_column_permutation() -> None:
    """Bit i of the column index flipped, against the unpacked permutation
    j -> j ^ 2^i, at widths below, at and above one word."""
    rng = np.random.default_rng(21)
    for ncols in (4, 16, 64, 256, 4096):
        m = random_bit_matrix(rng, 5, ncols)
        packed = pack_rows(m)
        for i in range(ncols.bit_length() - 1):
            moved = translate_rows(packed, i)
            assert moved.dtype == np.uint64 and moved.shape == packed.shape
            assert moved.flags.c_contiguous
            assert np.array_equal(unpack_rows(moved, ncols), m[:, np.arange(ncols) ^ (1 << i)])
            assert np.array_equal(translate_rows(moved, i), packed)
        assert np.array_equal(packed, pack_rows(m))


def seeds_below_full_closure(rng: np.random.Generator, nseeds: int, ncols: int) -> np.ndarray:
    """Random rows times (1 + T_i) for up to two index bits i (T_i the
    translate by 2^i), so that their translates span at most a half or a
    quarter of the columns, not all of them as random rows of odd weight do."""
    m = random_bit_matrix(rng, nseeds, ncols)
    bits = ncols.bit_length() - 1
    for i in rng.permutation(bits)[:2]:
        m ^= m[:, np.arange(ncols) ^ (1 << int(i))]
    return m


def every_translate(m: np.ndarray) -> np.ndarray:
    """Every translate j -> j ^ c, c in [0, ncols), of every row of m."""
    ncols = m.shape[1]
    return m[:, np.arange(ncols) ^ np.arange(ncols)[:, None]].reshape(-1, ncols)


def test_translation_closure_is_rref_of_every_translate() -> None:
    """The closure of a few seeds is the RREF of all their translates
    j -> j ^ c, c in [0, ncols)."""
    rng = np.random.default_rng(22)
    ranks = set()
    for ncols in (1, 2, 16, 64, 256):
        for nseeds in (1, 2, 3):
            m = seeds_below_full_closure(rng, nseeds, ncols)
            reference = gf2_rref(rows_to_bitsets(every_translate(m)))
            closure = translation_closure([pack_rows(m)], ncols)
            assert packed_rref(closure) == reference
            ranks.add((ncols, closure.rank))
    assert any(0 < r < n // 2 for n, r in ranks)


def test_translation_closure_batches_and_validates(monkeypatch) -> None:
    """With one translated row per batch, and with a basis that starts at one
    row and grows or starts at the rank and never grows, the closure is the
    same; and a width that is not a power of two is refused."""
    import wedgelift.linalg as linalg_module

    rng = np.random.default_rng(23)
    m = seeds_below_full_closure(rng, 2, 128)
    closure = translation_closure([pack_rows(m)], 128)
    expected = packed_rref(closure)
    for capacity in (0, 1, closure.rank):
        sized = translation_closure([pack_rows(m)], 128, capacity=capacity)
        assert packed_rref(sized) == expected
    assert len(sized._rows) == closure.rank
    monkeypatch.setattr(linalg_module, "MIN_BATCH_ROWS", 1)
    monkeypatch.setattr(linalg_module, "BATCH_BYTES", 8)
    assert packed_rref(translation_closure([pack_rows(m)], 128)) == expected
    with pytest.raises(ValueError, match="power of two"):
        translation_closure([], 96)


def reduce_by_pivots(block: np.ndarray, echelon: GF2Echelon) -> np.ndarray:
    """The reference reduction: for each basis row in turn, XOR it into
    every row of the block that has its pivot bit."""
    out = block.copy()
    for row, col in zip(echelon._rows[: echelon.rank], echelon.pivots.tolist()):
        hit = (out[:, col >> 6] >> np.uint64(col & 63)) & np.uint64(1)
        out[hit.astype(bool)] ^= row
    return out


@pytest.mark.parametrize("ncols,rank", [(70, 13), (130, 37), (4096, 61)])
def test_table_reduction_equals_pivot_reduction(ncols, rank, monkeypatch) -> None:
    """A block reduced against a fully reduced basis, with every chunk added
    through its table, with every chunk added one pivot at a time, and with
    the cost rule choosing, equals the reference reduction, and equals the
    block's part off the pivot columns. The ranks are not multiples of
    TABLE_BITS, so the last chunk is short. The blocks have fewer and more
    rows than a table, and coefficients that make dense chunks (about half
    the pivots per row) and sparse ones (a few pivots in the whole block)."""
    import wedgelift.linalg as linalg_module

    assert rank % TABLE_BITS
    rng = np.random.default_rng(ncols + rank)
    echelon = gf2_echelon([pack_rows(random_bit_matrix(rng, rank, ncols))], ncols)
    assert echelon.rank == rank
    basis = unpack_rows(echelon._rows[:rank], ncols)
    pivots = echelon.pivots
    for nrows in (1 << TABLE_BITS) // 3, 3 << TABLE_BITS:
        for density in (0.5, 0.004):
            coefficients = (rng.random((nrows, rank)) < density).astype(np.float32)
            rest = random_bit_matrix(rng, nrows, ncols)
            rest[:, pivots] = 0
            bits = ((coefficients @ basis.astype(np.float32)) % 2).astype(np.uint8) ^ rest
            block = pack_rows(bits)
            expected = reduce_by_pivots(block, echelon)
            assert np.array_equal(expected, pack_rows(rest))
            for rule in (lambda *_: True, lambda *_: False, linalg_module._table_pays):
                monkeypatch.setattr(linalg_module, "_table_pays", rule)
                reduced = block.copy()
                echelon._reduce(reduced, 0, rank)
                assert np.array_equal(reduced, expected)


def test_closure_feeds_each_step_the_rank_it_began_with(monkeypatch) -> None:
    """At q64h9 the elimination takes the 7 seeds and, for each of the 12
    index bits, the translates of the basis as it stood when that step began:
    1 803 rows, where translating every basis row by every bit took 4 111.
    The ranks at the start of the steps, and the 342 at the end, are pinned."""
    counted: list[tuple[int, int]] = []
    add_batch = GF2Echelon._add_batch

    def counting(self, block, frozen=0):
        counted.append((frozen, len(block)))
        add_batch(self, block, frozen)

    monkeypatch.setattr(GF2Echelon, "_add_batch", counting)
    family = make_coset_family(make_field(6), 9)
    closure = translation_closure(iter_parity_rows(family), 64 * 64)
    starts = [7, 14, 28, 44, 76, 92, 124, 185, 259, 299, 330, 338]
    assert closure.rank == 342
    assert counted == [(0, 7)] + [(r, r) for r in starts]
    assert sum(rows for _, rows in counted) == 1803


def test_closure_rref_pinned_at_q256h255() -> None:
    """The q256h255 closure's RREF is bit for bit the one that translating
    every basis row by every bit gave (its sha256, 510 rows of 1024 words)."""
    import hashlib

    family = make_coset_family(make_field(8), 255)
    reduced = translation_closure(iter_parity_rows(family), 256 * 256).reduced()
    assert reduced.shape == (510, 1024)
    assert hashlib.sha256(reduced.tobytes()).hexdigest() == (
        "cbc355cfcc2052f24b638168d0c25078de7314487d55ed2b483b8e788473249a"
    )


# ---------------------------------------------------------------------------
# Dense eliminator over GF(2^ell)
# ---------------------------------------------------------------------------


def test_gfq_rank_examples() -> None:
    f16 = make_field(4)
    m = np.array([[1, 2], [3, 3], [0, 0]], dtype=np.uint16)
    # Row2 = 0; rows 0 and 1 independent over GF(16).
    assert gfq_rank(m, f16) == 2
    # [1, 2] and [g*1, g*2] are dependent for any scalar g.
    g = 5
    scaled = np.array(
        [[1, 2], [f16.mul(g, 1), f16.mul(g, 2)]], dtype=np.uint16
    )
    assert gfq_rank(scaled, f16) == 1


def test_gfq_rank_random_scalar_dependence() -> None:
    f16 = make_field(4)
    rng = np.random.default_rng(15)
    for _ in range(20):
        nrows = int(rng.integers(1, 12))
        ncols = int(rng.integers(1, 12))
        m = rng.integers(0, 16, size=(nrows, ncols), dtype=np.uint16)
        r = gfq_rank(m, f16)
        assert 0 <= r <= min(nrows, ncols)
        # Appending a random field multiple of an existing row keeps the rank.
        scalar = int(rng.integers(1, 16))
        mul = f16.mul_table()
        extra = mul[scalar, m[0]]
        assert gfq_rank(np.vstack([m, extra[None, :]]), f16) == r


def test_subfield_rank_identity_random() -> None:
    """Rank of a 0/1 matrix over GF(2^ell) equals its GF(2) rank (tested, not
    assumed): dense field elimination vs bitset elimination."""
    rng = np.random.default_rng(16)
    for spec in (make_field(2), make_field(4), make_field(6)):
        for _ in range(15):
            m = random_bit_matrix(rng, int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            assert gfq_rank(m.astype(np.uint16), spec) == gf2_rank(rows_to_bitsets(m))


def test_all_three_eliminators_agree() -> None:
    rng = np.random.default_rng(17)
    f16 = make_field(4)
    for _ in range(10):
        m = random_bit_matrix(rng, 30, 30)
        r_bitset = gf2_rank(rows_to_bitsets(m))
        r_numpy = numpy_gf2_rank(m)
        r_field = gfq_rank(m.astype(np.uint16), f16)
        assert r_bitset == r_numpy == r_field


def test_gfq_rank_rejects_out_of_range() -> None:
    from wedgelift import UsageError

    f4 = make_field(2)
    with pytest.raises(UsageError):
        gfq_rank(np.array([[7]], dtype=np.uint16), f4)
