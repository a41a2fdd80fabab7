"""Exact linear algebra: packed GF(2) elimination.

The library eliminates over GF(2) with `GF2Echelon`: rows packed into uint64
words (column j at bit j % 64 of word j // 64), reduced block by block against
a basis kept in fully reduced row-echelon form. It also decides which kernel
basis the library exposes: the unique reduced row-echelon one.
`translation_closure` grows such a basis from a few seed rows to the smallest
row space that also holds every translate j -> j ^ c of its rows. Such a space
is invariant under the column reversal (the translate by ncols - 1), so
`GF2Echelon.kernel` reads the kernel from the basis itself, with its columns
reversed, and a full build eliminates once.

For 0/1 matrices the rank over any GF(2^ell) equals the GF(2) rank (row
operations on unit pivots stay in the subfield), which is why one GF(2) path
serves both codes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


WORD = np.dtype("<u8")
# Rows per elimination batch are chosen so that one batch holds about this
# many bytes, and at least MIN_BATCH_ROWS rows: large enough that the numpy
# calls of one pass over the basis are amortised over many rows and that a
# chunk's table of row sums pays for itself, small enough to stay cache- and
# memory-friendly.
BATCH_BYTES = 1 << 19
MIN_BATCH_ROWS = 256
# A batch is reduced against the basis TABLE_BITS pivots at a time: their bits
# are read in one gather, and the chunk is added through a table of its
# 2^TABLE_BITS row sums when that is cheaper than one XOR per set bit
# (_table_pays).
TABLE_BITS = 8


def _words(ncols: int) -> int:
    """uint64 words per packed row of ncols columns."""
    return -(-ncols // 64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, ncols) 0/1 matrix into (rows, _words(ncols)) words,
    zero-padded past column ncols."""
    nrows, ncols = bits.shape
    out = np.zeros((nrows, 8 * _words(ncols)), dtype=np.uint8)
    out[:, : (ncols + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(WORD)


def unpack_rows(words: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of pack_rows: (rows, ncols) uint8 0/1 matrix."""
    raw = np.ascontiguousarray(words, dtype=WORD).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=ncols, bitorder="little")


class GF2Echelon:
    """Fully reduced row-echelon basis of a GF(2) row space, rows packed.

    The pivot of a basis row is its lowest set column, and every pivot column
    is zero in every other basis row. Such a basis is unique for its row
    space, so it does not depend on the order or blocking of the input rows.
    Rows are added in batches (see gf2_echelon). A batch is first reduced
    against the basis: a row v becomes v + sum of v[p_k] * row_k over the
    pivots p_k, since no other basis row has bit p_k. The bits v[p_k] are
    read TABLE_BITS pivots at a time, one gather per chunk, and each chunk is
    added through a table of its row sums, or by one XOR per pivot when few
    rows need it (_reduce). The rows the batch has left are then eliminated
    inside it row by row, each new pivot row XORed into every other row of
    the batch with its pivot bit. The new rows are appended together, and
    the basis rows that were there before are reduced against them, the same
    way as a batch.

    translation_closure adds the translates of the basis one index bit at a
    time (_close_bit). During such a step the last reduction skips the basis
    rows being translated (the first `frozen` rows), so that they stay as
    they were while their translates are added; they are reduced at the
    step's end. Until then those rows may have bits at the later pivots, and
    a batch is reduced against them before the later rows.

    The basis array starts with `capacity` rows and doubles (or grows to fit
    a batch's new rows), by copying, each time it is full; a caller that
    knows a bound on the rank passes it, so the array is allocated once.
    """

    def __init__(self, ncols: int, capacity: int = 64) -> None:
        if ncols < 0:
            raise ValueError(f"ncols must be nonnegative, got {ncols}")
        self.ncols = ncols
        self.words = _words(ncols)
        self.rank = 0
        # Row k, its pivot column, that column's word and its bit in the word.
        self._rows = np.zeros((max(capacity, 1), self.words), dtype=WORD)
        self._cols = np.zeros(len(self._rows), dtype=np.int64)
        self._word = np.zeros(len(self._rows), dtype=np.intp)
        self._bit = np.zeros(len(self._rows), dtype=WORD)
        pad = 64 * self.words - ncols
        self._pad_mask = np.uint64(((1 << pad) - 1) << (64 - pad)) if pad else None

    @property
    def pivots(self) -> np.ndarray:
        """Pivot column of each basis row, in the order the rows were found."""
        return self._cols[: self.rank].copy()

    def reduced(self) -> np.ndarray:
        """The basis sorted by pivot (the unique RREF), as a read-only copy."""
        rows = self._rows[np.argsort(self.pivots)]
        rows.flags.writeable = False
        return rows

    def _reduce(self, block: np.ndarray, lo: int, hi: int) -> None:
        """XOR into each row of `block` the basis rows lo..hi-1 at whose
        pivots it has a set bit, TABLE_BITS rows at a time in basis order.
        Each basis row must be zero at the other pivots of its chunk and at
        the pivots of the chunks before it: then a chunk's bits, read from
        the block as it stands, are the row's coefficients, and the chunk
        leaves the block zero at its pivots.

        A chunk of k rows with s set bits in the block's R rows costs s row
        XORs one pivot at a time, or 2^k to build the table of its row sums
        and R to add one sum to every row; the cheaper way is taken
        (_table_pays)."""
        table = None
        for start in range(lo, hi, TABLE_BITS):
            stop = min(start + TABLE_BITS, hi)
            rows = self._rows[start:stop]
            bits = block[:, self._word[start:stop]]
            bits &= self._bit[start:stop]
            bits = bits.astype(bool)
            hits = np.count_nonzero(bits)
            if _table_pays(hits, len(rows), len(block)):
                if table is None:
                    table = np.zeros((1 << TABLE_BITS, self.words), dtype=WORD)
                for k, row in enumerate(rows):
                    np.bitwise_xor(table[: 1 << k], row, out=table[1 << k : 2 << k])
                index = np.packbits(bits, axis=1, bitorder="little")[:, 0]
                block ^= table[index]
            elif hits:
                pivot, hit = bits.T.nonzero()
                ends = np.cumsum(np.bincount(pivot, minlength=len(rows))).tolist()
                begin = 0
                for row, end in zip(rows, ends):
                    if end > begin:
                        block[hit[begin:end]] ^= row
                    begin = end

    def _reduce_basis(self, lo: int, hi: int, plo: int, phi: int) -> None:
        """_reduce the basis rows lo..hi-1 against the basis rows plo..phi-1,
        one batch of rows at a time."""
        if phi > plo:
            step = _batch_rows(self.words)
            for start in range(lo, hi, step):
                self._reduce(self._rows[start : min(start + step, hi)], plo, phi)

    def _add_batch(self, block: np.ndarray, frozen: int = 0) -> None:
        """Extend the row space by a C-contiguous (rows, words) block, which
        is overwritten. The basis rows after the first `frozen` are reduced
        against the new rows; the first `frozen` are left to the caller."""
        if block.shape[1] != self.words:
            raise ValueError(f"block has {block.shape[1]} words per row, expected {self.words}")
        if self._pad_mask is not None and (block[:, -1] & self._pad_mask).any():
            raise ValueError(f"block has bits set at or past column {self.ncols}")
        old = self.rank
        self._reduce(block, 0, frozen)
        self._reduce(block, frozen, old)
        # The rows left are eliminated inside the block, fully reduced, and
        # appended; the basis rows after the frozen ones are then reduced
        # against them.
        found: list[tuple[int, int]] = []
        for i in np.flatnonzero(block.any(axis=1)):
            row = block[i]
            nonzero = row.nonzero()[0]
            if not nonzero.size:
                continue  # cleared by a pivot found earlier in this block
            w = int(nonzero[0])
            word = int(row[w])
            row = row.copy()
            hit = (block[:, w] & np.uint64(word & -word)).nonzero()[0]
            block[hit] ^= row
            block[i] = row
            found.append((i, 64 * w + (word & -word).bit_length() - 1))
        if found:
            index, cols = np.array(found).T
            self._append(block, index, cols)
            self._reduce_basis(frozen, old, old, self.rank)

    def _close_bit(self, bit: int) -> None:
        """Add the translates j -> j ^ 2^bit of the basis rows as they stand
        (translate_rows), a batch at a time. Those rows are frozen while
        their translates are added, and then reduced against the rows found
        after them, which leaves the basis fully reduced again."""
        frozen = self.rank
        step = _batch_rows(self.words)
        for start in range(0, frozen, step):
            block = translate_rows(self._rows[start : min(start + step, frozen)], bit)
            self._add_batch(block, frozen)
        self._reduce_basis(0, frozen, frozen, self.rank)

    def _append(self, block: np.ndarray, index: np.ndarray, cols: np.ndarray) -> None:
        """Append the reduced rows block[index], whose pivots are cols."""
        end = self.rank + len(index)
        if end > len(self._rows):
            size = max(end, 2 * len(self._rows))
            grown = np.zeros((size, self.words), dtype=WORD)
            grown[: self.rank] = self._rows[: self.rank]
            self._rows = grown
            self._cols, self._word, self._bit = (
                np.resize(a, size) for a in (self._cols, self._word, self._bit)
            )
        np.take(block, index, axis=0, out=self._rows[self.rank : end])
        self._cols[self.rank : end] = cols
        self._word[self.rank : end] = cols >> 6
        self._bit[self.rank : end] = np.uint64(1) << (cols & 63).astype(WORD)
        self.rank = end

    def kernel(self) -> np.ndarray:
        """Packed (ncols - rank, words) basis of {v : v . r = 0 for every row
        r}: the unique reduced row-echelon basis of the kernel, pivot = lowest
        set column, rows in increasing pivot.

        Precondition: the row space is invariant under the column reversal
        j -> ncols - 1 - j, as every translation_closure is (ncols is a power
        of two there, so the reversal is the translation j -> j ^ (ncols - 1)).
        Then the basis rows, read with their columns reversed, are the
        space's reduced basis whose pivots are the *highest* set columns:
        ncols - 1 - p for each pivot p. For each free column f of that basis
        the kernel vector is the unit vector at f plus the pivot column of
        every row with bit f set; those pivots all lie above f, so f is the
        vector's lowest set column, and no other vector has bit f. The
        vectors are written straight into packed words: every unit bit in one
        assignment, then each row's pivot bit, by one OR, into the vectors of
        the free columns where that row is set.
        """
        n = self.ncols
        pivots = n - 1 - self.pivots
        free = np.ones(n, dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        kernel = np.zeros((free.size, self.words), dtype=WORD)
        kernel[np.arange(free.size), free >> 6] = np.uint64(1) << (free & 63).astype(WORD)
        # The basis rows unpacked once, reversed.
        rows = unpack_rows(self._rows[: self.rank], n)[:, ::-1]
        for p, row in zip(pivots.tolist(), rows.view(bool)):
            kernel[row[free], p >> 6] |= np.uint64(1 << (p & 63))
        return kernel


def _table_pays(hits: int, chunk: int, nrows: int) -> bool:
    """Whether a chunk of `chunk` basis rows, whose pivots have `hits` set
    bits in a batch of nrows rows, is added more cheaply through its table
    (2^chunk row sums to build, one sum added to each of the nrows rows) than
    by one row XOR per set bit."""
    return hits > (1 << chunk) + nrows


def _batch_rows(words: int) -> int:
    """Rows of `words` uint64 words that make one elimination batch."""
    return max(MIN_BATCH_ROWS, BATCH_BYTES // (8 * max(words, 1)))


def closure_bytes(ncols: int, rank_bound: int) -> int:
    """The most bytes translation_closure holds for ncols columns and a rank
    of at most rank_bound: the basis array (rank_bound packed rows, when
    allocated once) with the pivot column, word and bit of each row (three
    8-byte integers); one batch of translates (at most a batch, and at most
    the rank, since a step translates the basis); one temporary of at most as
    many rows (the batch rows that one pivot hits, or the sums that one table
    adds); and the table of 2^TABLE_BITS row sums. The coefficient gathers,
    a few bytes per batch row and chunk pivot, are not counted."""
    words = _words(ncols)
    batch = min(_batch_rows(words), rank_bound)
    return (rank_bound + 2 * batch + (1 << TABLE_BITS)) * 8 * words + 24 * rank_bound


def gf2_echelon(blocks: Iterable[np.ndarray], ncols: int, capacity: int = 64) -> GF2Echelon:
    """Eliminate a stream of packed (rows, words) row blocks, regrouped into
    batches of _batch_rows rows so that each pass over the basis covers many
    rows. The blocks themselves are not modified. `capacity` is the basis's
    initial row count (see GF2Echelon)."""
    echelon = GF2Echelon(ncols, capacity)
    batch_rows = _batch_rows(echelon.words)
    pending: list[np.ndarray] = []
    held = 0
    for block in blocks:
        pending.append(block)
        held += len(block)
        if held >= batch_rows:
            echelon._add_batch(np.concatenate(pending, dtype=WORD))
            pending, held = [], 0
    if pending:
        echelon._add_batch(np.concatenate(pending, dtype=WORD))
    return echelon


# _SWAP_MASKS[i]: the bits of a word whose bit index has bit i clear.
_SWAP_MASKS = tuple(
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
)


def translate_rows(rows: np.ndarray, bit: int) -> np.ndarray:
    """Packed rows with column j moved to column j ^ 2^bit, as a new
    C-contiguous array.

    For bit >= 6 that swaps whole words, w -> w ^ 2^(bit-6); below it swaps
    the bit pairs (b, b + 2^bit) inside each word. The caller keeps 2^bit
    below the column count, so no bit moves into the padding.
    """
    if bit >= 6:
        return np.take(rows, np.arange(rows.shape[1]) ^ (1 << (bit - 6)), axis=1)
    shift, mask = np.uint64(1 << bit), _SWAP_MASKS[bit]
    return ((rows >> shift) & mask) | ((rows & mask) << shift)


def translation_closure(
    blocks: Iterable[np.ndarray], ncols: int, capacity: int = 64
) -> GF2Echelon:
    """Basis of the smallest row space that holds the seed rows of `blocks`
    and is invariant under every translation j -> j ^ c of the ncols (a power
    of two) columns.

    The seeds are eliminated as by gf2_echelon, giving a space S. Then, one
    index bit i at a time, S becomes S + T_i S, T_i the translation
    j -> j ^ 2^i: the basis rows as they stood when step i began are
    translated, a batch at a time, and eliminated. Those rows stay unchanged
    during the step because the back-substitution of the pivots the step
    finds is deferred to its end (GF2Echelon._close_bit). The translations
    commute, so T_j(S + T_i S) = T_j S + T_i T_j S lies in S + T_i S once S
    is invariant under T_j: after step i the space is invariant under
    T_0 .. T_i, and after the last step under every translation. Each step
    adds only translates of the space, so no invariant space holding the
    seeds is smaller. The elimination takes the seeds plus, at each step, as
    many rows as the rank when it began. `capacity` is the basis's initial
    row count (see GF2Echelon).
    """
    if ncols < 1 or ncols & (ncols - 1):
        raise ValueError(f"ncols must be a power of two, got {ncols}")
    echelon = gf2_echelon(blocks, ncols, capacity)
    for bit in range(ncols.bit_length() - 1):
        echelon._close_bit(bit)
    return echelon
