"""Exact linear algebra: packed GF(2) elimination.

The library eliminates over GF(2) with `GF2Echelon`: rows packed into uint64
words (column j at bit j % 64 of word j // 64), reduced block by block against
a basis kept in fully reduced row-echelon form. It also decides which kernel
basis the library exposes: the unique reduced row-echelon one.
`translation_closure` grows such a basis from a few seed rows to the smallest
row space that also holds every translate j -> j ^ c of its rows.

For 0/1 matrices the rank over any GF(2^ell) equals the GF(2) rank (row
operations on unit pivots stay in the subfield), which is why one GF(2) path
serves both codes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


WORD = np.dtype("<u8")
# Rows per elimination batch are chosen so that one batch holds about this
# many bytes: large enough that per-pivot numpy calls are amortised over many
# rows, small enough to stay cache- and memory-friendly.
BATCH_BYTES = 1 << 19


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
    Rows are added in batches (see gf2_echelon): a batch is first reduced
    against the basis (one vectorised XOR per pivot), then the rows it has
    left are eliminated inside the batch row by row; each new pivot row is
    XORed into the later rows of the batch and into the basis rows that have
    its pivot bit.

    The basis array starts with `capacity` rows and doubles, by copying, each
    time the rank reaches its size; a caller that knows a bound on the rank
    passes it, so the array is allocated once.
    """

    def __init__(self, ncols: int, capacity: int = 64) -> None:
        if ncols < 0:
            raise ValueError(f"ncols must be nonnegative, got {ncols}")
        self.ncols = ncols
        self.words = _words(ncols)
        self.rank = 0
        self._rows = np.zeros((max(capacity, 1), self.words), dtype=WORD)
        self._pivots: list[int] = []
        self._masks: list[np.uint64] = []
        pad = 64 * self.words - ncols
        self._pad_mask = np.uint64(((1 << pad) - 1) << (64 - pad)) if pad else None

    @property
    def pivots(self) -> np.ndarray:
        """Pivot column of each basis row, in the order the rows were found."""
        return np.array(self._pivots, dtype=np.int64)

    def reduced(self) -> np.ndarray:
        """The basis sorted by pivot (the unique RREF), as a read-only copy."""
        rows = self._rows[np.argsort(self.pivots)]
        rows.flags.writeable = False
        return rows

    def _add_batch(self, block: np.ndarray) -> None:
        """Extend the row space by a C-contiguous (rows, words) block, which
        is overwritten."""
        if block.shape[1] != self.words:
            raise ValueError(f"block has {block.shape[1]} words per row, expected {self.words}")
        if self._pad_mask is not None and (block[:, -1] & self._pad_mask).any():
            raise ValueError(f"block has bits set at or past column {self.ncols}")
        for k in range(self.rank):
            hit = (block[:, self._pivots[k] >> 6] & self._masks[k]).nonzero()[0]
            if hit.size:
                block[hit] ^= self._rows[k]
        for i in np.flatnonzero(block.any(axis=1)):
            row = block[i]
            nonzero = row.nonzero()[0]
            if not nonzero.size:
                continue  # cleared by a pivot found earlier in this block
            w = int(nonzero[0])
            word = int(row[w])
            col = 64 * w + (word & -word).bit_length() - 1
            mask = np.uint64(1 << (col & 63))
            later = block[i + 1 :]
            hit = (later[:, w] & mask).nonzero()[0]
            if hit.size:
                later[hit] ^= row
            hit = (self._rows[: self.rank, w] & mask).nonzero()[0]
            if hit.size:
                self._rows[hit] ^= row
            self._append(row, col, mask)

    def _append(self, row: np.ndarray, col: int, mask: np.uint64) -> None:
        if self.rank == len(self._rows):
            grown = np.zeros((2 * len(self._rows), self.words), dtype=WORD)
            grown[: self.rank] = self._rows[: self.rank]
            self._rows = grown
        self._rows[self.rank] = row
        self._pivots.append(col)
        self._masks.append(mask)
        self.rank += 1

    def kernel(self) -> np.ndarray:
        """Packed (ncols - rank, words) basis of {v : v . r = 0 for every row
        r}: the unique reduced row-echelon basis of the kernel, pivot = lowest
        set column, rows in increasing pivot.

        The r basis rows are eliminated again with their column order
        reversed, which gives the reduced basis whose pivots are the
        *highest* set columns. For each free column f of that basis the
        kernel vector is the unit vector at f plus the pivot column of every
        row with bit f set; those pivots all lie above f, so f is the
        vector's lowest set column, and no other vector has bit f. The
        vectors are written straight into packed words: every unit bit in one
        assignment, then each mirror row's pivot bit, by one OR, into the
        vectors of the free columns where that row is set.
        """
        n = self.ncols
        flipped = pack_rows(unpack_rows(self._rows[: self.rank], n)[:, ::-1])
        mirror = gf2_echelon([flipped], n, capacity=self.rank)
        # The mirror rows' pivots and the free columns, in original columns.
        pivots = n - 1 - mirror.pivots
        free = np.ones(n, dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        kernel = np.zeros((free.size, self.words), dtype=WORD)
        kernel[np.arange(free.size), free >> 6] = np.uint64(1) << (free & 63).astype(WORD)
        # The mirror rows unpacked once, their columns turned back.
        rows = unpack_rows(mirror._rows[: mirror.rank], n)[:, ::-1]
        for p, row in zip(pivots.tolist(), rows.view(bool)):
            kernel[row[free], p >> 6] |= np.uint64(1 << (p & 63))
        return kernel


def _batch_rows(words: int) -> int:
    """Rows of `words` uint64 words that make one elimination batch."""
    return max(1, BATCH_BYTES // (8 * max(words, 1)))


def gf2_echelon(blocks: Iterable[np.ndarray], ncols: int, capacity: int = 64) -> GF2Echelon:
    """Eliminate a stream of packed (rows, words) row blocks, regrouped into
    batches of about BATCH_BYTES so that each pass over the basis covers many
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
    """Packed rows with column j moved to column j ^ 2^bit, as a new array.

    For bit >= 6 that swaps whole words, w -> w ^ 2^(bit-6); below it swaps
    the bit pairs (b, b + 2^bit) inside each word. The caller keeps 2^bit
    below the column count, so no bit moves into the padding.
    """
    if bit >= 6:
        return rows[:, np.arange(rows.shape[1]) ^ (1 << (bit - 6))]
    shift, mask = np.uint64(1 << bit), _SWAP_MASKS[bit]
    return ((rows >> shift) & mask) | ((rows & mask) << shift)


def translation_closure(
    blocks: Iterable[np.ndarray], ncols: int, capacity: int = 64
) -> GF2Echelon:
    """Basis of the smallest row space that holds the seed rows of `blocks`
    and is invariant under every translation j -> j ^ c of the ncols (a power
    of two) columns.

    The seeds are eliminated as by gf2_echelon. Then each basis row, in the
    order the rows arrived, is moved by each of the log2(ncols) translations
    j -> j ^ 2^i (they generate all of them), and the translates are
    eliminated, about BATCH_BYTES at a time; rows they add join the queue.
    Every row is translated once, as it stands when its turn comes, which is
    after it was appended. Those translated versions are independent (each
    has its own pivot bit, and the rows translated after it are zero there),
    so they span the final space S, and their translates all lie in S: S is
    invariant, and no invariant space holding the seeds is smaller.
    `capacity` is the basis's initial row count (see GF2Echelon).
    """
    if ncols < 1 or ncols & (ncols - 1):
        raise ValueError(f"ncols must be a power of two, got {ncols}")
    echelon = gf2_echelon(blocks, ncols, capacity)
    bits = ncols.bit_length() - 1
    step = max(1, _batch_rows(echelon.words) // max(bits, 1))
    done = 0
    while bits and done < echelon.rank:
        rows = echelon._rows[done : min(done + step, echelon.rank)]
        echelon._add_batch(np.concatenate([translate_rows(rows, i) for i in range(bits)]))
        done += len(rows)
    return echelon
