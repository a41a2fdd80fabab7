"""Exact linear algebra: packed GF(2) elimination.

The library eliminates over GF(2) with `GF2Echelon`: rows packed into uint64
words (column j at bit j % 64 of word j // 64), reduced block by block against
a basis kept in fully reduced row-echelon form.
`translation_closure` grows such a basis from a few seed rows to the smallest
row space that also holds every translate j -> j ^ c of its rows, one index
bit at a time: a step adds the translates of the whole basis, or, when fewer
rows can do, those of the seeds and then of only the rows the step finds.
Such a space is invariant under the column reversal (the translate by
ncols - 1), so `RrefKernel` reads the kernel's unique reduced row-echelon basis from the
reduced basis itself, with its columns reversed, a range of rows at a time,
and eliminates nothing.

For 0/1 matrices the rank over any GF(2^ell) equals the GF(2) rank (row
operations on unit pivots stay in the subfield), which is why one GF(2) path
serves both codes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np


WORD = np.dtype("<u8")
# Rows per elimination batch are chosen so that one batch holds about this
# many bytes, and at least MIN_BATCH_ROWS rows: large enough that the numpy
# calls of one pass over the basis are amortised over many rows and that a
# chunk's table of row sums pays for itself, small enough to stay cache- and
# memory-friendly.
BATCH_BYTES = 1 << 19
MIN_BATCH_ROWS = 256
# A batch is reduced against the basis TABLE_BITS pivots at a time: a chunk
# is added through a table of its 2^TABLE_BITS row sums when that is cheaper
# than XORing its (row, pivot) pairs (_table_pays).
TABLE_BITS = 8
# Rows of at most PAIR_WORDS words take a reduction's pairs in rounds of
# gather-XORs; wider ones take them one pivot at a time (_add_pairs).
PAIR_WORDS = 256
# The cost of one numpy call, counted in words moved (_table_pays).
CALL_WORDS = 4096


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
    pivots p_k, since no other basis row has bit p_k. A reduction against
    at most TABLE_BITS basis rows, one chunk, adds them one at a time, each
    to the rows that have its pivot bit (_pivots_pay). A longer one reads
    the bits v[p_k] of the whole batch in one gather, packed, before any
    row is added; each chunk of TABLE_BITS pivots is then added through a
    table of its row sums or by its (row, pivot) pairs, whichever moves
    fewer words counting each numpy call, and a row with most of its bits
    set takes the sum of all the rows and then its unset bits (_reduce).
    All these forms add the same rows. The rows the batch has
    left are then eliminated inside it row by row, each new pivot row XORed
    into every other row of the batch with its pivot bit. The new rows are
    appended together, and the basis rows that were there before are
    reduced against them, the same way as a batch. RrefKernel reads the
    kernel from the reduced rows.

    translation_closure closes the space one index bit at a time, adding
    the translates of the basis (_close_bit), or breadth-first those of the
    seeds and then of the rows the step finds (_close_bit_from). During a
    step the last reduction skips the basis rows the step began with (the
    first `frozen` rows), so that they stay as they were while translates
    are added; they are reduced at the step's end. Until then those rows may
    have bits at the later pivots, so a batch is reduced against them in a
    reduction of its own, before the later rows: within each reduction the
    basis rows are zero at each other's pivots, which is what lets one
    gather read all its bits. The rows found during the step are not
    frozen, so a breadth-first round translates them as they stand, each
    plus some rows found after it; their translates are added in a later
    round, so the step's span is the same.

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
        # Row k, its pivot column, the byte of a packed row that holds that
        # column and its bit in the byte.
        self._rows = np.zeros((max(capacity, 1), self.words), dtype=WORD)
        self._cols = np.zeros(len(self._rows), dtype=np.int64)
        self._byte = np.zeros(len(self._rows), dtype=np.intp)
        self._mask = np.zeros(len(self._rows), dtype=np.uint8)
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
        pivots it has a set bit. Those basis rows must be zero at each
        other's pivots: then the block's bits at those pivots are its
        coefficients, and adding one basis row changes no other row's
        coefficient, so the reduction leaves the block zero there.

        A reduction against one chunk, at most TABLE_BITS basis rows (the
        early closure steps, each step's back-substitution when it found
        few rows, and small breadth-first rounds), takes the rows one at a
        time (_pivots_pay, _reduce_pivots): a few numpy calls a row, where
        the chunked forms below pay about 25 a reduction whatever its size.
        A longer one reads all the coefficients before any XOR
        (_coefficients). A row with more than half of them set takes the
        sum of all the rows instead, and then the rows of its unset
        coefficients, when that saves more row XORs than the sum costs. The
        coefficients are then split into chunks of TABLE_BITS pivots, and
        each chunk takes the cheaper of two exact forms (_table_pays): one
        sum per row from a table of the chunk's row sums (_add_table), or
        its (row, pivot) pairs, XORed in together with the other such
        chunks' pairs, as many chunks at a time as keep their bits and
        indices about the size of a batch, as closure_bytes charges one
        (_add_pairs), so that a block of a few rows does not take its pairs
        a chunk at a time. Every form adds the same rows, so the basis the
        closure leaves is the unique RREF whichever forms are taken."""
        if hi <= lo or not len(block):
            return
        if _pivots_pay(hi - lo):
            self._reduce_pivots(block, lo, hi)
            return
        coefficients = self._coefficients(block, lo, hi)
        ones = np.bitwise_count(coefficients)
        surplus = 2 * ones.sum(axis=1, dtype=np.intp) - (hi - lo)
        if np.maximum(surplus, 0).sum() > hi - lo:
            dense = surplus > 0
            block[dense] ^= np.bitwise_xor.reduce(self._rows[lo:hi], axis=0)
            flip = np.full(coefficients.shape[1], 0xFF, dtype=np.uint8)
            flip[-1] >>= -(hi - lo) % TABLE_BITS
            coefficients[dense] ^= flip
            ones = np.bitwise_count(coefficients)
        hits = ones.sum(axis=0, dtype=np.intp)
        tables = (hits > 0) & _table_pays(hits, len(block), self.words)
        sums = None
        paired: list[int] = []
        held = 0
        # A batch's bytes, as closure_bytes charges one.
        batch = min(_batch_rows(self.words), len(self._rows))
        flush = max(block.nbytes, packed_bytes(batch, self.ncols))
        for c, (n, table) in enumerate(zip(hits.tolist(), tables.tolist())):
            if table:
                if sums is None:
                    sums = np.zeros((1 << TABLE_BITS, self.words), dtype=WORD)
                start = lo + TABLE_BITS * c
                rows = self._rows[start : min(start + TABLE_BITS, hi)]
                _add_table(block, coefficients[:, c], rows, sums)
            elif n:
                # _add_pairs holds a chunk's bits, a byte a row and pivot,
                # and about 64 bytes of indices a pair.
                paired.append(c)
                held += TABLE_BITS * len(block) + 64 * n
                if held >= flush:
                    self._add_pairs(block, coefficients, paired, lo)
                    paired, held = [], 0
        if paired:
            self._add_pairs(block, coefficients, paired, lo)

    def _reduce_pivots(self, block: np.ndarray, lo: int, hi: int) -> None:
        """_reduce one basis row at a time: XOR each into the block rows
        that have its pivot bit, read from the byte of the row that holds
        it as the block stands after the rows before it."""
        raw = block.view(np.uint8)
        bits = zip(self._byte[lo:hi].tolist(), self._mask[lo:hi].tolist())
        for row, (byte, mask) in zip(self._rows[lo:hi], bits):
            hit = (raw[:, byte] & mask).nonzero()[0]
            if len(hit):
                block[hit] ^= row

    def _coefficients(self, block: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The block's bits at the pivots of basis rows lo..hi-1, packed:
        bit k % 8 of byte k // 8 of a row is its bit at pivot lo + k, so
        byte c is the row's table index in chunk c. Each bit is read from
        the byte of the row that holds it, 8 * words pivots at a time, so
        that each of a slice's two temporaries holds at most as many bytes
        as the block. A chunk's 8 flags (bytes of 0 or 1) become one byte by
        one multiplication, which moves byte k of their word to bit 56 + k
        with no carries."""
        out = np.empty((len(block), -(-(hi - lo) // TABLE_BITS)), dtype=np.uint8)
        raw = block.view(np.uint8)
        step = TABLE_BITS * self.words
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            size = -(-(stop - start) // TABLE_BITS)
            flags = np.zeros((len(block), TABLE_BITS * size), dtype=bool)
            bits = raw.take(self._byte[start:stop], axis=1)
            bits &= self._mask[start:stop]
            np.not_equal(bits, 0, out=flags[:, : stop - start])
            packed = flags.view(WORD)
            packed *= np.uint64(0x0102040810204080)
            packed >>= np.uint64(56)
            first = (start - lo) // TABLE_BITS
            out[:, first : first + size] = packed
        return out

    def _add_pairs(
        self, block: np.ndarray, coefficients: np.ndarray, chunks: list[int], lo: int
    ) -> None:
        """XOR into each row of `block` the rows of the basis chunks `chunks`
        (chunk c starts at row lo + TABLE_BITS * c) at whose pivots it has a
        set coefficient bit. Rows of at most PAIR_WORDS words take these
        (row, basis row) pairs in rounds, each row at most once a round, by
        one gather-XOR a round. Wider rows take them one basis row at a
        time, broadcast to the rows it hits, which gathers no basis rows."""
        bits = np.unpackbits(coefficients[:, chunks], axis=1, bitorder="little")
        basis = (lo + TABLE_BITS * np.array(chunks)[:, None] + np.arange(TABLE_BITS)).ravel()
        if self.words > PAIR_WORDS:
            col, hit = bits.T.nonzero()
            ends = np.cumsum(np.bincount(col, minlength=len(basis))).tolist()
            begin = 0
            for row, end in zip(basis.tolist(), ends):
                if end > begin:
                    block[hit[begin:end]] ^= self._rows[row]
                begin = end
            return
        hit, col = bits.nonzero()
        count = np.bincount(hit, minlength=len(bits))
        # The k-th pair of a row goes to round k; hit is sorted by row.
        turn = np.arange(len(hit)) - (np.cumsum(count) - count)[hit]
        order = np.argsort(turn, kind="stable")
        hit, row = hit[order], basis[col[order]]
        begin = 0
        for end in np.cumsum(np.bincount(turn)).tolist():
            block[hit[begin:end]] ^= self._rows[row[begin:end]]
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
        self._add_translates(0, frozen, [bit], frozen)
        self._reduce_basis(0, frozen, frozen, self.rank)

    def _close_bit_from(self, seeds: np.ndarray, bit: int) -> None:
        """The breadth-first form of _close_bit, for a basis whose space is
        the closure of the rows `seeds` under the bits below `bit`: add the
        translates by `bit` of the seeds, then, round by round, the
        translates by every bit below `bit` of the rows the round before
        found, until a round finds none (see translation_closure). Once a
        round would take as many rows as the basis had when the step began
        (_seeds_pay), the step adds the translates of those rows instead,
        as _close_bit does. Those rows are frozen throughout, and reduced
        against the rows found after them at the end."""
        frozen = found = self.rank
        self._add_translates(0, len(seeds), [bit], frozen, seeds)
        while self.rank > found:
            start, found = found, self.rank
            if not _seeds_pay(bit * (found - start), frozen):
                self._add_translates(0, frozen, [bit], frozen)
                break
            self._add_translates(start, found, range(bit), frozen)
        self._reduce_basis(0, frozen, frozen, self.rank)

    def _add_translates(
        self, lo: int, hi: int, bits: Sequence[int], frozen: int, rows: np.ndarray | None = None
    ) -> None:
        """Add the translates by each of `bits` of rows lo..hi-1 of `rows`
        (the basis, if None), with the first `frozen` basis rows frozen
        (_add_batch), formed a batch of _batch_rows at a time. A basis row
        is translated as it stands when its batch is formed."""
        source = self._rows if rows is None else rows
        n = hi - lo
        step = _batch_rows(self.words)
        # Translate k of the round is row lo + k % n moved by bits[k // n].
        for first in range(0, len(bits) * n, step):
            last = min(first + step, len(bits) * n)
            pieces = [
                translate_rows(source[lo + max(first - k * n, 0) : lo + min(last - k * n, n)], bits[k])
                for k in range(first // n, -(-last // n))
            ]
            self._add_batch(pieces[0] if len(pieces) == 1 else np.concatenate(pieces), frozen)

    def _append(self, block: np.ndarray, index: np.ndarray, cols: np.ndarray) -> None:
        """Append the reduced rows block[index], whose pivots are cols."""
        end = self.rank + len(index)
        if end > len(self._rows):
            size = max(end, 2 * len(self._rows))
            grown = np.zeros((size, self.words), dtype=WORD)
            grown[: self.rank] = self._rows[: self.rank]
            self._rows = grown
            self._cols, self._byte, self._mask = (
                np.resize(a, size) for a in (self._cols, self._byte, self._mask)
            )
        np.take(block, index, axis=0, out=self._rows[self.rank : end])
        self._cols[self.rank : end] = cols
        self._byte[self.rank : end] = cols >> 3
        self._mask[self.rank : end] = np.uint8(1) << (cols & 7).astype(np.uint8)
        self.rank = end


def packed_bytes(nrows: int, ncols: int) -> int:
    """Bytes of nrows packed rows of ncols columns."""
    return nrows * 8 * _words(ncols)


def lowest_set_columns(rows: np.ndarray) -> np.ndarray:
    """The lowest set column of each packed row, which must be nonzero."""
    word = (rows != 0).argmax(axis=1)
    low = rows[np.arange(len(rows)), word]
    low &= ~low + np.uint64(1)
    return 64 * word + np.bitwise_count(low - np.uint64(1)).astype(np.int64)


class RrefKernel:
    """The kernel {v : v . r = 0 for every row r} of a fully reduced basis
    `rows`, given in any row order, as its unique reduced row-echelon basis:
    ncols - rank packed rows, pivot = lowest set column, increasing. The
    rows are formed on request, one range at a time (rows, chunks); the
    reader itself holds the basis and, per basis row, its place in the
    order of the reversed pivots and its reversed pivot's bit.

    Precondition: the row space is invariant under the column reversal
    j -> ncols - 1 - j, as every translation_closure is (ncols is a power of
    two there, so the reversal is the translation j -> j ^ (ncols - 1)).
    Then the rows, read with their columns reversed, are the space's reduced
    basis whose pivots are the *highest* set columns, ncols - 1 - p for each
    pivot p: the systematic form [I | P] of the kernel's dual, from which
    its generators [P^T | I] are read (MacWilliams & Sloane, ch. 1). For
    each free column f of that basis the kernel vector is the unit vector
    at f plus the reversed pivot of every row with bit f set; those pivots
    lie above f, so f is the vector's lowest set column, and no other
    vector has bit f. Kernel row i is the vector of the i-th free column.
    """

    def __init__(self, rows: np.ndarray, ncols: int) -> None:
        self.basis = rows
        self.ncols = ncols
        self.dimension = ncols - len(rows)
        pivots = ncols - 1 - lowest_set_columns(rows)
        # The basis rows in the order of their reversed pivots P_0 < P_1 <
        # ..., and the bit of each P_k in its word.
        self._order = np.argsort(pivots)
        ordered = pivots[self._order]
        self._pivot_bit = np.uint64(1) << (ordered & 63).astype(WORD)
        # P_k - k free columns lie below P_k, so free column i is i plus the
        # number of k with P_k - k <= i.
        self._free_below = ordered - np.arange(len(ordered))

    def free_columns(self, lo: int, hi: int) -> np.ndarray:
        """The free columns of kernel rows lo..hi-1, increasing."""
        i = np.arange(lo, hi)
        return i + np.searchsorted(self._free_below, i, side="right")

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Kernel rows lo..hi-1, packed, in one array. A vector has at most
        rank + 1 set bits, so the rows are formed BATCH_BYTES / (8 * (rank + 1))
        at a time (_form): the index arrays of one such sub-range hold at most
        about BATCH_BYTES each, whatever hi - lo is."""
        out = np.zeros((hi - lo, _words(self.ncols)), dtype=WORD)
        step = max(1, BATCH_BYTES // (8 * (len(self.basis) + 1)))
        # The word of each P_k.
        words = (self._free_below + np.arange(len(self._free_below))) >> 6
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            self._form(out[start - lo : stop - lo], start, stop, words)
        return out

    def _form(self, out: np.ndarray, lo: int, hi: int, words: np.ndarray) -> None:
        """Write kernel rows lo..hi-1 into the zeroed rows of out: each row's
        unit bit in one assignment, then the reversed pivot P_k (in word
        words[k]) of every basis row k set at the row's free column. The
        basis is read at those columns (reversed), its rows in pivot order,
        from one unpack of the words they span, about (hi - lo + rank) / 64
        words a row. The pivot bits that fall in one output word are ORed
        together first, so that each output word is written once: one flat
        scan, vector by vector, lists the (vector, k) pairs with each
        vector's pivots increasing, so the pairs that fall in one output
        word are adjacent, and one reduceat ORs each such run."""
        free = self.free_columns(lo, hi)
        out[np.arange(len(free)), free >> 6] = np.uint64(1) << (free & 63).astype(WORD)
        cols = self.ncols - 1 - free
        first, last = cols[-1] >> 6, (cols[0] >> 6) + 1
        span = unpack_rows(self.basis[self._order, first:last], 64 * (last - first))
        hit = span[:, cols - 64 * first]
        vec, k = np.divmod(np.flatnonzero(hit.T), len(hit))
        cell = vec * out.shape[1] + words[k]
        runs = np.flatnonzero(np.diff(cell, prepend=-1))
        out.reshape(-1)[cell[runs]] |= np.bitwise_or.reduceat(self._pivot_bit[k], runs)

    def chunks(self) -> Iterator[np.ndarray]:
        """All kernel rows in order, as consecutive rows(lo, hi) of about
        BATCH_BYTES each."""
        step = max(1, BATCH_BYTES // packed_bytes(1, self.ncols))
        for lo in range(0, self.dimension, step):
            yield self.rows(lo, min(lo + step, self.dimension))


def _add_table(block: np.ndarray, index: np.ndarray, rows: np.ndarray, table: np.ndarray) -> None:
    """Add to each row of `block` the sum of rows[k] over the set bits k of
    its `index`, from a table of all 2^len(rows) such sums, built by
    doubling: sum(i + 2^k) = sum(i) + rows[k] for i < 2^k."""
    for k, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << k], row, out=table[1 << k : 2 << k])
    block ^= table[index]


def _table_pays(hits: np.ndarray, nrows: int, words: int) -> np.ndarray:
    """Whether chunks of TABLE_BITS basis rows, whose pivots have `hits` set
    bits in a block of nrows rows of `words` words, are added more cheaply
    through a table than by their pairs. Costs are counted in words moved,
    a numpy call as CALL_WORDS: a table writes 2^TABLE_BITS sums and
    gathers and XORs one sum per row, in TABLE_BITS + 2 calls. A pair in a
    round of gather-XORs moves about four rows (a block row gathered and
    scattered, a basis row gathered and XORed) plus a sixteenth of a call
    of index work; a pair XORed by its pivot's broadcast moves about two
    (_add_pairs)."""
    table = ((1 << TABLE_BITS) + 2 * nrows) * words + (TABLE_BITS + 2) * CALL_WORDS
    pair = 2 * words if words > PAIR_WORDS else 4 * words + CALL_WORDS // 16
    return hits * pair > table


def _pivots_pay(pivots: int) -> bool:
    """Whether a reduction against `pivots` basis rows takes them one at a
    time (GF2Echelon._reduce_pivots) rather than in chunks: when they are
    one chunk, whose table or pairs would pay the chunked forms' fixed
    calls for at most TABLE_BITS rows."""
    return pivots <= TABLE_BITS


def _seeds_pay(rows: int, frozen: int) -> bool:
    """Whether a closure step, or the rest of one, that feeds at most `rows`
    translates breadth-first (GF2Echelon._close_bit_from) feeds fewer than
    translating the `frozen` basis rows the step began with does."""
    return rows < frozen


def _batch_rows(words: int) -> int:
    """Rows of `words` uint64 words that make one elimination batch."""
    return max(MIN_BATCH_ROWS, BATCH_BYTES // (8 * max(words, 1)))


def closure_bytes(ncols: int, rank_bound: int) -> int:
    """The most bytes translation_closure holds for ncols columns and a rank
    of at most rank_bound: the basis array (rank_bound packed rows, when
    allocated once) with the pivot column, byte and bit mask of each row
    (charged as three 8-byte integers; they take 17 bytes); one batch of
    translates (at most a batch, and at most the rank: a step translates
    the basis, or breadth-first the seeds and then rounds that feed fewer
    rows than the basis had, formed a batch at a time); one temporary of at
    most as many rows (the rows that one pivot or one round of pairs hits,
    the sums that one table adds, or the rows that take the sum of all);
    and the table of 2^TABLE_BITS row sums. Not counted: the copy of the
    seeds' basis rows that a breadth-first step translates, at most one
    row per seed; a reduction's coefficient bits, one bit per batch row and
    basis pivot (fewer bytes than the batch, since the rank is at most
    ncols); and the gathers and pair indices that read them, each kept to
    about the batch's bytes (_reduce)."""
    words = _words(ncols)
    batch = min(_batch_rows(words), rank_bound)
    return packed_bytes(rank_bound + 2 * batch + (1 << TABLE_BITS), ncols) + 24 * rank_bound


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
    blocks: Iterable[np.ndarray], ncols: int, capacity: int | None = None
) -> GF2Echelon:
    """Basis of the smallest row space that holds the seed rows of `blocks`
    and is invariant under every translation j -> j ^ c of the ncols (a power
    of two) columns.

    The seeds are eliminated as by gf2_echelon, giving a space S. Then, one
    index bit i at a time, S becomes S + T_i S, T_i the translation
    j -> j ^ 2^i. The translations commute, so T_j(S + T_i S) = T_j S +
    T_i T_j S lies in S + T_i S once S is invariant under T_j: after step i
    the space is invariant under T_0 .. T_i, and after the last step under
    every translation. Each step adds only translates of the space, so no
    invariant space holding the seeds is smaller.

    A step takes one of two forms. The full form (GF2Echelon._close_bit)
    translates the basis rows as they stood when the step began, a batch at
    a time, and eliminates them: as many rows as the rank. Those rows stay
    unchanged during the step because the back-substitution of the pivots
    the step finds is deferred to its end. The breadth-first form
    (GF2Echelon._close_bit_from) uses that S is the ideal the seeds generate
    in the group algebra F_2[Z_2^k], ncols = 2^k, restricted to the closed
    bits 0 .. i-1: every row of S is a sum of translates of the seeds by
    those bits. So T_i S is the closure of T_i(seeds) under the closed bits,
    and the step adds the translates by i of a copy of the seeds' basis
    rows, then in rounds the translates by every closed bit of the rows the
    round before found, until a round finds none. The space the step leaves holds S and
    T_i(seeds), and is invariant under the closed bits, since every row
    found is translated by each of them; every row fed lies in S + T_i S.
    So it is S + T_i S. That form feeds the seeds and i rows per row found.
    `capacity` is the caller's bound on the rank, if it has one: the basis
    array is allocated with that many rows (see GF2Echelon), and a step can
    find at most its free rows. A step takes the breadth-first form when
    even that many would make it feed fewer rows than the rank when the
    step began (_seeds_pay), and turns to translating the basis rows it
    began with once a round would feed as many as they are. With no bound
    the basis starts at 64 rows and grows, and every step takes the full
    form: the size of a grown array bounds nothing.
    """
    if ncols < 1 or ncols & (ncols - 1):
        raise ValueError(f"ncols must be a power of two, got {ncols}")
    echelon = gf2_echelon(blocks, ncols, 64 if capacity is None else capacity)
    seeds = echelon._rows[: echelon.rank].copy()
    for bit in range(ncols.bit_length() - 1):
        # Breadth-first feeds the seeds and `bit` translates of each row
        # found, at most one per free row of the basis array.
        free = len(echelon._rows) - echelon.rank
        if capacity is not None and _seeds_pay(len(seeds) + bit * free, echelon.rank):
            echelon._close_bit_from(seeds, bit)
        else:
            echelon._close_bit(bit)
    return echelon
