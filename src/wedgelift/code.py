"""The wedge-lifted code as a concrete linear code, and its binary trace code.

Codewords live in F_q^(q^2) with coordinate order row-major in the point
(x, y): index = x*q + y under the field's integer encoding. The code is the
kernel of the wedge parity checks; each check is the 0/1 indicator of a wedge
point set (odd coset size collapses the line multiset to an indicator, which
is what lets one representation serve both the F_q code and the binary code).
Because the checks are 0/1, C = F_q ⊗ C_2 with C_2 = C ∩ F_2^n the GF(2)
kernel, and the binary trace code tr(C) is C_2 itself (Delsarte 1975), so one
elimination gives both codes: trace_code reads C_2 from the reduced parity
rows (linalg.RrefKernel), a range of rows at a time. Every wedge is a
translate of a wedge at the origin, so that elimination starts from one seed
row per coset and closes their span under translation
(linalg.translation_closure).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ._io import atomic_write_chunks, atomic_write_text
from .classify import bad_bound, bad_mask
from .errors import InvariantError, MemoryGuardError, UsageError
from .field import CosetFamily, FieldSpec, _afft
from .linalg import (
    BATCH_BYTES,
    RrefKernel,
    closure_bytes,
    pack_rows,
    packed_bytes,
    translation_closure,
    unpack_rows,
)

DEFAULT_MEMORY_GUARD_BYTES = 1 << 31


def _eval_monomials(spec: FieldSpec, monomials: np.ndarray) -> np.ndarray:
    """Evaluation vectors of an (M, 2) array of exponent pairs as rows, in
    one gather: row i is X^a Y^b at every point, entry x*q + y = x^a * y^b,
    for (a, b) = monomials[i]."""
    q = spec.q
    powers = spec.power_table()
    a, b = monomials.T
    values = spec.mul_table()[powers[a][:, :, None], powers[b][:, None, :]]
    return values.reshape(len(monomials), q * q)


def _origin_wedges(family: CosetFamily) -> np.ndarray:
    """Sorted coordinate indices x*q + alpha*x of each coset's wedge at
    (0, 0), x in F_q and alpha in the coset: a (t, h*(q-1) + 1) array, one
    row per coset, which starts with the origin, index 0, then holds the h
    points of each column x = 1..q-1 in turn, sorted within the column."""
    q = family.q
    xs = np.arange(1, q, dtype=np.intp)
    slopes = np.array(family.cosets, dtype=np.intp)
    ys = np.sort(family.field.mul_table()[slopes[:, None, :], xs[:, None]], axis=2)
    points = (xs[:, None] * q + ys).reshape(family.t, -1)
    return np.concatenate([np.zeros((family.t, 1), dtype=np.intp), points], axis=1)


def iter_parity_rows(family: CosetFamily) -> Iterator[np.ndarray]:
    """Packed indicator row of each coset's wedge at (0, 0): one (1, words)
    block of uint64 words per coset, in coset order.

    These seed the parity row space. The wedge at (x, y) is the wedge at
    (0, 0) moved by (x, y): (t, alpha*t) goes to (t ^ x, alpha*t ^ y), that is
    coordinate j to j ^ (x*q + y). So the translates of the seeds are exactly
    the t*q^2 wedge checks.
    """
    q = family.q
    for seed in _origin_wedges(family):
        bits = np.zeros((1, q * q), dtype=np.uint8)
        bits[0, seed] = 1
        yield pack_rows(bits)


@dataclass(frozen=True, eq=False)
class WedgeLiftedCode:
    """Length-q^2 code over F_q cut out by all wedge parity checks.

    exact_dimension is q^2 minus the parity rank — measured, not inferred from
    the good-monomial count, which is only a lower bound on the dimension.

    parity_rows is the reduced row-echelon basis of the wedge checks sorted by
    pivot, (redundancy, words) packed uint64 rows (see linalg); that basis is
    unique, so it does not depend on how the rows were batched. It is
    read-only, and None in dimension-only mode; trace_code reads the kernel.

    good_monomials is the read-only (M, 2) array argwhere(~bad_mask): the
    good exponent pairs (a, b) in lexicographic order, encode's message order.
    """

    field: FieldSpec
    family: CosetFamily
    good_monomials: np.ndarray
    exact_dimension: int
    parity_rows: np.ndarray | None

    @property
    def length(self) -> int:
        return self.field.q ** 2

    @property
    def redundancy(self) -> int:
        return self.length - self.exact_dimension

    @property
    def dimension_slack(self) -> int:
        """Observed excess of the true dimension over the good-monomial count."""
        return self.exact_dimension - len(self.good_monomials)

    def generator_chunks(self) -> Iterator[np.ndarray]:
        """The good-monomial evaluation vectors as uint16 rows, in message
        order, in chunks of about BATCH_BYTES; no whole matrix is formed.
        They span a subcode: dimension_slack generators are missing."""
        step = max(1, BATCH_BYTES // (2 * self.length))
        for start in range(0, len(self.good_monomials), step):
            yield _eval_monomials(self.field, self.good_monomials[start : start + step])


# The full-build guard's advice, in the library's terms (the CLI names its flag).
FULL_BUILD_HINT = "; build with dimension_only=True"


def _guard_bytes(what: str, family: CosetFamily, estimated: int, hint: str = "") -> None:
    """Raise MemoryGuardError if `what` would take more than
    DEFAULT_MEMORY_GUARD_BYTES (read at each call): estimated bytes."""
    if estimated > DEFAULT_MEMORY_GUARD_BYTES:
        raise MemoryGuardError(
            f"{what} for q={family.q}, t={family.t} needs ~{estimated} bytes "
            f"(guard {DEFAULT_MEMORY_GUARD_BYTES}){hint}"
        )


def _guard_build(family: CosetFamily, dimension_only: bool) -> None:
    """The largest arrays of a build. Every build holds the int64
    good_monomials, 16 bytes for each of at most q^2, and runs the
    translation closure, which holds the packed parity basis, allocated
    once with at most classify.bad_bound rows of q^2/8 bytes (the rank is
    at most the bad count). Beside it the closure holds one batch of
    translates, one temporary of at most a batch and one table of
    2^TABLE_BITS row sums (linalg.closure_bytes). A full build also holds
    the reduced() copy of the basis, at most as many rows. Generators are
    read from a code a chunk at a time, or charged where they are made."""
    n = family.q ** 2
    bound = bad_bound(family.q, family.subgroup_order)
    estimated = closure_bytes(n, bound) + 16 * n
    if dimension_only:
        _guard_bytes("dimension-only build", family, estimated)
    else:
        _guard_bytes("full build", family, estimated + packed_bytes(bound, n), FULL_BUILD_HINT)


def build_code(family: CosetFamily, *, dimension_only: bool = False) -> WedgeLiftedCode:
    """Eliminate the wedge checks, measure the exact dimension by rank, and
    (in full mode) keep the reduced rows, which trace_code reads the kernel
    from, and assert on the t wedges at the origin (_check_good_annihilated)
    that every good-monomial evaluation is annihilated by every wedge.

    The wedge checks are the translates of one seed per coset, so their row
    space is the translation closure of the seeds: the elimination takes the
    t seeds and, for each of the 2*ell index bits in turn, the translates of
    the basis as it stood when that bit's step began (1 803 rows at q64h9),
    never the t*q^2 wedge rows (28 672).

    The parity rows are 0/1, so elimination over F_q never leaves {0, 1} and
    the F_q rank equals the GF(2) rank.
    """
    n = family.q ** 2
    _guard_build(family, dimension_only)
    good = np.argwhere(~bad_mask(family))
    good.flags.writeable = False
    # The rank is at most the bad count n - len(good) (the dimension is at
    # least len(good), checked below), so the basis is allocated once.
    echelon = translation_closure(iter_parity_rows(family), n, capacity=n - len(good))
    dimension = n - echelon.rank
    if dimension < len(good):
        raise InvariantError(
            f"dimension {dimension} below good-monomial count {len(good)}"
        )
    rows = None
    if not dimension_only:
        rows = echelon.reduced()
        _check_good_annihilated(family, good)
    return WedgeLiftedCode(field=family.field, family=family, good_monomials=good,
                           exact_dimension=dimension, parity_rows=rows)


def _origin_wedge_sums(family: CosetFamily, monomials: np.ndarray) -> np.ndarray:
    """(M, t) sums of each X^a Y^b of an (M, 2) array over each coset C's
    wedge at the origin: (0, 0) plus (x, alpha*x) for x != 0 and alpha in C,
    so [a = b = 0] + (sum of alpha^b over C) * (sum of x^(a+b) over x != 0).
    As x^(q-1+e) = x^e for x != 0, the power table gives the latter for
    every a + b <= 2q - 2."""
    spec = family.field
    mul, powers = spec.mul_table(), spec.power_table()
    line = np.bitwise_xor.reduce(powers[:, 1:], axis=1)
    line = np.concatenate([line, line[1:]])
    slopes = np.bitwise_xor.reduce(powers[:, np.array(family.cosets)], axis=2)
    a, b = monomials.T
    sums = mul[line[a + b][:, None], slopes[b]]
    sums[(a == 0) & (b == 0)] ^= 1
    return sums


def _check_good_annihilated(family: CosetFamily, good: np.ndarray) -> None:
    """Raise InvariantError unless every good monomial sums to zero over
    every wedge, which the t wedges at the origin decide exactly.

    Translation by c is the coordinate permutation j -> j ^ c and maps each
    seed to its wedge at c, so <g, wedge at c> = <g translated by c, seed>.
    By Lucas, (X + x0)^a (Y + y0)^b = sum over bit subsets a' of a and b' of
    b of x0^(a-a') y0^(b-b') X^a' Y^b': a good set closed under 2-shadows
    spans a translation-invariant space. So it suffices that every good
    monomial sums to zero over every seed, and that clearing one exponent
    bit keeps a monomial good. The monomials of C pass the second half: C is
    translation-invariant, and distinct monomials of degree < q are
    independent functions.
    """
    q, ell = family.q, family.field.ell
    odd = _origin_wedge_sums(family, good).any(axis=1).nonzero()[0]
    if odd.size:
        raise InvariantError(
            f"good monomial {tuple(good[odd[0]].tolist())} violates a wedge parity check"
        )
    a, b = good.T
    is_good = np.zeros((q, q), dtype=bool)
    is_good[a, b] = True
    # One exponent bit at a time, so that every temporary has M entries.
    closed = np.ones(len(good), dtype=bool)
    for cleared in ~(1 << np.arange(ell)):
        closed &= is_good[a & cleared, b] & is_good[a, b & cleared]
    unclosed = np.flatnonzero(~closed)
    if unclosed.size:
        raise InvariantError(
            f"good monomial {tuple(good[unclosed[0]].tolist())} has a 2-shadow outside the good set"
        )


def encode(code: WedgeLiftedCode, message) -> np.ndarray:
    """Linear combination of good-monomial generators with message coefficients.

    This is the evaluation of f = sum_i message[i] * X^a_i Y^b_i, computed
    from the q x q coefficient grid M (zero at bad monomials) as
    f(x, y) = sum_a x^a * (sum_b M[a, b] * y^b) by two batched additive FFTs
    (field.additive_fft), each over the columns of a (q, q) array: the grid
    is laid out as M[b, a], so the first gives inner[y, a] and the second,
    over the columns of inner.T, gives the word as word[x, y], row-major,
    with no transposed copy made. Each costs O(q^2 log^2 q) table lookups
    and XORs, against the q^3 of gathering from a power table, and no
    generator matrix is built. The transform evaluates at the span of the
    polynomial basis with index bit j selecting alpha^j, so value index t is
    the element t and the word needs no permutation.
    """
    msg = np.asarray(message)
    k = len(code.good_monomials)
    if msg.size and not np.issubdtype(msg.dtype, np.integer):
        raise UsageError(f"message symbols must be integers, got dtype {msg.dtype}")
    if msg.shape != (k,):
        raise UsageError(f"message length must be {k}, got shape {msg.shape}")
    spec = code.field
    q = spec.q
    if msg.size and (msg.min() < 0 or msg.max() >= q):
        raise UsageError(f"message symbols must lie in [0, {q})")
    grid = np.zeros((q, q), dtype=np.uint16)
    a, b = code.good_monomials.T
    grid[b, a] = msg
    # inner[y, a] = sum_b M[a, b] * y^b, then word[x, y] = sum_a x^a * inner[y, a].
    inner = _afft(spec, grid)
    return _afft(spec, inner.T).reshape(-1)


def _axes_codeword(q: int) -> np.ndarray:
    """X^(q-1) + Y^(q-1) at every point, [x != 0] + [y != 0], as 0/1 uint16.

    It lies in every wedge-lifted code over F_q. A wedge at (x0, y0) has
    1 + h(q-1) points, h of them in each column x != x0 and one at x = x0,
    so h(q-1) points have x != 0 when x0 = 0 and 1 + h(q-2) when x0 != 0;
    likewise for y. h and q-1 are odd, so both counts are odd and the sum
    over the wedge is 1 + 1 = 0. Each of its two monomials alone sums to 1,
    so both are bad, and distinct monomials being independent, the word lies
    outside the span of encode's words.
    """
    nonzero = np.arange(q) != 0
    return (nonzero[:, None] ^ nonzero[None, :]).astype(np.uint16).reshape(-1)


@dataclass(frozen=True, eq=False)
class BinaryTraceCode:
    """tr(C): the parent code mapped coordinate-wise through the trace to GF(2).

    Its generators, the kernel's reduced row-echelon basis, are not held:
    kernel_rows forms any range of them from the parent's parity rows, in
    one packed array charged against the guard, and generator_chunks all of
    them a chunk at a time. The whole kernel is
    kernel_rows(0, binary_dimension); unpack_rows gives its 0/1 rows.
    """

    parent: WedgeLiftedCode
    binary_dimension: int
    _kernel: RrefKernel

    def kernel_rows(self, lo: int, hi: int) -> np.ndarray:
        """Generators lo..hi-1 as packed (hi - lo, q^2/64) uint64 rows:
        charged (hi - lo) * q^2/8 bytes against the guard."""
        if not all(isinstance(k, (int, np.integer)) for k in (lo, hi)):
            raise UsageError(f"kernel rows must be integers, got {lo!r}..{hi!r}")
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.binary_dimension:
            raise UsageError(
                f"kernel rows {lo}..{hi} must satisfy 0 <= lo <= hi <= {self.binary_dimension}"
            )
        _guard_bytes("binary generators", self.parent.family, packed_bytes(hi - lo, self.parent.length))
        return self._kernel.rows(lo, hi)

    def generator_chunks(self) -> Iterator[np.ndarray]:
        """Every generator in order, packed, in chunks of about BATCH_BYTES."""
        return self._kernel.chunks()


def trace_code(code: WedgeLiftedCode) -> BinaryTraceCode:
    """tr(C), which is the binary kernel C ∩ F_2^n of the parent's checks.

    C is cut out by 0/1 checks, so the GF(2) kernel basis g_i spans C over
    F_q, and for binary g_i, tr(sum c_i g_i) = sum tr(c_i) g_i with tr onto
    F_2: tr(C) = C ∩ F_2^n (the trace code of a Galois-closed code is its
    subfield subcode). Its generators are the kernel's reduced row-echelon
    basis, read from the parent's reduced parity rows (linalg.RrefKernel),
    and dim tr(C) = dim C. Only each parity row's pivot is read here; no
    generator is formed until one is asked for.
    """
    if code.parity_rows is None:
        raise UsageError("trace code needs a full build (parity rows missing)")
    return BinaryTraceCode(
        parent=code,
        binary_dimension=code.exact_dimension,
        _kernel=RrefKernel(code.parity_rows, code.length),
    )


def redundancy_exponent(d: int) -> float:
    """log_N(redundancy) of the construction family: 1/2 + log2(2 - 2^-d)/(2d)."""
    if d < 1:
        raise UsageError(f"d must be a positive integer, got {d}")
    return 0.5 + math.log2(2.0 - 2.0 ** (-d)) / (2.0 * d)


def export_matrix(path, chunks: Iterable[np.ndarray], shape: tuple[int, int], q: int) -> None:
    """Plain-text matrix of `shape`, its rows, each with entries in [0, q), in
    `chunks`: header '# q=<q> rows=<r> cols=<c>', then one row per line,
    entries as lowercase hex integers separated by spaces."""
    _write_matrix(path, chunks, shape, q, np.asarray)


def export_packed(path, chunks: Iterable[np.ndarray], shape: tuple[int, int], q: int) -> None:
    """The 0/1 matrix of `shape`, its packed rows (see linalg) in `chunks`, written
    as export_matrix writes it, unpacking no more than a few rows at a time."""
    _write_matrix(path, chunks, shape, q, lambda rows: unpack_rows(rows, shape[1]))


def _export_bytes(shape: tuple[int, int], q: int, top: int) -> int:
    """The most bytes export_matrix writes for a matrix of `shape` with
    entries at most `top`: the header, then for each entry as many hex
    digits as top has and a space or newline. Exact for a 0/1 matrix."""
    rows, cols = shape
    return len(f"# q={q} rows={rows} cols={cols}\n") + rows * cols * (len(format(top, "x")) + 1)


def _write_matrix(path, blocks, shape: tuple[int, int], q: int, convert) -> None:
    """export_matrix's text of the row blocks, streamed to the file a few
    rows at a time: convert(rows) gives their entries, which must be ncols
    a row and lie in [0, q). A few rows' text is gathered at once from a
    table of every entry's bytes (_entry_text), as wide as the block's
    largest entry needs; the zero bytes that pad shorter entries are then
    dropped. A 0/1 block has none."""
    nrows, ncols = shape
    tables = [_entry_text(q, digits) for digits in range(1, len(format(q - 1, "x")) + 1)]
    step = max(1, BATCH_BYTES // (8 * max(1, ncols)))
    written = 0

    def text() -> Iterator[str]:
        nonlocal written
        yield f"# q={q} rows={nrows} cols={ncols}\n"
        for block in blocks:
            for start in range(0, len(block), step):
                rows = convert(block[start : start + step])
                if rows.ndim != 2 or rows.shape[1] != ncols or rows.min() < 0 or rows.max() >= q:
                    raise UsageError(f"matrix rows must hold {ncols} entries in [0, {q})")
                written += len(rows)
                digits = len(format(int(rows.max()), "x"))
                spaced, ending = tables[digits - 1]
                codes = np.take(spaced, rows)
                codes[:, -1] = np.take(ending, rows[:, -1])
                chunk = codes.tobytes()
                if digits > 1:
                    chunk = chunk.replace(b"\0", b"")
                yield chunk.decode("ascii")
        if written != nrows:
            raise UsageError(f"matrix has {written} rows, expected {nrows}")

    atomic_write_chunks(path, text())


def _entry_text(q: int, digits: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (q,) arrays of (digits + 1)-byte items: for each v < 16^digits
    (or q), its lowercase hex digits followed by a space in the first and by
    a newline in the second, then zero bytes up to the item's width."""
    values = np.arange(min(q, 16**digits))
    count = np.ones_like(values)
    for k in range(1, digits):
        count += values >= 16**k
    table = np.zeros((2, q, digits + 1), dtype=np.uint8)
    hexes = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    for i in range(digits):
        has = count > i
        table[:, values[has], i] = hexes[(values[has] >> (4 * (count[has] - 1 - i))) & 15]
    table[0, values, count] = ord(" ")
    table[1, values, count] = ord("\n")
    return tuple(table.view(np.dtype((np.void, digits + 1)))[..., 0])


def write_descriptor(path, code: WedgeLiftedCode) -> None:
    """JSON descriptor pinning everything needed to rebuild coordinates."""
    payload = {
        "ell": code.field.ell,
        "modulus": code.field.modulus,
        "subgroup_order": code.family.subgroup_order,
        "coordinate_order": "row-major-poly-basis",
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
