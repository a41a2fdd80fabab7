"""Reference implementations the tests compare the library against.

None of this is library code. The big-int bitset eliminators (column j at
bit j of a Python int) and the dense numpy one share no code with the packed
`linalg.GF2Echelon`; `iter_wedge_rows` lists every wedge check one by one,
which the library no longer does because it closes one seed per coset under
translation; `gfq_rank` eliminates densely over GF(2^ell), where the library
only ever eliminates 0/1 rows over GF(2);
`trace2`, `pow_vector` and `eval_monomial` map one field element or one
monomial at a time, where the library builds the trace table by linearity
from the traces of the polynomial basis and evaluates monomials in batches;
`subgroup_power_sum` sums alpha^n over a subgroup element by element, which
no library code needs (the power-sum case split is what the tests check);
`traced_span` is the trace code by its definition, the GF(2)
span of tr(2^j * g) over a kernel basis, which the library no longer
computes because tr(C) is the binary kernel itself;
`kernel_codewords_reference` draws binary codewords from the kernel basis,
where the library's verify traces F_q codewords; `encode_reference`
evaluates the coefficient grid by power-table gathers, where the library
runs two additive FFTs, and `additive_fft_reference` is that transform as a
recursion with the batch on the outer axis, where the library's holds the
batch on the inner axis and runs its levels in two buffers;
`restriction_grid_reference`
is one coset's grid of all q^2 restrictions of one monomial, with one
line-sum vector G_alpha gathered per slope, and `restriction_grids_reference`
is that grid for a chunk of monomials at once, regrouped into one line-sum
vector per monomial and one sum per coset of the subgroup, where the
library's oracle forms no grid and reads the line-sum vector at two points
and the subgroup's sums at one point per orbit of the subgroup;
`field_pow` is the scalar power the library no longer offers;
`wedge_point_set_reference` and `wedge_restriction_reference` walk one
wedge point by point with scalar field calls, where the library's
`wedge_restriction` gathers all of a wedge's points from the log tables at
once (the point set is the library's no longer: it lost its last library
caller), and `is_good_oracle_sampled_reference` is the sampled oracle over
them;
`check_good_annihilated_reference` tests every good monomial against every
reduced parity row by float32 bit-plane products, where the library checks
the t wedges at the origin, and `origin_wedge_sums_reference` sums each
monomial over those wedges' point lists column by column, where the library
sums along their lines by one closed product per monomial and coset; `repair_groups_reference` builds each repair
group from its wedge's point set and checks every coordinate's groups, where
the library translates and checks the t origin wedges, and
`group_sums_reference` and `verify_failures_reference` sum a word over those
groups by gathering every group's symbols, where the library convolves the
word with the t origin wedges by Walsh–Hadamard transforms;
`walsh_hadamard_reference` is that transform as one in-place butterfly per
index bit over strided sub-rows, and `seed_spectra_reference` transforms
each seed's 0/1 indicator with it, where the library's transform reads and
writes whole half-rows in constant geometry and the seed spectra are read
from a closed form.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from wedgelift.classify import Monomial, Wedge, _check_monomial
from wedgelift.code import _eval_monomials, _origin_wedges
from wedgelift.errors import InvariantError
from wedgelift.field import _build_afft_twiddles
from wedgelift.linalg import (
    BATCH_BYTES, WORD, RrefKernel, _words, gf2_echelon, pack_rows, unpack_rows
)


# ---------------------------------------------------------------------------
# Row formats
# ---------------------------------------------------------------------------


def packed_to_ints(words: np.ndarray) -> list[int]:
    """Big-int bitset of every packed row."""
    words = np.ascontiguousarray(words, dtype=WORD)
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def ints_to_packed(rows: Iterable[int], ncols: int) -> np.ndarray:
    """Packed words of big-int bitset rows (each below 2**ncols)."""
    nbytes = 8 * _words(ncols)
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return np.frombuffer(raw, dtype=WORD).reshape(-1, _words(ncols)).copy()


def bitset_to_array(bits: int, ncols: int) -> np.ndarray:
    """Unpack a row bitset to a length-ncols uint8 0/1 vector."""
    nbytes = (ncols + 7) // 8
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:ncols]


def array_to_bitset(vec: np.ndarray) -> int:
    """Pack a 0/1 vector into a row bitset (column j -> bit j)."""
    packed = np.packbits(vec.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# Eliminators
# ---------------------------------------------------------------------------


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of the 0/1 matrix whose rows are bitsets."""
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[_low_bit(row)] = row
    return len(pivots)


def gf2_rref(rows: Iterable[int]) -> dict[int, int]:
    """Fully reduced row-echelon form: {pivot column: row bitset}.

    Each pivot column appears in exactly one row.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[_low_bit(row)] = row
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        rest = row & ~(1 << col)
        while rest:
            c = _low_bit(rest)
            if c in pivots:
                row ^= pivots[c]
                rest = row & ~(1 << col)
            else:
                rest &= rest - 1
        pivots[col] = row
    return pivots


def _reduce(row: int, pivots: dict[int, int]) -> int:
    while row:
        col = _low_bit(row)
        if col not in pivots:
            return row
        row ^= pivots[col]
    return 0


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def numpy_gf2_rank(matrix: np.ndarray) -> int:
    """Independent dense GF(2) elimination (no bitsets)."""
    work = (matrix.astype(np.uint8) & 1).copy()
    nrows, ncols = work.shape
    r = 0
    for c in range(ncols):
        hits = np.nonzero(work[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        work[[r, p]] = work[[p, r]]
        clear = np.nonzero(work[:, c])[0]
        for i in clear:
            if i != r:
                work[i] ^= work[r]
        r += 1
        if r == nrows:
            break
    return r


def gfq_rank(matrix: np.ndarray, spec) -> int:
    """Rank over GF(2^ell) by dense Gaussian elimination.

    Pivot = first nonzero entry in column order; exact arithmetic, so no
    tolerance parameters exist.
    """
    m = np.array(matrix, dtype=np.uint16, copy=True)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    mul = spec.mul_table()
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inv_p = spec.inv(int(m[rank, col]))
        m[rank] = mul[inv_p, m[rank]]
        for r in range(nrows):
            if r != rank and m[r, col]:
                m[r] ^= mul[int(m[r, col]), m[rank]]
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# Wedge checks by enumeration
# ---------------------------------------------------------------------------


def iter_wedge_rows(family) -> Iterator[np.ndarray]:
    """Packed indicator rows of every wedge point set: one (q, words) block of
    uint64 words per (coset, x), rows y = 0..q-1, blocks ordered (coset, x)."""
    spec = family.field
    q = spec.q
    mul = spec.mul_table()
    ts = np.arange(q, dtype=np.intp)
    yy = ts[None, None, :]
    row_start = yy * (q * q)
    for coset in family.cosets:
        slopes = np.array(coset, dtype=np.intp)[:, None]
        for x in range(q):
            # Row y holds the points (t, alpha*(t+x) + y), t in F_q, alpha in
            # the coset, at bit t*q + (alpha*(t+x) ^ y) = (t*q + alpha*(t+x)) ^ y.
            line = ts * q + mul[slopes, ts ^ x]
            bits = np.zeros((q, q * q), dtype=np.uint8)
            bits.reshape(-1)[((line[:, :, None] ^ yy) + row_start).reshape(-1)] = 1
            yield pack_rows(bits)


def wedge_rows(family) -> list[int]:
    """Every wedge indicator row of the family, as a big-int bitset."""
    return [r for block in iter_wedge_rows(family) for r in packed_to_ints(block)]


# ---------------------------------------------------------------------------
# Field maps element by element
# ---------------------------------------------------------------------------


def trace2(spec, a: int) -> int:
    """tr(a) = sum of a^(2^i) for 0 <= i < ell, by ell scalar squarings."""
    total, p = 0, a
    for _ in range(spec.ell):
        total ^= p
        p = spec.mul(p, p)
    if total not in (0, 1):
        raise InvariantError(f"trace of {a} left GF(2): {total}")
    return total


def field_pow(spec, a: int, n: int) -> int:
    """a^n for one element a and n >= 0 from the log/antilog tables, with
    0^0 = 1 so that X^0 evaluates to 1 on the axis."""
    spec._check(a)
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(spec.antilog[(int(spec.log[a]) * n) % (spec.q - 1)])


def pow_vector(spec, n: int) -> np.ndarray:
    """Vector of t^n over all t in F_q, indexed by t (0^0 = 1), as uint16."""
    q = spec.q
    out = np.empty(q, dtype=np.uint16)
    if n == 0:
        out[:] = 1
        return out
    out[0] = 0
    out[1:] = spec.antilog[(spec.log[1:] * n) % (q - 1)]
    return out


def eval_monomial(spec, m: Monomial) -> np.ndarray:
    """Evaluation vector of X^a Y^b over F_q^2: entry[x*q + y] = x^a * y^b."""
    a, b = m
    return spec.mul_table()[pow_vector(spec, a)[:, None], pow_vector(spec, b)[None, :]].reshape(-1)


def subgroup_power_sum(spec, subgroup: tuple[int, ...], n: int) -> int:
    """Sum of alpha^n over the subgroup: 1 when |H| divides n (|H| odd, char 2),
    else 0. Computed by direct summation, not by the case split."""
    total = 0
    for alpha in subgroup:
        total ^= field_pow(spec, alpha, n)
    return total


# ---------------------------------------------------------------------------
# Trace code by definition
# ---------------------------------------------------------------------------


def traced_span(code) -> np.ndarray:
    """Packed RREF of the GF(2) span of tr(beta * g), g in the GF(2) kernel
    basis of a full build's parity rows, beta in the polynomial basis 2^j of
    F_q; the Delsarte sandwich dim C <= dim tr(C) <= ell * dim C is
    asserted."""
    spec = code.field
    n = code.length
    # trace_of_multiple[j][v] = trace(2^j * v)
    trace_of_multiple = spec.trace_table()[spec.mul_table()[1 << np.arange(spec.ell)]]
    step = max(1, BATCH_BYTES // (n * spec.ell))

    def traced_rows():
        for kernel in RrefKernel(code.parity_rows, n).chunks():
            for start in range(0, len(kernel), step):
                g = unpack_rows(kernel[start : start + step], n)
                for table in trace_of_multiple:
                    yield pack_rows(table[g])

    generators = gf2_echelon(traced_rows(), n).reduced()
    assert code.exact_dimension <= len(generators) <= spec.ell * code.exact_dimension
    return generators


def kernel_codewords_reference(code, trials: int, seed: int) -> list[np.ndarray]:
    """Uniform binary codewords drawn from the GF(2) kernel basis of a full
    build's parity rows: each the XOR of the packed kernel rows picked by
    fair coins, unpacked to uint8."""
    rng = np.random.default_rng(seed)
    kernel = np.concatenate([*RrefKernel(code.parity_rows, code.length).chunks()])
    words = []
    for _ in range(trials):
        coins = rng.integers(0, 2, size=len(kernel))
        word = np.bitwise_xor.reduce(kernel[coins == 1], axis=0)
        words.append(unpack_rows(word[None], code.length)[0])
    return words


# ---------------------------------------------------------------------------
# Encoding by power-table gathers
# ---------------------------------------------------------------------------


def encode_reference(code, message) -> np.ndarray:
    """The codeword of message as a (q^2,) uint16 vector: the coefficient
    grid M (zero at bad monomials) evaluated by two gathers of about q^3
    table lookups. The message is not validated."""
    msg = np.asarray(message, dtype=np.int64)
    spec = code.field
    q = spec.q
    mul, powers = spec.mul_table(), spec.power_table()
    grid = np.zeros((q, q), dtype=mul.dtype)
    grid[tuple(code.good_monomials.T)] = msg
    word = np.zeros((q, q), dtype=mul.dtype)
    # Each gather below holds step * q^2 table entries.
    step = max(1, BATCH_BYTES // (mul.itemsize * q * q))
    for start in range(0, q, step):
        rows = slice(start, start + step)
        # inner[a, y] = sum_b M[a, b] * y^b, then word[x, y] ^= x^a * inner[a, y].
        inner = np.bitwise_xor.reduce(mul[grid[rows, :, None], powers[None]], axis=1)
        word ^= np.bitwise_xor.reduce(mul[powers[rows, :, None], inner[:, None, :]], axis=0)
    return word.reshape(-1)


def additive_fft_reference(spec, coeffs: np.ndarray) -> np.ndarray:
    """field.additive_fft of an (R, q) coefficient array as a recursion on
    (R, n) rows, the batch on the outer axis: each level scales coefficient
    i by beta_m^i, Taylor-expands in place, stacks the even and odd
    coefficients of every row as 2R rows of n/2 and recurses on them, then
    joins the halves as u = E0 + G E1 and u + E1. The per-level constants
    are the library's (_build_afft_twiddles)."""
    q = spec.q
    return _afft_rows(coeffs, spec.mul_table().reshape(-1), _build_afft_twiddles(spec), q)


def _afft_rows(rows: np.ndarray, mul: np.ndarray, twiddles: np.ndarray, q: int) -> np.ndarray:
    count, n = rows.shape
    if n == 1:
        return rows
    start = 3 * (q - n)
    out = np.take(mul, rows + twiddles[start : start + n])
    size = n
    while size >= 4:
        blocks = out.reshape(count, n // size, 4, size // 4)
        blocks[:, :, 2] ^= blocks[:, :, 3]
        blocks[:, :, 1] ^= blocks[:, :, 2]
        size //= 2
    halves = _afft_rows(np.concatenate((out[:, 0::2], out[:, 1::2])), mul, twiddles, q)
    e0, e1 = halves[:count], halves[count:]
    u = e0 ^ np.take(mul, e1 + twiddles[start + n : start + n + n // 2])
    return np.concatenate((u, u ^ e1), axis=1)


# ---------------------------------------------------------------------------
# Wedge restrictions of one monomial, slope by slope
# ---------------------------------------------------------------------------


def restriction_grid_reference(spec, coset: tuple[int, ...], m: Monomial) -> np.ndarray:
    """All q^2 wedge restrictions of X^a Y^b for one coset, indexed [x, y].

    Uses only distributivity: with G_alpha[s] = sum_T T^a (alpha*T + s)^b,
    the restriction at (x, y) is sum_alpha G_alpha[alpha*x + y].
    """
    a, b = _check_monomial(m, spec.q)
    q = spec.q
    mul = spec.mul_table()
    xa = pow_vector(spec, a)
    yb = pow_vector(spec, b)
    s = np.arange(q, dtype=np.uint16)
    grid = np.zeros((q, q), dtype=np.uint16)
    for alpha in coset:
        shifted = mul[alpha][:, None] ^ s[None, :]
        g_alpha = np.bitwise_xor.reduce(mul[xa[:, None], yb[shifted]], axis=0)
        grid ^= g_alpha[shifted]
    return grid


def restriction_grids_reference(spec, coset: tuple[int, ...], monomials) -> np.ndarray:
    """All q^2 wedge restrictions of every X^a Y^b for one coset C of the
    subgroup H of order h = len(coset), as an (M, q, q) uint16 array indexed
    [monomial, x, y]; monomials is an (M, 2) array of exponent pairs. Neither
    input is validated.

    The restriction at (x, y) is sum_alpha sum_T T^a (alpha*T + alpha*x + y)^b
    over alpha in C. U = alpha*T turns each line sum into
    alpha^-a * G[alpha*x + y], with G[s] = sum_U U^a (U + s)^b. For x != 0,
    beta = alpha*x runs over the coset D = xC, so the restriction is
    x^a * S_D[y] with S_D[y] = sum_{beta in D} beta^-a * G[beta + y], summed
    here for every coset D of H; at x = 0 it is sigma_C * G[y] with
    sigma_C = sum_alpha alpha^-a. Monomials go in chunks whose (M, q, q)
    index array holds about BATCH_BYTES.
    """
    q, ell = spec.q, spec.ell
    exps = np.asarray(monomials, dtype=np.intp).reshape(-1, 2)
    h = len(coset)
    t = (q - 1) // h
    mul = spec.mul_table().ravel()  # mul[(u << ell) | v] = u * v
    powers = spec.power_table()
    s = np.arange(q)
    # Nonzero beta grouped by coset of H: row j holds g^(j + t*k), k < h, and
    # xC is row (log x + log c) mod t for any c in C.
    betas = spec.antilog[np.arange(t)[:, None] + t * np.arange(h)].ravel()
    rows = (spec.log[1:] + int(spec.log[coset[0]])) % t
    grids = np.empty((len(exps), q, q), dtype=np.uint16)
    step = max(1, BATCH_BYTES // (8 * q * q))
    for start in range(0, len(exps), step):
        a, b = exps[start : start + step].T
        xa = powers[a].astype(np.intp) << ell  # [m, x] -> x^a, shifted
        inv_a = powers[q - 1 - a].astype(np.intp) << ell  # beta^-a for beta != 0
        g = np.bitwise_xor.reduce(mul[xa[:, :, None] | powers[b][:, s[:, None] ^ s]], axis=1)
        terms = mul[inv_a[:, betas, None] | g[:, betas[:, None] ^ s]]
        sums = np.bitwise_xor.reduce(terms.reshape(len(a), t, h, q), axis=2)  # [m, D, y]
        grid = grids[start : start + step]
        grid[:, 1:] = mul[xa[:, 1:, None] | sums[:, rows]]
        sigma = np.bitwise_xor.reduce(inv_a[:, list(coset)], axis=1)
        grid[:, 0] = mul[sigma[:, None] | g]
    return grids


# ---------------------------------------------------------------------------
# One wedge, point by point
# ---------------------------------------------------------------------------


def wedge_point_set_reference(spec, wedge: Wedge) -> frozenset[tuple[int, int]]:
    """Union of the wedge's lines, one scalar multiplication per point."""
    x, y = wedge.point
    points = set()
    for alpha in wedge.coset:
        for t in range(spec.q):
            points.add((t, spec.mul(alpha, t ^ x) ^ y))
    return frozenset(points)


def wedge_restriction_reference(spec, poly, wedge: Wedge) -> int:
    """Field sum of the polynomial over every line of the wedge, evaluating
    each term at each point with scalar field calls."""
    for (a, b), _ in poly:
        _check_monomial(Monomial(a, b), spec.q)

    def value(u: int, v: int) -> int:
        acc = 0
        for (a, b), coeff in poly:
            acc ^= spec.mul(coeff, spec.mul(field_pow(spec, u, a), field_pow(spec, v, b)))
        return acc

    x, y = wedge.point
    total = 0
    for alpha in wedge.coset:
        for t in range(spec.q):
            total ^= value(t, spec.mul(alpha, t ^ x) ^ y)
    return total


def is_good_oracle_sampled_reference(family, m: Monomial, wedges: int, rng) -> bool:
    """The sampled oracle over wedge_restriction_reference, drawing coset and
    point in the library's order."""
    spec = family.field
    q = spec.q
    for _ in range(wedges):
        coset = family.cosets[int(rng.integers(family.t))]
        point = (int(rng.integers(q)), int(rng.integers(q)))
        if wedge_restriction_reference(spec, [((m.a, m.b), 1)], Wedge(coset, point)) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Good monomials against every reduced parity row
# ---------------------------------------------------------------------------


def check_good_annihilated_reference(spec, good: np.ndarray, reduced: np.ndarray) -> None:
    """G . R^T = 0 on every bit plane of the evaluations G of the (M, 2)
    array of good exponent pairs, where R are the reduced parity rows.

    A wedge sum of field values vanishes iff each of its ell bit planes has
    even weight on the wedge, and the 0/1 parity rows span over GF(2) what
    they span over F_q, so this is exactly "every good monomial satisfies
    every wedge check". The counts are < q^2 <= 2^24, exact in float32.
    """
    q, ell = spec.q, spec.ell
    n = q * q
    reduced_t = unpack_rows(reduced, n).T.astype(np.float32)
    # bit_planes[j][v] = bit j of the field element v, as a float32 0/1.
    bit_planes = ((np.arange(q) >> np.arange(ell)[:, None]) & 1).astype(np.float32)
    step = max(1, BATCH_BYTES // (4 * n))
    for start in range(0, len(good), step):
        chunk = good[start : start + step]
        values = _eval_monomials(spec, chunk)
        for plane in bit_planes:
            odd = ((plane[values] @ reduced_t).astype(np.int64) & 1).any(axis=1)
            if odd.any():
                m = chunk[int(odd.nonzero()[0][0])]
                raise InvariantError(
                    f"good monomial {tuple(m.tolist())} violates a wedge parity check"
                )


def origin_wedge_sums_reference(family, monomials: np.ndarray) -> np.ndarray:
    """(M, t) sums of each monomial of an (M, 2) array over each coset's
    wedge at the origin, taken over the wedge's point list column by column:
    the sums of y^e over the points (x, y) of each column x, then one
    product x^a * (sum of y^b) per column."""
    spec = family.field
    q = spec.q
    mul, powers = spec.mul_table(), spec.power_table()
    a, b = np.asarray(monomials).T
    sums = np.empty((len(a), family.t), dtype=mul.dtype)
    for j, seed in enumerate(_origin_wedges(family)):
        # column[e, x] = sum of y^e over the seed's points (x, y): the origin
        # alone at x = 0, then the h points of each column x = 1..q-1.
        column = np.empty((q, q), dtype=mul.dtype)
        column[:, 0] = powers[:, 0]
        ys = (seed[1:] & (q - 1)).reshape(q - 1, -1)
        column[:, 1:] = np.bitwise_xor.reduce(powers[:, ys], axis=2)
        sums[:, j] = np.bitwise_xor.reduce(mul[powers[a], column[b]], axis=1)
    return sums


# ---------------------------------------------------------------------------
# Repair groups wedge by wedge
# ---------------------------------------------------------------------------


def repair_groups_reference(code) -> np.ndarray:
    """groups[j, p]: the sorted indices of coset j's wedge at p minus p,
    built per (coset, x, alpha) as the points (t, alpha*(t - x) + y), t != x,
    and checked by check_disjoint_reference."""
    spec = code.field
    family = code.family
    q = spec.q
    n = q * q
    h = family.subgroup_order
    mul = spec.mul_table()
    size = h * (q - 1)
    ys = np.arange(q, dtype=np.int32)
    groups = np.empty((family.t, n, size), dtype=np.int32)
    for j, coset in enumerate(family.cosets):
        for x in range(q):
            ts = np.delete(np.arange(q, dtype=np.int32), x)
            block = np.empty((q, size), dtype=np.int32)
            for k, alpha in enumerate(coset):
                w = mul[alpha, ts ^ x].astype(np.int32)
                block[:, k * (q - 1) : (k + 1) * (q - 1)] = (ts * q)[None, :] + (
                    w[None, :] ^ ys[:, None]
                )
            groups[j, x * q : (x + 1) * q] = block
    groups.sort(axis=2)
    check_disjoint_reference(groups)
    return groups


def check_disjoint_reference(groups: np.ndarray) -> None:
    """Raise InvariantError unless, for every coordinate p, no group of p
    contains p and the t groups of p are pairwise disjoint.

    Exact, and run over chunks of coordinates whose groups take about
    BATCH_BYTES, so the merged and sorted copy stays small.
    """
    t, n, size = groups.shape
    step = max(1, BATCH_BYTES // (groups.itemsize * t * size))
    for start in range(0, n, step):
        chunk = groups[:, start : start + step]
        count = chunk.shape[1]
        coords = np.arange(start, start + count, dtype=groups.dtype)
        if (chunk == coords[None, :, None]).any():
            raise InvariantError("a repair group contains its own coordinate")
        merged = np.sort(chunk.transpose(1, 0, 2).reshape(count, -1), axis=1)
        if (merged[:, 1:] == merged[:, :-1]).any():
            raise InvariantError("repair groups of a coordinate are not disjoint")


def group_sums_reference(groups: np.ndarray, word: np.ndarray, j: int) -> np.ndarray:
    """sums[p] = XOR of word over groups[j, p], gathered group by group."""
    return np.bitwise_xor.reduce(word[groups[j]], axis=1)


def verify_failures_reference(groups: np.ndarray, words: Iterable[np.ndarray]) -> list[dict]:
    """verify_drgp's failure records for the given words, one per
    (word, group, coordinate) whose gathered sum misses the symbol, in that
    order."""
    failures = []
    for c in words:
        for j in range(groups.shape[0]):
            sums = group_sums_reference(groups, c, j)
            for p in np.nonzero(sums != c)[0]:
                failures.append(
                    {"coordinate": int(p), "group": j, "expected": int(c[p]), "got": int(sums[p])}
                )
    return failures


def walsh_hadamard_reference(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of each row of a C-contiguous
    (rows, n) uint64 array, n a power of two, in place and modulo 2^64:
    one butterfly (u, v) -> (u + v, u - v) per index bit."""
    rows, n = a.shape
    scratch = np.empty(rows * n // 2, dtype=a.dtype)
    half = 1
    while half < n:
        pairs = a.reshape(rows, n // (2 * half), 2, half)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = scratch.reshape(lo.shape)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        half *= 2
    return a


def seed_spectra_reference(plan) -> np.ndarray:
    """The transforms of the t seed indicators, (t, n) uint64."""
    n = plan.code.length
    spectra = np.zeros((plan.t, n), dtype=np.uint64)
    spectra[np.arange(plan.t)[:, None], plan.seeds] = 1
    step = max(1, BATCH_BYTES // (8 * n))
    for start in range(0, plan.t, step):
        walsh_hadamard_reference(spectra[start : start + step])
    return spectra
