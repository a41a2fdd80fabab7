"""GF(2^ell) arithmetic, the trace map to GF(2), and multiplicative coset machinery.

Field elements are plain ints: the little-endian coefficient bits of a polynomial
over GF(2) in the polynomial basis (constant term = bit 0). That integer encoding
is also the fixed element order used everywhere an order on F_q is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .errors import InvariantError, UsageError

# Published moduli (ell: polynomial bits). Entries for other widths fall back to
# the smallest irreducible polynomial under integer encoding; these seven are
# fixed verbatim so serialized artifacts stay bit-for-bit reproducible.
MODULUS_TABLE = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    6: 0b1000011,
    8: 0b100011011,
    10: 0b10000001001,
    12: 0b1000001010011,
}

MAX_ELL = 24  # log/antilog tables bound the desk scale


def _poly_rem(a: int, b: int) -> int:
    """Remainder of a mod b as GF(2)[x] polynomials in bit encoding."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(f: int, degree: int) -> bool:
    """Trial division by every polynomial of degree 1..degree//2."""
    if f.bit_length() != degree + 1:
        return False
    for d in range(1, degree // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _poly_rem(f, g) == 0:
                return False
    return True


def smallest_irreducible(degree: int) -> int:
    for f in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(f, degree):
            return f
    raise InvariantError(f"no irreducible polynomial of degree {degree} found")


def _poly_mulmod(a: int, b: int, modulus: int, ell: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> ell & 1:
            a ^= modulus
    return r


# eq=False: the numpy tables are unhashable and make_field caches one instance
# per ell, so identity comparison is the right semantics.
@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A concrete GF(2^ell) with log/antilog tables for fast mul/inv.

    antilog[i] = generator^i for 0 <= i < q-1; log[antilog[i]] = i.
    """

    ell: int
    modulus: int
    generator: int
    antilog: np.ndarray = dataclass_field(repr=False)
    log: np.ndarray = dataclass_field(repr=False)
    _tables: dict = dataclass_field(default_factory=dict, init=False, repr=False)

    @property
    def q(self) -> int:
        return 1 << self.ell

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.q:
                raise UsageError(f"{a} is not an element of GF(2^{self.ell})")

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self.antilog[(int(self.log[a]) + int(self.log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.antilog[(self.q - 1 - int(self.log[a])) % (self.q - 1)])

    def mul_table(self) -> np.ndarray:
        """Full q x q multiplication table (lazily built and cached)."""
        return self._cached("mul", _build_mul_table)

    def power_table(self) -> np.ndarray:
        """Full q x q power table: entry [n, t] = t^n, with 0^0 = 1 (lazily
        built and cached)."""
        return self._cached("power", _build_power_table)

    def trace_table(self) -> np.ndarray:
        """Vector of tr(t) = sum of t^(2^i) for 0 <= i < ell, the trace onto
        GF(2), over all t, indexed by t, as uint8 (lazily built and cached)."""
        return self._cached("trace", _build_trace_table)

    def _cached(self, name: str, build) -> np.ndarray:
        # Tables live on the instance, so they are freed with it.
        table = self._tables.get(name)
        if table is None:
            table = build(self)
            table.setflags(write=False)
            self._tables[name] = table
        return table


def _build_mul_table(spec: FieldSpec) -> np.ndarray:
    q = spec.q
    if q > 4096:
        raise UsageError(f"multiplication table for q={q} exceeds the desk-scale guard")
    table = np.zeros((q, q), dtype=np.uint16)
    exp = (spec.log[1:, None] + spec.log[None, 1:]) % (q - 1)
    table[1:, 1:] = spec.antilog[exp]
    return table


def _build_power_table(spec: FieldSpec) -> np.ndarray:
    q = spec.q
    if q > 4096:
        raise UsageError(f"power table for q={q} exceeds the desk-scale guard")
    table = np.zeros((q, q), dtype=np.uint16)
    table[0] = 1
    exp = (np.arange(1, q)[:, None] * spec.log[None, 1:]) % (q - 1)
    table[1:, 1:] = spec.antilog[exp]
    return table


def _build_trace_table(spec: FieldSpec) -> np.ndarray:
    """The trace is F_2-linear, so tr(t) is the XOR of tr(alpha^j) over the
    set bits j of t. The ell basis traces come from the log tables, one
    Frobenius orbit each; the table doubles once per basis element."""
    q, bits = spec.q, 1 << np.arange(spec.ell)
    orbits = spec.antilog[(spec.log[bits][:, None] * bits) % (q - 1)]
    basis = np.bitwise_xor.reduce(orbits, axis=1)
    if (basis > 1).any():
        raise InvariantError(f"trace of a basis element left GF(2): {basis.tolist()}")
    table = np.zeros(1, dtype=np.uint8)
    for trace in basis.astype(np.uint8):
        table = np.concatenate((table, table ^ trace))
    return table


def additive_fft(spec: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """Every row of an (R, q) coefficient array evaluated at every t in F_q:
    out[r, t] = sum_i coeffs[r, i] * t^i (0^0 = 1), as uint16.

    This is the additive FFT of Gao & Mateer ("Additive fast Fourier
    transforms over finite fields", IEEE Trans. Inf. Theory, 2010), run on
    all rows at once, O(R q log^2 q) instead of the O(R q^2) of a power
    table. It evaluates on the span of the basis 1, alpha, ..., alpha^(ell-1)
    with bit j of the index selecting alpha^j, so index t is the element t.
    The rows are transformed as the columns of coeffs.T (_afft).
    """
    q = spec.q
    if coeffs.ndim != 2 or coeffs.shape[1] != q:
        raise UsageError(f"coefficient rows must have q = {q} entries")
    return np.ascontiguousarray(_afft(spec, coeffs.T).T)


def _afft(spec: FieldSpec, columns: np.ndarray) -> np.ndarray:
    """additive_fft of every column of a (q, R) coefficient array:
    out[t, r] = sum_i columns[i, r] * t^i, as a new C-contiguous (q, R)
    uint16 array. columns may be any view; it is read once and not written.

    A level on n coefficients with basis beta_1..beta_m, n = 2^m, sets
    g(x) = f(beta_m x) and Taylor-expands it at x^2 + x as
    g0(x^2 + x) + x g1(x^2 + x); x and x + 1 share x^2 + x, so with E0, E1
    the values of g0, g1 on the span of the delta_i = gamma_i^2 + gamma_i
    (gamma_i = beta_i / beta_m, i < m), g(x) = E0 + x E1 and g(x + 1) =
    g(x) + E1. The batch is the inner axis, so level n holds an (n, W)
    array, W = q R / n, and index 2i + e of the expansion holds the
    coefficient of x^e (x^2 + x)^i: its (n/2, 2W) reshape stacks g0 and g1
    of every column side by side along the batch, which is the next level's
    input in place. The way down runs in one buffer; the way back up writes
    each level's (n, W) values from the (n/2, 2W) ones below into the other
    buffer. Every call streams whole rows of at least R entries. The
    twiddles of level n are offsets into the flat multiplication table
    (see _build_afft_twiddles)."""
    q, count = spec.q, columns.shape[1]
    mul = spec.mul_table().reshape(-1)
    twiddles = spec._cached("afft", _build_afft_twiddles)
    src, dst = np.empty((2, q * count), dtype=np.uint16)
    index = np.empty(q * count, dtype=np.intp)
    level, n = columns, q
    while n > 1:
        start, shape = 3 * (q - n), (n, q * count // n)
        np.add(level.reshape(shape), twiddles[start : start + n, None], out=index.reshape(shape))
        level = src.reshape(shape)
        # The indices are in range by construction; "clip" keeps np.take
        # from buffering its output.
        np.take(mul, index.reshape(shape), out=level, mode="clip")
        # Taylor expansion in place, largest blocks first: with k = size / 4,
        # a block q0 + x^k q1 + x^2k q2 + x^3k q3 (deg qi < k) equals
        # (q0 + x^k (q1 + q2 + q3)) + (x^2 + x)^k (q2 + q3 + x^k q3).
        size = n
        while size >= 4:
            blocks = level.reshape(n // size, 4, size // 4 * shape[1])
            blocks[:, 2] ^= blocks[:, 3]
            blocks[:, 1] ^= blocks[:, 2]
            size //= 2
        n //= 2
    while n < q:
        n *= 2
        start, shape = 3 * (q - n), (n // 2, q * count // n)
        halves = src.reshape(n // 2, 2, shape[1])
        e0, e1 = halves[:, 0], halves[:, 1]
        u, v = dst.reshape(2, *shape)
        products = index[: e1.size].reshape(shape)
        np.add(e1, twiddles[start + n : start + n + n // 2, None], out=products)
        np.take(mul, products, out=u, mode="clip")
        u ^= e0
        np.bitwise_xor(u, e1, out=v)
        src, dst = dst, src
    return src.reshape(q, count)


def _build_afft_twiddles(spec: FieldSpec) -> np.ndarray:
    """Per-level additive_fft constants as offsets into the flat
    multiplication table (element times q), levels n = q, q/2, ..., 2 in
    turn, level n starting at 3 * (q - n): the n powers beta_m^i, then the
    n/2 elements of the span of the gamma_i in index-bit order."""
    q = spec.q
    parts = []
    basis = [1 << j for j in range(spec.ell)]
    for m in range(spec.ell, 0, -1):
        top = basis[-1]
        parts.append(spec.antilog[(spec.log[top] * np.arange(1 << m)) % (q - 1)])
        gammas = [spec.mul(beta, spec.inv(top)) for beta in basis[:-1]]
        span = np.zeros(1, dtype=np.int64)
        for gamma in gammas:
            span = np.concatenate((span, span ^ gamma))
        parts.append(span)
        basis = [spec.mul(gamma, gamma) ^ gamma for gamma in gammas]
    return np.concatenate(parts) * q


def _smallest_generator(ell: int, modulus: int) -> int:
    """Smallest integer-encoded element of multiplicative order exactly q-1."""
    q = 1 << ell
    if q == 2:
        return 1
    n = q - 1
    factors = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)

    def pow_mod(base: int, e: int) -> int:
        result, acc = 1, base
        while e:
            if e & 1:
                result = _poly_mulmod(result, acc, modulus, ell)
            acc = _poly_mulmod(acc, acc, modulus, ell)
            e >>= 1
        return result

    for c in range(2, q):
        if all(pow_mod(c, n // p) != 1 for p in factors):
            return c
    raise InvariantError(f"no generator found for ell={ell}")


@lru_cache(maxsize=None)
def make_field(ell: int) -> FieldSpec:
    """Build GF(2^ell) with the table modulus (or smallest irreducible) and
    the smallest generator under integer encoding."""
    if not 1 <= ell <= MAX_ELL:
        raise UsageError(f"ell must be in [1, {MAX_ELL}], got {ell}")
    modulus = MODULUS_TABLE.get(ell, None)
    if modulus is None:
        modulus = smallest_irreducible(ell)
    if not is_irreducible(modulus, ell):
        raise InvariantError(f"modulus {modulus:#b} for ell={ell} is not irreducible")
    g = _smallest_generator(ell, modulus)
    q = 1 << ell
    antilog = np.zeros(q - 1, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        antilog[i] = x
        log[x] = i
        x = _poly_mulmod(x, g, modulus, ell)
    if x != 1:
        raise InvariantError(f"generator {g} does not have order {q - 1}")
    antilog.setflags(write=False)
    log.setflags(write=False)
    return FieldSpec(ell=ell, modulus=modulus, generator=g, antilog=antilog, log=log)


@dataclass(frozen=True)
class CosetFamily:
    """The unique subgroup H of F_q^x of a given odd order plus all its cosets.

    Cosets are canonical: each sorted ascending (representative = minimum), the
    list sorted by representative. They partition F_q^x, so 0 never appears.
    """

    field: FieldSpec
    subgroup_order: int
    subgroup: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        """The coset count (q-1)/h: the number of disjoint repair groups per
        coordinate. The paper's t = N^(1/(2d)) is one more, (q-1)/h + 1."""
        return len(self.cosets)

    @property
    def q(self) -> int:
        return self.field.q


def make_coset_family(field: FieldSpec, subgroup_order: int) -> CosetFamily:
    q = field.q
    if subgroup_order <= 0 or (q - 1) % subgroup_order != 0:
        raise UsageError(
            f"subgroup order {subgroup_order} does not divide q-1 = {q - 1}"
        )
    h = subgroup_order
    t = (q - 1) // h
    subgroup = tuple(sorted(int(field.antilog[(t * k) % (q - 1)]) for k in range(h)))
    cosets = []
    for j in range(t):
        rep = int(field.antilog[j])
        cosets.append(tuple(sorted(field.mul(rep, x) for x in subgroup)))
    cosets.sort(key=lambda c: c[0])
    covered = set().union(*cosets)
    if len(covered) != q - 1 or any(len(c) != h for c in cosets):
        raise InvariantError("cosets do not partition the multiplicative group")
    return CosetFamily(
        field=field, subgroup_order=h, subgroup=subgroup, cosets=tuple(cosets)
    )


def plan_dyadic_parameters(a_num: int, b_exp: int, n: int) -> tuple[int, int, int]:
    """Parameters (ell, h, t) realizing repair-group exponent alpha = (1 - a/2^b)/2.

    ell = 2^b * n and h = prod over set bits i of a_num of (2^(2^i * n) + 1);
    h divides 2^ell - 1 because 2^(2^b n) - 1 = (2^n - 1) * prod_i (2^(2^i n) + 1).
    """
    if b_exp < 1 or not 0 < a_num < (1 << b_exp):
        raise UsageError(
            f"need 0 < a_num < 2^b_exp for a dyadic alpha in (0, 1/2); "
            f"got a_num={a_num}, b_exp={b_exp}"
        )
    if n < 1:
        raise UsageError(f"n must be a positive integer, got {n}")
    ell = (1 << b_exp) * n
    if ell > MAX_ELL:
        raise UsageError(f"ell = 2^{b_exp}*{n} = {ell} exceeds the desk bound {MAX_ELL}")
    h = math.prod(
        (1 << ((1 << i) * n)) + 1 for i in range(b_exp) if a_num >> i & 1
    )
    if ((1 << ell) - 1) % h != 0:
        raise InvariantError(f"planned h={h} does not divide 2^{ell}-1")
    return ell, h, ((1 << ell) - 1) // h
