"""Per-coordinate disjoint repair groups and erasure-repair simulation.

For a coordinate p and coset C, the repair group is the wedge point set at p
minus p itself: summing a codeword over it recovers the symbol at p, because
the wedge parity check says the full point-set sum is zero and the
characteristic is 2. Distinct cosets give disjoint groups — non-parallel lines
through p meet only at p — so each coordinate has t independent repair sets,
which is also what serves parallel (multi-server read) access patterns.

Every group is the same coset's group at the origin, its seed, moved by p
(index j -> j ^ p), so the plan holds only the t seeds and checks their
disjointness once. The sums over coset j's groups of every coordinate,
S_j(p) = XOR of c[p ^ s] over s in seed_j, are an XOR (dyadic) convolution of
the codeword with the seed's indicator, which verify_drgp computes by fast
Walsh–Hadamard transforms instead of gathering every group. The seeds'
transforms are never computed: bit parity is a trace, parity(u & x) =
tr(lambda_u * x), so seed j's transform is -h + q at the indices (u, v) with
lambda_u / lambda_v in coset j, -h at the others and h(q-1) at (0, 0), and
one (n,) int16 label array (_seed_labels) gives every seed's spectrum. Only
the codeword's packed bit planes and their products with the spectra, a
chunk of seeds at a time, are transformed, by constant-geometry passes over
whole half-rows (_transform).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code import WedgeLiftedCode, _axes_codeword, _guard_bytes, _origin_wedges, encode
from .errors import InvariantError, UsageError
from .linalg import BATCH_BYTES


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """seeds[j] = the indices of coset j's repair group of coordinate 0,
    sorted, read-only int32 of shape (t, h*(q-1)). Group j of coordinate p is
    seeds[j] ^ p (see group)."""

    code: WedgeLiftedCode
    seeds: np.ndarray

    @property
    def t(self) -> int:
        return self.seeds.shape[0]

    @property
    def group_size(self) -> int:
        return self.seeds.shape[1]

    def group(self, j: int, p: int) -> np.ndarray:
        """Sorted indices of repair group j of coordinate p."""
        if not 0 <= j < self.t:
            raise UsageError(f"group {j} outside [0, {self.t})")
        if not 0 <= p < self.code.length:
            raise UsageError(f"coordinate {p} outside [0, {self.code.length})")
        return np.sort(self.seeds[j] ^ p)

    @cached_property
    def _labels(self) -> np.ndarray:
        """_seed_labels(self), made once per plan, at its first use."""
        return _seed_labels(self)


def build_repair_plan(code: WedgeLiftedCode) -> RepairPlan:
    """Take the t seeds and assert that every coordinate's groups are
    pairwise disjoint and miss the coordinate (an internal invariant that
    must never fire).

    Group j of coordinate p is coset j's wedge at the origin minus the
    origin, moved by the translation j -> j ^ p. That translation is a
    permutation that maps 0 to p, so the groups of every p are disjoint and
    miss p exactly when the t seeds are disjoint and miss 0: checking the
    seeds checks all n coordinates.
    """
    seeds = _origin_wedges(code.family)[:, 1:].astype(np.int32)
    if (seeds == 0).any():
        raise InvariantError("a repair group contains its own coordinate")
    merged = np.sort(seeds, axis=None)
    if (merged[1:] == merged[:-1]).any():
        raise InvariantError("repair groups of a coordinate are not disjoint")
    seeds.setflags(write=False)
    return RepairPlan(code=code, seeds=seeds)


def _transform(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of each row of a C-contiguous
    (rows, n) uint64 array, n a power of two, in place and modulo 2^64.

    Constant geometry (Pease 1968): every pass reads each row as n/2
    interleaved pairs (u, v) and writes u + v to the row's first half and
    u - v to its second, which is the butterfly on the lowest index bit
    followed by a rotation of the index bits that brings the next bit down.
    After log2 n passes every bit has had its butterfly and the rotations
    compose to the identity. Each pass is two ufunc calls over whole
    half-rows. The passes ping-pong between `a` and one buffer; an odd pass
    count ends in the buffer, which is copied back."""
    rows, n = a.shape
    half = n // 2
    src, dst = a, np.empty_like(a)
    for _ in range(n.bit_length() - 1):
        pairs = src.reshape(rows, half, 2)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, :half])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, half:])
        src, dst = dst, src
    if src is not a:
        a[...] = src
    return a


def _seed_labels(plan: RepairPlan) -> np.ndarray:
    """labels[u*q + v] = the coset j holding lambda_u / lambda_v when u and v
    are nonzero, else -1, as (n,) int16; lambda_u is the field element with
    parity(u & x) = tr(lambda_u * x) for every x in F_q. Read-only.

    This labels seed j's transform in closed form. With the index bits
    split as row-major (x, y) and (u, v), the transform of seed j at (u, v)
    is the sum over alpha in C_j and x != 0 of (-1)^tr((lambda_u +
    lambda_v * alpha) * x): q - 1 for each alpha with lambda_u = lambda_v *
    alpha, and -1 for each other. So it is h(q-1) at (0, 0) and
    -h + q * [labels = j] everywhere else (_seed_spectra_chunk).

    Bit i of the u belonging to lambda is tr(lambda * alpha^i), read from
    the trace table for the ell basis elements, and inverting that bijection
    gives lambda_u. lambda_u / lambda_v lies in the coset of the residue
    log lambda_u - log lambda_v mod t; coset_of maps each residue to the
    coset's index in the family's order."""
    family = plan.code.family
    spec = family.field
    q, t, ell = spec.q, family.t, spec.ell
    bits = np.arange(ell)
    traces = spec.trace_table()[spec.mul_table()[:, 1 << bits]].astype(np.intp)
    lam = np.empty(q, dtype=np.intp)
    lam[(traces << bits).sum(axis=1)] = np.arange(q)
    coset_of = np.empty(t, dtype=np.int16)
    coset_of[[int(spec.log[coset[0]]) % t for coset in family.cosets]] = np.arange(t)
    residue = spec.log[lam[1:]].astype(np.intp) % t
    labels = np.full((q, q), -1, dtype=np.int16)
    labels[1:, 1:] = coset_of[(residue[:, None] - residue) % t]
    labels.setflags(write=False)
    return labels.reshape(-1)


def _seed_spectra_chunk(plan: RepairPlan, labels: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The transforms of the indicators of seeds start..stop-1, (stop -
    start, n) uint64 modulo 2^64, from their closed form (_seed_labels)."""
    q, h = plan.code.field.q, plan.code.family.subgroup_order
    seeds = np.arange(start, stop, dtype=labels.dtype)[:, None]
    spectra = np.where(labels == seeds, np.uint64(q - h), np.uint64(-h % (1 << 64)))
    spectra[:, 0] = h * (q - 1)
    return spectra


def _layout(plan: RepairPlan, planes: int) -> tuple[int, int, int, int]:
    """(w, per_word, rows, step) of _group_sums for a word of `planes` bit
    planes: the slot width, the planes packed per uint64 word, the packed
    words per coordinate and the seeds per chunk, so that a chunk's products
    take about BATCH_BYTES."""
    n = plan.code.length
    k = n.bit_length() - 1
    w = plan.group_size.bit_length()
    per_word = (63 - k) // w + 1
    rows = -(-planes // per_word)
    return w, per_word, rows, max(1, BATCH_BYTES // (8 * n * max(rows, 1)))


def _verify_bytes(plan: RepairPlan, binary: bool) -> int:
    """The bytes verify's own arrays take at most while a trial's sums are
    formed: the (t, n) sums (uint16 F_q symbols, or uint8 traces), which
    are compared with the word in place, the word, the (n,) int16 labels,
    the packed planes (ell of them, or 1 binary plane), and one chunk of
    seeds: its products, the transform's buffer of the same size, and the
    uint64 spectra and the booleans they are formed from. The products are
    read out in place. NumPy may give the product's two broadcast operands
    a buffer of getbufsize() uint64 entries each. Packing holds an intp
    index and two (n,) symbol arrays before the sums and the chunk are
    made, less than a chunk's products and buffer."""
    n, t = plan.code.length, plan.t
    planes, symbol = (1, 1) if binary else (plan.code.field.ell, 2)
    _, _, rows, step = _layout(plan, planes)
    chunk = min(step, t)
    return (
        (t + 1) * n * symbol + 2 * n + 8 * n * rows + chunk * n * (16 * rows + 9)
        + 16 * np.getbufsize()
    )


def _group_sums(plan: RepairPlan, codeword: np.ndarray) -> np.ndarray:
    """sums[j, p] = XOR of codeword over group j of coordinate p, for every
    j and p, as a (t, n) array of the codeword's dtype. The seed labels
    are the plan's, made once per plan (RepairPlan._labels).

    Bit b of sums[j] is the parity of the integer convolution of bit plane
    b of the codeword with seed j's indicator. Its transform is the product
    of the two transforms, and transforming twice multiplies by n = 2^k, so
    transforming the product gives n times the convolution. Each convolution
    value is at most the group size, below 2^w, so planes packed w bits apart
    into one uint64 word, in slots i = 0, 1, ..., never carry into the next
    slot: the parity of the plane in slot i is bit k + i*w of the result.
    The arithmetic is modulo 2^64, which keeps every bit below 64 of that
    nonnegative integer exact, so a word holds as many slots as keep
    k + i*w < 64. The packed planes are transformed once; the seeds' spectra
    are formed from their closed form a chunk of seeds at a time, so only
    one chunk's spectra and products is held beside the sums.

    A word of s planes is packed by one gather from the 2^s slot patterns
    (_slot_patterns) and read back by one multiply (_read_out).
    """
    n = codeword.size
    k = n.bit_length() - 1
    planes = int(codeword.max(initial=0)).bit_length()
    if not planes:
        return np.zeros((plan.t, n), dtype=codeword.dtype)
    w, per_word, rows, step = _layout(plan, planes)
    widths = [min(per_word, planes - r * per_word) for r in range(rows)]
    packed = np.empty((rows, n), dtype=np.uint64)
    patterns = _slot_patterns(min(per_word, planes), w)
    for r, s in enumerate(widths):
        # The planes are in range by construction; "clip" keeps np.take
        # from buffering its output.
        slots = (codeword >> r * per_word) & ((1 << s) - 1)
        np.take(patterns, slots, out=packed[r], mode="clip")
    _transform(packed)
    sums = np.empty((plan.t, n), dtype=codeword.dtype)
    product = np.empty((min(step, plan.t), rows, n), dtype=np.uint64)
    for start in range(0, plan.t, step):
        stop = min(start + step, plan.t)
        chunk = product[: stop - start]
        np.multiply(_seed_spectra_chunk(plan, plan._labels, start, stop)[:, None, :], packed, out=chunk)
        _transform(chunk.reshape(-1, n))
        # Planes 0..s-1 are read out in word 0's place, and the others ORed
        # into it at their own bits.
        first = _read_out(chunk[:, 0], k, w, widths[0])
        for r, s in enumerate(widths[1:], 1):
            bits = _read_out(chunk[:, r], k, w, s)
            bits <<= np.uint64(r * per_word)
            first |= bits
        sums[start:stop] = first
    return sums


def _slot_patterns(s: int, w: int) -> np.ndarray:
    """patterns[v] = the uint64 word with bit i of v at bit i*w, for every
    v < 2^s: the packed slots of s planes whose bits at one coordinate are v."""
    values = np.arange(1 << s, dtype=np.uint64)
    patterns = np.zeros(1 << s, dtype=np.uint64)
    for i in range(s):
        patterns |= ((values >> np.uint64(i)) & np.uint64(1)) << np.uint64(i * w)
    return patterns


def _read_out(words: np.ndarray, k: int, w: int, s: int) -> np.ndarray:
    """The s parity bits at k + b*w (b < s) of each uint64 word moved to
    bits 0..s-1, in place, by one multiply; returns words.

    With only those bits kept, the factor sum over b' < s of
    2^(64 - s - k + b' - b'w) sends bit b to 64 - s + b' + (b - b')w for
    each b'. For b' = b that is 64 - s + b, the top s bits. For b > b' it
    is 64 or more, dropped modulo 2^64, because s <= w. For b < b' it is
    below 64 - s, and these terms sum to less than 2^(64 - s), so nothing
    carries into the top s bits: the terms with b' - b = d are distinct
    powers of two below 2^(64 - dw), at most 2^(64 - w) - 2^(65 - s - w)
    for d = 1 and less than 2^(65 - 2w) over every d > 1. The shift then
    brings the top s bits down. s <= w because a word has at most ell
    planes and w is the bit length of h(q - 1) >= q - 1; every exponent is
    nonnegative because k + (s - 1)w < 64 (_layout)."""
    mask = sum(1 << (k + b * w) for b in range(s))
    factor = sum(1 << (64 - s - k + b - b * w) for b in range(s))
    words &= np.uint64(mask)
    words *= np.uint64(factor)
    words >>= np.uint64(64 - s)
    return words


def verify_drgp(plan: RepairPlan, trials: int, rng_seed: int, binary: bool = False) -> dict:
    """Repair every coordinate of random codewords through every group.

    Each trial draws one uniform codeword of C: encode(code, m) + lam * w,
    with m uniform over F_q^len(good), lam uniform in F_q and w the word
    X^(q-1) + Y^(q-1) (code._axes_codeword). encode spans the good
    monomials, which miss w, so this is all of C exactly when
    dimension_slack is 1; any other slack raises InvariantError before the
    first trial. With `binary` each word is mapped through the trace, which
    takes a uniform word of C to a uniform word of the binary code
    tr(C) = C ∩ F_2^n. The repair rule is the XOR sum. Deterministic given
    the seed. Report: code ("F_q" or "binary"), q, h, t, trials, checks,
    failures, seed, with one failure record per (coordinate, group) miss,
    ordered by trial, then group, then coordinate. trials < 1 or a negative
    seed raises UsageError.
    """
    return _verify(plan, trials, rng_seed, binary, fault=False)


def _verify(plan: RepairPlan, trials: int, rng_seed: int, binary: bool, fault: bool) -> dict:
    """verify_drgp, optionally with one corrupted group: with `fault`, member
    min(seed_0) of group 0 of coordinate 0 is read at coordinate 0 instead,
    so that group's sum is off by c[min(seed_0)] ^ c[0]."""
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if rng_seed < 0:
        raise UsageError(f"seed must be >= 0, got {rng_seed}")
    code = plan.code
    if code.dimension_slack != 1:
        raise InvariantError(
            f"dimension slack {code.dimension_slack} != 1: the good monomials and "
            "X^(q-1) + Y^(q-1) do not span the code"
        )
    _guard_bytes("repair check", code.family, _verify_bytes(plan, binary))
    q = code.field.q
    k = len(code.good_monomials)
    axes = _axes_codeword(q)
    rng = np.random.default_rng(rng_seed)
    failures: list[dict] = []
    checks = 0
    for _ in range(trials):
        symbols = rng.integers(0, q, size=k + 1)
        # axes is 0/1, so the integer product lam * axes is the field product.
        c = encode(code, symbols[:k]) ^ int(symbols[k]) * axes
        if binary:
            c = code.field.trace_table()[c]
        sums = _group_sums(plan, c)
        if fault:
            sums[0, 0] ^= c[plan.seeds[0, 0]] ^ c[0]
        checks += sums.size
        # In place, sums ^ c is nonzero exactly at the missed repairs.
        sums ^= c
        if sums.any():
            failures += [
                {"coordinate": int(p), "group": int(j), "expected": int(c[p]), "got": int(sums[j, p] ^ c[p])}
                for j, p in zip(*np.nonzero(sums))
            ]
    return {
        "code": "binary" if binary else "F_q",
        "q": q,
        "h": code.family.subgroup_order,
        "t": plan.t,
        "trials": trials,
        "checks": checks,
        "failures": failures,
        "seed": rng_seed,
    }


def simulate_parallel_reads(
    plan: RepairPlan, codeword: np.ndarray, coordinate: int, k: int
) -> list[int]:
    """k independent recoveries of codeword[coordinate] from disjoint groups.

    Models k simultaneous reads of one symbol that must not share any other
    coordinate (the direct read of the coordinate itself is a separate,
    (k+1)-th access path and is not consumed here).
    """
    t = plan.t
    n = plan.code.length
    if codeword.shape != (n,):
        raise UsageError(f"codeword has shape {codeword.shape}, expected ({n},)")
    if not 1 <= k <= t:
        raise UsageError(f"k={k} reads requested but the code has t={t} groups")
    if not 0 <= coordinate < n:
        raise UsageError(f"coordinate {coordinate} outside [0, {n})")
    values = np.bitwise_xor.reduce(codeword[plan.seeds[:k] ^ coordinate], axis=1).tolist()
    if len(set(values)) != 1:
        raise InvariantError(f"disjoint reads disagree: {values}")
    return values
