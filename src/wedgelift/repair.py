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
Walsh–Hadamard transforms instead of gathering every group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import WedgeLiftedCode, _axes_codeword, _origin_wedges, encode
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


def _seed_spectra(plan: RepairPlan) -> np.ndarray:
    """The transforms of the t seed indicators, (t, n) uint64."""
    n = plan.code.length
    spectra = np.zeros((plan.t, n), dtype=np.uint64)
    spectra[np.arange(plan.t)[:, None], plan.seeds] = 1
    step = max(1, BATCH_BYTES // (8 * n))
    for start in range(0, plan.t, step):
        _transform(spectra[start : start + step])
    return spectra


def _group_sums(plan: RepairPlan, spectra: np.ndarray, codeword: np.ndarray) -> np.ndarray:
    """sums[j, p] = XOR of codeword over group j of coordinate p, for every
    j and p, as a (t, n) array of the codeword's dtype.

    Bit b of sums[j] is the parity of the integer convolution of bit plane
    b of the codeword with seed j's indicator. Its transform is the product
    of the two transforms, and transforming twice multiplies by n = 2^k, so
    transforming the product gives n times the convolution. Each convolution
    value is at most the group size, below 2^w, so planes packed w bits apart
    into one uint64 word, in slots i = 0, 1, ..., never carry into the next
    slot: the parity of the plane in slot i is bit k + i*w of the result.
    The arithmetic is modulo 2^64, which keeps every bit below 64 of that
    nonnegative integer exact, so a word holds as many slots as keep
    k + i*w < 64.
    """
    n = codeword.size
    k = n.bit_length() - 1
    w = plan.group_size.bit_length()
    planes = int(codeword.max(initial=0)).bit_length()
    per_word = (63 - k) // w + 1
    packed = np.zeros((-(-planes // per_word), n), dtype=np.uint64)
    for b in range(planes):
        plane = (codeword >> b) & 1
        packed[b // per_word] |= plane.astype(np.uint64) << np.uint64(b % per_word * w)
    _transform(packed)
    sums = np.zeros((plan.t, n), dtype=codeword.dtype)
    step = max(1, BATCH_BYTES // (8 * n * max(len(packed), 1)))
    for start in range(0, plan.t, step):
        product = spectra[start : start + step, None, :] * packed
        _transform(product.reshape(-1, n))
        chunk = sums[start : start + step]
        for b in range(planes):
            shift = np.uint64(k + b % per_word * w)
            bit = (product[:, b // per_word] >> shift) & np.uint64(1)
            chunk |= bit.astype(codeword.dtype) << b
    return sums


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
    q = code.field.q
    k = len(code.good_monomials)
    axes = _axes_codeword(q)
    rng = np.random.default_rng(rng_seed)
    spectra = _seed_spectra(plan)
    failures: list[dict] = []
    checks = 0
    for _ in range(trials):
        symbols = rng.integers(0, q, size=k + 1)
        # axes is 0/1, so the integer product lam * axes is the field product.
        c = encode(code, symbols[:k]) ^ int(symbols[k]) * axes
        if binary:
            c = code.field.trace_table()[c]
        sums = _group_sums(plan, spectra, c)
        if fault:
            sums[0, 0] ^= c[plan.seeds[0, 0]] ^ c[0]
        checks += sums.size
        for j, p in zip(*np.nonzero(sums != c)):
            failures.append(
                {
                    "coordinate": int(p),
                    "group": int(j),
                    "expected": int(c[p]),
                    "got": int(sums[j, p]),
                }
            )
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
    if not 1 <= k <= t:
        raise UsageError(f"k={k} reads requested but the code has t={t} groups")
    if not 0 <= coordinate < plan.code.length:
        raise UsageError(f"coordinate {coordinate} outside [0, {plan.code.length})")
    values = np.bitwise_xor.reduce(codeword[plan.seeds[:k] ^ coordinate], axis=1).tolist()
    if len(set(values)) != 1:
        raise InvariantError(f"disjoint reads disagree: {values}")
    return values
