"""Per-coordinate disjoint repair groups and erasure-repair simulation.

For a coordinate p and coset C, the repair group is the wedge point set at p
minus p itself: summing a codeword over it recovers the symbol at p, because
the wedge parity check says the full point-set sum is zero and the
characteristic is 2. Distinct cosets give disjoint groups — non-parallel lines
through p meet only at p — so each coordinate has t independent repair sets,
which is also what serves parallel (multi-server read) access patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import BinaryTraceCode, WedgeLiftedCode, encode
from .errors import InvariantError, UsageError
from .linalg import BATCH_BYTES


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """groups[j, p] = sorted indices of repair group j for coordinate p,
    shape (t, q^2, h*(q-1))."""

    code: WedgeLiftedCode
    groups: np.ndarray

    @property
    def t(self) -> int:
        return self.groups.shape[0]

    @property
    def group_size(self) -> int:
        return self.groups.shape[2]


def build_repair_plan(code: WedgeLiftedCode) -> RepairPlan:
    """Construct all t groups for all q^2 coordinates and assert disjointness
    exhaustively (an internal invariant that must never fire)."""
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
    _check_disjoint(groups)
    groups.setflags(write=False)
    return RepairPlan(code=code, groups=groups)


def _check_disjoint(groups: np.ndarray) -> None:
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


def _group_sums(plan: RepairPlan, codeword: np.ndarray, j: int) -> np.ndarray:
    return np.bitwise_xor.reduce(codeword[plan.groups[j]], axis=1)


def verify_drgp(
    plan: RepairPlan,
    trials: int,
    rng_seed: int,
    binary: BinaryTraceCode | None = None,
) -> dict:
    """Repair every coordinate of random codewords through every group.

    With `binary`, random GF(2) codewords of the trace code are used and the
    repair rule is the XOR sum; otherwise random F_q codewords via encode.
    Deterministic given the seed. Report: q, h, t, trials, checks, failures,
    seed, with one failure record per (coordinate, group) miss.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    code = plan.code
    q = code.field.q
    rng = np.random.default_rng(rng_seed)
    if binary is not None:
        gen2 = binary.generator_matrix()
    failures: list[dict] = []
    checks = 0
    for _ in range(trials):
        if binary is None:
            message = rng.integers(0, q, size=len(code.good_monomials))
            c = encode(code, message)
        else:
            coeffs = rng.integers(0, 2, size=binary.binary_dimension)
            c = np.bitwise_xor.reduce(gen2[coeffs == 1], axis=0) if coeffs.any() else np.zeros(code.length, dtype=np.uint8)
        for j in range(plan.t):
            sums = _group_sums(plan, c, j)
            checks += sums.size
            for p in np.nonzero(sums != c)[0]:
                failures.append(
                    {
                        "coordinate": int(p),
                        "group": int(j),
                        "expected": int(c[p]),
                        "got": int(sums[p]),
                    }
                )
    return {
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
    values = [
        int(np.bitwise_xor.reduce(codeword[plan.groups[j, coordinate]]))
        for j in range(k)
    ]
    if len(set(values)) != 1:
        raise InvariantError(f"disjoint reads disagree: {values}")
    return values
