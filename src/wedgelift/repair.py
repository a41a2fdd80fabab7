"""Per-coordinate disjoint repair groups and erasure-repair simulation.

For a coordinate p and coset C, the repair group is the wedge point set at p
minus p itself: summing a codeword over it recovers the symbol at p, because
the wedge parity check says the full point-set sum is zero and the
characteristic is 2. Distinct cosets give disjoint groups — non-parallel lines
through p meet only at p — so each coordinate has t independent repair sets,
which is also what serves parallel (multi-server read) access patterns. Every
group is the same coset's group at the origin moved by p, so the plan is
built, and its disjointness checked, from the t groups at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import (
    DEFAULT_MEMORY_GUARD_BYTES,
    BinaryTraceCode,
    WedgeLiftedCode,
    _origin_wedges,
    encode,
)
from .errors import InvariantError, MemoryGuardError, UsageError
from .field import CosetFamily


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


def _guard_plan(family: CosetFamily) -> None:
    """The plan's int32 groups take t * q^2 * h(q-1) * 4 bytes, about 4 q^4:
    62 MB at q64h9 and 17 GB at q = 256."""
    q = family.q
    estimated = family.t * q * q * family.subgroup_order * (q - 1) * 4
    if estimated > DEFAULT_MEMORY_GUARD_BYTES:
        raise MemoryGuardError(
            f"repair plan for q={q}, t={family.t} needs ~{estimated} bytes "
            f"(guard {DEFAULT_MEMORY_GUARD_BYTES})"
        )


def build_repair_plan(code: WedgeLiftedCode) -> RepairPlan:
    """Construct all t groups for all q^2 coordinates and assert that they
    are disjoint (an internal invariant that must never fire). Raises
    MemoryGuardError before allocating when the groups would exceed
    DEFAULT_MEMORY_GUARD_BYTES.

    Group j of coordinate p is coset j's wedge at the origin minus the
    origin, moved by the translation j -> j ^ p. That translation is a
    permutation that maps 0 to p, so the groups of every p are disjoint and
    miss p exactly when the t origin wedges, without the origin, are
    disjoint and miss 0: checking those t seeds checks all n coordinates.
    """
    _guard_plan(code.family)
    seeds = _origin_wedges(code.family)[:, 1:].astype(np.int32)
    if (seeds == 0).any():
        raise InvariantError("a repair group contains its own coordinate")
    merged = np.sort(seeds, axis=None)
    if (merged[1:] == merged[:-1]).any():
        raise InvariantError("repair groups of a coordinate are not disjoint")
    groups = seeds[:, None, :] ^ np.arange(code.length, dtype=np.int32)[:, None]
    groups.sort(axis=2)
    groups.setflags(write=False)
    return RepairPlan(code=code, groups=groups)


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
