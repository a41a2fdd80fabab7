"""Disjoint repair groups: geometry, simulation, and fault sensitivity."""

from __future__ import annotations

import numpy as np
import pytest

from wedgelift import (
    InvariantError,
    MemoryGuardError,
    UsageError,
    build_code,
    build_repair_plan,
    encode,
    make_coset_family,
    make_field,
    simulate_parallel_reads,
    trace_code,
    verify_drgp,
    wedge_point_set,
)
import wedgelift.repair as repair_module
from wedgelift.classify import Wedge
from wedgelift.code import _origin_wedges
from wedgelift.repair import _group_sums

from reference import repair_groups_reference


# ---------------------------------------------------------------------------
# Plan geometry
# ---------------------------------------------------------------------------


def test_plan_shapes(plan16_5, plan64_9, code4_3) -> None:
    assert plan16_5.groups.shape == (3, 256, 75)
    assert plan16_5.t == 3 and plan16_5.group_size == 75
    assert plan64_9.groups.shape == (7, 4096, 567)
    plan4 = build_repair_plan(code4_3)
    assert plan4.groups.shape == (1, 16, 9)


def test_plan_memory_guard_boundary(code16_5, plan16_5, monkeypatch) -> None:
    """The estimate t * q^2 * h(q-1) * 4 bytes is exactly the int32 groups'
    size. One byte below it the plan raises before any work; at it the plan
    is built."""
    estimate = 3 * 256 * 75 * 4
    assert plan16_5.groups.nbytes == estimate
    monkeypatch.setattr(repair_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    plan = build_repair_plan(code16_5)
    assert np.array_equal(plan.groups, plan16_5.groups)

    def unreachable(family):
        raise AssertionError("the guard must fire before the seeds are built")

    monkeypatch.setattr(repair_module, "_origin_wedges", unreachable)
    monkeypatch.setattr(repair_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    message = f"repair plan for q=16, t=3 needs ~{estimate} bytes"
    with pytest.raises(MemoryGuardError, match=message):
        build_repair_plan(code16_5)


def test_plan_guard_refuses_q256() -> None:
    """At q = 256, h = 255 the groups would take 65 536 * 65 025 * 4 bytes,
    about 17 GB: the default guard refuses them. Only the guard is called,
    so no plan is ever attempted."""
    family = make_coset_family(make_field(8), 255)
    with pytest.raises(MemoryGuardError, match="needs ~17045913600 bytes"):
        repair_module._guard_plan(family)


def test_groups_match_wedge_point_sets(plan16_5) -> None:
    code = plan16_5.code
    spec = code.field
    q = 16
    for p in [0, 37, 255, 130]:
        x, y = divmod(p, q)
        for j, coset in enumerate(code.family.cosets):
            pts = wedge_point_set(spec, Wedge(coset, (x, y)))
            expected = sorted(u * q + v for (u, v) in pts if (u, v) != (x, y))
            assert plan16_5.groups[j, p].tolist() == expected


def test_groups_disjoint_and_cover(plan16_5) -> None:
    q = 16
    for p in range(256):
        all_indices = plan16_5.groups[:, p, :].ravel()
        assert len(set(all_indices.tolist())) == all_indices.size
        assert p not in all_indices
        # Union of the t groups plus the coordinate: t*h*(q-1) + 1 points.
        assert all_indices.size + 1 == 3 * 5 * (q - 1) + 1 == 226


@pytest.mark.parametrize("name", ["code4_3", "code16_5", "code16_15", "q32h31", "code64_9"])
def test_groups_equal_wedge_by_wedge_reference(name, request) -> None:
    """Groups translated from the t origin wedges equal, in values and dtype,
    the groups built per (coset, x, alpha), whose every coordinate the
    reference checks for disjointness."""
    if name == "q32h31":
        code = build_code(make_coset_family(make_field(5), 31))
    else:
        code = request.getfixturevalue(name)
    groups = build_repair_plan(code).groups
    reference = repair_groups_reference(code)
    assert groups.dtype == reference.dtype
    assert np.array_equal(groups, reference)


def _overlapping_seeds(family):
    seeds = _origin_wedges(family)
    seeds[1, 5] = seeds[0, 5]
    return seeds


def _seeds_holding_the_origin(family):
    seeds = _origin_wedges(family)
    seeds[2, 3] = 0
    return seeds


@pytest.mark.parametrize(
    "faulty,message",
    [(_overlapping_seeds, "not disjoint"), (_seeds_holding_the_origin, "its own coordinate")],
    ids=["overlap", "own"],
)
def test_seed_fault_makes_the_plan_raise(code16_5, monkeypatch, faulty, message) -> None:
    """The plan checks only the t origin wedges; a fault there is a fault in
    the groups of every coordinate, and raises."""
    monkeypatch.setattr(repair_module, "_origin_wedges", faulty)
    with pytest.raises(InvariantError, match=message):
        build_repair_plan(code16_5)


def test_groups_are_sorted_and_readonly(plan16_5) -> None:
    assert (np.diff(plan16_5.groups, axis=2) > 0).all()
    with pytest.raises(ValueError):
        plan16_5.groups[0, 0, 0] = 1


# ---------------------------------------------------------------------------
# Repair verification over F_q
# ---------------------------------------------------------------------------


def test_verify_gf16_hundred_trials(plan16_5) -> None:
    report = verify_drgp(plan16_5, trials=100, rng_seed=0)
    assert report == {
        "q": 16,
        "h": 5,
        "t": 3,
        "trials": 100,
        "checks": 100 * 3 * 256,
        "failures": [],
        "seed": 0,
    }


def test_verify_is_deterministic(plan16_5) -> None:
    r1 = verify_drgp(plan16_5, trials=5, rng_seed=42)
    r2 = verify_drgp(plan16_5, trials=5, rng_seed=42)
    assert r1 == r2


def test_verify_gf64(plan64_9) -> None:
    report = verify_drgp(plan64_9, trials=100, rng_seed=7)
    assert report["checks"] == 100 * 7 * 4096
    assert report["failures"] == []


def test_verify_rejects_zero_trials(plan16_5) -> None:
    with pytest.raises(UsageError):
        verify_drgp(plan16_5, trials=0, rng_seed=0)


def test_every_group_repairs_a_fixed_codeword(plan16_5, rng) -> None:
    code = plan16_5.code
    msg = rng.integers(0, 16, size=len(code.good_monomials))
    c = encode(code, msg)
    for j in range(3):
        assert np.array_equal(_group_sums(plan16_5, c, j), c)


# ---------------------------------------------------------------------------
# Repair verification over GF(2)
# ---------------------------------------------------------------------------


def test_verify_binary_gf16(plan16_5, trace16_5) -> None:
    report = verify_drgp(plan16_5, trials=100, rng_seed=3, binary=trace16_5)
    assert report["failures"] == []
    assert report["checks"] == 100 * 3 * 256


def test_verify_binary_gf64(plan64_9, trace64_9) -> None:
    report = verify_drgp(plan64_9, trials=100, rng_seed=5, binary=trace64_9)
    assert report["failures"] == []
    assert report["checks"] == 100 * 7 * 4096


def test_binary_zero_codeword_trivially_repairs(plan16_5, trace16_5) -> None:
    c = np.zeros(256, dtype=np.uint8)
    for j in range(3):
        assert (_group_sums(plan16_5, c, j) == 0).all()


# ---------------------------------------------------------------------------
# Fault sensitivity: a corrupted word must be detected
# ---------------------------------------------------------------------------


def test_tampered_codeword_fails_verification(plan16_5, rng) -> None:
    code = plan16_5.code
    msg = rng.integers(0, 16, size=len(code.good_monomials))
    c = encode(code, msg)
    c = c.copy()
    c[100] ^= 1  # not a codeword anymore
    hit = 0
    for j in range(3):
        sums = _group_sums(plan16_5, c, j)
        hit += int((sums != c).sum())
    # Coordinate 100 now disagrees with all of its own groups, and it sits in
    # other coordinates' groups, so at least 3 + 3*75 checks cannot all pass.
    assert hit >= 3


# ---------------------------------------------------------------------------
# Parallel reads
# ---------------------------------------------------------------------------


def test_parallel_reads_agree(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    for p in [0, 99, 255]:
        for k in (1, 2, 3):
            values = simulate_parallel_reads(plan16_5, c, p, k)
            assert values == [int(c[p])] * k


def test_parallel_reads_bounds(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    with pytest.raises(UsageError, match="t=3"):
        simulate_parallel_reads(plan16_5, c, 0, 4)
    with pytest.raises(UsageError):
        simulate_parallel_reads(plan16_5, c, 0, 0)
    with pytest.raises(UsageError):
        simulate_parallel_reads(plan16_5, c, 256, 1)


def test_parallel_reads_survive_erasures(plan16_5, rng) -> None:
    """Erase the coordinate and an entire one of its repair groups; the
    remaining groups still recover the value (disjointness in action)."""
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    p = 123
    true_value = int(c[p])
    damaged = c.copy()
    damaged[p] = 0  # erased
    for idx in plan16_5.groups[2, p]:  # wipe the entire last group
        damaged[idx] = 15
    values = simulate_parallel_reads(plan16_5, damaged, p, 2)  # groups 0 and 1
    assert values == [true_value, true_value]


def test_parallel_reads_detect_disagreement(plan16_5, rng) -> None:
    code = plan16_5.code
    c = encode(code, rng.integers(0, 16, size=len(code.good_monomials)))
    damaged = c.copy()
    damaged[int(plan16_5.groups[0, 7, 0])] ^= 5  # corrupt one read path of p=7
    with pytest.raises(InvariantError, match="disagree"):
        simulate_parallel_reads(plan16_5, damaged, 7, 3)


def test_single_group_family(code4_3, rng) -> None:
    plan = build_repair_plan(code4_3)
    report = verify_drgp(plan, trials=100, rng_seed=9)
    assert report["t"] == 1
    assert report["failures"] == []
    report2 = verify_drgp(plan, trials=100, rng_seed=9, binary=trace_code(code4_3))
    assert report2["failures"] == []
    c = encode(code4_3, rng.integers(0, 4, size=9))
    assert simulate_parallel_reads(plan, c, 5, 1) == [int(c[5])]


def test_full_group_family_gf16(code16_15) -> None:
    # h = q-1: one coset covering F_q^x, one repair group of size 225.
    plan = build_repair_plan(code16_15)
    assert plan.groups.shape == (1, 256, 225)
    report = verify_drgp(plan, trials=100, rng_seed=13)
    assert report["failures"] == [] and report["checks"] == 100 * 256
    report2 = verify_drgp(plan, trials=100, rng_seed=13, binary=trace_code(code16_15))
    assert report2["failures"] == []
