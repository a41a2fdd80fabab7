"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test rebuilds what it measures (no shared fixtures), times itself
against the stated budget, prints `ACCEPTANCE <n> <PASS|FAIL> ...` even under
pytest capture, and only then asserts.

Criterion 5 checks rank redundancy against t*sqrt(N) with the paper's
t = N^(1/(2d)) = 2^ell' = (q-1)/h + 1, one more than the coset count
`family.t` = (q-1)/h. Every bad monomial X^aY^b has b - i = k*h for a submask
i of a&b and one of the (q-1)/h + 1 values k = 0..(q-1)/h, each admitting at
most q monomials, so bad <= ((q-1)/h + 1)*q, and the measured redundancy is
bad - 1. The product `family.t * q` with the coset count is no bound (30 > 16
at q=16, h=15); it is printed, never asserted, as `classify` prints
`naive_bound`. The measured redundancies 48/30/342 are pinned exactly.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from wedgelift import (
    build_code,
    build_repair_plan,
    count_bad,
    count_bad_closed_form,
    is_bad_coset_criterion,
    is_good_oracle,
    make_coset_family,
    make_field,
    plan_dyadic_parameters,
    redundancy_exponent,
    trace_code,
    verify_drgp,
)
from wedgelift.classify import Monomial

from reference import subgroup_power_sum, traced_span


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}")


def test_acceptance_1_exact_bad_counts(capsys) -> None:
    start = time.perf_counter()
    cases = [
        (4, 5, 2, 2, 49),
        (6, 9, 3, 2, 343),
        (6, 21, 2, 3, 225),
    ]
    results = []
    for ell, h, ell_prime, d, expected in cases:
        family = make_coset_family(make_field(ell), h)
        enumerated = count_bad(family)  # exhaustive over all q^2 monomials
        closed = count_bad_closed_form(ell_prime, d)
        results.append((enumerated, closed, expected))
    elapsed = time.perf_counter() - start
    ok = all(e == c == x for e, c, x in results) and elapsed < 5.0
    announce(
        capsys, 1, ok,
        f"exact bad-monomial counts {'/'.join(str(r[0]) for r in results)} "
        f"(expected 49/343/225, closed form agrees) in {elapsed:.2f}s < 5s",
    )
    assert [r[0] for r in results] == [49, 343, 225]
    assert [r[1] for r in results] == [49, 343, 225]
    assert elapsed < 5.0


def test_acceptance_2_oracle_equivalence(capsys) -> None:
    disagreements = 0
    total = 0
    elapsed_q16 = 0.0
    for ell in (2, 3, 4):
        spec = make_field(ell)
        q = spec.q
        start = time.perf_counter()
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            family = make_coset_family(spec, h)
            for a in range(q):
                for b in range(q):
                    m = Monomial(a, b)
                    total += 1
                    if is_good_oracle(family, m) == is_bad_coset_criterion(m, h, ell):
                        disagreements += 1
        if ell == 4:
            elapsed_q16 = time.perf_counter() - start
    ok = disagreements == 0 and elapsed_q16 < 120.0
    announce(
        capsys, 2, ok,
        f"oracle == coset criterion on {total} (family, monomial) pairs at "
        f"q in {{4,8,16}}, {disagreements} disagreements; q=16 portion "
        f"{elapsed_q16:.2f}s < 120s",
    )
    assert disagreements == 0
    assert elapsed_q16 < 120.0


def test_acceptance_3_binary_redundancy_bound(capsys) -> None:
    start = time.perf_counter()
    family = make_coset_family(make_field(4), 5)  # ell'=2, d=2: N=256, t=4
    code = build_code(family)
    binary = trace_code(code)
    n = code.length
    binary_redundancy = n - binary.binary_dimension  # via GF(2) rank
    # sqrt(N) * t^log2(2 - 2^-d) with t = 4, d = 2 is exactly 16 * (7/4)^2.
    bound = 16 * Fraction(7, 4) ** 2
    # tr(C) by its definition: the GF(2) rank of tr(2^j * g) over the kernel.
    traced_rank = len(traced_span(code))
    elapsed = time.perf_counter() - start
    ok = (
        bound == 49
        and binary_redundancy <= bound
        and binary.binary_dimension == traced_rank
        and elapsed < 60.0
    )
    announce(
        capsys, 3, ok,
        f"binary trace redundancy {binary_redundancy} <= 49 = sqrt(N)*t^log2(2-2^-d) "
        f"at N=256, t=4; binary dimension {binary.binary_dimension} == GF(2) rank "
        f"{traced_rank} of the traced span tr(2^j*g) in {elapsed:.2f}s < 60s",
    )
    assert bound == 49
    assert binary_redundancy <= 49
    assert binary.binary_dimension == traced_rank
    assert elapsed < 60.0


def test_acceptance_4_drgp_simulation(capsys) -> None:
    start = time.perf_counter()
    family = make_coset_family(make_field(4), 5)
    code = build_code(family)
    plan = build_repair_plan(code)  # asserts pairwise disjointness internally
    groups = [[plan.group(j, p) for j in range(plan.t)] for p in range(256)]
    shape_ok = plan.t == 3 and all(g.shape == (75,) for gs in groups for g in gs)
    disjoint_ok = all(
        len(set(np.concatenate(gs).tolist())) == 3 * 75 and p not in np.concatenate(gs)
        for p, gs in enumerate(groups)
    )
    report_q = verify_drgp(plan, trials=100, rng_seed=0)
    report_2 = verify_drgp(plan, trials=100, rng_seed=1, binary=True)
    elapsed = time.perf_counter() - start
    ok = (
        shape_ok
        and disjoint_ok
        and not report_q["failures"]
        and not report_2["failures"]
        and report_q["checks"] == report_2["checks"] == 100 * 3 * 256
        and elapsed < 60.0
    )
    announce(
        capsys, 4, ok,
        f"q=16 h=5: 3 disjoint repair groups of size 75 per coordinate; "
        f"{report_q['checks']} F_q checks and {report_2['checks']} binary checks, "
        f"{len(report_q['failures']) + len(report_2['failures'])} failures "
        f"in {elapsed:.2f}s < 60s",
    )
    assert shape_ok and disjoint_ok
    assert report_q["failures"] == [] and report_2["failures"] == []
    assert elapsed < 60.0


def test_acceptance_5_rank_redundancy_vs_naive_bound(capsys) -> None:
    start = time.perf_counter()
    cases = [(4, 5), (4, 15), (6, 9)]
    rows = []
    for ell, h in cases:
        spec = make_field(ell)
        family = make_coset_family(spec, h)
        code = build_code(family, dimension_only=True)
        t = (spec.q - 1) // h + 1  # N^(1/(2d)) = 2^ell', not the coset count
        bound = t * spec.q  # t * sqrt(N)
        naive = family.t * spec.q  # coset count * sqrt(N): reported only
        rows.append((spec.q, h, code.redundancy, bound, naive))
    elapsed = time.perf_counter() - start
    redundancies = [red for (_, _, red, _, _) in rows]
    ok = (
        redundancies == [48, 30, 342]
        and all(red <= bound for (_, _, red, bound, _) in rows)
        and elapsed < 600.0
    )
    detail = "; ".join(
        f"q{q}h{h} {red}<={bound} (coset-count product {naive})"
        for (q, h, red, bound, naive) in rows
    )
    announce(
        capsys, 5, ok,
        f"rank redundancy vs t*sqrt(N) with t = (q-1)/h + 1 = N^(1/(2d)): {detail}; "
        f"expected 48/30/342 in {elapsed:.2f}s < 600s",
    )
    assert elapsed < 600.0
    assert redundancies == [48, 30, 342]
    assert [bound for (_, _, _, bound, _) in rows] == [64, 32, 512]
    for (q, h, red, bound, _) in rows:
        assert red <= bound, (
            f"q={q} h={h}: measured redundancy {red} exceeds t*sqrt(N)={bound}"
        )


def test_acceptance_6_figure_exponents(capsys) -> None:
    targets = {2: 0.702, 3: 0.651, 4: 0.619}
    deltas = {d: abs(redundancy_exponent(d) - v) for d, v in targets.items()}
    ok = all(delta <= 5e-4 for delta in deltas.values())
    announce(
        capsys, 6, ok,
        "redundancy exponents " +
        ", ".join(f"d={d}: {redundancy_exponent(d):.4f} (ref {v})" for d, v in targets.items()) +
        " all within 0.0005",
    )
    for d, delta in deltas.items():
        assert delta <= 5e-4, (d, delta)


def test_acceptance_7_power_sum_case_split(capsys) -> None:
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for ell in (4, 6):
        spec = make_field(ell)
        q = spec.q
        for h in [d for d in range(1, q) if (q - 1) % d == 0]:
            family = make_coset_family(spec, h)
            for n in range(0, 2 * (q - 1) + 1):
                value = subgroup_power_sum(spec, family.subgroup, n)
                expected = (h & 1) if n % h == 0 else 0
                checked += 1
                if value != expected:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    announce(
        capsys, 7, ok,
        f"subgroup power sums match the case split on {checked} (h, n) pairs "
        f"over GF(16) and GF(64), {mismatches} mismatches in {elapsed:.2f}s",
    )
    assert mismatches == 0


def test_acceptance_8_parameter_planner(capsys) -> None:
    ell_a, h_a, t_a = plan_dyadic_parameters(1, 1, 2)  # alpha = 1/4, n = 2
    ell_b, h_b, t_b = plan_dyadic_parameters(1, 1, 3)  # alpha = 1/4, n = 3
    named_ok = (1 << ell_a, h_a, t_a) == (16, 5, 3) and (
        1 << ell_b, h_b, t_b
    ) == (64, 9, 7)
    rng = np.random.default_rng(88)
    divisibility_failures = 0
    tried = 0
    while tried < 50:
        b_exp = int(rng.integers(1, 4))
        a_num = int(rng.integers(1, 1 << b_exp))
        n = int(rng.integers(1, 7))
        if (1 << b_exp) * n > 24:
            continue
        tried += 1
        ell, h, t = plan_dyadic_parameters(a_num, b_exp, n)
        if ((1 << ell) - 1) % h != 0 or h * t != (1 << ell) - 1:
            divisibility_failures += 1
    ok = named_ok and divisibility_failures == 0
    announce(
        capsys, 8, ok,
        f"planner emits (q,h,t)=(16,5,3) and (64,9,7) at alpha=1/4; "
        f"h | q-1 on {tried} randomized dyadic inputs, "
        f"{divisibility_failures} failures",
    )
    assert named_ok
    assert divisibility_failures == 0
