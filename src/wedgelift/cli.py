"""Command-line front end: classify, build, verify, table, plan.

Exit codes: 0 success, 1 verification/agreement failure, 2 usage error,
3 resource guard tripped. Every command is deterministic given its flags and
seed; files are written atomically so re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import classify as _classify
from . import code as _code
from . import repair as _repair
from ._io import atomic_write_text
from .errors import MemoryGuardError, ResourceGuardError, UsageError
from .field import make_coset_family, make_field, plan_dyadic_parameters


def _resolve(args: argparse.Namespace) -> tuple[int, int, int | None, int | None]:
    """(ell, subgroup_order, ell_prime, d) from exactly one of the parameter
    pairs (ell, subgroup_order) or (ell_prime, d); the block form fills in
    both views, the direct form leaves ell_prime and d None."""
    by_order = args.ell is not None or args.subgroup_order is not None
    by_block = args.ell_prime is not None or args.d is not None
    if by_order == by_block:
        raise UsageError(
            "give exactly one parameter pair: --ell with --subgroup-order, "
            "or --ell-prime with --d"
        )
    if by_order:
        if args.ell is None or args.subgroup_order is None:
            raise UsageError("--ell and --subgroup-order must be given together")
        return args.ell, args.subgroup_order, None, None
    if args.ell_prime is None or args.d is None:
        raise UsageError("--ell-prime and --d must be given together")
    ell_prime, d = args.ell_prime, args.d
    if ell_prime < 1 or d < 1:
        raise UsageError("--ell-prime and --d must be positive")
    ell = ell_prime * d
    return ell, ((1 << ell) - 1) // ((1 << ell_prime) - 1), ell_prime, d


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_classify(args: argparse.Namespace) -> int:
    ell, h, ell_prime, d = _resolve(args)
    family = make_coset_family(make_field(ell), h)
    q, t = family.q, family.t
    bad = _classify.classification(family, ell_prime, d)
    exact = int(bad.sum())
    csv_path = _out_path(args.out_dir, f"classify_q{q}_h{h}.csv")
    criterion = "coset" if ell_prime is None else "block"
    _classify.write_classification_csv(csv_path, bad, criterion)

    parts = [f"q={q}", f"h={h}", f"t={t}", f"bad={exact}", f"bad_bound={_classify.bad_bound(q, h)}"]
    status = 0
    if ell_prime is not None:
        closed = _classify.count_bad_closed_form(ell_prime, d)
        parts.append(f"closed_form={closed}")
        if closed != exact:
            status = 1

    # Cross-check the criterion against the exhaustive oracle whenever the
    # whole sweep fits the budget of table reads (by default every family
    # with q <= 256, and none with q >= 512). The cost is checked first, so
    # that a refused sweep never allocates the (q^2, 2) monomial array
    # (268 MB at q = 4096).
    sweep_cost = _classify.oracle_cost(family) * q * q
    if sweep_cost <= args.budget:
        monomials = np.indices((q, q)).reshape(2, -1).T
        good = _classify.oracle_good_mask(family, monomials, args.budget)
        mismatches = int(np.count_nonzero(good != ~bad.ravel()))
        parts.append(f"oracle_disagreements={mismatches}")
        if mismatches:
            status = 1
    else:
        parts.append("oracle=skipped-budget")
    parts.append(f"csv={csv_path}")
    print(" ".join(parts))
    return status


def cmd_build(args: argparse.Namespace) -> int:
    ell, h, _, _ = _resolve(args)
    if args.binary and args.dimension_only:
        raise UsageError("--binary needs the kernel of a full build; drop --dimension-only")
    family = make_coset_family(make_field(ell), h)
    q, t = family.q, family.t
    try:
        code = _code.build_code(family, dimension_only=args.dimension_only)
        binary = _code.trace_code(code) if args.binary else None
        good = len(code.good_monomials)
        # (file, writer, row chunks, rows, largest entry), written a chunk of
        # rows at a time; their bytes are charged before any output.
        exports = [] if args.dimension_only else [
            ("generator", _code.export_matrix, code.generator_chunks(), good, q - 1),
            ("parity", _code.export_packed, [code.parity_rows], code.redundancy, 1),
        ]
        if binary is not None:
            exports.append(("binary_generator", _code.export_packed, binary.generator_chunks(),
                            binary.binary_dimension, 1))
        size = sum(_code._export_bytes((rows, code.length), q, top) for *_, rows, top in exports)
        _code._guard_bytes("export", family, size, _code.FULL_BUILD_HINT)
    except MemoryGuardError as exc:
        if args.dimension_only:
            raise
        # The library's advice names a keyword argument; the CLI names its flag.
        message = str(exc).removesuffix(_code.FULL_BUILD_HINT)
        raise MemoryGuardError(message + "; rerun with --dimension-only") from None
    print(
        f"N={code.length} q={q} h={h} t={t} good={good} bad={q * q - good} "
        f"dimension={code.exact_dimension} redundancy={code.redundancy}"
    )
    _code.write_descriptor(_out_path(args.out_dir, f"descriptor_q{q}_h{h}.json"), code)
    for name, export, chunks, rows, _ in exports:
        export(_out_path(args.out_dir, f"{name}_q{q}_h{h}.txt"), chunks, (rows, code.length), q)
    if binary is not None:
        print(
            f"binary_dimension={binary.binary_dimension} "
            f"binary_redundancy={code.length - binary.binary_dimension}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ell, h, _, _ = _resolve(args)
    family = make_coset_family(make_field(ell), h)
    q = family.q
    # Repair needs only the good monomials and the groups: binary words are
    # traces of F_q words, so no kernel (and no full build) is needed.
    code = _code.build_code(family, dimension_only=True)
    plan = _repair.build_repair_plan(code)

    status = 0
    for binary in [False, True] if args.binary else [False]:
        report = _repair._verify(plan, args.trials, args.seed, binary, args.inject_fault)
        name = f"verify_binary_q{q}_h{h}.json" if binary else f"verify_q{q}_h{h}.json"
        atomic_write_text(_out_path(args.out_dir, name), json.dumps(report, indent=2) + "\n")
        label = "binary" if binary else f"q={q} h={h} t={plan.t} trials={report['trials']}"
        print(f"{label} checks={report['checks']} failures={len(report['failures'])}")
        if report["failures"]:
            status = 1

    if status == 0:
        rng = np.random.default_rng(args.seed)
        message = rng.integers(0, q, size=len(code.good_monomials))
        values = _repair.simulate_parallel_reads(
            plan, _code.encode(code, message), coordinate=0, k=plan.t
        )
        print(f"parallel_reads coordinate=0 k={plan.t} value={values[0]} agree=yes")
    return status


def cmd_table(args: argparse.Namespace) -> int:
    print("d alpha exponent baseline")
    reference = {2: "0.702", 3: "0.651", 4: "0.619"}
    for d in range(1, 11):
        alpha = 1.0 / (2.0 * d)
        exponent = _code.redundancy_exponent(d)
        line = f"{d} {alpha:.4f} {exponent:.4f} {0.5 + alpha:.4f}"
        if d in reference:
            line += f" ref={reference[d]}"
        print(line)
    print("# limit: exponent -> 0.5000 as d -> infinity")
    print(
        "# reference constants: lower bound 0.500; prior constructions 0.714 "
        "(t=N^1/4) and 0.792 (t=N^1/2); the t*sqrt(N) bound at t=N^1/4 gives 0.750"
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    ell, h, t = plan_dyadic_parameters(args.a_num, args.b_exp, args.n)
    q = 1 << ell
    # plan_dyadic_parameters raises unless h divides q - 1.
    print(
        f"alpha={(1 - args.a_num / (1 << args.b_exp)) / 2:.4f} ell={ell} q={q} "
        f"h={h} t={t} h_divides_q_minus_1=yes "
        f"redundancy_bound={_classify.bad_bound(q, h)}"
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse makes a help formatter,
    which reads the terminal size, for each argument it adds. Each
    subcommand runs the module's cmd_<command>, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="wedgelift",
        description="Wedge-lifted codes over GF(2^ell): classification, "
        "construction, and repair verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--ell", type=int, help="field exponent: q = 2^ell")
    params.add_argument("--subgroup-order", type=int, help="order h of the slope subgroup")
    params.add_argument("--ell-prime", type=int, help="block width (with --d)")
    params.add_argument("--d", type=int, help="block count (with --ell-prime)")
    params.add_argument("--out-dir", default=".", help="directory for output files")

    p = sub.add_parser("classify", parents=[params], help="classify all monomials")
    p.add_argument("--budget", type=int, default=_classify.DEFAULT_ORACLE_BUDGET,
                   help="table-read budget for the oracle cross-check")

    p = sub.add_parser("build", parents=[params], help="build the code and export it")
    p.add_argument("--binary", action="store_true", help="also build the trace code")
    p.add_argument("--dimension-only", action="store_true",
                   help="skip matrix materialization; compute the dimension only")

    p = sub.add_parser("verify", parents=[params], help="verify disjoint repair groups")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--trials", type=int, default=100, help="random codewords to test")
    p.add_argument("--binary", action="store_true", help="also verify the trace code")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one repair group; verification must fail")

    sub.add_parser("table", help="redundancy-exponent table")

    p = sub.add_parser("plan", help="dyadic repair-exponent parameter planner")
    p.add_argument("--a-num", type=int, required=True, help="numerator a of a/2^b")
    p.add_argument("--b-exp", type=int, required=True, help="exponent b of a/2^b")
    p.add_argument("--n", type=int, required=True, help="scale: ell = 2^b * n")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
