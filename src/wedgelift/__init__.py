"""Wedge-lifted evaluation codes over GF(2^ell) and their binary trace codes.

Construction pipeline: pick a field GF(2^ell) and an odd-order subgroup of its
multiplicative group; the subgroup's cosets define wedges (unions of lines
through a point with slopes in one coset); the code is every bivariate
polynomial of per-variable degree < q whose sum over every wedge vanishes.
Each coset hands every coordinate a disjoint repair group, and the trace map
turns the whole thing into a binary code with the same repair structure.
"""

from .bitlattice import enumerate_2_shadow
from .classify import (
    Monomial,
    Wedge,
    bad_mask,
    count_bad,
    count_bad_closed_form,
    is_bad_block_criterion,
    is_bad_coset_criterion,
    is_good_oracle,
    is_good_oracle_sampled,
    oracle_good_mask,
    wedge_restriction,
)
from .code import (
    BinaryTraceCode,
    WedgeLiftedCode,
    build_code,
    encode,
    redundancy_exponent,
    trace_code,
)
from .errors import (
    InvariantError,
    MemoryGuardError,
    OracleBudgetError,
    ResourceGuardError,
    UsageError,
)
from .field import (
    MODULUS_TABLE,
    CosetFamily,
    FieldSpec,
    is_irreducible,
    make_coset_family,
    make_field,
    plan_dyadic_parameters,
    smallest_irreducible,
)
from .repair import (
    RepairPlan,
    build_repair_plan,
    simulate_parallel_reads,
    verify_drgp,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryTraceCode",
    "CosetFamily",
    "FieldSpec",
    "InvariantError",
    "MODULUS_TABLE",
    "MemoryGuardError",
    "Monomial",
    "OracleBudgetError",
    "RepairPlan",
    "ResourceGuardError",
    "UsageError",
    "Wedge",
    "WedgeLiftedCode",
    "bad_mask",
    "build_code",
    "build_repair_plan",
    "count_bad",
    "count_bad_closed_form",
    "encode",
    "enumerate_2_shadow",
    "is_bad_block_criterion",
    "is_bad_coset_criterion",
    "is_good_oracle",
    "is_good_oracle_sampled",
    "is_irreducible",
    "make_coset_family",
    "make_field",
    "oracle_good_mask",
    "plan_dyadic_parameters",
    "redundancy_exponent",
    "simulate_parallel_reads",
    "smallest_irreducible",
    "trace_code",
    "verify_drgp",
    "wedge_restriction",
    "__version__",
]
