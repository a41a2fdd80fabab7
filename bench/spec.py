"""What the benchmark measures, and which end-to-end metric each layer metric
should move on which workload (the interaction map later issues cite).

BENCHMARK.json at the repository root repeats the workload names, the metric
names, units and directions, and the bounds; test_bench.py checks that the two
agree.
"""

from __future__ import annotations

# name -> why it was chosen (one line; BENCHMARK.json carries the same text).
WORKLOADS = {
    "build-q32h31": (
        "Full q=32 h=31 build plus trace code, about 1 s an op: parity rows, "
        "GF(2) rank, RREF for kernel and trace span, restriction_grid check."
    ),
    "rank-q64h9": (
        "Dimension-only q=64 h=9 build: rank alone over 28672 streamed rows, 342 "
        "independent; elimination dominates, no kernel, grid check or trace."
    ),
    "repair-q64h9": (
        "F_q repair at q=64 h=9: verify_drgp batches (encode rebuilds the "
        "generator matrix) and single k=t parallel reads; no elimination timed."
    ),
    "classify-q32h31": (
        "In-process CLI classify with the exhaustive oracle cross-check, plus "
        "the sampled oracle: wedge_restriction, scalar field ops, bitlattice, _io, cli."
    ),
}

# End-to-end metrics: every workload reports every one, each never 0.
# (name, unit, better, bound). bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. Timings
# are medians over a run; the tails are printed, not bounded, because on a
# shared host they move with the neighbours more than with the program.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("query_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# What op_ms and query_ms are on each workload, under the names the
# benchmark's issue gives them.
ALIASES = {
    "build-q32h31": {
        "op": "build_s (build_code full + trace_code)",
        "query": "oracle: is_good_oracle on a seeded monomial",
    },
    "rank-q64h9": {
        "op": "rank_s (build_code dimension_only)",
        "query": "oracle: is_good_oracle on a seeded monomial",
    },
    "repair-q64h9": {
        "op": "verify batch (repair_checks_per_s = checks per batch / op)",
        "query": "read: simulate_parallel_reads(k=t) at a seeded coordinate",
    },
    "classify-q32h31": {
        "op": "classify_s (cli classify, raised budget)",
        "query": "sampled_oracle: is_good_oracle_sampled on a seeded monomial",
    },
}

_BUILD = ("op_ms", "build-q32h31")
_RANK = ("op_ms", "rank-q64h9")
_REPAIR_SETUP = ("setup_s", "repair-q64h9")
_REPAIR = ("op_ms", "repair-q64h9")
_READ = ("query_ms", "repair-q64h9")
_CLASSIFY = ("op_ms", "classify-q32h31")
_SAMPLED = ("query_ms", "classify-q32h31")
_ORACLE = [("query_ms", "build-q32h31"), ("query_ms", "rank-q64h9")]
_LINALG = [_BUILD, _RANK, _REPAIR_SETUP]

# Per-layer metrics: (name, unit, better, [(end-to-end metric, workload), ...]).
# Times are self times (children's spans excluded) summed over one traced
# set-up plus one traced round, as measured (not scaled to the host
# reference); counts cover the same work.
PER_LAYER = [
    ("linalg.rank_s", "s", "lower", _LINALG),
    ("linalg.rref_s", "s", "lower", _LINALG),
    ("linalg.nullspace_s", "s", "lower", _LINALG),
    ("linalg.eliminations", "count", "lower", _LINALG),
    ("linalg.rows_in", "count", "lower", _LINALG),
    ("linalg.pivots", "count", "lower", _LINALG),
    ("linalg.useful_row_ratio", "ratio", "higher", _LINALG),
    ("code.parity_rows", "count", "lower", [_RANK, _BUILD]),
    ("code.parity_rows_s", "s", "lower", [_RANK, _BUILD]),
    ("classify.restriction_grid_calls", "count", "lower", [_BUILD, _CLASSIFY] + _ORACLE),
    ("classify.restriction_grid_s", "s", "lower", [_BUILD, _CLASSIFY] + _ORACLE),
    ("classify.wedge_restriction_calls", "count", "lower", [_SAMPLED]),
    ("classify.wedge_restriction_s", "s", "lower", [_SAMPLED]),
    ("field.scalar_ops", "count", "lower", [_SAMPLED]),
    ("bitlattice.submasks", "count", "lower", [_CLASSIFY]),
    ("code.encode_calls", "count", "lower", [_REPAIR]),
    ("code.encode_s", "s", "lower", [_REPAIR]),
    ("code.generator_matrix_calls", "count", "lower", [_REPAIR]),
    ("repair.verify_self_s", "s", "lower", [_REPAIR]),
    ("repair.read_s", "s", "lower", [_READ]),
    ("repair.plan_s", "s", "lower", [_REPAIR_SETUP]),
    ("io.bytes_written", "count", "lower", [_CLASSIFY]),
    ("io.write_s", "s", "lower", [_CLASSIFY]),
]

# Layers are the modules under src/wedgelift/ (io is the _io module; metric
# names must start with a letter). Each reports <layer>.self_s and
# <layer>.calls; the end-to-end metrics each layer should move:
LAYERS = {
    "field": [("setup_s", w) for w in WORKLOADS] + [_SAMPLED],
    "bitlattice": [_CLASSIFY],
    "classify": [_BUILD, _CLASSIFY, _SAMPLED] + _ORACLE,
    "code": [_BUILD, _RANK, _REPAIR],
    "linalg": _LINALG,
    "repair": [_REPAIR, _READ, _REPAIR_SETUP],
    "io": [_CLASSIFY],
    "cli": [_CLASSIFY],
}
for _layer, _moves in LAYERS.items():
    PER_LAYER.append((f"{_layer}.self_s", "s", "lower", _moves))
    PER_LAYER.append((f"{_layer}.calls", "count", "lower", _moves))
# The cost of tracing itself: traced minus untraced time over untraced time.
PER_LAYER.append(("trace.overhead_ratio", "ratio", "lower", []))

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
