"""The four benchmark workloads, their pinned outputs, and the closed-loop
runner (one client: each op starts after the previous one has finished).

Every call into the library goes through a module attribute
(`code.build_code`, not a name bound here at import), so the tracer's patches
see it. The seed drives only generated inputs: repair messages and trial
seeds, read coordinates, and the monomials and wedges of oracle queries.
Timings are kept raw and scaled to one host speed (hostspeed.py); the metrics
are medians of the scaled ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import wedgelift.classify as classify
import wedgelift.cli as cli
import wedgelift.code as code
import wedgelift.field as field
import wedgelift.repair as repair
from wedgelift.field import make_field as _make_field_cached

import hostspeed
from tracing import Tracer, layer_metrics


class Mismatch(Exception):
    """An op returned a wrong output (as opposed to raising on its own)."""


def expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


class Stopwatch:
    """Times the block it brackets; under a tracer the block is a root span."""

    def __init__(self, name: str, tracer: Tracer | None) -> None:
        self.name = name
        self.tracer = tracer
        self.elapsed: float | None = None
        self._span = None

    def __enter__(self):
        if self.tracer is not None:
            self._span = self.tracer.span(self.name)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


def fresh_family(ell: int, h: int):
    """Field tables and coset family built from scratch (the lru cache of
    make_field is emptied first, so every set-up pays the same cost)."""
    _make_field_cached.cache_clear()
    spec = field.make_field(ell)
    spec.mul_table()
    spec.trace_table()
    return field.make_coset_family(spec, h)


def random_monomial(rng: np.random.Generator, q: int):
    return classify.Monomial(int(rng.integers(q)), int(rng.integers(q)))


@dataclass
class Context:
    family: object
    code: object = None
    plan: object = None
    codeword: object = None


# A fresh interpreter that imports the library and builds the field and coset
# family: the start-up every CLI call pays, and where work moved into module
# import would show.
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); import wedgelift.cli; "
    "import wedgelift.field as f; "
    "f.make_coset_family(f.make_field(int(sys.argv[2])), int(sys.argv[3])).field.mul_table()"
)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(classify.__file__)))


@dataclass(kw_only=True)
class Workload:
    """Set-up is a cold start (in a child interpreter) plus the in-process
    set-up; a round is one op amid `queries` queries. The default set-up and
    query suit the workloads whose only set-up is the field and coset family
    and whose query is the exhaustive oracle."""

    ell: int
    h: int
    queries: int
    setup_repeats: int = 10
    cold_repeats: int = 6

    def cold_start(self, sw: Stopwatch) -> None:
        with sw:
            subprocess.run([sys.executable, "-c", COLD_START, SRC, str(self.ell), str(self.h)],
                           check=True, timeout=120)

    def setup(self, sw: Stopwatch) -> Context:
        with sw:
            family = fresh_family(self.ell, self.h)
        return Context(family)

    def prepare(self, ctx: Context, rng) -> None:
        """Seeded inputs that outlive a round (none by default)."""

    def query(self, ctx: Context, rng, sw: Stopwatch) -> None:
        m = random_monomial(rng, 1 << self.ell)
        with sw:
            good = classify.is_good_oracle(ctx.family, m)
        expect(f"oracle on {tuple(m)}", good,
               not classify.is_bad_coset_criterion(m, self.h, self.ell))


@dataclass(kw_only=True)
class Build(Workload):
    """Op: build_code (full) + trace_code."""

    redundancy: int
    good: int
    binary_dimension: int

    def main(self, ctx: Context, rng, sw: Stopwatch) -> None:
        with sw:
            built = code.build_code(ctx.family)
            binary = code.trace_code(built)
        q = 1 << self.ell
        expect("redundancy", built.redundancy, self.redundancy)
        expect("dimension", built.exact_dimension, q * q - self.redundancy)
        expect("good monomials", len(built.good_monomials), self.good)
        expect("binary dimension", binary.binary_dimension, self.binary_dimension)


@dataclass(kw_only=True)
class Rank(Workload):
    """Op: build_code(dimension_only=True)."""

    redundancy: int
    good: int

    def main(self, ctx: Context, rng, sw: Stopwatch) -> None:
        with sw:
            built = code.build_code(ctx.family, dimension_only=True)
        q = 1 << self.ell
        expect("redundancy", built.redundancy, self.redundancy)
        expect("dimension", built.exact_dimension, q * q - self.redundancy)
        expect("good monomials", len(built.good_monomials), self.good)


@dataclass(kw_only=True)
class Repair(Workload):
    """Set-up: dimension-only build + repair plan. Op: one verify_drgp batch.
    Query: simulate_parallel_reads(k=t) at a seeded coordinate."""

    redundancy: int
    trials: int = 1
    setup_repeats: int = 2

    def setup(self, sw: Stopwatch) -> Context:
        with sw:
            family = fresh_family(self.ell, self.h)
            built = code.build_code(family, dimension_only=True)
            plan = repair.build_repair_plan(built)
        expect("redundancy", built.redundancy, self.redundancy)
        expect("groups", plan.t, family.t)
        return Context(family, code=built, plan=plan)

    def prepare(self, ctx: Context, rng) -> None:
        """The codeword the reads recover symbols of (a seeded message)."""
        message = rng.integers(0, ctx.family.q, size=len(ctx.code.good_monomials))
        ctx.codeword = code.encode(ctx.code, message)

    def checks_per_op(self, ctx: Context) -> int:
        return self.trials * ctx.plan.t * ctx.code.length

    def main(self, ctx: Context, rng, sw: Stopwatch) -> None:
        trial_seed = int(rng.integers(2**31))
        with sw:
            report = repair.verify_drgp(ctx.plan, self.trials, trial_seed)
        expect("failures", report["failures"], [])
        expect("checks", report["checks"], self.checks_per_op(ctx))

    def query(self, ctx: Context, rng, sw: Stopwatch) -> None:
        p = int(rng.integers(ctx.code.length))
        with sw:
            values = repair.simulate_parallel_reads(ctx.plan, ctx.codeword, p, ctx.plan.t)
        expect(f"reads of coordinate {p}", values, [int(ctx.codeword[p])] * ctx.plan.t)


@dataclass(kw_only=True)
class Classify(Workload):
    """Op: `wedgelift classify` in-process with a budget that admits the
    exhaustive oracle cross-check. Query: is_good_oracle_sampled."""

    bad: int
    csv_sha256: str
    out_dir: str = "."
    wedges: int = 4

    def main(self, ctx: Context, rng, sw: Stopwatch) -> None:
        q = 1 << self.ell
        budget = classify.oracle_cost(ctx.family) * q * q
        argv = ["classify", "--ell", str(self.ell), "--subgroup-order", str(self.h),
                "--budget", str(budget), "--out-dir", self.out_dir]
        out = io.StringIO()
        with sw, contextlib.redirect_stdout(out):
            status = cli.main(argv)
        expect("exit status", status, 0)
        fields = dict(tok.split("=", 1) for tok in out.getvalue().split() if "=" in tok)
        expect("bad", fields.get("bad"), str(self.bad))
        expect("oracle_disagreements", fields.get("oracle_disagreements"), "0")
        with open(fields["csv"], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        expect("csv sha256", digest, self.csv_sha256)

    def query(self, ctx: Context, rng, sw: Stopwatch) -> None:
        m = random_monomial(rng, 1 << self.ell)
        with sw:
            sampled = classify.is_good_oracle_sampled(ctx.family, m, self.wedges, rng)
        if not classify.is_bad_coset_criterion(m, self.h, self.ell):
            expect(f"sampled oracle on good {tuple(m)}", sampled, True)


def workloads(out_dir: str) -> dict:
    """The benchmark's workloads with their pinned outputs (ROADMAP
    redundancy 342 at q64h9; q32h31 has 63 bad monomials and redundancy 62).
    Each op takes at most a few seconds, so that a run holds many of them and
    reports their median."""
    return {
        "build-q32h31": Build(ell=5, h=31, redundancy=62, good=961, binary_dimension=962,
                              queries=100),
        "rank-q64h9": Rank(ell=6, h=9, redundancy=342, good=3753, queries=60),
        "repair-q64h9": Repair(ell=6, h=9, redundancy=342, queries=200),
        "classify-q32h31": Classify(
            ell=5, h=31, bad=63, out_dir=out_dir, queries=8,
            csv_sha256="025c1683f12d913012ad41e6ebaeefcc5a8ecc79d8a4b1f0720654c2f036119b",
        ),
    }


class Ledger:
    """Ops attempted and failed, and the timings of those that succeeded:
    `raw` as measured, `samples` scaled to one host speed (see hostspeed)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.references = [hostspeed.measure()]
        self._pending: list[tuple[str, float]] = []
        self._since = time.perf_counter()

    def checkpoint(self, every: float = 0.0) -> None:
        """Time the host reference again, unless less than `every` seconds
        have passed since the last time, and scale the timings taken since
        then by the mean of the two reference times around them."""
        if time.perf_counter() - self._since < every:
            return
        reference = hostspeed.measure()
        scale = hostspeed.NOMINAL_S / ((self.references[-1] + reference) / 2)
        for key, elapsed in self._pending:
            self.raw.setdefault(key, []).append(elapsed)
            self.samples.setdefault(key, []).append(elapsed * scale)
        self._pending.clear()
        self.references.append(reference)
        self._since = time.perf_counter()

    def attempt(self, kind: str, fn, tracer: Tracer | None = None, keep: bool = True):
        self.attempted += 1
        sw = Stopwatch(f"bench.{kind}", tracer)
        try:
            result = fn(sw)
        except Exception:
            self.failed += 1
            print(f"op {kind} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if keep:
            key = kind if tracer is None else f"traced.{kind}"
            self._pending.append((key, sw.elapsed))
        return result


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(count: int) -> int:
    """The highest of p99 and p90 with at least ten samples beyond it (50 when
    neither has)."""
    for p in (99, 90):
        if count * (100 - p) / 100 >= 10:
            return p
    return 50


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: an untimed warm-up round, then closed-loop rounds
    (one op amid `wl.queries` queries each) until `seconds` have passed, at
    least one round, between two halves of the set-ups. With `trace`, one
    more set-up and round 0 again, traced."""
    ledger = Ledger()

    def set_up(cold: int, warm: int):
        for _ in range(cold):
            ledger.attempt("cold", wl.cold_start)
            ledger.checkpoint(every=1.0)
        ctx = None
        for _ in range(warm):
            ctx = ledger.attempt("setup", wl.setup) or ctx
            ledger.checkpoint(every=1.0)
        ledger.checkpoint()
        return ctx

    # Half the set-ups before the rounds and half after them, so that setup_s
    # samples the host at both ends of the run.
    ctx = set_up((wl.cold_repeats + 1) // 2, (wl.setup_repeats + 1) // 2)
    if ctx is None:
        return {"correct": False, "attempted": ledger.attempted,
                "failed": ledger.failed, "metrics": {},
                "extra": {"rounds": 0, "samples": {}, "raw_median_s": {},
                          "reference_s": (ledger.references[-1], len(ledger.references))}}
    prepare_rng = np.random.default_rng([seed, 1 << 20])
    ledger.attempt("prepare", lambda sw: wl.prepare(ctx, prepare_rng), keep=False)

    def one_round(ctx, r, tracer=None, keep=True):
        # The op sits in the middle of the round's queries, so that query
        # latencies are not all taken just after an op.
        rng = np.random.default_rng([seed, r])
        for i in range(wl.queries):
            if i == wl.queries // 2:
                ledger.attempt("op", lambda sw: wl.main(ctx, rng, sw), tracer, keep)
            ledger.attempt("query", lambda sw: wl.query(ctx, rng, sw), tracer, keep)

    # Warm-up: lazy tables and caches fill before anything is timed.
    one_round(ctx, 1 << 21, keep=False)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        one_round(ctx, rounds)
        rounds += 1
        ledger.checkpoint(every=1.0)
    ledger.checkpoint()
    set_up(wl.cold_repeats // 2, wl.setup_repeats // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    s = ledger.samples
    metrics = {}
    extra = {"rounds": rounds, "samples": {k: len(v) for k, v in s.items()},
             "raw_median_s": {k: statistics.median(v) for k, v in ledger.raw.items()},
             "reference_s": (statistics.median(ledger.references), len(ledger.references))}
    if s.get("op") and s.get("query") and s.get("cold") and s.get("setup"):
        metrics = {
            "setup_s": statistics.median(s["cold"]) + statistics.median(s["setup"]),
            "op_ms": 1e3 * statistics.median(s["op"]),
            "query_ms": 1e3 * statistics.median(s["query"]),
            "peak_rss_mb": peak_rss_mb,
        }
        extra["tails"] = {}
        for kind in ("op", "query"):
            p = tail_percentile(len(s[kind]))
            extra["tails"][kind] = (p, 1e3 * percentile(s[kind], p))
        if hasattr(wl, "checks_per_op"):
            extra["repair_checks_per_s"] = wl.checks_per_op(ctx) / statistics.median(s["op"])

    if trace and metrics:
        tracer = Tracer()
        with tracer.installed():
            traced_ctx = ledger.attempt("setup", wl.setup, tracer)
            if traced_ctx is not None:
                traced_ctx.codeword = ctx.codeword
                one_round(traced_ctx, 0, tracer)
        ledger.checkpoint()
        traced = sum(sum(s.get(f"traced.{k}", [])) for k in ("setup", "op", "query"))
        untraced = (statistics.median(s["setup"]) + statistics.median(s["op"])
                    + wl.queries * statistics.median(s["query"]))
        summary = tracer.summary()
        extra["trace"] = {"summary": summary, "tracer": tracer}
        metrics = layer_metrics(summary, traced / untraced - 1.0)
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "extra": extra,
    }
