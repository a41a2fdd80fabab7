"""wedgelift benchmark: four closed-loop workloads, one client, pinned outputs.

    python3 bench/run.py --workload build-q32h31 --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 0

Run from the repository root (it imports the library from ./src, nothing
installed). With --trace 0 the last stdout line is a JSON object whose
metrics are the end-to-end metrics of spec.END_TO_END, medians of timings
scaled to one host speed by a reference timed between rounds (hostspeed.py),
so that a shared host's drift does not read as a change of the program; the
raw medians are printed before it. With --trace 1 the run
adds one traced set-up and round and reports spec.PER_LAYER instead, and
writes the spans to .bench_out/. Lines before it give each metric under its
workload's own name with its unit and sample count, and a provenance record.
Exit status: 0 when every op gave the pinned output, 1 when one did not, 2
when the library cannot be found or the arguments are wrong.

Workloads run under a normal (not -O) interpreter, because users run it that
way and the debug branches cost time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ["build-q32h31", "rank-q64h9", "repair-q64h9", "classify-q32h31"]
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"]


def cap_threads() -> dict:
    """BLAS/OpenMP thread caps at most nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def commit() -> str:
    """HEAD from the checkout's .git, read directly (no git subprocess, and no
    search above the checkout); 'unknown' when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, caps: dict) -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_caps": caps,
        "python_optimize": sys.flags.optimize,
        "loop": "closed, one client",
        "sandbox": "CPUs cannot be pinned and caches cannot be dropped here; "
                   "compare medians of repeated runs",
    }


def unit_of(metric: str) -> str:
    from spec import E2E_UNITS, PER_LAYER_UNITS

    return E2E_UNITS.get(metric) or PER_LAYER_UNITS[metric]


def final_record(result: dict) -> dict:
    """The last stdout line: correct, attempted, failed, and each metric with
    its unit."""
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report_lines(name: str, result: dict) -> list[str]:
    from spec import ALIASES

    from hostspeed import NOMINAL_S

    extra = result["extra"]
    counts = extra["samples"]
    raw = extra["raw_median_s"]
    alias = ALIASES[name]
    reference, passes = extra["reference_s"]
    lines = [f"workload {name}: {extra['rounds']} round(s), "
             f"failed_ratio = {result['failed'] / result['attempted']:.6g} "
             f"({result['failed']}/{result['attempted']} ops)",
             f"  host reference = {1e3 * reference:.4g} ms, median of {passes}; timings "
             f"below are scaled to a host where it takes {1e3 * NOMINAL_S:g} ms"]

    def raw_ms(kind):
        return f"raw median {1e3 * raw[kind]:.6g} ms" if kind in raw else "no raw samples"

    notes = {
        "setup_s": f"cold start median of {counts.get('cold', 0)} + in-process "
                   f"set-up median of {counts.get('setup', 0)}; raw medians "
                   f"{raw.get('cold', 0):.4g} s + {raw.get('setup', 0):.4g} s",
        "op_ms": f"{alias['op']}; median of {counts.get('op', 0)}; {raw_ms('op')}",
        "query_ms": f"{alias['query']}; median of {counts.get('query', 0)}; {raw_ms('query')}",
        "peak_rss_mb": "process peak RSS",
    }
    for metric, value in result["metrics"].items():
        note = f"  [{notes[metric]}]" if metric in notes else ""
        lines.append(f"  {metric} = {value:.6g} {unit_of(metric)}{note}")
    if "op_ms" in result["metrics"]:
        for kind, (p, value) in extra["tails"].items():
            if p == 50:
                continue  # too few samples for a tail beyond the median
            lines.append(f"  {kind}_p{p}_ms = {value:.6g} ms  [{alias[kind]}; "
                         f"p{p} of {counts[kind]}; printed, not bounded]")
    if "repair_checks_per_s" in extra and "op_ms" in result["metrics"]:
        lines.append(f"  repair_checks_per_s = {extra['repair_checks_per_s']:.6g} 1/s"
                     f"  [coordinate x group x trial checks over the median op]")
    return lines


def run_one(args, caps: dict) -> int:
    from workloads import run, workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads(str(OUT / "classify"))[args.workload]
    prov = provenance(args, caps)
    result = run(wl, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "trace" in result["extra"]:
        trace = result["extra"].pop("trace")
        trace["tracer"].write(OUT / f"spans-{tag}.json",
                              {"provenance": prov, "summary": trace["summary"]})
    for line in report_lines(args.workload, result):
        print(line)
    print("provenance " + json.dumps(prov))
    with open(OUT / f"result-{tag}.json", "w") as handle:
        json.dump(dict(result, provenance=prov), handle, indent=1)
    print(json.dumps(final_record(result)))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that each
    reports its own peak RSS; the combined metrics are '<workload>.<metric>'."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status if status else (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wedgelift" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/wedgelift; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; the benchmark measures the interpreter "
              "users run", file=sys.stderr)
        return 2
    caps = cap_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import wedgelift

    if Path(wedgelift.__file__).resolve().parent != SRC / "wedgelift":
        print(f"error: imported wedgelift from {wedgelift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_one(args, caps)


if __name__ == "__main__":
    sys.exit(main())
