"""The benchmark's own tests: q=16 h=5 miniatures of every workload.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import spec  # noqa: E402
import wedgelift.code as code  # noqa: E402
import wedgelift.field as field  # noqa: E402
from workloads import Build, Classify, Rank, Repair, run  # noqa: E402

CSV_Q16_H5_SHA256 = "25faeceaaeb7f9c8dc243532dd321d21b04d60c88a88deca9fc7d5d2cd7d1d2f"


def miniatures(out_dir) -> dict:
    """Each workload at q=16 h=5 (rank 48, dimension 208, 49 bad monomials),
    with a handful of queries so that a run takes about a second."""
    small = dict(ell=4, h=5, setup_repeats=3, cold_repeats=1)
    return {
        "build-q32h31": Build(redundancy=48, good=207, binary_dimension=208, queries=12,
                             **small),
        "rank-q64h9": Rank(redundancy=48, good=207, queries=12, **small),
        "repair-q64h9": Repair(redundancy=48, trials=2, queries=30, **small),
        "classify-q32h31": Classify(bad=49, csv_sha256=CSV_Q16_H5_SHA256, out_dir=str(out_dir),
                                   wedges=4, queries=12, **small),
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(name, seed, tmp_path):
    result = run(miniatures(tmp_path)[name], seed, 0, False)
    record = bench_run.final_record(result)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    expected = {n: unit for n, unit, _, _ in spec.END_TO_END}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in record["metrics"].values())
    lines = bench_run.report_lines(name, result)
    for metric, unit in expected.items():
        assert any(line.split()[:1] == [metric] and f" {unit}" in line for line in lines)


# One layer each miniature must reach, so a tracer that silently stopped
# wrapping a boundary fails here.
MUST_MOVE = {
    "build-q32h31": ["linalg.rank_s", "linalg.nullspace_s", "code.parity_rows",
                    "classify.restriction_grid_calls", "bitlattice.submasks"],
    "rank-q64h9": ["linalg.rank_s", "code.parity_rows_s", "classify.restriction_grid_s"],
    "repair-q64h9": ["code.encode_calls", "code.generator_matrix_calls",
                     "repair.verify_self_s", "repair.read_s", "repair.plan_s"],
    "classify-q32h31": ["classify.wedge_restriction_calls", "field.scalar_ops",
                       "bitlattice.submasks", "io.bytes_written", "cli.self_s"],
}


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    original = code.build_code, field.FieldSpec.mul
    result = run(miniatures(tmp_path)[name], 3, 0, True)
    assert (code.build_code, field.FieldSpec.mul) == original, "patches not undone"
    record = bench_run.final_record(result)
    assert record["correct"]
    assert {k: v["unit"] for k, v in record["metrics"].items()} == spec.PER_LAYER_UNITS
    for metric in MUST_MOVE[name]:
        assert record["metrics"][metric]["value"] > 0, metric

    summary = result["extra"]["trace"]["summary"]
    tracer = result["extra"]["trace"]["tracer"]
    roots = [s for s in tracer.spans if s[1] is None]
    assert roots and all(s[3].startswith("bench.") for s in roots)
    assert summary["wall_ns"] == sum(s[5] - s[4] for s in roots)
    assert sum(summary["layer_self_ns"].values()) == summary["wall_ns"]
    assert all(ns >= 0 for ns in summary["layer_self_ns"].values())


def test_wrong_output_counts_as_failed(tmp_path):
    wrong = Build(ell=4, h=5, redundancy=47, good=207, binary_dimension=208,
                  queries=2, setup_repeats=1, cold_repeats=1)
    result = run(wrong, 1, 0, False)
    # Both builds fail: the warm-up round's and the one timed round's.
    assert not result["correct"] and result["failed"] == 2


def test_timings_are_scaled_by_the_reference_around_them(monkeypatch):
    import hostspeed
    import workloads

    references = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(references))
    ledger = workloads.Ledger()
    ledger._pending.append(("op", 1.0))
    ledger.checkpoint()
    ledger._pending.append(("op", 2.0))
    ledger.checkpoint()
    nominal = hostspeed.NOMINAL_S
    assert ledger.raw["op"] == [1.0, 2.0]
    assert ledger.samples["op"] == pytest.approx([nominal / 0.020, 2.0 * nominal / 0.025])
    assert ledger.references == [0.010, 0.030, 0.020]


def test_benchmark_json_matches_spec():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["command"] == ["python3", "bench/run.py"]
    assert config["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in config["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in config["end_to_end"]] \
        == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in spec.PER_LAYER]
    assert list(spec.WORKLOADS) == bench_run.NAMES == list(spec.ALIASES)
    for _, _, _, moves in spec.PER_LAYER:
        for metric, workload in moves:
            assert metric in spec.E2E_UNITS and workload in spec.WORKLOADS


def test_without_the_library_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build-q32h31", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
