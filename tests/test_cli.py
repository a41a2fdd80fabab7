"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import wedgelift.classify as classify_module
import wedgelift.cli as cli_module
import wedgelift.code as code_module
from wedgelift.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_coset_params(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "classify", "--ell", "4", "--subgroup-order", "5",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "q=16 h=5 t=3 bad=49 bad_bound=64" in out
    assert "oracle_disagreements=0" in out
    csv = (tmp_path / "classify_q16_h5.csv").read_text().splitlines()
    assert csv[0] == "a,b,bad,criterion_used"
    assert len(csv) == 257
    assert sum(int(line.split(",")[2]) for line in csv[1:]) == 49


def test_classify_block_params(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "classify", "--ell-prime", "2", "--d", "2",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "closed_form=49" in out
    assert "bad=49" in out
    csv = tmp_path / "classify_q16_h5.csv"
    assert csv.read_text().splitlines()[1].endswith(",block")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "653ed94b030bf9f31be9348dd75149cce770070e1f79f09360e7a1379d95d982"
    )


def test_classify_block_mode_reports_the_block_criterion(capsys, tmp_path, monkeypatch) -> None:
    """bad=, the closed-form check, the oracle cross-check and the CSV all
    read the block criterion's verdicts, so a fault in it must show."""
    scalar = classify_module.is_bad_block_criterion

    def flipped(m, ell_prime, d):
        return scalar(m, ell_prime, d) != (tuple(m) == (15, 15))

    monkeypatch.setattr(classify_module, "is_bad_block_criterion", flipped)
    status, out, _ = run(
        capsys, "classify", "--ell-prime", "2", "--d", "2",
        "--out-dir", str(tmp_path),
    )
    assert status == 1
    fields = dict(tok.split("=", 1) for tok in out.split())
    assert fields["bad"] == "48"
    assert fields["closed_form"] == "49"
    assert fields["oracle_disagreements"] == "1"
    csv = (tmp_path / "classify_q16_h5.csv").read_text().splitlines()
    assert sum(int(line.split(",")[2]) for line in csv[1:]) == int(fields["bad"])


def test_classify_default_budget_stops_below_q512(capsys, tmp_path) -> None:
    """Under the default budget of 10^9 table reads the oracle cross-checks
    q64h9 (a sweep of 3.1 * 10^6 reads) and skips q512h511 (1.6 * 10^9),
    and so every q = 512 family, the cheapest of which reads 1.07 * 10^9."""
    status, out, _ = run(
        capsys, "classify", "--ell", "6", "--subgroup-order", "9",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "bad=343" in out
    assert "oracle_disagreements=0" in out
    status, out, _ = run(
        capsys, "classify", "--ell", "9", "--subgroup-order", "511",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "bad=1023" in out
    assert "oracle=skipped-budget" in out
    assert "oracle_disagreements" not in out


def test_classify_gf64_with_raised_budget(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "classify", "--ell", "6", "--subgroup-order", "63",
        "--budget", str(10**12), "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "bad=127" in out
    assert "oracle_disagreements=0" in out
    csv = tmp_path / "classify_q64_h63.csv"
    assert out == f"q=64 h=63 t=1 bad=127 bad_bound=128 oracle_disagreements=0 csv={csv}\n"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "00e9659d3134aa699ce729dd09ea7027fc165dce09837e50db3762fec8ad771e"
    )


def test_classify_q32_sweep_at_exact_budget_pinned(capsys, tmp_path) -> None:
    """A budget of exactly oracle_cost * q^2 admits the whole exhaustive
    sweep: (5q + (3t + 4)h) * q^2 table reads, with t = 1 and h = 31 at
    q = 32. Stdout and the CSV are pinned byte for byte, and one read less
    skips the sweep."""
    budget = (5 * 32 + 7 * 31) * 32 * 32
    status, out, _ = run(
        capsys, "classify", "--ell", "5", "--subgroup-order", "31",
        "--budget", str(budget), "--out-dir", str(tmp_path),
    )
    assert status == 0
    csv = tmp_path / "classify_q32_h31.csv"
    assert out == f"q=32 h=31 t=1 bad=63 bad_bound=64 oracle_disagreements=0 csv={csv}\n"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "025c1683f12d913012ad41e6ebaeefcc5a8ecc79d8a4b1f0720654c2f036119b"
    )
    status, out, _ = run(
        capsys, "classify", "--ell", "5", "--subgroup-order", "31",
        "--budget", str(budget - 1), "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "oracle=skipped-budget" in out


def test_classify_full_group_summary(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "classify", "--ell", "4", "--subgroup-order", "15",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "q=16 h=15 t=1 bad=31 bad_bound=32" in out


def test_classify_usage_errors(capsys, tmp_path) -> None:
    # No parameter pair.
    status, _, err = run(capsys, "classify", "--out-dir", str(tmp_path))
    assert status == 2 and "error:" in err
    # Both pairs at once.
    status, _, err = run(
        capsys, "classify", "--ell", "4", "--subgroup-order", "5",
        "--ell-prime", "2", "--d", "2", "--out-dir", str(tmp_path),
    )
    assert status == 2
    # Non-divisor subgroup order.
    status, _, err = run(
        capsys, "classify", "--ell", "4", "--subgroup-order", "7",
        "--out-dir", str(tmp_path),
    )
    assert status == 2 and "error:" in err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_small_full(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "build", "--ell", "2", "--subgroup-order", "3",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "N=16 q=4 h=3 t=1 good=9 bad=7 dimension=10 redundancy=6" in out
    desc = json.loads((tmp_path / "descriptor_q4_h3.json").read_text())
    assert desc == {
        "ell": 2, "modulus": 7, "subgroup_order": 3,
        "coordinate_order": "row-major-poly-basis",
    }
    gen = (tmp_path / "generator_q4_h3.txt").read_text().splitlines()
    assert gen[0] == "# q=4 rows=9 cols=16"
    par = (tmp_path / "parity_q4_h3.txt").read_text().splitlines()
    assert par[0] == "# q=4 rows=6 cols=16"


def test_build_binary_gf16(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "build", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "dimension=208 redundancy=48" in out
    assert "binary_dimension=208 binary_redundancy=48" in out
    header = (tmp_path / "binary_generator_q16_h5.txt").read_text().splitlines()[0]
    assert header == "# q=16 rows=208 cols=256"


# sha256 of every file `build --ell 4 --subgroup-order 5 --binary` writes.
BUILD_Q16_H5_SHA256 = {
    "binary_generator_q16_h5.txt": "417336a35f7a0c213d26643cca88b03df53e38fabf3082c4b168fbcc6c55b924",
    "descriptor_q16_h5.json": "6bff74c9930f422ecdb9b7ac71dfa16ebf12bdb0d3b4cfcc0df9ea9f06ea3734",
    "generator_q16_h5.txt": "3cce467f056f1123683131720ebb9ef5048e2ae6e77012398dc60cd1b1ca08f0",
    "parity_q16_h5.txt": "154d57d2609365cfe5e6ebc78ec27f105cf3f060ca0a90769c49e0d6c4267fe2",
}


def test_build_and_verify_binary_exports_pinned(capsys, tmp_path) -> None:
    """Every file of `build --binary` and the binary report of
    `verify --binary` at q16h5 are pinned byte for byte by sha256, so a
    change of kernel basis or of the export format cannot slip through. The
    F_q report of the same run says which code it verified, and differs from
    the binary one in that alone."""
    build_dir, verify_dir = tmp_path / "build", tmp_path / "verify"
    status, out, _ = run(
        capsys, "build", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--out-dir", str(build_dir),
    )
    assert status == 0
    assert out == (
        "N=256 q=16 h=5 t=3 good=207 bad=49 dimension=208 redundancy=48\n"
        "binary_dimension=208 binary_redundancy=48\n"
    )
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in build_dir.iterdir()
    }
    assert digests == BUILD_Q16_H5_SHA256
    status, out, _ = run(
        capsys, "verify", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--out-dir", str(verify_dir),
    )
    assert status == 0
    assert out == (
        "q=16 h=5 t=3 trials=100 checks=76800 failures=0\n"
        "binary checks=76800 failures=0\n"
        "parallel_reads coordinate=0 k=3 value=13 agree=yes\n"
    )
    report = (verify_dir / "verify_binary_q16_h5.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "5fe994b84c550f3459eda45a61766248c2f18b4e2c150558d0eba34b5b90e36b"
    )
    # Both reports pass with the same counts; only their "code" key differs.
    fq_report = (verify_dir / "verify_q16_h5.json").read_bytes()
    assert fq_report != report
    assert fq_report.replace(b'"code": "F_q"', b'"code": "binary"') == report


def test_build_dimension_only(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "build", "--ell", "4", "--subgroup-order", "15",
        "--dimension-only", "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "dimension=226 redundancy=30" in out
    assert (tmp_path / "descriptor_q16_h15.json").exists()
    assert not (tmp_path / "generator_q16_h15.txt").exists()


def test_build_dimension_only_q256(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "build", "--dimension-only", "--ell", "8", "--subgroup-order", "255",
        "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert out == (
        "N=65536 q=256 h=255 t=1 good=65025 bad=511 dimension=65026 redundancy=510\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["descriptor_q256_h255.json"]


def test_build_binary_with_dimension_only_is_a_usage_error(capsys, tmp_path) -> None:
    """The trace code needs the kernel of a full build, so asking for both is
    refused before anything is written."""
    status, out, err = run(
        capsys, "build", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--dimension-only", "--out-dir", str(tmp_path),
    )
    assert status == 2 and out == ""
    assert "error:" in err and "--binary" in err
    assert list(tmp_path.iterdir()) == []


def test_build_reruns_byte_identical(capsys, tmp_path) -> None:
    argv = ["build", "--ell", "2", "--subgroup-order", "3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    first = {
        p.name: p.read_bytes() for p in tmp_path.iterdir()
    }
    assert main(argv) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert set(first) == {
        "descriptor_q4_h3.json", "generator_q4_h3.txt", "parity_q4_h3.txt",
    }


def test_build_memory_guard_exit_code(capsys, tmp_path, monkeypatch) -> None:
    """`build --binary` writes every file a chunk of rows at a time and
    charges the bytes they take before anything is printed or written:
    at q16h5 the three headers and two bytes an entry, 207, 48 and 208 rows
    of 256 entries, 237 130 bytes (more than the full build's 22 016). It
    exits 0 with the guard at exactly that charge and 3, having printed and
    written nothing, one byte below it."""
    estimate = 237130
    argv = ["build", "--ell", "4", "--subgroup-order", "5", "--binary"]
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    status, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path / "at"))
    assert status == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "at").iterdir()}
    assert digests == BUILD_Q16_H5_SHA256
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    status, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "below"))
    assert (status, out) == (3, "")
    assert err == (
        f"resource guard: export for q=16, t=3 needs ~{estimate} bytes "
        f"(guard {estimate - 1}); rerun with --dimension-only\n"
    )
    assert not (tmp_path / "below").exists()


@pytest.mark.parametrize("ell,h", [(4, 5), (5, 31)], ids=["q16h5", "q32h31"])
def test_build_export_charge_against_file_sizes(ell, h, capsys, tmp_path) -> None:
    """The export charge is each file's size for the 0/1 parity and binary
    generator files, and at least it for the F_q generator file: exactly
    at q = 16, whose entries all take one hex digit, and above it at
    q = 32, where the entries below 16 take one digit of the charged two."""
    q = 1 << ell
    status, out, _ = run(capsys, "build", "--ell", str(ell), "--subgroup-order", str(h),
                         "--binary", "--out-dir", str(tmp_path))
    assert status == 0
    fields = dict(tok.split("=") for tok in out.split())
    n, good, redundancy = int(fields["N"]), int(fields["good"]), int(fields["redundancy"])

    sizes = {p.name.split("_q")[0]: p.stat().st_size for p in tmp_path.glob("*.txt")}
    assert sizes["parity"] == code_module._export_bytes((redundancy, n), q, 1)
    assert sizes["binary_generator"] == code_module._export_bytes((n - redundancy, n), q, 1)
    charge = code_module._export_bytes((good, n), q, q - 1)
    assert sizes["generator"] == charge if q == 16 else sizes["generator"] < charge


def test_build_binary_q64_peak(capsys, tmp_path) -> None:
    """In-process `build --binary` at q64h9 writes 75 MB of text but holds
    no whole matrix: its tracemalloc peak stays under 8 MiB (a whole uint16
    generator matrix alone is 29 MiB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        status, out, _ = run(capsys, "build", "--ell", "6", "--subgroup-order", "9", "--binary",
                             "--out-dir", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and "binary_dimension=3754" in out
    assert peak <= 8 << 20


def test_build_memory_guard_hint_names_cli_flag(capsys, tmp_path) -> None:
    """At q256h255 the full build and the trace code fit the default guard,
    but the files do not: the F_q generator text alone takes 65 025 rows of
    65 536 entries of three bytes, about 12.8 GB. The CLI's guard message
    names the export and advises the --dimension-only flag, and nothing is
    printed or written."""
    status, out, err = run(
        capsys, "build", "--ell", "8", "--subgroup-order", "255", "--binary",
        "--out-dir", str(tmp_path),
    )
    assert status == 3 and out == ""
    assert err == (
        "resource guard: export for q=256, t=1 needs ~21374369880 bytes "
        "(guard 2147483648); rerun with --dimension-only\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_build_dimension_only_memory_guard_exit_code(capsys, tmp_path) -> None:
    """q = 4096, t = 1: the parity basis bound, 2 * 4096 rows of 2 MiB, is
    16 GiB, over the default 2 GiB guard; the build stops before any work."""
    status, out, err = run(
        capsys, "build", "--dimension-only", "--ell", "12", "--subgroup-order", "4095",
        "--out-dir", str(tmp_path),
    )
    assert status == 3 and out == ""
    assert "resource guard: dimension-only build for q=4096, t=1" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_q256_runs(capsys, tmp_path) -> None:
    """q = 256, h = 255: verify builds the code dimension-only and repairs
    from the one seed, with no per-coordinate groups to allocate."""
    status, out, err = run(
        capsys, "verify", "--ell", "8", "--subgroup-order", "255", "--trials", "1",
        "--out-dir", str(tmp_path),
    )
    assert status == 0 and err == ""
    assert out.splitlines()[0] == "q=256 h=255 t=1 trials=1 checks=65536 failures=0"
    assert "agree=yes" in out
    report = json.loads((tmp_path / "verify_q256_h255.json").read_text())
    assert report["checks"] == 65536 and report["failures"] == []


def test_verify_binary_q256_runs(capsys, tmp_path) -> None:
    """q = 256, h = 255 with --binary: the binary words are traces of the F_q
    words, so verify needs no full build (whose guard refuses q = 256) and
    writes both passing reports."""
    status, out, err = run(
        capsys, "verify", "--ell", "8", "--subgroup-order", "255", "--binary",
        "--trials", "1", "--out-dir", str(tmp_path),
    )
    assert status == 0 and err == ""
    assert out.splitlines()[:2] == [
        "q=256 h=255 t=1 trials=1 checks=65536 failures=0",
        "binary checks=65536 failures=0",
    ]
    assert "agree=yes" in out
    fq = json.loads((tmp_path / "verify_q256_h255.json").read_text())
    binary = json.loads((tmp_path / "verify_binary_q256_h255.json").read_text())
    assert fq["code"] == "F_q" and binary["code"] == "binary"
    assert fq["failures"] == [] and binary["failures"] == []
    assert binary["checks"] == 65536


def test_verify_memory_guard_exit_code(capsys, tmp_path, monkeypatch) -> None:
    """`verify --binary` at q16h5 charges its F_q pass's arrays, 154 880
    bytes, before the first trial (the binary pass charges less, and the
    dimension-only build 19 968). It exits 0 with the guard at exactly that
    charge and 3, having printed and written nothing, one byte below it."""
    estimate = 154880
    argv = ["verify", "--ell", "4", "--subgroup-order", "5", "--binary", "--trials", "2"]
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate)
    status, out, _ = run(capsys, *argv, "--out-dir", str(tmp_path / "at"))
    assert status == 0 and "binary checks=1536 failures=0" in out
    monkeypatch.setattr(code_module, "DEFAULT_MEMORY_GUARD_BYTES", estimate - 1)
    status, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "below"))
    assert (status, out) == (3, "")
    assert err == (
        f"resource guard: repair check for q=16, t=3 needs ~{estimate} bytes "
        f"(guard {estimate - 1})\n"
    )
    assert not (tmp_path / "below").exists()


def test_verify_passes_and_writes_report(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "verify", "--ell", "2", "--subgroup-order", "3",
        "--trials", "50", "--seed", "11", "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "failures=0" in out
    assert "parallel_reads coordinate=0 k=1" in out and "agree=yes" in out
    report = json.loads((tmp_path / "verify_q4_h3.json").read_text())
    assert report["code"] == "F_q"
    assert report["q"] == 4 and report["h"] == 3 and report["t"] == 1
    assert report["trials"] == 50 and report["seed"] == 11
    assert report["checks"] == 50 * 1 * 16
    assert report["failures"] == []


def test_verify_binary_report(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "verify", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--trials", "20", "--out-dir", str(tmp_path),
    )
    assert status == 0
    assert "binary checks=" in out
    report = json.loads((tmp_path / "verify_binary_q16_h5.json").read_text())
    assert report["code"] == "binary"
    assert report["failures"] == [] and report["checks"] == 20 * 3 * 256


def test_verify_negative_seed_is_a_usage_error(capsys, tmp_path) -> None:
    status, out, err = run(
        capsys, "verify", "--ell", "2", "--subgroup-order", "3",
        "--seed", "-1", "--out-dir", str(tmp_path),
    )
    assert status == 2 and out == ""
    assert err.startswith("error:") and "seed" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_inject_fault_fails(capsys, tmp_path) -> None:
    status, out, _ = run(
        capsys, "verify", "--ell", "2", "--subgroup-order", "3",
        "--inject-fault", "--out-dir", str(tmp_path),
    )
    assert status == 1
    report = json.loads((tmp_path / "verify_q4_h3.json").read_text())
    assert len(report["failures"]) > 0
    assert "parallel_reads" not in out  # no smoke read after a failed run
    failure = report["failures"][0]
    assert set(failure) == {"coordinate", "group", "expected", "got"}


def test_verify_inject_fault_records_pinned(capsys, tmp_path) -> None:
    """The failure records carry codeword values, so they pin the codewords
    that verify draws: 94 of the 100 seed-0 trials at q16h5 miss at the
    tampered group 0 of coordinate 0."""
    status, _, _ = run(
        capsys, "verify", "--ell", "4", "--subgroup-order", "5",
        "--inject-fault", "--out-dir", str(tmp_path),
    )
    assert status == 1
    failures = json.loads((tmp_path / "verify_q16_h5.json").read_text())["failures"]
    assert len(failures) == 94
    assert failures[:3] == [
        {"coordinate": 0, "group": 0, "expected": 13, "got": 11},
        {"coordinate": 0, "group": 0, "expected": 15, "got": 13},
        {"coordinate": 0, "group": 0, "expected": 8, "got": 13},
    ]
    digest = hashlib.sha256(json.dumps(failures).encode()).hexdigest()
    assert digest == "d1b1ad8642fd6e906b09c22e7c29466c59d9c4ad8e9b2109397d3ee30269e6c0"


def test_verify_binary_inject_fault_records_pinned(capsys, tmp_path) -> None:
    """The binary failure records pin the trace-code codewords that
    `verify --binary` draws as traces of F_q codewords: 42 of the 100 seed-0
    trials at q16h5 miss at the tampered group."""
    status, _, _ = run(
        capsys, "verify", "--ell", "4", "--subgroup-order", "5", "--binary",
        "--inject-fault", "--out-dir", str(tmp_path),
    )
    assert status == 1
    failures = json.loads((tmp_path / "verify_binary_q16_h5.json").read_text())["failures"]
    assert len(failures) == 42
    digest = hashlib.sha256(json.dumps(failures).encode()).hexdigest()
    assert digest == "995f834b3f8d7714f1d4f08dfa5a3df94cd4281df9cfc6e83c9e404187ce9076"


def test_verify_report_deterministic(capsys, tmp_path) -> None:
    argv = ["verify", "--ell", "2", "--subgroup-order", "3",
            "--seed", "5", "--trials", "10", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    first = (tmp_path / "verify_q4_h3.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "verify_q4_h3.json").read_bytes() == first


# ---------------------------------------------------------------------------
# table and plan
# ---------------------------------------------------------------------------


def test_table_golden(capsys) -> None:
    status, out, _ = run(capsys, "table")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "d alpha exponent baseline"
    assert lines[1] == "1 0.5000 0.7925 1.0000"
    assert lines[2] == "2 0.2500 0.7018 0.7500 ref=0.702"
    assert lines[3] == "3 0.1667 0.6511 0.6667 ref=0.651"
    assert lines[4] == "4 0.1250 0.6193 0.6250 ref=0.619"
    assert lines[10] == "10 0.0500 0.5500 0.5500"
    assert lines[11].startswith("# limit: exponent -> 0.5000")
    assert "0.714" in lines[12] and "0.792" in lines[12] and "0.750" in lines[12]


def test_plan_examples(capsys) -> None:
    status, out, _ = run(capsys, "plan", "--a-num", "2", "--b-exp", "2", "--n", "1")
    assert status == 0
    assert "ell=4 q=16 h=5 t=3" in out
    assert "h_divides_q_minus_1=yes" in out
    assert "redundancy_bound=64" in out

    # h = q-1: measured redundancy 30 exceeds the coset-count product t*q = 16.
    status, out, _ = run(capsys, "plan", "--a-num", "3", "--b-exp", "2", "--n", "1")
    assert status == 0
    assert "ell=4 q=16 h=15 t=1" in out
    assert "redundancy_bound=32" in out

    status, out, _ = run(capsys, "plan", "--a-num", "1", "--b-exp", "1", "--n", "3")
    assert status == 0
    assert "ell=6 q=64 h=9 t=7" in out

    # alpha = 3/8 target: reports parameters and feasibility.
    status, out, _ = run(capsys, "plan", "--a-num", "1", "--b-exp", "2", "--n", "1")
    assert status == 0
    assert "alpha=0.3750" in out
    assert "ell=4 q=16 h=3 t=5" in out
    assert "h_divides_q_minus_1=yes" in out


def test_plan_usage_error(capsys) -> None:
    status, _, err = run(capsys, "plan", "--a-num", "0", "--b-exp", "2", "--n", "1")
    assert status == 2 and "error:" in err


def test_unknown_flag_is_argparse_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["table", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_script_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "wedgelift", "plan",
         "--a-num", "1", "--b-exp", "1", "--n", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "ell=4 q=16 h=5 t=3" in proc.stdout


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    """main's exit status, stdout and stderr, argparse's exits included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_consecutive_calls_match_fresh_parsers(capsys, tmp_path, monkeypatch) -> None:
    """main builds its parser once per process. Calls with different
    subcommands and flags, made one after another on that parser, print
    and return what each prints and returns on a parser built for it
    alone: successes, usage errors, argparse errors and --help texts."""
    monkeypatch.setenv("COLUMNS", "80")
    out = str(tmp_path)
    fam = ["--ell", "4", "--subgroup-order", "5", "--out-dir", out]
    calls = [
        ["classify", *fam],
        ["build", *fam, "--binary"],
        ["build", *fam, "--dimension-only"],
        ["verify", *fam, "--trials", "2", "--seed", "3", "--binary"],
        ["classify", "--ell-prime", "2", "--d", "2", "--budget", "0", "--out-dir", out],
        ["verify", *fam, "--trials", "1", "--inject-fault"],
        ["table"],
        ["plan", "--a-num", "2", "--b-exp", "2", "--n", "1"],
        ["plan", "--a-num", "0", "--b-exp", "2", "--n", "1"],
        ["build", "--ell", "4", "--out-dir", out],
        ["table", "--bogus"],
        ["--help"],
        ["build", "--help"],
        ["classify", *fam],
    ]
    fresh = []
    for argv in calls:
        cli_module._build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    cli_module._build_parser.cache_clear()
    assert [outcome(capsys, argv) for argv in calls] == fresh
    assert [status for status, _, _ in fresh] == [0, 0, 0, 0, 0, 1, 0, 0, 2, 2, 2, 0, 0, 0]
    assert fresh[-3][1].startswith("usage: wedgelift [-h] {classify,build,verify,table,plan}")
    assert "--dimension-only" in fresh[-2][1]


def test_cached_parser_runs_patched_commands(capsys, monkeypatch) -> None:
    """Each subcommand runs the module's cmd_<command> as it is when main
    runs, so a command patched after the parser was built still runs."""
    assert main(["table"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_module, "cmd_table", lambda args: 7)
    assert main(["table"]) == 7
