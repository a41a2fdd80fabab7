"""The library names the benchmark reads. bench/ is kept fixed so that its
numbers stay comparable from change to change, so a library name it calls
must not be deleted or renamed; this test fails when one is."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def library_reads(path: Path) -> set[str]:
    """Every dotted name `module.attr...` that the file reads through a
    module it imports as `import wedgelift.<module> as <alias>`, and every
    `wedgelift.<module>.<name>` it imports with `from ... import`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wedgelift.") and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wedgelift."):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return names


def resolves(dotted: str) -> bool:
    _, module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"wedgelift.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_library_name_the_bench_reads_exists() -> None:
    names = library_reads(BENCH / "workloads.py") | library_reads(BENCH / "test_bench.py")
    assert {
        "wedgelift.code.build_code",
        "wedgelift.repair.verify_drgp",
        "wedgelift.classify.is_good_oracle_sampled",
        "wedgelift.cli.main",
        "wedgelift.field.FieldSpec.mul",
    } <= names
    assert {name.split(".")[1] for name in names} <= {"classify", "cli", "code", "field", "repair"}
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"the benchmark reads library names that are gone: {missing}"
