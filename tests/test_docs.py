"""The README against the package: every function its Library table names
is one that `wedgelift` exports."""

from __future__ import annotations

import re
from pathlib import Path

import wedgelift

README = Path(__file__).resolve().parents[1] / "README.md"


def library_table_names() -> list[str]:
    """The names in the first column of the README's Library table (the
    table headed '| function | purpose |'), argument lists dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| function | purpose |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cell = re.sub(r"\([^)]*\)", "", line.split("|")[1])
        names += re.findall(r"[A-Za-z_]\w*", cell)
    return names


def test_library_table_names_are_exported() -> None:
    names = library_table_names()
    assert len(names) >= 18
    missing = [name for name in names if name not in wedgelift.__all__]
    assert not missing, f"README Library table names functions wedgelift does not export: {missing}"
