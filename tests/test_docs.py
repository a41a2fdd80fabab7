"""The README against the package: every function its Library table names
is one that `wedgelift` exports, and every snake_case name it puts in
backticks is one that the package, the test suite or the CLI's output
holds."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import wedgelift
from wedgelift.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def readme_snake_names() -> set[str]:
    """Every lowercase snake_case name with an underscore inside a backticked
    span of the README, outside fenced code blocks. File names and file-name
    templates (`classify_q{q}_h{h}.csv`, `generator_…txt`) are skipped."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        if "{" in span or "…" in span or re.fullmatch(r"[\w.-]+\.(json|csv|txt)", span):
            continue
        names.update(re.findall(r"\b_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", span))
    return names


def package_names() -> set[str]:
    """The attributes of `wedgelift`, of each of its modules and of each
    class they define (dataclass fields included), and the parameter names
    of every function and method they define."""
    names = set(dir(wedgelift))
    for info in pkgutil.iter_modules(wedgelift.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"wedgelift.{info.name}")
        names.update(vars(module))
        owned = [obj for obj in vars(module).values()
                 if getattr(obj, "__module__", None) == module.__name__]
        for obj in owned:
            functions = [obj]
            if inspect.isclass(obj):
                names.update(dir(obj))
                for klass in obj.__mro__:
                    names.update(vars(klass).get("__annotations__", {}))
                functions = list(vars(obj).values())
            for fn in functions:
                if inspect.isfunction(fn):
                    names.update(inspect.signature(fn).parameters)
    return names


def suite_names() -> set[str]:
    """The functions and classes defined at the top of the Tier-1 suite's
    modules: the tests and the references they compare against."""
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return names


def cli_keys(tmp_path, capsys) -> set[str]:
    """The key=value keys that `classify` and `plan` print and the columns
    of the CSV that `classify` writes."""
    assert main(["classify", "--ell", "2", "--subgroup-order", "3", "--out-dir", str(tmp_path)]) == 0
    assert main(["plan", "--a-num", "1", "--b-exp", "1", "--n", "2"]) == 0
    keys = set(re.findall(r"(\w+)=", capsys.readouterr().out))
    header = (tmp_path / "classify_q4_h3.csv").read_text().splitlines()[0]
    return keys | set(header.split(","))


def test_readme_snake_names_exist(tmp_path, capsys) -> None:
    """A backticked snake_case name in the README that nothing defines, such
    as a function the library deleted, is stale."""
    names = readme_snake_names()
    assert {"oracle_good_mask", "bad_bound", "encode_reference", "dimension_only"} <= names
    known = package_names() | suite_names() | cli_keys(tmp_path, capsys)
    stale = sorted(names - known)
    assert not stale, f"README names what neither wedgelift, the tests nor the CLI define: {stale}"
