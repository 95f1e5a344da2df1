"""Every exported name has a caller outside the tests.

A name in a module's ``__all__`` must be referenced somewhere in
``src``, ``perfbench/`` or ``tools/`` other than its own definition and
the export lists; diagnostics that only tests read live in
``tests/oracles.py``.  And the package's scalar checks live in one
module: only ``model`` tests for a bool.
"""
import ast
import importlib
from pathlib import Path

import pytest

import mixedfbm

ROOT = Path(mixedfbm.__file__).resolve().parents[2]
PACKAGE = Path(mixedfbm.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _references() -> set:
    """Names read as variables or attributes in the program's files;
    definitions, import lists and the strings of ``__all__`` are not."""
    names = set()
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                            ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_caller(module):
    mod = importlib.import_module(
        "mixedfbm" if module == "__init__" else f"mixedfbm.{module}")
    unused = sorted(set(getattr(mod, "__all__", ())) - _references())
    assert unused == [], f"{module} exports names nothing calls: {unused}"


def _bool_checks(path: Path) -> int:
    """Calls isinstance(..., bool), or with bool in a tuple, in a file."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            count += any(isinstance(k, ast.Name) and k.id == "bool"
                         for k in kinds)
    return count


def test_one_scalar_check():
    # a bool is a numbers.Integral, so each scalar check must refuse it
    # by name; model's check_real and check_int are the only ones
    found = {p.name: _bool_checks(p) for p in PACKAGE.glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {"model.py": 2}
