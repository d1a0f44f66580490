"""Every public name of the library has a reader outside the tests.

A name the package exports (mpschain.__all__), or a module-level
function of src/mpschain whose name does not start with an underscore,
must be read somewhere in src/ or perfbench/: as a Name or an Attribute
that is loaded, or as a name an import statement brings in.  Strings do
not count, so neither do docstrings, comments or the package's _OWNERS
table.  A public helper that only tests call fails here; move it into
tests/ or remove it.

Names are matched by spelling, not by binding.  Methods, classes that
the package does not export and module constants are out of scope.
"""

from __future__ import annotations

import ast
from pathlib import Path

import mpschain

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpschain"


def _trees(*dirs):
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _read_names() -> set:
    """Every name loaded, read as an attribute or imported in src/ and
    perfbench/."""
    read = set()
    for _, tree in _trees(SRC, ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    return read


def _public_functions() -> list:
    """(module, name) of each module-level public function of
    src/mpschain."""
    return [(path.stem, node.name)
            for path, tree in _trees(SRC) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def test_every_exported_name_has_a_reader():
    assert sorted(set(mpschain.__all__) - _read_names()) == []


def test_every_public_function_has_a_reader():
    read = _read_names()
    assert [f"{module}.{name}" for module, name in _public_functions()
            if name not in read] == []
