"""Every mpschain name the benchmark harness uses still resolves.

perfbench/ is not part of this suite, so a library name it imports could
be removed or moved without any test here noticing; this reads its
sources and resolves each name against the package.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _used_names(tree: ast.AST) -> set:
    """Dotted mpschain names the module imports or reads as attributes
    of an imported mpschain module ("mpschain.verify.spectrum", ...)."""
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "mpschain":
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mpschain":
                    names.add(a.name)
                    aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else "mpschain")
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(path)]))
    return names


def _resolve(dotted: str) -> None:
    """Import or getattr along the dotted name until it leaves the
    package's modules; attributes of the object reached are not checked
    (a tracer may add some at run time)."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if not isinstance(obj, types.ModuleType):
            return
        sub = f"{obj.__name__}.{part}"
        if not hasattr(obj, part) and importlib.util.find_spec(sub):
            obj = importlib.import_module(sub)
        else:
            obj = getattr(obj, part)


SOURCES = sorted(PERFBENCH.glob("*.py"))


def test_perfbench_sources_are_found():
    assert {"run.py", "workloads.py", "child.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_perfbench_mpschain_names_resolve(path):
    missing = []
    for dotted in sorted(_used_names(ast.parse(path.read_text()))):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert not missing, f"{path.name} uses names that no longer resolve"
