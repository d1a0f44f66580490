"""Every mpschain name the benchmark harness uses still resolves, and
every call it makes to an mpschain callable still binds.

perfbench/ is not part of this suite, so a library name it imports could
be removed or moved, or a parameter it passes dropped, without any test
here noticing; this reads its sources, resolves each name against the
package and binds each call's arguments to the callee's signature.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings(tree: ast.AST) -> dict:
    """Local name -> the dotted mpschain name it is bound to, for every
    import of an mpschain name in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "mpschain":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mpschain":
                    bound[a.asname or "mpschain"] = (
                        a.name if a.asname else "mpschain")
    return bound


def _dotted(node: ast.AST, bound: dict) -> str | None:
    """The dotted mpschain name an expression such as mc.pauli.sl2_act
    reads, or None if it does not start at an imported mpschain name."""
    path = []
    while isinstance(node, ast.Attribute):
        path.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(path)])
    return None


def _used_names(tree: ast.AST) -> set:
    """Dotted mpschain names the module imports or reads as attributes
    of an imported mpschain module ("mpschain.verify.spectrum", ...)."""
    bound = _bindings(tree)
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names
                         if a.name.split(".")[0] == "mpschain")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node, bound)
            if dotted is not None:
                names.add(dotted)
    return names


def _calls(tree: ast.AST) -> list:
    """(line, dotted callee, positional count, keyword names, exact) for
    every call of an mpschain name; exact is False when the call unpacks
    *args or **kwargs, whose length and names the source does not give."""
    bound = _bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, bound)
        if dotted is None:
            continue
        args = [a for a in node.args if not isinstance(a, ast.Starred)]
        keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
        exact = (len(args) == len(node.args)
                 and len(keywords) == len(node.keywords))
        calls.append((node.lineno, dotted, len(args), keywords, exact))
    return calls


def _resolve(dotted: str, beyond_modules: bool = False):
    """Import or getattr along the dotted name and return the object
    reached.  Unless beyond_modules, stop where the name leaves the
    package's modules: attributes of a function or class reached are not
    checked (a tracer may add some at run time)."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if not isinstance(obj, types.ModuleType):
            if not beyond_modules:
                return obj
            obj = getattr(obj, part)
            continue
        sub = f"{obj.__name__}.{part}"
        if not hasattr(obj, part) and importlib.util.find_spec(sub):
            obj = importlib.import_module(sub)
        else:
            obj = getattr(obj, part)
    return obj


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


def test_perfbench_calls_are_found():
    found = {(p.name, dotted, npos, keywords)
             for p in SOURCES
             for _, dotted, npos, keywords, _ in _calls(ast.parse(
                 p.read_text()))}
    assert ("test_perfbench.py", "mpschain.pauli.span_equal", 3, ()) in found
    assert ("workloads.py", "mpschain.family_report", 2, ()) in found
    assert ("run.py", "mpschain.hamiltonian.max_sites", 0, ()) in found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_perfbench_calls_bind_to_signatures(path):
    """Placeholder arguments, as many positional ones and with the same
    keyword names as the call passes, bind to the callee's signature."""
    unbound = []
    for line, dotted, npos, keywords, exact in _calls(
            ast.parse(path.read_text())):
        try:
            obj = _resolve(dotted, beyond_modules=True)
        except (AttributeError, ImportError):
            unbound.append(f"line {line}: {dotted} does not resolve")
            continue
        if not callable(obj):
            unbound.append(f"line {line}: {dotted} is not callable")
            continue
        sig = inspect.signature(obj)
        bind = sig.bind if exact else sig.bind_partial
        try:
            bind(*[object()] * npos, **{k: object() for k in keywords})
        except TypeError as exc:
            unbound.append(f"line {line}: {dotted}{sig}: {exc}")
    assert not unbound, f"{path.name}: " + "; ".join(unbound)


# Functions the benchmark times by name, per layer.
TIMED = {
    "pauli": ("sl2_act", "sl2_act_space", "span_equal"),
    "classify": ("classify", "canonical_space", "invariant_signature"),
    "states": ("representation_for_case", "constraint_residual",
               "mps_contract", "ground_state_catalogue", "psi_k",
               "psi_prime", "psi_parity", "hardcore_states"),
}


@pytest.mark.parametrize("layer", sorted(TIMED))
def test_public_functions_stay_plain_functions(layer):
    """The benchmark's tracer wraps the public names of a layer that pass
    inspect.isfunction.  A public function turned into anything else, an
    lru_cache wrapper say, would silently lose its per-layer spans."""
    mod = importlib.import_module(f"mpschain.{layer}")
    own = {name: obj for name, obj in vars(mod).items()
           if not name.startswith("_") and callable(obj)
           and not inspect.isclass(obj)
           and getattr(obj, "__module__", None) == mod.__name__}
    assert set(TIMED[layer]) <= set(own)
    assert [name for name, obj in own.items()
            if not inspect.isfunction(obj)] == []
