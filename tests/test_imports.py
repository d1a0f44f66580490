"""Cold start: each command loads only the modules it runs, and the
package namespace resolves its public names on first use.

What a command or the package loads is checked in a fresh interpreter,
since this suite's own imports have long since loaded every module.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import mpschain
from mpschain import cli, verify
from oracles import child_env

_LOADED_AFTER_MAIN = """
import sys
from mpschain import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("mpschain."))), file=sys.stderr)
sys.exit(code)
"""

_FAMILY = ["--family", "hardcore", "--params", '{"g": 1.0}', "--n-sites", "3"]
_SPACE = '{"basis": [{"v0": [0,0], "v1": [0,0], "v2": [0,0], "u": [1,0]}]}'
_STATES = {"cli", "serialize", "states", "hamiltonian"}
_VERIFY = _STATES | {"verify", "sectors"}


@pytest.mark.parametrize("argv, loaded, code", [
    (["classify", "--space", "-"], {"cli", "serialize", "pauli", "classify"},
     0),
    (["build-h", *_FAMILY], {"cli", "serialize", "hamiltonian"}, 0),
    (["mps", "--a0", "[[[1, 0]]]", "--a1", "[[[0, 1]]]", "--n-sites", "3"],
     _STATES, 0),
    (["ground-states", *_FAMILY], _STATES, 0),
    (["verify", *_FAMILY], _VERIFY, 0),
    (["sweep", "--family", "hardcore", "--grid", "g:1..2:2",
      "--n-sites", "3"], _VERIFY, 0),
    # telling exit 2 from exit 3 loads no layer the command did not run
    (["build-h", "--family", "hardcore", "--params", '{"g": 1.0',
      "--n-sites", "3"], {"cli", "serialize", "hamiltonian"}, 2),
], ids=["classify", "build-h", "mps", "ground-states", "verify", "sweep",
        "build-h-fails"])
def test_a_command_loads_only_its_layers(argv, loaded, code):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv], input=_SPACE,
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == code, proc.stderr
    assert bool(proc.stdout) == (code == 0)
    modules = proc.stderr.splitlines()[-1].split()
    assert set(modules) == {f"mpschain.{name}" for name in loaded}


_NAMESPACE = """
import importlib, pkgutil, sys, types
import mpschain
assert [m for m in sys.modules if m.startswith("mpschain.")] == [], \\
    "import mpschain loaded a submodule"

# classify first: reading it loads the module of the same name, whose
# binding onto the package must not replace the function
first = {"classify": mpschain.classify}
assert isinstance(first["classify"], types.FunctionType)
assert "mpschain.classify" in sys.modules
first.update((name, getattr(mpschain, name)) for name in mpschain.__all__)
for name in pkgutil.iter_modules(mpschain.__path__):
    importlib.import_module(f"mpschain.{name.name}")
from mpschain import classify
import mpschain.classify
assert classify is mpschain.classify is first["classify"]
for name, obj in first.items():
    owner = sys.modules[obj.__module__]
    assert owner.__name__.startswith("mpschain."), name
    assert getattr(mpschain, name) is obj is getattr(owner, name), name
assert set(mpschain.__all__) <= set(dir(mpschain))
assert not set(mpschain.__all__) & set(vars(mpschain))
print(len(first))
"""


def test_package_names_resolve_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _NAMESPACE],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(mpschain.__all__)


def test_cli_tolerance_default_is_verify_member_tol():
    # the parser states the default itself, so that building it for any
    # command loads no verify
    args = cli._build_parser().parse_args(["verify", *_FAMILY])
    assert args.tol == cli.MEMBER_TOL == verify.MEMBER_TOL
