"""Line counts of the library's modules, for reports before and after a
refactor.

Run from the repository root:

    python3 tests/linecount.py [module.py ...]

prints, for each module of src/mpschain (or each file given), its
`wc -l` count, its code lines and its public names, then the totals.  A
code line holds a token other than a comment, outside every docstring
(the leading string of a module, class or function); a string or
expression that spans several lines counts each of them.  A public name
is one that does not start with an underscore: a function, class or
assigned name of the module, or a method of one of its classes.  Names a
module imports are not its own and are not counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mpschain"

# tokens that hold no code
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(source: str) -> tuple:
    """(wc -l, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                        first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def _defined(statements):
    """The names the statements define: functions, classes and the
    names assigned to (not attributes or items)."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (list(node.targets) if isinstance(node, ast.Assign)
                       else [node.target])
            while targets:
                target = targets.pop()
                if isinstance(target, ast.Name):
                    yield target.id
                elif isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif isinstance(target, ast.Starred):
                    targets.append(target.value)


def public_names(source: str) -> int:
    """How many of the module's names, and of its classes' methods, do
    not start with an underscore."""
    body = ast.parse(source).body
    names = set(_defined(body)) | {
        f"{cls.name}.{node.name}" for cls in body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sum(not name.rpartition(".")[2].startswith("_") for name in names)


def main(paths) -> None:
    total = [0, 0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}{'public':>8}")
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        row = (*counts(source), public_names(source))
        total = [t + r for t, r in zip(total, row)]
        print(f"{Path(path).name:<16}" + "".join(f"{r:>8}" for r in row))
    print(f"{'total':<16}" + "".join(f"{t:>8}" for t in total))


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(SRC.glob("*.py")))
