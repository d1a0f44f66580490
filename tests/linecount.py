"""Line counts of the library's modules, for reports before and after a
refactor.

Run from the repository root:

    python3 tests/linecount.py [module.py ...]

prints, for each module of src/mpschain (or each file given), its
`wc -l` count and its code lines, then the totals.  A code line holds a
token other than a comment, outside every docstring (the leading string
of a module, class or function); a string or expression that spans
several lines counts each of them.
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


def main(paths) -> None:
    total = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in paths:
        lines, code = counts(Path(path).read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{Path(path).name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(SRC.glob("*.py")))
