"""The line counter of tests/linecount.py."""

from linecount import counts, public_names

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """One line."""

    x = """not a docstring,
    but a value over two lines"""

    def f(self):
        """A method docstring."""
        return (1 +
                2)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # the import, the class line, the two lines of x, the def and the
    # two lines of the return
    assert counts(SOURCE) == (17, 7)


NAMES = '''import os
from math import pi as PI

LIMIT = 3
_CACHE = {}
a, (b, *_rest) = 1, (2, 3)
os.environ["X"] = "1"
N: int = 4


def f():
    inner = 1
    return inner


def _g():
    pass


class A:
    size = 1

    def __init__(self):
        pass

    def _helper(self):
        pass

    @property
    def value(self):
        return 1

    @value.setter
    def value(self, v):
        pass


class _B:
    def run(self):
        pass
'''


def test_public_names_are_module_names_and_methods_without_underscore():
    # LIMIT, a, b, N, f, A, A.value (getter and setter once) and _B.run;
    # not the imports, the item assignment, the class attribute or the
    # names of a function's body
    assert public_names(NAMES) == 8
