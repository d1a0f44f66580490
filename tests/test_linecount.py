"""The line counter of tests/linecount.py."""

from linecount import counts

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
