"""The module size count of ``tools/loc.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import loc  # noqa: E402

MODULE = '''"""A module docstring
over two lines."""

# a comment line
X = 1  # a trailing comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        text = """a string that is
        no docstring"""
        return (text,
                X)
'''


def test_count_leaves_out_layout_comments_and_docstrings():
    # code lines: X = 1, class A, def f, the two lines of text, the two
    # lines of the return
    assert loc.count(MODULE) == (17, 7)


def test_count_of_an_empty_module():
    assert loc.count("") == (0, 0)
