"""Tests for the line-counting rule of tools/src_lines.py."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
spanning two lines."""

# a comment-only line
import os  # a trailing comment leaves the line a code line


def join(a,
         b):
    """One-line docstring."""
    # another comment-only line

    return os.path.join(
        a,
        b,
    )


class Holder:
    """Class
    docstring."""
    text = """a string that is not
    a docstring"""
'''


def test_count_splits_code_and_docstring_lines():
    # Code: import (1), the def header (2), the return call (4), the class
    # header (1), the assignment (2).  Docstrings: module (2), def (1), class (2).
    assert src_lines.count(SOURCE) == (10, 5)
