"""Tests for the line-counting rule and the tables of tools/src_lines.py."""

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


def test_table_lists_each_module_and_the_total():
    assert src_lines.table({"a.py": (10, 5), "b.py": (3, 0)}) == [
        "module            code   doc",
        "a.py                10     5",
        "b.py                 3     0",
        "total               13     5",
    ]


def test_comparison_gives_both_counts_and_the_signed_difference():
    # b.py shrank, c.py is new and d.py is gone; each counts 0 where missing.
    before = {"a.py": (10, 5), "b.py": (30, 8), "d.py": (4, 1)}
    after = {"a.py": (10, 5), "b.py": (25, 9), "c.py": (2, 0)}
    lines = src_lines.comparison(before, after)
    assert lines[1].split() == ["module"] + ["before", "after", "diff"] * 2
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert rows == {
        "a.py": ["10", "10", "+0", "5", "5", "+0"],
        "b.py": ["30", "25", "-5", "8", "9", "+1"],
        "c.py": ["0", "2", "+2", "0", "0", "+0"],
        "d.py": ["4", "0", "-4", "1", "0", "-1"],
        "total": ["44", "37", "-7", "14", "14", "+0"],
    }
    assert [line.split()[0] for line in lines[2:]] == ["a.py", "b.py", "c.py", "d.py", "total"]
    assert len({len(line) for line in lines[1:]}) == 1  # the columns line up


def test_counts_reads_every_module_of_a_directory(tmp_path):
    (tmp_path / "one.py").write_text(SOURCE)
    (tmp_path / "two.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert src_lines.counts(tmp_path) == {"one.py": (10, 5), "two.py": (1, 0)}
