"""Tests for tools/digest.py, the output digest that compares two checkouts."""

import importlib.util
import re
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_case_run_twice_prints_the_same_line():
    name = next(iter(digest.CASES))  # the FDR solve on the smallest grid
    first = digest.line(name)
    assert re.fullmatch(re.escape(name) + r" [0-9a-f]{64}", first)
    assert digest.line(name) == first

