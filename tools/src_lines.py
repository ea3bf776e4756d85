"""Count code lines and docstring lines per module of src/phasedr.

A docstring line is a line spanned by a module, class or function
docstring.  A code line is any other line that holds something besides
whitespace and a comment.  Run from the repository root:

    python tools/src_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    tree = ast.parse(source)
    doc = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc)


def main(root: str = "src/phasedr") -> None:
    total = [0, 0]
    print(f"{'module':<16}{'code':>6}{'doc':>6}")
    for path in sorted(Path(root).glob("*.py")):
        c, d = count(path.read_text())
        total[0] += c
        total[1] += d
        print(f"{path.name:<16}{c:>6}{d:>6}")
    print(f"{'total':<16}{total[0]:>6}{total[1]:>6}")


if __name__ == "__main__":
    main(*sys.argv[1:])
