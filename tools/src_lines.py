"""Count code lines and docstring lines per module of src/phasedr.

A docstring line is a line spanned by a module, class or function
docstring.  A code line is any other line that holds something besides
whitespace and a comment.  Run from the repository root:

    python tools/src_lines.py [directory]
    python tools/src_lines.py --against REV [directory]

With --against, it reads the modules of src/phasedr at the git revision
REV with git ls-tree and git show, counts them and the directory
(src/phasedr when not given), and prints both counts and the difference
per module.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def counts(root) -> dict[str, tuple[int, int]]:
    """{module file name: (code lines, docstring lines)} of the modules in root."""
    return {path.name: count(path.read_text()) for path in sorted(Path(root).glob("*.py"))}


def _total(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The sums of the code and of the docstring lines of pairs."""
    return sum(c for c, _ in pairs), sum(d for _, d in pairs)


def table(modules: dict[str, tuple[int, int]]) -> list[str]:
    """The lines of the table of one count, with a total row."""
    rows = [*modules.items(), ("total", _total(list(modules.values())))]
    return [f"{'module':<16}{'code':>6}{'doc':>6}",
            *(f"{name:<16}{c:>6}{d:>6}" for name, (c, d) in rows)]


def comparison(before: dict[str, tuple[int, int]],
               after: dict[str, tuple[int, int]]) -> list[str]:
    """The lines of the table of two counts: per module, and in a total
    row, the code and docstring lines before and after and their signed
    difference.  A module in only one of them counts 0 lines in the other."""
    names = sorted(before.keys() | after.keys())
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0))) for name in names]
    rows.append(("total", _total([b for _, b, _ in rows]), _total([a for _, _, a in rows])))
    return [f"{'':<16}{'code lines':>21}{'docstring lines':>21}",
            f"{'module':<16}" + f"{'before':>7}{'after':>7}{'diff':>7}" * 2,
            *(f"{name:<16}{b[0]:>7}{a[0]:>7}{a[0] - b[0]:>+7}{b[1]:>7}{a[1]:>7}{a[1] - b[1]:>+7}"
              for name, b, a in rows)]


def against(rev: str) -> dict[str, tuple[int, int]]:
    """The counts of src/phasedr at the git revision rev, whose modules
    are read from the repository with git ls-tree and git show."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                              text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:src/phasedr").splitlines()
    return {name: count(git("show", f"{rev}:src/phasedr/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src/phasedr")
    parser.add_argument("--against", metavar="REV",
                        help="also count src/phasedr at git revision REV and print the difference")
    args = parser.parse_args(argv)
    here = counts(args.directory)
    print("\n".join(comparison(against(args.against), here) if args.against else table(here)))


if __name__ == "__main__":
    main()
