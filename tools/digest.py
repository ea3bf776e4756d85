"""Print one "case sha256" line per case: a digest of phasedr's outputs.

The cases are run_solver solves (four mask layouts, four grids, FDR and
ODR at three paddings, three starts, with and without a sector) and
pooled 64x64 FDR and ODR solves; A* and A, and the extension's operators
on its lift, on the same layouts, grids and paddings (U A~ y of a random
y, and A~* of that block); A and then A* twice on one held plan, on a
dense and an FFT grid; lambda2_power reports at 6x6; and, at 6x6 and
16x16 on the four layouts, the real form of B and its transpose (one-shot
and on one held plan), the gap diagnostic, and, in cases of their own,
S_loc; and one-shot DR steps, fdr_step(y, op, b, sector) and
odr_step(h, ext, b, sector) on h = U A~ y, on the four layouts at 3x4x5,
8x8 and 40x40 with no sector, a convex one and a non-convex one, ODR at
the 4n and n+3 paddings where they are below N.
Each line hashes the bytes of its outputs, so two checkouts print the
same lines exactly when they give the same bits.  phasedr is imported
from the src/ of the checkout this file is in.  To check that a change
keeps every output, run, from the change's checkout,

    python tools/digest.py --against REV

It makes a temporary git worktree of the revision REV, runs this file's
cases on that worktree's src/ and on this checkout's, each in a
subprocess, and prints the names of the cases whose lines differ; it
exits 1 when any do and 0 when none do.  Without --against it prints the
lines.  About 8 s per checkout on 2 vCPUs (Xeon, numpy 2.4.6).
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from phasedr.forward import (
    OperatorPlan,
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_operator,
)
from phasedr.grids import GridShape, unrealify
from phasedr.solvers import (NO_SECTOR, InitSpec, SectorSpec, SolverConfig, fdr_step, odr_step,
                             run_solver)
from phasedr.spectral import (
    apply_realB,
    apply_realB_T,
    apply_Sloc,
    check_gap_condition,
    lambda2_power,
    linearize_at_solution,
)

VARIANTS = ("one-mask", "one-and-half", "two-mask", "multi")
DIMS = ((3, 4, 5), (8, 8), (16, 16), (40, 40))
STARTS = ("ri", "ci", "near")
SECTORS = {"free": NO_SECTOR, "sector": SectorSpec(0.25, 0.5)}
# The steps also run in a non-convex sector (alpha + beta > 1), where a
# point within a quarter turn past one edge can be nearer the other.
STEP_SECTORS = {**SECTORS, "wide": SectorSpec(0.75, 0.75)}
# The ODR paddings: the default, halfway to N, and a cut one.
PADDINGS = {"4n": lambda n, N: min(4 * n, N), "half": lambda n, N: (n + N) // 2 + 1,
            "n+3": lambda n, N: n + 3}
MAX_ITERS = 25


@lru_cache(maxsize=None)
def instance(variant: str, dims: tuple[int, ...]):
    """(op, x0, b): the layout's operator, a random object and |A* x0|."""
    op = make_operator(variant, GridShape(dims), seed=7)
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    return op, x0, np.abs(apply_astar(op, x0))


def _solve(variant, dims, padding, start, sector) -> list:
    op, x0, b = instance(variant, dims)
    ntilde = PADDINGS[padding](op.n, op.N) if padding else None
    cfg = SolverConfig(algorithm="odr" if padding else "fdr", ntilde=ntilde,
                       max_iters=MAX_ITERS, init=InitSpec(kind=start, seed=3, delta=1e-2),
                       sector=SECTORS[sector])
    res = run_solver(cfg, op, b, x0)
    return [repr(res.history), res.x_hat, res.iterations, res.stop, res.ntilde]


def _operators(variant, dims) -> list:
    op, _, _ = instance(variant, dims)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    y = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
    return [apply_astar(op, x), apply_a(op, y)]


def _held_plan(variant, dims) -> list:
    """A y, then A* of two foreign vectors, on one OperatorPlan.  A* on a
    held plan may return the plan's buffer, so each result is copied
    before the next call."""
    op, _, _ = instance(variant, dims)
    rng = np.random.default_rng(29)
    y = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
    x1 = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    x2 = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    plan = OperatorPlan(op)
    out = [apply_a(op, y, plan=plan)]
    return out + [apply_astar(op, x, plan=plan).copy() for x in (x1, x2)]


def _extension(variant, dims, padding) -> list:
    op, _, _ = instance(variant, dims)
    ext = extend_op(op, PADDINGS[padding](op.n, op.N))
    rng = np.random.default_rng(17)
    h = extended_a(ext, rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N))
    return [h, extended_astar(ext, h)]


def _step(variant, dims, padding, sector) -> list:
    """One step from a random y: FDR's, or ODR's on the lift U A~ y."""
    op, _, b = instance(variant, dims)
    rng = np.random.default_rng(31)
    y = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
    if padding is None:
        return [fdr_step(y, op, b, STEP_SECTORS[sector])]
    ext = extend_op(op, PADDINGS[padding](op.n, op.N))
    return [odr_step(extended_a(ext, y), ext, b, STEP_SECTORS[sector])]


def _spectral(variant) -> list:
    op, x0, _ = instance(variant, (6, 6))
    return [repr(astuple(lambda2_power(linearize_at_solution(op, x0), op, seed=5)))]


def _bmaps(variant, dims) -> list:
    """apply_realB and apply_realB_T one-shot, then twice on one held plan
    with the Gram matvec between, and the gap diagnostic.  A held plan's
    apply_realB_T result is its buffer, so it is copied before the next call."""
    op, x0, _ = instance(variant, dims)
    pt = linearize_at_solution(op, x0)
    rng = np.random.default_rng(19)
    r, u = rng.standard_normal(op.N), rng.standard_normal(2 * op.n)
    out, plan = [apply_realB(pt, op, r), apply_realB_T(pt, op, u).copy()], OperatorPlan(op)
    for _ in range(2):
        out += [apply_realB(pt, op, r, plan), apply_realB_T(pt, op, u, plan).copy(),
                apply_realB(pt, op, apply_realB_T(pt, op, u, plan), plan)]
    gap = check_gap_condition(pt, op, unrealify(u))
    return out + [gap.im_norm, gap.defects]


def _sloc(variant, dims) -> list:
    op, x0, _ = instance(variant, dims)
    rng = np.random.default_rng(23)
    return [apply_Sloc(linearize_at_solution(op, x0), op,
                       rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N))]


def _cases() -> dict:
    cases = {}
    for dims in DIMS:
        tag = "x".join(map(str, dims))
        for variant in VARIANTS:
            for padding in (None, *PADDINGS):
                algorithm = f"odr-{padding}" if padding else "fdr"
                for start in STARTS:
                    for sector in SECTORS:
                        cases[f"solve/{variant}/{tag}/{algorithm}/{start}/{sector}"] = (
                            _solve, variant, dims, padding, start, sector)
            cases[f"ops/{variant}/{tag}"] = (_operators, variant, dims)
            for padding in PADDINGS:
                cases[f"ext/{variant}/{tag}/{padding}"] = (_extension, variant, dims, padding)
    for dims in ((3, 4, 5), (8, 8), (40, 40)):
        tag = "x".join(map(str, dims))
        for variant in VARIANTS:
            op = instance(variant, dims)[0]
            for padding in (None, "4n", "n+3"):
                if padding and PADDINGS[padding](op.n, op.N) >= op.N:
                    continue
                algorithm = f"odr-{padding}" if padding else "fdr"
                for sector in STEP_SECTORS:
                    cases[f"step/{variant}/{tag}/{algorithm}/{sector}"] = (
                        _step, variant, dims, padding, sector)
    # 64x64 runs on a 127x127 grid, where the transforms split over the
    # pool: FDR's on the whole stack, ODR's on the compact block at 4n.
    for padding in (None, "4n"):
        algorithm = f"odr-{padding}" if padding else "fdr"
        cases[f"solve/one-and-half/64x64/{algorithm}/ri/free"] = (
            _solve, "one-and-half", (64, 64), padding, "ri", "free")
    # A dense 15x15 and an FFT 79x79 image grid.
    for dims in ((8, 8), (40, 40)):
        tag = "x".join(map(str, dims))
        cases[f"heldplan/one-and-half/{tag}"] = (_held_plan, "one-and-half", dims)
    for variant in VARIANTS:
        cases[f"lambda2/{variant}/6x6"] = (_spectral, variant)
        for dims in ((6, 6), (16, 16)):
            tag = "x".join(map(str, dims))
            cases[f"bmaps/{variant}/{tag}"] = (_bmaps, variant, dims)
            cases[f"sloc/{variant}/{tag}"] = (_sloc, variant, dims)
    return cases


CASES = _cases()


def line(name: str) -> str:
    """The digest line of one case: its name and the sha256 of its outputs."""
    fn, *args = CASES[name]
    h = hashlib.sha256()
    for v in fn(*args):
        h.update(np.ascontiguousarray(v).tobytes() if isinstance(v, np.ndarray)
                 else repr(v).encode())
    return f"{name} {h.hexdigest()}"


def differing(before: list[str], after: list[str]) -> list[str]:
    """The names of the cases whose lines differ between two digests, or
    that only one of them has, in the order they first appear."""
    old, new = (dict(entry.rsplit(" ", 1) for entry in lines) for lines in (before, after))
    return [name for name in {**old, **new} if old.get(name) != new.get(name)]


def digest_of(src: Path) -> list[str]:
    """This file's lines, printed by a subprocess that imports phasedr from
    src first: the file's own src/ then comes first on sys.path, but the
    package's modules load from the package already imported."""
    code = (f"import sys, runpy; sys.path.insert(0, {str(src)!r}); import phasedr; "
            f"runpy.run_path({__file__!r}, run_name='__main__')")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return run.stdout.splitlines()


def against(rev: str) -> int:
    """Print the cases whose lines differ between the revision rev and this
    checkout; 1 when any do, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            before = digest_of(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    names = differing(before, digest_of(ROOT / "src"))
    for name in names:
        print(name)
    return 1 if names else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="print the cases that differ between git revision REV and this checkout")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    for name in CASES:
        print(line(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
