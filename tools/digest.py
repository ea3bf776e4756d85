"""Print one "case sha256" line per case: a digest of phasedr's outputs.

The cases are run_solver solves (four mask layouts, four grids, FDR and
ODR at three paddings, three starts, with and without a sector) and
pooled 64x64 FDR and ODR solves; A* and A, and the extension's operators
on its lift, on the same layouts, grids and paddings (U A~ y of a random
y, and A~* of that block); and lambda2_power reports at 6x6.
Each line hashes the bytes of its outputs, so two checkouts print the
same lines exactly when they give the same bits.  phasedr is imported
from the src/ of the checkout this file is in.  To check that a change
keeps every output, run the file in a checkout of the parent commit and
in the change, and diff the two outputs:

    python parent/tools/digest.py > before.txt
    python change/tools/digest.py > after.txt
    diff before.txt after.txt

About 8 s on 2 vCPUs (Xeon, numpy 2.4.6).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasedr.forward import (
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_operator,
)
from phasedr.grids import GridShape
from phasedr.solvers import NO_SECTOR, InitSpec, SectorSpec, SolverConfig, run_solver
from phasedr.spectral import lambda2_power, linearize_at_solution

VARIANTS = ("one-mask", "one-and-half", "two-mask", "multi")
DIMS = ((3, 4, 5), (8, 8), (16, 16), (40, 40))
STARTS = ("ri", "ci", "near")
SECTORS = {"free": NO_SECTOR, "sector": SectorSpec(0.25, 0.5)}
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


def _extension(variant, dims, padding) -> list:
    op, _, _ = instance(variant, dims)
    ext = extend_op(op, PADDINGS[padding](op.n, op.N))
    rng = np.random.default_rng(17)
    h = extended_a(ext, rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N))
    return [h, extended_astar(ext, h)]


def _spectral(variant) -> list:
    op, x0, _ = instance(variant, (6, 6))
    return [repr(astuple(lambda2_power(linearize_at_solution(op, x0), op, seed=5)))]


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
    # 64x64 runs on a 127x127 grid, where the transforms split over the
    # pool: FDR's on the whole stack, ODR's on the compact block at 4n.
    for padding in (None, "4n"):
        algorithm = f"odr-{padding}" if padding else "fdr"
        cases[f"solve/one-and-half/64x64/{algorithm}/ri/free"] = (
            _solve, "one-and-half", (64, 64), padding, "ri", "free")
    for variant in VARIANTS:
        cases[f"lambda2/{variant}/6x6"] = (_spectral, variant)
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


def main() -> None:
    for name in CASES:
        print(line(name), flush=True)


if __name__ == "__main__":
    main()
