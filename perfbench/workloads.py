"""The three benchmark workloads, their set-up and their correctness checks.

Every workload uses the one-and-half layout and is a closed loop: one caller
runs one unit after another in a single process.  A unit is one instance: its
solves for `global-16` and `near-128`, one trial of the local-rate runner for
`local-rate-16`.  Seed s runs with experiment base seed SEED_STRIDE * s, so unit
t is the instance the library's runners build as trial t of that base seed, and
two seeds never share an instance.

All library calls go through attributes of the phasedr modules at call time,
so the spans installed by :mod:`perfbench.spans` see them.
"""

from __future__ import annotations

import tempfile
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

ISOMETRY_TOL = 1e-10   # the library's own construction check
ORACLE_TOL = 1e-6      # |lambda2 - sigma_2| of acceptance criterion 5
GEOMETRIC_DROP = 1e-2  # run_local_rate's "geometric" test: final <= 1e-2 * first
SEED_STRIDE = 10_000   # base seeds of consecutive benchmark seeds; caps the units per run
# Below any reachable error or step residual, so every solve runs its whole
# budget.  With criterion 7's tol 1e-9, global solves stop after 450 to 2000
# steps depending on the instance, and over 28 solves per run the median solve
# time still moved by 0.3-0.4 of itself from seed to seed.
FULL_BUDGET_TOL = 1e-300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int
    tol: float
    inits: tuple[str, ...]   # starts solved per instance; empty runs run_local_rate
    success: str             # "numeric": best error <= SUCCESS_NUMERIC; "geometric"
    unit_s: float            # planning figure for one unit here; sets units per run

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def config(self, pd, seed: int, units: int):
        """The experiment configuration for `units` instances of benchmark seed `seed`."""
        if not 0 < units <= SEED_STRIDE:
            raise ValueError(f"units must lie in [1, {SEED_STRIDE}], got {units}")
        shape = pd.grids.GridShape((self.size, self.size))
        return pd.experiments.ExperimentConfig(
            experiment=self.name,
            image=pd.images.ImageSpec(kind="rpp", shape=shape, margin=1),
            variant="one-and-half",
            trials=units,
            base_seed=SEED_STRIDE * seed,
            solver=pd.solvers.SolverConfig(algorithm="fdr", max_iters=2000, tol=self.tol),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="global-16",
            why="many short FDR solves from random and constant starts at 16x16, "
                "2000 steps each; per-call overhead dominates, spectral layer idle",
            size=16, tol=FULL_BUDGET_TOL, inits=("ri", "ci"), success="numeric", unit_s=3.0,
        ),
        Workload(
            name="near-128",
            why="near-solution FDR at 128x128 on a 255x255 grid; FFTs and mask "
                "phasors dominate, per-call overhead does not",
            size=128, tol=1e-10, inits=("near",), success="geometric", unit_s=6.0,
        ),
        Workload(
            name="local-rate-16",
            why="the paper's local-rate experiment at 16x16; the only workload "
                "using lambda2_power, the ODR extension and the CSV writer",
            size=16, tol=1e-10, inits=(), success="geometric", unit_s=7.5,
        ),
    )
}


def config_record(cfg) -> dict:
    """Full experiment configuration as plain JSON data."""
    rec = asdict(cfg)
    rec["image"]["shape"] = list(cfg.image.shape.dims)
    return rec


@dataclass
class Instance:
    x0: np.ndarray
    op: object
    b: np.ndarray


def build_instances(pd, cfg) -> list[Instance]:
    """Set-up: object, operator (with its isometry check) and data for every unit."""
    out = []
    for t in range(cfg.trials):
        x0, op = pd.experiments.make_instance(cfg, t)
        out.append(Instance(x0=x0, op=op, b=pd.forward.synthesize_data(op, x0).b))
    return out


def isometry_error(pd, op, seed: int = 2024) -> float:
    """max over three random x of ||A A* x - x|| / ||x||."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        err = np.linalg.norm(pd.forward.apply_a(op, pd.forward.apply_astar(op, x)) - x)
        worst = max(worst, float(err / np.linalg.norm(x)))
    return worst


@dataclass
class Op:
    """One attempted operation and its outcome; `value` is compared across passes."""

    label: str
    ok: bool
    value: float
    error: str = ""


def run_units(pd, wl: Workload, cfg, instances: list[Instance], tracer, tmp_root: Path) -> dict:
    """The timed section: every unit of the run, in order.

    Returns the attempted operations and, for local-rate-16, the lambda2 of
    each trial.  An exception in an operation marks it failed and the run
    goes on.
    """
    ops: list[Op] = []
    lambda2: list[float] = []
    ex = pd.experiments
    if wl.inits:
        for t, inst in enumerate(instances):
            tracer.run_id = t
            for kind in wl.inits:
                init = replace(cfg.solver.init, kind=kind,
                               seed=ex.role_seed(cfg.base_seed, t, ex.ROLE_INIT))
                label = f"{t}:{kind}"
                try:
                    res = pd.solvers.run_solver(replace(cfg.solver, init=init),
                                                inst.op, inst.b, inst.x0)
                except Exception:
                    ops.append(Op(label, False, float("nan"), traceback.format_exc()))
                    continue
                errs = [rel for _, rel, _ in res.history]
                if wl.success == "numeric":
                    best = min(errs)
                    ops.append(Op(label, bool(best <= ex.SUCCESS_NUMERIC), best))
                else:
                    ops.append(Op(label, bool(errs[-1] <= GEOMETRIC_DROP * errs[0]), errs[-1]))
        return {"ops": ops, "lambda2": lambda2}

    tracer.run_id = 0
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        try:
            res = ex.run_local_rate(replace(cfg, out=str(Path(tmp) / "local_rate.csv")))
        except Exception:
            err = traceback.format_exc()
            for t in range(cfg.trials):
                for algo in ("lambda2", "fdr", "odr"):
                    ops.append(Op(f"{t}:{algo}", False, float("nan"), err))
            return {"ops": ops, "lambda2": lambda2}
    for entry in res.trials:
        t = entry["trial"]
        lambda2.append(entry["lambda2"])
        ops.append(Op(f"{t}:lambda2", bool(entry["power_converged"]), entry["lambda2"]))
        for algo in ("fdr", "odr"):
            ops.append(Op(f"{t}:{algo}", bool(entry[f"{algo}_geometric"]), entry[f"{algo}_final"]))
    return {"ops": ops, "lambda2": lambda2}


def oracle_errors(pd, instances: list[Instance], lambda2: list[float]) -> list[float]:
    """|lambda2 - sigma_2| against the dense SVD oracle, per local-rate trial."""
    sp = pd.spectral
    out = []
    for inst, lam in zip(instances, lambda2):
        if 2 * inst.op.n * inst.op.N > sp.DENSE_GUARD:
            raise ValueError(f"oracle too large: 2n*N = {2 * inst.op.n * inst.op.N}")
        pt = sp.linearize_at_solution(inst.op, inst.x0)
        out.append(abs(lam - float(sp.svd_oracle(pt, inst.op).values[1])))
    return out
