"""Desk-scale experiment runners: local rates, global recovery, noise, padding.

Every runner is deterministic given (config, base seed): trial t uses
base_seed + t as its identity, and each random role (image, mask, init,
noise, extension) derives its own sub-seed from it.  Runners return their
rows and summary statistics and, when an output path is configured, write a
CSV with a `#` comment recording the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .forward import make_operator, synthesize_data
from .images import ImageSpec, gen_image
from .io import write_csv
from .solvers import (
    ALGO_FDR,
    ALGO_ODR,
    INIT_CONSTANT,
    INIT_NEAR,
    INIT_RANDOM,
    SolverConfig,
    run_solver,
)
from .spectral import lambda2_power, linearize_at_solution

ROLE_IMAGE = 1
ROLE_MASK = 2
ROLE_INIT = 3
ROLE_NOISE = 4
ROLE_EXT = 5

SUCCESS_VISUAL = 1e-4
SUCCESS_NUMERIC = 1e-8


def role_seed(base_seed: int, trial: int, role: int) -> int:
    """Collision-free per-role sub-seed for one trial."""
    return (base_seed + trial) * 1009 + role


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    image: ImageSpec
    variant: str = "one-and-half"
    patterns: int = 3
    trials: int = 20
    base_seed: int = 0
    solver: SolverConfig = SolverConfig()
    nsr_grid: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    ntilde_ratios: tuple[float, ...] = (4.0, 5.0, 6.0, 7.0, 8.0)
    out: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.nsr_grid or not self.ntilde_ratios:
            raise ValueError("parameter grids must be nonempty")

    def comment(self) -> str:
        return (
            f"experiment={self.experiment} shape={self.image.shape} kind={self.image.kind} "
            f"margin={self.image.margin} sector=({self.image.alpha},{self.image.beta}) "
            f"variant={self.variant} patterns={self.patterns} trials={self.trials} "
            f"base_seed={self.base_seed} algo={self.solver.algorithm} "
            f"max_iters={self.solver.max_iters} tol={self.solver.tol} "
            f"init={self.solver.init.kind} ntilde={self.solver.ntilde}"
        )


def make_instance(cfg: ExperimentConfig, trial: int):
    """Object (unit norm, flattened), operator and grid shape for one trial."""
    img_spec = replace(cfg.image, seed=role_seed(cfg.base_seed, trial, ROLE_IMAGE))
    grid = gen_image(img_spec)
    x0 = grid.ravel()
    x0 = x0 / np.linalg.norm(x0)
    op = make_operator(
        cfg.variant, cfg.image.shape,
        seed=role_seed(cfg.base_seed, trial, ROLE_MASK),
        patterns=cfg.patterns,
    )
    return x0, op


def _iters_to(history, threshold: float) -> float:
    for k, rel, _ in history:
        if rel <= threshold:
            return float(k)
    return float("nan")


@dataclass
class LocalRateResult:
    rows: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    csv_path: Path | None = None


def run_local_rate(cfg: ExperimentConfig) -> LocalRateResult:
    """Near-solution error curves for FDR and ODR against the l_2 geometric line.

    Emits rows (trial, algo, k, error, lambda2_ref) with lambda2_ref = l_2^(k-1).
    A trial counts as geometric when its error drops at least two decades below
    the starting offset; only geometric trials should enter rate statistics.
    """
    out = LocalRateResult()
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        report = lambda2_power(linearize_at_solution(op, x0), op)
        lam2 = report.lambda2

        ntilde = cfg.solver.ntilde if cfg.solver.ntilde is not None else min(4 * op.n, op.N)
        runs = {
            ALGO_FDR: replace(
                cfg.solver, algorithm=ALGO_FDR, ntilde=None,
                init=replace(cfg.solver.init, kind=INIT_NEAR,
                             seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
            ),
            ALGO_ODR: replace(
                cfg.solver, algorithm=ALGO_ODR, ntilde=ntilde,
                ext_seed=role_seed(cfg.base_seed, t, ROLE_EXT),
                init=replace(cfg.solver.init, kind=INIT_NEAR,
                             seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
            ),
        }
        entry = {"trial": t, "lambda2": lam2, "power_converged": report.converged}
        for algo, scfg in runs.items():
            res = run_solver(scfg, op, data.b, x0)
            for k, rel, _ in res.history:
                out.rows.append((t, algo, k, rel, lam2 ** (k - 1)))
            first = res.history[0][1]
            final = res.history[-1][1]
            entry[f"{algo}_rate"] = res.rate_estimate
            entry[f"{algo}_final"] = final
            entry[f"{algo}_geometric"] = bool(final <= 1e-2 * first)
        out.trials.append(entry)

    if cfg.out:
        out.csv_path = write_csv(
            cfg.out, ["trial", "algo", "k", "error", "lambda2_ref"], out.rows, cfg.comment()
        )
    return out


@dataclass
class GlobalResult:
    rows: list = field(default_factory=list)
    success: dict = field(default_factory=dict)
    iters_to_visual: dict = field(default_factory=dict)
    csv_path: Path | None = None


def run_global(cfg: ExperimentConfig, inits: tuple[str, ...] = (INIT_RANDOM, INIT_CONSTANT)) -> GlobalResult:
    """Recovery from scratch under random and constant initializations.

    Emits rows (trial, init, k, relative_error); success rates are the
    fraction of trials whose error reaches 1e-4 / 1e-8 at any iteration.
    """
    out = GlobalResult()
    reached = {(init, thr): 0 for init in inits for thr in (SUCCESS_VISUAL, SUCCESS_NUMERIC)}
    out.iters_to_visual = {init: [] for init in inits}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        for init in inits:
            scfg = replace(
                cfg.solver,
                init=replace(cfg.solver.init, kind=init,
                             seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
            )
            res = run_solver(scfg, op, data.b, x0)
            best = np.inf
            for k, rel, _ in res.history:
                out.rows.append((t, init, k, rel))
                best = min(best, rel)
            for thr in (SUCCESS_VISUAL, SUCCESS_NUMERIC):
                if best <= thr:
                    reached[(init, thr)] += 1
            out.iters_to_visual[init].append(_iters_to(res.history, SUCCESS_VISUAL))
    out.success = {key: count / cfg.trials for key, count in reached.items()}
    if cfg.out:
        out.csv_path = write_csv(
            cfg.out, ["trial", "init", "k", "relative_error"], out.rows, cfg.comment()
        )
    return out


@dataclass
class NoiseSweepResult:
    rows: list = field(default_factory=list)
    medians: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)
    budgets: tuple[int, int] = (0, 0)
    csv_path: Path | None = None


def run_noise_sweep(cfg: ExperimentConfig) -> NoiseSweepResult:
    """Final error versus noise-to-signal ratio at two iteration budgets.

    Runs each (NSR, trial) once at 2*max_iters and reads the max_iters
    result off that run: its history row k = max_iters when the run went
    past max_iters, else its own final error (it stopped early, converged
    or not finite, exactly as a max_iters run would have).  Summarizes each
    NSR by the median across trials and fits a least-squares slope of
    median error against NSR over NSR <= 0.2.
    """
    if any(nsr < 0 or nsr > 0.5 for nsr in cfg.nsr_grid):
        raise ValueError("nsr grid must lie in [0, 0.5]")
    out = NoiseSweepResult()
    budgets = (cfg.solver.max_iters, 2 * cfg.solver.max_iters)
    short, full = budgets
    out.budgets = budgets
    errs = {(nsr, budget): [] for nsr in cfg.nsr_grid for budget in budgets}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        for nsr in cfg.nsr_grid:
            data = synthesize_data(op, x0, nsr=nsr,
                                   noise_seed=role_seed(cfg.base_seed, t, ROLE_NOISE))
            scfg = replace(
                cfg.solver, max_iters=full,
                init=replace(cfg.solver.init,
                             seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
            )
            res = run_solver(scfg, op, data.b, x0)
            at_short = res.history[short - 1][1] if res.iterations > short else res.relative_error
            for budget, err in zip(budgets, (at_short, res.relative_error)):
                out.rows.append((nsr, t, budget, err))
                errs[(nsr, budget)].append(err)

    out.medians = {key: float(np.median(v)) for key, v in errs.items()}
    for budget in budgets:
        pts = [(nsr, out.medians[(nsr, budget)]) for nsr in cfg.nsr_grid if nsr <= 0.2]
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        out.slopes[budget] = float(np.polyfit(xs, ys, 1)[0]) if xs.size >= 2 else float("nan")
    if cfg.out:
        out.csv_path = write_csv(
            cfg.out, ["nsr", "trial", "max_iters", "relative_error"], out.rows, cfg.comment()
        )
    return out


@dataclass
class PaddingSweepResult:
    rows: list = field(default_factory=list)
    mean_error: dict = field(default_factory=dict)
    success_rate: dict = field(default_factory=dict)
    trend_correlation: float = float("nan")
    csv_path: Path | None = None


def ratio_to_ntilde(ratio: float, n: int, N: int) -> int:
    return max(n, min(int(round(ratio * n)), N))


def run_padding_sweep(cfg: ExperimentConfig) -> PaddingSweepResult:
    """Final error of the object-domain iteration versus the padding ratio.

    Ratios map to ntilde = min(round(ratio*n), N); the endpoint ntilde = N is
    executed through the Fourier-domain recursion, which is the identical
    iteration there, so those trials match FDR runs bit for bit under equal
    seeds.  Emits rows (ratio, ntilde, trial, final_error, min_error, iters).
    """
    out = PaddingSweepResult()
    per_ratio: dict[float, list] = {r: [] for r in cfg.ntilde_ratios}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        for ratio in cfg.ntilde_ratios:
            ntilde = ratio_to_ntilde(ratio, op.n, op.N)
            if ntilde == op.N:
                scfg = replace(
                    cfg.solver, algorithm=ALGO_FDR, ntilde=None,
                    init=replace(cfg.solver.init, kind=INIT_RANDOM,
                                 seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
                )
            else:
                scfg = replace(
                    cfg.solver, algorithm=ALGO_ODR, ntilde=ntilde,
                    ext_seed=role_seed(cfg.base_seed, t, ROLE_EXT),
                    init=replace(cfg.solver.init, kind=INIT_RANDOM,
                                 seed=role_seed(cfg.base_seed, t, ROLE_INIT)),
                )
            res = run_solver(scfg, op, data.b, x0)
            final = res.relative_error
            best = np.nanmin([rel for _, rel, _ in res.history])
            out.rows.append((ratio, ntilde, t, final, float(best), res.iterations))
            per_ratio[ratio].append((final, best))

    for ratio, vals in per_ratio.items():
        finals = np.array([v[0] for v in vals])
        bests = np.array([v[1] for v in vals])
        out.mean_error[ratio] = float(finals.mean())
        out.success_rate[ratio] = float((bests <= SUCCESS_VISUAL).mean())
    ratios = sorted(per_ratio)
    out.trend_correlation = rank_correlation(
        ratios, [out.success_rate[r] for r in ratios]
    )
    if cfg.out:
        out.csv_path = write_csv(
            cfg.out,
            ["ratio", "ntilde", "trial", "final_error", "min_error", "iters"],
            out.rows, cfg.comment(),
        )
    return out


def rank_correlation(xs, ys) -> float:
    """Spearman-style rank correlation (stable ranks, no tie averaging)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs, kind="stable"), kind="stable").astype(float)
    ry = np.argsort(np.argsort(ys, kind="stable"), kind="stable").astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def prob_lower_bound(n: int, S: int, alpha: float, beta: float) -> float:
    """Lower bound 1 - n*|(beta+alpha)/2|^floor(S/2) on the uniqueness probability.

    S is the sparsity of the image and must be >= 0; a negative S raises
    ValueError, as do sector bounds outside [0, 1].
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("sector bounds must lie in [0, 1]")
    return 1.0 - n * abs((beta + alpha) / 2.0) ** (S // 2)
