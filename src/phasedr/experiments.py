"""Desk-scale experiment runners: spectral gap, local rates, global, noise, padding.

Every runner is deterministic given (config, base seed): trial t uses
base_seed + t as its identity, and each random role (image, mask, init,
noise) derives its own sub-seed from it.  Each runner returns a subclass
of `ExperimentResult`, which holds the emitted `rows` and `csv_path`: when
cfg.out is set, `save` writes the rows there as a CSV with a `#` comment
recording the configuration and sets `csv_path`, which otherwise stays None.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .forward import make_operator, synthesize_data
from .grids import _norm
from .images import ImageSpec, gen_image
from .io import write_csv
from .solvers import (
    ALGO_FDR,
    ALGO_ODR,
    INIT_CONSTANT,
    INIT_NEAR,
    INIT_RANDOM,
    SectorSpec,
    SolverConfig,
    run_solver,
)
from .spectral import DENSE_GUARD, lambda2_power, linearize_at_solution, svd_oracle

ROLE_IMAGE = 1
ROLE_MASK = 2
ROLE_INIT = 3
ROLE_NOISE = 4

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

    def instance_comment(self) -> str:
        """`key=value` pairs of what make_instance builds, for runners that run no solver."""
        return (
            f"experiment={self.experiment} shape={self.image.shape} kind={self.image.kind} "
            f"margin={self.image.margin} sector=({self.image.alpha},{self.image.beta}) "
            f"variant={self.variant} patterns={self.patterns} trials={self.trials} "
            f"base_seed={self.base_seed}"
        )

    def comment(self, algos: tuple[str, ...] = (), inits: tuple[str, ...] = ()) -> str:
        """`key=value` pairs; `algos` / `inits` name what a runner ran when not the solver's."""
        sector = self.solver.sector
        algos = algos or (self.solver.algorithm,)
        inits = inits or (self.solver.init.kind,)
        return (
            f"{self.instance_comment()} algo={','.join(algos)} "
            f"max_iters={self.solver.max_iters} tol={self.solver.tol} "
            f"init={','.join(inits)} init_delta={self.solver.init.delta} "
            f"ntilde={self.solver.ntilde} "
            f"solver_sector=({sector.alpha},{sector.beta}) "
            f"nsr_grid={','.join(map(str, self.nsr_grid))} "
            f"ntilde_ratios={','.join(map(str, self.ntilde_ratios))}"
        )


def make_instance(cfg: ExperimentConfig, trial: int):
    """(x0, op): the trial's object (unit norm, flattened) and its operator."""
    img_spec = replace(cfg.image, seed=role_seed(cfg.base_seed, trial, ROLE_IMAGE))
    grid = gen_image(img_spec)
    x0 = grid.ravel()
    x0 = x0 / _norm(x0)
    op = make_operator(
        cfg.variant, cfg.image.shape,
        seed=role_seed(cfg.base_seed, trial, ROLE_MASK),
        patterns=cfg.patterns,
    )
    return x0, op


def _trial_solver(cfg: ExperimentConfig, trial: int, **changes) -> SolverConfig:
    """cfg.solver with `changes` and the trial's own init seed."""
    init = replace(cfg.solver.init, seed=role_seed(cfg.base_seed, trial, ROLE_INIT))
    return replace(cfg.solver, init=init, **changes)


def _iters_to(history, threshold: float) -> float:
    for k, rel, _ in history:
        if rel <= threshold:
            return float(k)
    return float("nan")


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)
    csv_path: Path | None = None

    def save(self, cfg: ExperimentConfig, header: list[str], comment: str):
        """Write `rows` under `header` to cfg.out, if set, and return self."""
        if cfg.out:
            self.csv_path = write_csv(cfg.out, header, self.rows, comment)
        return self


@dataclass
class SpectralCertResult(ExperimentResult):
    unconverged: list = field(default_factory=list)
    max_lambda2: float = 0.0

    @property
    def certified(self) -> bool:
        return not self.unconverged and self.max_lambda2 < 1.0

    @property
    def verdict(self) -> str:
        if self.unconverged:
            return f"NOT CONVERGED on trial(s) {', '.join(map(str, self.unconverged))}"
        return "gap certified" if self.certified else "NO GAP"


def run_spectral_cert(cfg: ExperimentConfig) -> SpectralCertResult:
    """Lanczos l_2 at each trial's solution; certified if all converged below 1.

    Converged trials with 2n*N <= DENSE_GUARD are checked against the dense
    SVD oracle, and a drift above 1e-6 raises RuntimeError.  Emits rows
    (seed, variant, n, N, lambda1, lambda2, lambda2n, residual, power_iters,
    next_ritz, restarts, trial); no solver runs, so the comment has instance keys only.
    """
    out = SpectralCertResult()
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        pt = linearize_at_solution(op, x0)
        report = lambda2_power(pt, op)
        if not report.converged:
            out.unconverged.append(t)
        elif 2 * op.n * op.N <= DENSE_GUARD:
            drift = abs(report.lambda2 - svd_oracle(pt, op).values[1])
            if drift > 1e-6:
                raise RuntimeError(f"Lanczos/SVD disagreement {drift:.2e} at trial {t}")
        out.rows.append((cfg.base_seed, cfg.variant, op.n, op.N, report.lambda1, report.lambda2,
                         report.lambda2n, report.residual, report.power_iters,
                         report.next_ritz, report.restarts, t))
        out.max_lambda2 = max(out.max_lambda2, report.lambda2)
    return out.save(cfg, ["seed", "variant", "n", "N", "lambda1", "lambda2", "lambda2n", "residual",
                          "power_iters", "next_ritz", "restarts", "trial"], cfg.instance_comment())


@dataclass
class LocalRateResult(ExperimentResult):
    trials: list = field(default_factory=list)


def run_local_rate(cfg: ExperimentConfig) -> LocalRateResult:
    """Near-solution error curves for FDR and ODR against the l_2 geometric line.

    Both runs of a trial start near the solution, at one point (delta and
    seed from the configured init): FDR at y0, ODR at A~ y0.  They differ
    only in the algorithm; ODR pads to the configured ntilde, by default
    run_solver's min(4n, N).  Each trial entry records that padding as
    `odr_ntilde`: at odr_ntilde = N (for instance multi with L <= 4
    patterns) ODR is the FDR recursion, so the trial's odr rows repeat its
    fdr rows.  Emits rows
    (trial, algo, k, error, lambda2_ref) with lambda2_ref = l_2^(k-1), the
    FDR reference line, on the rows of both algorithms.  Below full padding
    ODR's local rate is the second eigenvalue modulus of its own Jacobian,
    not l_2, so odr rows need not follow that line.
    A trial counts as geometric when its error drops at least two decades below
    the starting offset; only geometric trials should enter rate statistics.
    """
    cfg = replace(cfg, solver=replace(cfg.solver, init=replace(cfg.solver.init, kind=INIT_NEAR)))
    algos = (ALGO_FDR, ALGO_ODR)
    out = LocalRateResult()
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        report = lambda2_power(linearize_at_solution(op, x0), op)
        lam2 = report.lambda2

        entry = {"trial": t, "lambda2": lam2, "power_converged": report.converged}
        for algo in algos:
            res = run_solver(_trial_solver(cfg, t, algorithm=algo), op, data.b, x0)
            for k, rel, _ in res.history:
                out.rows.append((t, algo, k, rel, lam2 ** (k - 1)))
            first = res.history[0][1]
            final = res.history[-1][1]
            entry[f"{algo}_rate"] = res.rate_estimate
            entry[f"{algo}_final"] = final
            entry[f"{algo}_geometric"] = bool(final <= 1e-2 * first)
            if algo == ALGO_ODR:
                entry["odr_ntilde"] = res.ntilde
        out.trials.append(entry)
    return out.save(cfg, ["trial", "algo", "k", "error", "lambda2_ref"], cfg.comment(algos=algos))


@dataclass
class GlobalResult(ExperimentResult):
    success: dict = field(default_factory=dict)
    iters_to_visual: dict = field(default_factory=dict)


def run_global(cfg: ExperimentConfig, inits: tuple[str, ...] = (INIT_RANDOM, INIT_CONSTANT)) -> GlobalResult:
    """Recovery from scratch under random and constant initializations.

    Emits rows (trial, init, k, relative_error); success rates are the
    fraction of trials whose error reaches 1e-4 / 1e-8 at any iteration.
    """
    out = GlobalResult(iters_to_visual={init: [] for init in inits})
    reached = {(init, thr): 0 for init in inits for thr in (SUCCESS_VISUAL, SUCCESS_NUMERIC)}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        scfg = _trial_solver(cfg, t)
        for init in inits:
            res = run_solver(replace(scfg, init=replace(scfg.init, kind=init)), op, data.b, x0)
            best = np.inf
            for k, rel, _ in res.history:
                out.rows.append((t, init, k, rel))
                best = min(best, rel)
            for thr in (SUCCESS_VISUAL, SUCCESS_NUMERIC):
                if best <= thr:
                    reached[(init, thr)] += 1
            out.iters_to_visual[init].append(_iters_to(res.history, SUCCESS_VISUAL))
    out.success = {key: count / cfg.trials for key, count in reached.items()}
    return out.save(cfg, ["trial", "init", "k", "relative_error"], cfg.comment(inits=inits))


@dataclass
class NoiseSweepResult(ExperimentResult):
    medians: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)
    budgets: tuple[int, int] = (0, 0)


def run_noise_sweep(cfg: ExperimentConfig) -> NoiseSweepResult:
    """Final error versus noise-to-signal ratio at two iteration budgets.

    Runs each (NSR, trial) once at 2*max_iters and reads the max_iters
    result off that run: its history row k = max_iters when the run went
    past max_iters, else its own final error (it stopped early, converged
    or not finite, exactly as a max_iters run would have).  Summarizes each
    NSR by the median across trials and fits a least-squares slope of
    median error against NSR over NSR <= 0.2.
    """
    if not all(0 <= nsr <= 0.5 for nsr in cfg.nsr_grid):  # nan fails it too
        raise ValueError("nsr grid must lie in [0, 0.5]")
    short, full = budgets = (cfg.solver.max_iters, 2 * cfg.solver.max_iters)
    out = NoiseSweepResult(budgets=budgets)
    errs = {(nsr, budget): [] for nsr in cfg.nsr_grid for budget in budgets}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        for nsr in cfg.nsr_grid:
            data = synthesize_data(op, x0, nsr=nsr,
                                   noise_seed=role_seed(cfg.base_seed, t, ROLE_NOISE))
            res = run_solver(_trial_solver(cfg, t, max_iters=full), op, data.b, x0)
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
    return out.save(cfg, ["nsr", "trial", "max_iters", "relative_error"], cfg.comment())


@dataclass
class PaddingSweepResult(ExperimentResult):
    mean_error: dict = field(default_factory=dict)
    success_rate: dict = field(default_factory=dict)
    trend_correlation: float = float("nan")


def ratio_to_ntilde(ratio: float, n: int, N: int) -> int:
    return max(n, min(int(round(ratio * n)), N))


def run_padding_sweep(cfg: ExperimentConfig) -> PaddingSweepResult:
    """Final error of the object-domain iteration versus the padding ratio.

    Every solve is ODR from a random start.  Ratios must be finite and
    positive, else ValueError; they map to ntilde = min(round(ratio*n), N),
    at least n, so a ratio below 1 runs at ntilde = n.  run_solver runs the
    endpoint ntilde = N as the Fourier-domain recursion, which is the
    identical iteration there, so those trials match FDR runs bit for bit
    under equal seeds.  Emits rows (ratio, ntilde, trial, final_error,
    min_error, iters).
    """
    if not all(0 < ratio < np.inf for ratio in cfg.ntilde_ratios):  # nan fails it too
        raise ValueError("ntilde ratios must be finite and > 0")
    cfg = replace(cfg, solver=replace(cfg.solver, algorithm=ALGO_ODR,
                                      init=replace(cfg.solver.init, kind=INIT_RANDOM)))
    out = PaddingSweepResult()
    per_ratio: dict[float, list] = {r: [] for r in cfg.ntilde_ratios}
    for t in range(cfg.trials):
        x0, op = make_instance(cfg, t)
        data = synthesize_data(op, x0)
        for ratio in cfg.ntilde_ratios:
            ntilde = ratio_to_ntilde(ratio, op.n, op.N)
            res = run_solver(_trial_solver(cfg, t, ntilde=ntilde), op, data.b, x0)
            final = res.relative_error
            best = np.nanmin([rel for _, rel, _ in res.history])
            out.rows.append((ratio, ntilde, t, final, float(best), res.iterations))
            per_ratio[ratio].append((final, best))

    for ratio, vals in per_ratio.items():
        finals, bests = np.array(vals).T
        out.mean_error[ratio] = float(finals.mean())
        out.success_rate[ratio] = float((bests <= SUCCESS_VISUAL).mean())
    ratios = sorted(per_ratio)
    out.trend_correlation = rank_correlation(
        ratios, [out.success_rate[r] for r in ratios]
    )
    return out.save(cfg, ["ratio", "ntilde", "trial", "final_error", "min_error", "iters"],
                    cfg.comment())


def _mean_ranks(values) -> np.ndarray:
    """The ranks 0, 1, ... of values, each run of equal values given their mean rank."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts + 1) / 2)[inverse]


def rank_correlation(xs, ys) -> float:
    """Spearman's rank correlation, ties given their mean rank: the
    correlation of the two rank vectors, 0.0 when either is constant."""
    rx, ry = _mean_ranks(xs), _mean_ranks(ys)
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
    SectorSpec(alpha, beta)
    return 1.0 - n * abs((beta + alpha) / 2.0) ** (S // 2)
