"""Projections and the Douglas-Rachford iterations for phase retrieval.

Fourier-domain DR (FDR) iterates y in C^N,

    y+ = y + A*[A(2 b.w - y)]_X - b.w,     w = y/|y|,

object-domain DR (ODR) iterates x in C^ntilde through an isometric
extension A~* of A*,

    x+ = x + [A~(2 b.w) - x]_X - A~(b.w),  w = A~*x / |A~*x|,

where [.]_X truncates to the object coordinates and applies the sector
constraint when one is active.  Every division by a magnitude uses the
convention w = 1 where the magnitude vanishes.

An FDR step, error tracking included, costs one A / A* pair: 4 FFTs for
the two-pattern layouts.  The solver carries the object estimate A y along
with the iterate, since AA* = I gives A y+ from quantities the step has
already computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import (
    ExtendedOp,
    PropagationOp,
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
)
from .grids import embed, phase_factor

ALGO_FDR = "fdr"
ALGO_ODR = "odr"

INIT_RANDOM = "ri"
INIT_CONSTANT = "ci"
INIT_NEAR = "near"


@dataclass(frozen=True)
class SectorSpec:
    """Pixelwise argument constraint arg x(j) in [-alpha*pi, beta*pi]."""

    alpha: float
    beta: float
    active: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("sector bounds must lie in [0, 1]")
        if self.active and self.alpha == 1.0 and self.beta == 1.0:
            raise ValueError("active sector must be a proper subset of (-pi, pi]")


NO_SECTOR = SectorSpec(alpha=1.0, beta=1.0, active=False)
POSITIVITY = SectorSpec(alpha=0.0, beta=0.0)


def sector_project(x, sector: SectorSpec) -> np.ndarray:
    """Componentwise nearest point in the sector {r e^{it}: t in [-a*pi, b*pi]}.

    Angles within a quarter turn of a sector edge project onto that edge's
    ray; anything further maps to 0.  Idempotent; total (no sector -> copy).
    """
    x = np.asarray(x, dtype=np.complex128)
    if not sector.active:
        return x.copy()
    a = sector.alpha * np.pi
    b = sector.beta * np.pi
    theta = np.angle(x)

    # Membership via angular offset from the interval start, wrapped to [0, 2pi).
    two_pi = 2.0 * np.pi
    inside = np.mod(theta + a, two_pi) <= (a + b) + 1e-15
    upper = np.mod(theta - b, two_pi) <= 0.5 * np.pi
    lower = np.mod(-a - theta, two_pi) <= 0.5 * np.pi

    edge_up = np.real(x * np.exp(-1j * b)) * np.exp(1j * b)
    edge_lo = np.real(x * np.exp(1j * a)) * np.exp(-1j * a)

    out = np.where(inside, x, np.where(upper, edge_up, np.where(lower, edge_lo, 0.0)))
    out[x == 0] = 0.0
    return out


def project_object_set(x, n: int, sector: SectorSpec) -> np.ndarray:
    """[x]_X for a padded vector: sector (or identity) on the first n coords, 0 beyond."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros_like(x)
    out[:n] = sector_project(x[:n], sector) if sector.active else x[:n]
    return out


def proj_p1(y, op: PropagationOp, sector: SectorSpec = NO_SECTOR) -> np.ndarray:
    """P1 y = A*[A y]_X, the projection onto the diffracted-field set A* X."""
    x = apply_a(op, y)
    if sector.active:
        x = sector_project(x, sector)
    return apply_astar(op, x)


def proj_p2(y, b) -> np.ndarray:
    """P2 y = b . y/|y|, the projection onto the magnitude set {|y| = b}."""
    return np.asarray(b) * phase_factor(y)


def fdr_step(y, op: PropagationOp, b, sector: SectorSpec = NO_SECTOR, estimate=None):
    """One Fourier-domain DR update y + P1(2 P2 - I)y - P2 y.

    Costs one A / A* pair.  When `estimate` holds u = A y, the step also
    returns the next estimate A y+ = [z]_X + (u - z)/2 with z = A(2 P2 y - y),
    which AA* = I makes exact at no extra FFT; the return value is then
    the pair (y+, A y+).
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("fdr_step: non-finite iterate")
    w = np.asarray(b) * phase_factor(y)
    z = apply_a(op, 2.0 * w - y)
    x = sector_project(z, sector) if sector.active else z
    y_next = y + apply_astar(op, x) - w
    if estimate is None:
        return y_next
    return y_next, x + 0.5 * (estimate - z)


def odr_step(x, ext: ExtendedOp, b, sector: SectorSpec = NO_SECTOR) -> np.ndarray:
    """One object-domain DR update on the padded iterate x in C^ntilde."""
    x = np.asarray(x, dtype=np.complex128)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("odr_step: non-finite iterate")
    w = np.asarray(b) * phase_factor(extended_astar(ext, x))
    z = extended_a(ext, w)
    return x + project_object_set(2.0 * z - x, ext.n, sector) - z


def align_phase(x, x0) -> tuple[complex, float]:
    """Optimal global phase alpha (|alpha| = 1) and the error ||alpha x - x0||."""
    x = np.asarray(x, dtype=np.complex128)
    x0 = np.asarray(x0, dtype=np.complex128)
    if x.shape != x0.shape:
        raise ValueError("align_phase: length mismatch")
    z = np.vdot(x, x0)
    alpha = z / abs(z) if z != 0 else 1.0 + 0.0j
    return complex(alpha), float(np.linalg.norm(alpha * x - x0))


@dataclass(frozen=True)
class InitSpec:
    """Solver initialization: random pixels, all-ones, or near the solution."""

    kind: str = INIT_RANDOM
    seed: int = 0
    delta: float = 1e-3

    def __post_init__(self) -> None:
        if self.kind not in (INIT_RANDOM, INIT_CONSTANT, INIT_NEAR):
            raise ValueError(f"unknown init kind {self.kind!r}")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = ALGO_FDR
    ntilde: int | None = None
    max_iters: int = 2000
    tol: float = 1e-10
    init: InitSpec = InitSpec()
    sector: SectorSpec = NO_SECTOR
    ext_seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in (ALGO_FDR, ALGO_ODR):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass
class RecoveryResult:
    """Outcome of a solver run.

    aligned_error is min_{|a|=1} ||a x_hat - x0|| (nan without ground truth);
    relative_error divides by ||x0||.  history holds one row
    (k, relative_error, step_residual) per iteration, where step_residual is
    the relative iterate change used for stopping (nan at k = 1).
    rate_estimate is the geometric-mean error ratio over a trailing window
    of at most 20 ratios among errors above 1e-12.
    """

    x_hat: np.ndarray
    aligned_error: float
    relative_error: float
    iterations: int
    converged: bool
    rate_estimate: float
    history: list[tuple[int, float, float]] = field(default_factory=list)
    diagnostic: str = ""


RATE_FLOOR = 1e-12
RATE_WINDOW = 20


def estimate_rate(errors, floor: float = RATE_FLOOR, window: int = RATE_WINDOW) -> float:
    """Geometric-mean ratio of the trailing errors above the floor."""
    usable = [e for e in errors if np.isfinite(e) and e > floor]
    if len(usable) < 2:
        return float("nan")
    tail = usable[-(window + 1):]
    return float((tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1)))


def _initial_iterate(cfg: SolverConfig, op: PropagationOp, ext: ExtendedOp | None, x0):
    init = cfg.init
    n = op.n
    if init.kind == INIT_NEAR:
        if x0 is None:
            raise ValueError("NearSolution initialization needs the true object")
        rng = np.random.default_rng(init.seed)
        if cfg.algorithm == ALGO_FDR:
            base = apply_astar(op, x0)
        else:
            base = embed(np.asarray(x0, dtype=np.complex128), ext.ntilde)
        pert = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
        return base + init.delta * pert / np.linalg.norm(pert)

    if init.kind == INIT_RANDOM:
        rng = np.random.default_rng(init.seed)
        x_init = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:  # constant: all-ones object
        x_init = np.ones(n, dtype=np.complex128)
    if cfg.algorithm == ALGO_FDR:
        return apply_astar(op, x_init)
    return embed(x_init, ext.ntilde)


def run_solver(cfg: SolverConfig, op: PropagationOp, b, x0=None) -> RecoveryResult:
    """Iterate FDR or ODR from the configured initialization.

    Stops when the relative iterate change or (with ground truth) the
    relative aligned error drops to cfg.tol, or at cfg.max_iters.  The
    reported object estimate is A y (FDR), tracked through the steps rather
    than applied anew, or the first n coordinates of the padded iterate
    (ODR), sector-projected when a sector is active.  x_hat is the estimate
    the last history row was measured on, so history[-1][1] equals
    relative_error exactly.
    """
    b = np.asarray(b, dtype=np.float64)
    x0 = None if x0 is None else np.asarray(x0, dtype=np.complex128)
    norm_x0 = np.linalg.norm(x0) if x0 is not None else float("nan")

    ext = None
    if cfg.algorithm == ALGO_ODR:
        ntilde = cfg.ntilde if cfg.ntilde is not None else op.N
        ext = extend_op(op, ntilde, seed=cfg.ext_seed)

    iterate = _initial_iterate(cfg, op, ext, x0)
    # FDR carries u = A y along, updated by fdr_step; ODR reads its object
    # coordinates directly.
    u = apply_a(op, iterate) if cfg.algorithm == ALGO_FDR else None

    def current_estimate():
        xh = u if u is not None else iterate[: op.n].copy()
        return sector_project(xh, cfg.sector) if cfg.sector.active else xh

    history: list[tuple[int, float, float]] = []
    rel_errors: list[float] = []
    converged = False
    diagnostic = ""
    k = 1
    step_res = float("nan")

    while True:
        if not np.all(np.isfinite(iterate)):
            diagnostic = f"diverged: non-finite iterate at k={k}"
            break
        if x0 is not None:
            _, err = align_phase(current_estimate(), x0)
            rel = err / norm_x0
        else:
            rel = float("nan")
        history.append((k, rel, step_res))
        rel_errors.append(rel)

        if x0 is not None and rel <= cfg.tol:
            converged = True
            break
        if k > 1 and step_res <= cfg.tol:
            converged = True
            break
        if k >= cfg.max_iters:
            break

        if cfg.algorithm == ALGO_FDR:
            nxt, u = fdr_step(iterate, op, b, cfg.sector, estimate=u)
        else:
            nxt = odr_step(iterate, ext, b, cfg.sector)
        denom = np.linalg.norm(iterate)
        step_res = float(np.linalg.norm(nxt - iterate) / denom) if denom > 0 else float("inf")
        iterate = nxt
        k += 1

    if np.all(np.isfinite(iterate)):
        x_hat = current_estimate()
        aligned = align_phase(x_hat, x0)[1] if x0 is not None else float("nan")
    else:
        x_hat = np.full(op.n, np.nan, dtype=np.complex128)
        aligned = float("nan")
        converged = False

    return RecoveryResult(
        x_hat=x_hat,
        aligned_error=aligned,
        relative_error=aligned / norm_x0 if x0 is not None else float("nan"),
        iterations=k,
        converged=converged,
        rate_estimate=estimate_rate(rel_errors),
        history=history,
        diagnostic=diagnostic,
    )
