"""Projections and the Douglas-Rachford iterations for phase retrieval.

Fourier-domain DR (FDR) iterates y in C^N,

    y+ = y + A*[A(2 b.w - y)]_X - b.w,     w = y/|y|,

object-domain DR (ODR) iterates x in C^ntilde through an isometric
extension A~* of A*,

    x+ = x + [A~(2 b.w) - x]_X - A~(b.w),  w = A~*x / |A~*x|,

where [.]_X truncates to the object coordinates and applies the sector
constraint when one is active.  At ntilde = N, A~* is unitary and ODR is
FDR in the coordinates x = A~ y, so run_solver runs it as FDR.  Every
division by a magnitude uses the convention w = 1 where the magnitude
vanishes.

An FDR step, error tracking included, costs one A / A* pair: 4 FFTs for
the two-pattern layouts, made as two stacked transform calls.  The solver
carries the object estimate A y along with the iterate, since AA* = I
gives A y+ from quantities the step has already computed.  An ODR step costs one A~ / A~* pair: 2L FFTs for L
patterns, one forward and one inverse per pattern on the padded grid.
The solver's norms and phase alignment sum without BLAS, so its
diagnostics do not depend on the BLAS thread count.
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
    """Pixelwise argument constraint arg x(j) in [-alpha*pi, beta*pi].

    `active` unless alpha = beta = 1 (NO_SECTOR), the whole plane."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("sector bounds must lie in [0, 1]")

    @property
    def active(self) -> bool:
        return self.alpha < 1.0 or self.beta < 1.0


NO_SECTOR = SectorSpec(1.0, 1.0)


def sector_project(x, sector: SectorSpec) -> np.ndarray:
    """Componentwise nearest point in the sector {r e^{it}: t in [-a*pi, b*pi]}.

    Angles within a quarter turn of a sector edge project onto that edge's
    ray; anything further maps to 0.  Idempotent.  An inactive sector is the
    identity: it returns the input itself (as complex128), not a copy.
    """
    x = np.asarray(x, dtype=np.complex128)
    if not sector.active:
        return x
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
    out[:n] = sector_project(x[:n], sector)
    return out


def fdr_step(y, op: PropagationOp, b, sector: SectorSpec = NO_SECTOR, estimate=None):
    """One Fourier-domain DR update y + P1(2 P2 - I)y - P2 y.

    P1 y = A*[A y]_X projects onto the diffracted-field set A* X and
    P2 y = b . y/|y| onto the magnitude set {|y| = b}.  Costs one A / A*
    pair.  When `estimate` holds u = A y, the step also returns the next
    estimate A y+ = [z]_X + (u - z)/2 with z = A(2 P2 y - y), which AA* = I
    makes exact at no extra FFT; the return value is then the pair
    (y+, A y+).
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("fdr_step: non-finite iterate")
    w = np.asarray(b) * phase_factor(y)
    z = apply_a(op, 2.0 * w - y)
    x = sector_project(z, sector)
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


def _dot(u, v) -> float:
    """Sum of u * v over two real vectors, by one einsum reduction.

    Not BLAS, so the summation order, and hence every digit, is the same
    whatever the BLAS threading, and no BLAS threads wake up to compete
    with the transform workers."""
    return float(np.einsum("i,i->", u, v))


def _floats(v) -> np.ndarray:
    """The interleaved (re, im) float view of a complex vector."""
    return np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)


def _norm(v) -> float:
    """||v|| of a complex vector, summed over its float view by :func:`_dot`."""
    f = _floats(v)
    return float(np.sqrt(_dot(f, f)))


def align_phase(x, x0) -> tuple[complex, float]:
    """Optimal global phase alpha (|alpha| = 1) and the error ||alpha x - x0||.

    The inner product's imaginary part is the difference of two real dots
    summed in the same order, so align_phase(x0, x0) gives exactly
    alpha = 1 and error 0."""
    x = np.asarray(x, dtype=np.complex128)
    x0 = np.asarray(x0, dtype=np.complex128)
    if x.shape != x0.shape:
        raise ValueError("align_phase: length mismatch")
    f, f0 = _floats(x), _floats(x0)
    z = complex(_dot(f, f0), _dot(f[0::2], f0[1::2]) - _dot(f[1::2], f0[0::2]))
    alpha = z / abs(z) if z != 0 else 1.0 + 0.0j
    return complex(alpha), _norm(alpha * x - x0)


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
    """Solver settings.  max_iters caps the iterate index k, the initial
    iterate being k = 1, so a run takes at most max_iters - 1 DR steps.
    ntilde is the ODR padding: FDR ignores it, ODR defaults it to
    min(4n, N), and ODR at ntilde = N runs the FDR recursion."""

    algorithm: str = ALGO_FDR
    ntilde: int | None = None
    max_iters: int = 2000
    tol: float = 1e-10
    init: InitSpec = InitSpec()
    sector: SectorSpec = NO_SECTOR

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

    x_hat is the object estimate the last history row was measured on, and
    aligned_error = min_{|a|=1} ||a x_hat - x0|| (nan without ground truth);
    relative_error divides by ||x0||, so it equals history[-1][1].  history
    holds one row (k, relative_error, step_residual) per iterate, where
    step_residual is the relative iterate change used for stopping (nan at
    k = 1).  iterations is the index k of the last iterate, the initial
    iterate being k = 1: the run took iterations - 1 DR steps, and history
    has iterations rows.  When the last iterate is non-finite, history has
    one row fewer, x_hat is all nan and both errors are nan.
    rate_estimate is the geometric-mean error ratio over a trailing window
    of at most 20 ratios among errors above 1e-12.  ntilde is the number of
    coordinates the iteration ran on: N for FDR, and for ODR its resolved
    padding (at ntilde = N the run was the FDR recursion).
    """

    x_hat: np.ndarray
    aligned_error: float
    relative_error: float
    iterations: int
    converged: bool
    rate_estimate: float
    ntilde: int
    history: list[tuple[int, float, float]] = field(default_factory=list)
    diagnostic: str = ""


RATE_FLOOR = 1e-12
RATE_WINDOW = 20


def estimate_rate(errors) -> float:
    """Geometric-mean ratio of the last RATE_WINDOW + 1 errors above RATE_FLOOR."""
    usable = [e for e in errors if np.isfinite(e) and e > RATE_FLOOR]
    if len(usable) < 2:
        return float("nan")
    tail = usable[-(RATE_WINDOW + 1):]
    return float((tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1)))


def _initial_iterate(init: InitSpec, op: PropagationOp, ext: ExtendedOp | None, x0):
    """The first iterate: a start object lifted by A* (FDR) or embedded in
    C^ntilde (ODR).  The near start perturbs the lifted x0 in iterate space."""
    def lift(v):
        return apply_astar(op, v) if ext is None else embed(v, ext.ntilde)

    if init.kind == INIT_NEAR:
        if x0 is None:
            raise ValueError("NearSolution initialization needs the true object")
        rng = np.random.default_rng(init.seed)
        base = lift(x0)
        pert = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
        return base + init.delta * pert / np.linalg.norm(pert)
    if init.kind == INIT_RANDOM:
        rng = np.random.default_rng(init.seed)
        return lift(rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n))
    return lift(np.ones(op.n, dtype=np.complex128))  # constant: all-ones object


def run_solver(cfg: SolverConfig, op: PropagationOp, b, x0=None) -> RecoveryResult:
    """Iterate FDR or ODR from the configured initialization.

    FDR runs on all N coordinates and ignores cfg.ntilde.  ODR runs on
    cfg.ntilde coordinates, min(4n, N) when unset; at ntilde = N it is the
    FDR recursion and runs as FDR, bit for bit.  Any other ntilde outside
    [n, N] raises ValueError.  The result records the resolved ntilde.

    Stops when the relative iterate change or (with ground truth) the
    relative aligned error drops to cfg.tol, at cfg.max_iters, or at a
    non-finite iterate, read off the step's change after the initial
    iterate.  Each iterate is evaluated once: its object
    estimate is A y (FDR), tracked through the steps rather than applied
    anew, or the first n coordinates of the padded iterate (ODR),
    sector-projected when a sector is active.  The result is the last
    evaluation, so history[-1][1] equals relative_error exactly; a
    non-finite iterate evaluates to an all-nan x_hat with nan errors.
    """
    b = np.asarray(b, dtype=np.float64)
    x0 = None if x0 is None else np.asarray(x0, dtype=np.complex128)
    norm_x0 = _norm(x0) if x0 is not None else float("nan")

    if cfg.algorithm == ALGO_FDR:
        ntilde = op.N
    else:
        ntilde = cfg.ntilde if cfg.ntilde is not None else min(4 * op.n, op.N)
    ext = None if ntilde == op.N else extend_op(op, ntilde)

    iterate = _initial_iterate(cfg.init, op, ext, x0)
    # FDR carries u = A y along, updated by fdr_step; ODR reads its object
    # coordinates directly.
    u = apply_a(op, iterate) if ext is None else None

    history: list[tuple[int, float, float]] = []
    converged = False
    diagnostic = ""
    k = 1
    step_res = float("nan")
    finite = np.all(np.isfinite(iterate))

    while True:
        if not finite:
            diagnostic = f"diverged: non-finite iterate at k={k}"
            x_hat = np.full(op.n, np.nan, dtype=np.complex128)
            aligned = float("nan")
            rel = aligned / norm_x0
            break
        x_hat = sector_project(u if ext is None else iterate[: op.n].copy(), cfg.sector)
        aligned = align_phase(x_hat, x0)[1] if x0 is not None else float("nan")
        rel = aligned / norm_x0
        history.append((k, rel, step_res))

        if x0 is not None and rel <= cfg.tol:
            converged = True
            break
        if k > 1 and step_res <= cfg.tol:
            converged = True
            break
        if k >= cfg.max_iters:
            break

        if ext is None:
            nxt, u = fdr_step(iterate, op, b, cfg.sector, estimate=u)
        else:
            nxt = odr_step(iterate, ext, b, cfg.sector)
        change = _norm(nxt - iterate)
        # nxt is finite when its change from the finite iterate is; only an
        # overflowing change needs the full check.
        finite = np.isfinite(change) or np.all(np.isfinite(nxt))
        denom = _norm(iterate)
        step_res = float(change / denom) if denom > 0 else float("inf")
        iterate = nxt
        k += 1

    return RecoveryResult(
        x_hat=x_hat,
        aligned_error=aligned,
        relative_error=rel,
        iterations=k,
        converged=converged,
        rate_estimate=estimate_rate([row[1] for row in history]),
        ntilde=ntilde,
        history=history,
        diagnostic=diagnostic,
    )
