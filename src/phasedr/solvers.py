"""Projections and the Douglas-Rachford iterations for phase retrieval.

Fourier-domain DR (FDR) iterates y in C^N,

    y+ = y + A*[A(2 b.w - y)]_X - b.w,     w = y/|y|,

object-domain DR (ODR) iterates x in C^ntilde through an isometric
extension A~* of A*,

    x+ = x + [A~(2 b.w) - x]_X - A~(b.w),  w = A~*x / |A~*x|,

where [.]_X truncates to the object coordinates and applies the sector
constraint when one is active.  At ntilde = N, A~* is unitary and ODR is
FDR in the coordinates x = A~ y, so run_solver runs it as FDR; below N
it iterates the lift h = U x (forward.ExtendedOp).  Every division by a
magnitude uses the convention w = 1 where the magnitude vanishes.

A step costs one transform pair, 2L transforms for L patterns, made as
two stacked transform calls (dense DFT-matrix products on grids of up to
31 points per axis, FFTs above).  Its per-pattern pointwise work runs in
those calls' hooks, inside each pattern's transform task (see grids);
only the sums over patterns, in A and in ODR's object projection, run on
the caller.  The solver carries FDR's object estimate A y along, since
AA* = I gives A y+ from quantities the step has already computed.
Both steps write the next iterate into the buffer of the iterate before
last.  The solver's norms, its near start and its phase alignment sum
without BLAS (grids._norm).  The dense transform passes call BLAS gemm,
once per pattern and too small for OpenBLAS to split over threads.  So
iterates and diagnostics do not depend on the BLAS thread count.

run_solver prepares the step once per solve as a StepPlan: the plan of
forward for its operator (an OperatorPlan for FDR, an ExtendedPlan, which
also projects onto U's range, for ODR; the two hold transform plans of
one form), the pattern view of b, the magnitude and P2 y buffers, and a
scratch buffer.  Each step then works in those buffers and the buffer of
the iterate before last, and leaves its change x+ - x in the scratch.
Where FDR's steps run on the pool, the two norms of the step residual
||x+ - x|| / ||x|| run there too, side by side (see StepPlan).  A step
called without a plan, as in fdr_step(y, op, b), makes a throwaway one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isfinite, sqrt

import numpy as np

from .forward import (
    ExtendedOp,
    ExtendedPlan,
    OperatorPlan,
    PropagationOp,
    _plan,
    apply_a,
    apply_astar,
    extend_op,
    extended_lift,
)
from .grids import _buffer, _dot, _floats, _norm, _run_tasks, _unit, dft_plain, embed, idft_plain

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


class StepPlan:
    """What a DR step on one operator (FDR) or extension (ODR) and one data
    vector b sets up, made once per solve and reused by every step given it:
    the operator plan (see forward), the (L, grid.n) pattern view of b
    (ODR's scaled by L c), a float buffer of that shape for the
    magnitudes |y| and, for FDR, the buffer w = P2 y.  `scratch` is an
    iterate-length view of a buffer the step is done with (w, or ODR's g):
    after a step it holds the step change x+ - x, which FDR writes per
    pattern in its update hook.
    `pooled` says whether the step writes x+ and its change on the pool:
    FDR does when its transforms split the patterns across it
    (grids.PARALLEL_MIN_POINTS), and the solver then sums its two residual
    norms there too, side by side.  ODR writes both on the calling thread,
    whose cache then holds them, and sums them there.  A step without a
    plan makes its own."""

    def __init__(self, op, b) -> None:
        self.target = (op, b)
        base = op.base if isinstance(op, ExtendedOp) else op
        shape = (len(base.masks), base.grid.n)
        self.bs = np.asarray(b).reshape(shape)
        self.mag = np.empty(shape)
        if isinstance(op, ExtendedOp):
            self.ops = ExtendedPlan(op)
            self.bs = len(base.masks) * base.c * self.bs  # the lifted A~'s scale
            self.scratch = self.ops.g.reshape(-1)
            self.pooled = False
        else:
            self.ops = OperatorPlan(op)
            self.w = np.empty(shape, dtype=np.complex128)
            self.scratch = self.w.reshape(-1)
            self.pooled = len(self.ops.inverse.groups) > 1


def fdr_step(y, op: PropagationOp, b, sector: SectorSpec = NO_SECTOR, estimate=None, out=None,
             plan=None):
    """One Fourier-domain DR update y + P1(2 P2 - I)y - P2 y.

    P1 y = A*[A y]_X projects onto the diffracted-field set A* X and
    P2 y = b . y/|y| onto the magnitude set {|y| = b}.  Costs one A / A*
    pair.  When `estimate` holds u = A y, the step also returns the next
    estimate A y+ = [z]_X + (u - z)/2 with z = A(2 P2 y - y), which AA* = I
    makes exact at no extra FFT; the return value is then the pair
    (y+, A y+).  y+ is written into out when given, a C-contiguous
    length-N complex128 buffer that overlaps neither y nor the estimate.
    plan is a StepPlan of (op, b); without one the step makes its own.

    Everything but the pattern sum inside A is per pattern, so it runs in
    the transforms' hooks, next to each pattern's transform: the finiteness
    check and the reflection 2 P2 y - y before A; after A*, the update and
    the step change y+ - y, written into w, the plan's scratch.
    """
    y = np.asarray(y, dtype=np.complex128)
    plan = _plan(plan, StepPlan, op, b)
    r = np.empty(op.N, dtype=np.complex128) if out is None else _buffer(
        out, plan.ops.y_shape, "fdr_step: out", y, estimate)
    # r holds 2 P2 y - y, then A* x, then y+.
    w, bs, mag = plan.w, plan.bs, plan.mag
    ys, rs = y.reshape(bs.shape), r.reshape(bs.shape)

    def reflect(rows):
        yr, wr, rr = ys[rows], w[rows], rs[rows]
        mr = np.abs(yr, out=mag[rows])
        # A non-finite entry makes |y| non-finite; only an overflowing |y|
        # of a finite y needs the full test.  Tested before any divide.
        if not isfinite(mr.max()) and not np.isfinite(yr).all():
            raise FloatingPointError("fdr_step: non-finite iterate")
        _unit(yr, mr, wr)
        np.multiply(bs[rows], wr, out=wr)
        np.multiply(2.0, wr, out=rr)
        np.subtract(rr, yr, out=rr)

    def update(rows):
        yr, rr, wr = ys[rows], rs[rows], w[rows]
        np.add(yr, rr, out=rr)
        np.subtract(rr, wr, out=rr)
        np.subtract(rr, yr, out=wr)  # the step change, once w is read

    z = apply_a(op, r, before=reflect, plan=plan.ops)
    x = sector_project(z, sector)
    y_next = apply_astar(op, x, after=update, out=r, plan=plan.ops)
    if estimate is None:
        return y_next
    # x + 0.5 * (estimate - z), in one buffer
    half = np.subtract(estimate, z)
    np.multiply(0.5, half, out=half)
    return y_next, np.add(x, half, out=half)


def odr_step(h, ext: ExtendedOp, b, sector: SectorSpec = NO_SECTOR, out=None,
             plan=None) -> np.ndarray:
    """One ODR update of the lift h = U x (forward.ExtendedOp), a flat
    (L, K) block: h+ = h - g + P_X(2g - h), g = P_U(L c F^-1(b . phase(F h))),
    with F the DFT from the block to the images, F^-1 its unnormalized
    inverse read on the block, P_U the projection onto U's range and P_X,
    on object pixel j, mu_j times the sector-projected sum_l conj(mu_l)
    (.)_l / L, zero on padded pixels.  This is U of x + [2z - x]_X - z,
    z = A~(b . phase(A~* x)).  b . phase and the mask of U's range run per
    pattern in the inverse's hooks; the plan's ExtendedPlan holds P_U.  h+
    is written into out when given, a C-contiguous complex128 buffer of h's
    length apart from h.  plan is a StepPlan of (ext, b); without one the
    step makes its own.  The step change h+ - h is left in g, the plan's
    scratch.
    """
    h = np.asarray(h, dtype=np.complex128)
    if not np.isfinite(h).all():
        raise FloatingPointError("odr_step: non-finite iterate")
    plan = _plan(plan, StepPlan, ext, b)
    ops = plan.ops
    y, g, bs, mag = ops.y, ops.g, plan.bs, plan.mag
    r = np.empty_like(h) if out is None else _buffer(out, h.shape, "odr_step: out", h)

    def project(rows):
        yr = y[rows]
        _unit(yr, np.abs(yr, out=mag[rows]), yr)
        np.multiply(bs[rows], yr, out=yr)

    dft_plain(h.reshape(g.shape), ops.grid, out=y, plan=ops.forward)
    idft_plain(y, ops.grid, before=project, after=ops.restrict, out=g, plan=ops.inverse)
    ops.project_cut()
    # r holds h - g, then h+ = h - g + mu [sum conj(mu) (2g - h) / L]_X.
    p = np.multiply(2.0, ops.objects(g), out=ops.prods)
    np.subtract(p, ops.objects(h), out=p)
    x = sector_project(ops.object_part(p, out=ops.sums), sector)
    np.subtract(h, g.reshape(-1), out=r)
    np.multiply(ops.mu, x, out=p)
    ro = ops.objects(r)
    np.add(ro, p, out=ro)
    np.subtract(r, h, out=g.reshape(-1))  # the step change, once g is read
    return r


def _norms(u, v, pooled: bool) -> tuple[float, float]:
    """(_norm(u), _norm(v)), bit for bit.  When pooled, their two sums of
    squares run side by side as pool tasks, each the one einsum over a
    whole float view that _norm makes, so no bit depends on the thread."""
    if not pooled:
        return _norm(u), _norm(v)
    sums = np.empty(2)
    _run_tasks([partial(np.einsum, "i,i->", f, f, out=sums[i, ...])
                for i, f in enumerate((_floats(u), _floats(v)))])
    return sqrt(sums[0]), sqrt(sums[1])


def align_phase(x, x0, out=None) -> tuple[complex, float]:
    """Optimal global phase alpha (|alpha| = 1) and the error ||alpha x - x0||.

    The inner product's imaginary part is the difference of two real dots
    summed in the same order, so align_phase(x0, x0) gives exactly
    alpha = 1 and error 0.  alpha x - x0 is formed in out when given, a
    C-contiguous complex128 buffer of x's length apart from x and x0."""
    x = np.asarray(x, dtype=np.complex128)
    x0 = np.asarray(x0, dtype=np.complex128)
    if x.shape != x0.shape:
        raise ValueError("align_phase: length mismatch")
    f, f0 = _floats(x), _floats(x0)
    z = complex(_dot(f, f0), _dot(f[0::2], f0[1::2]) - _dot(f[1::2], f0[0::2]))
    alpha = z / abs(z) if z != 0 else 1.0 + 0.0j
    diff = np.empty_like(x) if out is None else _buffer(out, x.shape, "align_phase: out", x, x0)
    np.multiply(alpha, x, out=diff)
    return complex(alpha), _norm(np.subtract(diff, x0, out=diff))


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
        return base + init.delta * pert / _norm(pert)
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
    ODR iterates the lift h = U x of its start (see odr_step); U is sqrt(L)
    times an isometry, so the step residual reads the same on h as on x.

    Stops when the relative iterate change or (with ground truth) the
    relative aligned error drops to cfg.tol, at cfg.max_iters, or at a
    non-finite iterate, read off the step's change after the initial
    iterate.  Each iterate is evaluated once: its object
    estimate is A y (FDR), tracked through the steps rather than applied
    anew, or the x coordinates of U^-1 h (ODR), sector-projected when a
    sector is active.  The result is the last
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
    plan = StepPlan(op if ext is None else ext, b)
    # u is the object estimate: FDR carries A y along, ODR reads it off U x.
    if ext is None:
        u = apply_a(op, iterate, plan=plan.ops)
    else:
        iterate, ops = extended_lift(ext, iterate), plan.ops
    diff = np.empty(op.n, dtype=np.complex128)  # align_phase's alpha x - x0

    history: list[tuple[int, float, float]] = []
    converged = False
    diagnostic = ""
    k = 1
    step_res = float("nan")
    finite = np.all(np.isfinite(iterate))
    # Each step is written into the buffer of the iterate before last, and
    # leaves its change in the plan's scratch, so no iterate-length buffer
    # is allocated per step (glibc would otherwise trim its heap and fault
    # the pages back in every step).
    spare = None

    while True:
        if not finite:
            diagnostic = f"diverged: non-finite iterate at k={k}"
            x_hat = np.full(op.n, np.nan, dtype=np.complex128)
            aligned = float("nan")
            rel = aligned / norm_x0
            break
        if ext is not None:
            u = ops.object_part(ops.objects(iterate)).reshape(op.n)
        x_hat = sector_project(u, cfg.sector)
        aligned = align_phase(x_hat, x0, out=diff)[1] if x0 is not None else float("nan")
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
            nxt, u = fdr_step(iterate, op, b, cfg.sector, estimate=u, out=spare, plan=plan)
        else:
            nxt = odr_step(iterate, ext, b, cfg.sector, out=spare, plan=plan)
        change, denom = _norms(plan.scratch, iterate, plan.pooled)  # scratch: nxt - iterate
        # nxt is finite when its change from the finite iterate is; only an
        # overflowing change needs the full check.
        finite = isfinite(change) or np.all(np.isfinite(nxt))
        step_res = change / denom if denom > 0 else float("inf")
        iterate, spare = nxt, iterate
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
