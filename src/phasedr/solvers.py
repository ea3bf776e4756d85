"""Projections and the Douglas-Rachford iterations for phase retrieval.

Fourier-domain DR (FDR) iterates y in C^N,

    y+ = y + A*[A(2 b.w - y)]_X - b.w,     w = y/|y|,

object-domain DR (ODR) is DR on the object side of an isometric
extension A~* of A*, for x in C^ntilde,

    x+ = x + [A~(2 b.w) - x]_X - A~(b.w),  w = A~*x / |A~*x|,

where [.]_X truncates to the object coordinates and applies the sector
constraint when one is active.  At ntilde = N, A~* is unitary and ODR is
FDR in the coordinates x = A~ y, so run_solver runs it as FDR; below N
it iterates the lift h = U x (forward.ExtendedOp) and never forms x.
Both start from one point: FDR at y0, ODR at x = A~ y0, held as its lift
U A~ y0.  Every division by a magnitude uses the convention w = 1 where
the magnitude vanishes.

A step costs one transform pair, 2L transforms for L patterns, made as
two stacked transform calls (dense DFT-matrix products on grids of up to
31 points per axis, FFTs above).  Its per-pattern pointwise work runs in
those calls' hooks, inside each pattern's transform task (see grids);
only the sums over patterns, in A and in ODR's object projection, run on
the caller.  The solver's norms, its near start and its phase alignment
sum without BLAS (grids._norm).  The dense transform passes call BLAS
gemm, once per pattern and too small for OpenBLAS to split over threads.
So iterates and diagnostics do not depend on the BLAS thread count.

The two steps share one contract, step(v, target, b, sector, plan) -> v+,
so run_solver picks one per solve and its loop does not branch on the
algorithm.  It prepares the step once per solve as a StepPlan, made for
the solve's first iterate: the plan of forward for its operator (an
OperatorPlan for FDR, an ExtendedPlan, which also projects onto U's
range, for ODR; each holds its own buffers and the transform plans made
for them), the pattern view of b, the magnitude buffer, ODR's hook, the
two iterates a solve alternates between, the first and one more, and
for each direction between them the views and hooks a step takes of
them.  So a step makes no closure, no view and no check that the plan
already made.  A step from one iterate writes the other and returns it,
leaves its change x+ - x in the plan's scratch and, when the plan's
estimate is set, replaces it with the object estimate of x+: FDR updates
A y, since AA* = I gives A y+ from quantities the step has already
computed, and ODR reads the x coordinates off U^-1 h+.  run_solver sets
up its measurement once per solve too: align_phase's alignment on x0 and
its diff buffer, and the float views of the scratch and the two
iterates, on which the step residual's norms sum.  Where FDR's steps run
on the pool, the two norms of the step residual ||x+ - x|| / ||x|| run
there too, side by side (see StepPlan).  A step called without a plan,
as in fdr_step(y, op, b), makes a throwaway one on y.
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
    extended_a,
)
from .grids import (TransformPlan, _buffer, _dot, _floats, _norm, _run_tasks, _unit, _vector,
                    dft_plain, idft_plain)

ALGO_FDR = "fdr"
ALGO_ODR = "odr"

INIT_RANDOM = "ri"
INIT_CONSTANT = "ci"
INIT_NEAR = "near"

# RecoveryResult.stop: why a run_solver run ended.
STOP_ERROR_TOL = "error tol"
STOP_STEP_TOL = "step tol"
STOP_MAX_ITERS = "max_iters"
STOP_NON_FINITE = "non-finite"


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
    vector b sets up, made once per solve, for the solve's first iterate v,
    and reused by every step given it: the operator plan (see forward), the
    (L, grid.n) pattern view of b, checked to be a real length-N vector
    (grids._vector; ODR's view scaled by L c), a float buffer of that
    shape for the magnitudes |y|, and ODR's hook `project`.
    `iterates` holds v, adopted without a copy once checked to be a
    C-contiguous complex128 iterate (a length-N vector for FDR, a flat
    (L, K) block for ODR), and a second buffer like it.  A step from one of
    them writes x+ into the other and returns it; any other array raises
    ValueError.  So for each direction between the two the plan holds what
    a step takes of them: FDR's two hooks on their pattern views, or ODR's
    forward transform plan made for the block and the operator plan's y
    (sharing its work stack), and the object block views of both.
    `scratch` is an iterate-length view of a buffer the step is done with
    (the operator plan's `flat`, or ODR's g): after a step it holds the
    step change x+ - x, which FDR writes per pattern in its update hook.
    `estimate`, None unless its user sets it, is the object estimate of the
    iterate: when set, each step replaces it with a new array, the estimate
    of x+ (it never writes into the old one, which the caller may still
    hold).  FDR needs the old one for the new, ODR reads the new one off x+.
    `pooled` says whether the step writes x+ and its change on the pool:
    FDR does when its transforms split the patterns across it
    (grids.PARALLEL_MIN_POINTS), and the solver then sums its two residual
    norms there too, side by side.  ODR writes both on the calling thread,
    whose cache then holds them, and sums them there.  A step without a
    plan makes its own."""

    def __init__(self, op, b, v) -> None:
        self.target = (op, b)
        self.estimate = None
        extended = isinstance(op, ExtendedOp)
        base = op.base if extended else op
        shape = (len(base.masks), base.grid.n)
        self.name = "odr_step" if extended else "fdr_step"
        self.bs = _vector(b, np.float64, base.N, f"{self.name}: b").reshape(shape)
        self.mag = np.empty(shape)
        if extended:
            self.ops = ExtendedPlan(op)
            self.bs = len(base.masks) * base.c * self.bs  # the lifted A~'s scale
            self.scratch = self.ops.g.reshape(-1)
            self.pooled = False
        else:
            self.ops = OperatorPlan(op)
            self.scratch = self.ops.flat
            self.pooled = len(self.ops.inverse.groups) > 1
        v = _buffer(v, self.scratch.shape, f"{self.name}: the iterate")
        self.iterates = (v, np.empty_like(v))
        self.steps = [self._views(*pair) for pair in (self.iterates, self.iterates[::-1])]

    def _views(self, v, out) -> tuple:
        """(out, ...), what a step from the iterate v into out takes: see the class."""
        ops = self.ops
        if isinstance(ops, OperatorPlan):
            return (out, *self._fdr_hooks(v.reshape(self.bs.shape), out.reshape(self.bs.shape)))
        return (out, TransformPlan(ops.grid, ops.grid.dims, False, v.reshape(ops.g.shape), ops.y,
                                   ops.work, ops.index), ops.objects(v), ops.objects(out))

    def step_from(self, v) -> tuple:
        """(out, ...), what a step from v takes, for v one of the iterates."""
        if v is not self.iterates[0] and v is not self.iterates[1]:
            raise ValueError(f"{self.name}: the plan is made for other iterates")
        return self.steps[v is self.iterates[1]]

    def _fdr_hooks(self, ys, rs) -> tuple:
        """FDR's hooks on the pattern views of y and r: before A, r = P2 y
        and w = 2 P2 y - y, w the operator plan's images; after A*, which
        leaves A* x in w, r = y + A* x - P2 y = y+ and w = y+ - y."""
        w, bs, mag = self.ops.images, self.bs, self.mag

        def reflect(rows):
            yr, wr, rr = ys[rows], w[rows], rs[rows]
            mr = np.abs(yr, out=mag[rows])
            # A non-finite entry makes |y| non-finite; only an overflowing |y|
            # of a finite y needs the full test.  Tested before any divide.
            if not isfinite(mr.max()) and not np.isfinite(yr).all():
                raise FloatingPointError("fdr_step: non-finite iterate")
            _unit(yr, mr, rr)
            np.multiply(bs[rows], rr, out=rr)
            np.multiply(2.0, rr, out=wr)
            np.subtract(wr, yr, out=wr)

        def update(rows):
            yr, rr, wr = ys[rows], rs[rows], w[rows]
            np.add(yr, wr, out=wr)
            np.subtract(wr, rr, out=rr)
            np.subtract(rr, yr, out=wr)  # the step change, once w is read

        return reflect, update

    def project(self, rows) -> None:
        """ODR's hook: b . phase(y) on those rows of A~*'s result y."""
        yr = self.ops.y[rows]
        _unit(yr, np.abs(yr, out=self.mag[rows]), yr)
        np.multiply(self.bs[rows], yr, out=yr)


def fdr_step(y, op: PropagationOp, b, sector: SectorSpec = NO_SECTOR, plan=None) -> np.ndarray:
    """One Fourier-domain DR update y + P1(2 P2 - I)y - P2 y.

    P1 y = A*[A y]_X projects onto the diffracted-field set A* X and
    P2 y = b . y/|y| onto the magnitude set {|y| = b}.  Costs one A / A*
    pair.  plan is a StepPlan of (op, b), and y one of its iterates: y+ is
    written into the other and returned.  Without one the step makes its
    own on y, a length-N vector, so y+ is a new array.  When plan.estimate
    holds u = A y, the step replaces it with a new array, the next
    estimate A y+ = [z]_X + (u - z)/2 with z = A(2 P2 y - y), which
    AA* = I makes exact at no extra FFT.

    Everything but the pattern sum inside A is per pattern, so it runs in
    the transforms' hooks, next to each pattern's transform: the finiteness
    check and the reflection before A; after A*, the update and the step
    change y+ - y, written into the plan's scratch.  A and A* run on the
    operator plan's own buffer (forward.OperatorPlan), so neither copies
    its argument or its result.
    """
    if plan is None:
        plan = StepPlan(op, b, np.ascontiguousarray(y, dtype=np.complex128))
        y = plan.iterates[0]
    r, reflect, update = _plan(plan, StepPlan, op, b).step_from(y)
    z = apply_a(op, plan.scratch, before=reflect, plan=plan.ops)
    x = sector_project(z, sector)
    apply_astar(op, x, after=update, plan=plan.ops)
    if plan.estimate is not None:
        # x + 0.5 * (estimate - z), in one new buffer
        half = np.subtract(plan.estimate, z)
        np.multiply(0.5, half, out=half)
        plan.estimate = np.add(x, half, out=half)
    return r


def odr_step(h, ext: ExtendedOp, b, sector: SectorSpec = NO_SECTOR, plan=None) -> np.ndarray:
    """One ODR update of the lift h = U x (forward.ExtendedOp), a flat
    (L, K) block: h+ = h - g + P_X(2g - h), g = P_U(L c F^-1(b . phase(F h))),
    with F the DFT from the block to the images, F^-1 its unnormalized
    inverse read on the block, P_U the projection onto U's range and P_X,
    on object pixel j, mu_j times the sector-projected sum_l conj(mu_l)
    (.)_l / L, zero on padded pixels.  This is U of x + [2z - x]_X - z,
    z = A~(b . phase(A~* x)).  b . phase and the mask of U's range run per
    pattern in the inverse's hooks; the plan's ExtendedPlan holds P_U.
    plan is a StepPlan of (ext, b), and h one of its iterates: h+ is
    written into the other and returned.  Without one the step makes its
    own on h.  The step change h+ - h is left in g, the plan's scratch, and
    when plan.estimate is set, the step replaces it with a new array, the
    x coordinates of U^-1 h+.
    """
    if plan is None:
        plan = StepPlan(ext, b, np.ascontiguousarray(h, dtype=np.complex128))
        h = plan.iterates[0]
    r, forward, hx, rx = _plan(plan, StepPlan, ext, b).step_from(h)
    if not np.isfinite(h).all():
        raise FloatingPointError("odr_step: non-finite iterate")
    ops, g = plan.ops, plan.scratch
    dft_plain(forward.src, ops.grid, out=ops.y, plan=forward)
    idft_plain(ops.y, ops.grid, before=plan.project, after=ops.restrict, out=ops.g,
               plan=ops.inverse)
    ops.project_cut()
    # r holds h - g, then h+ = h - g + mu [sum conj(mu) (2g - h) / L]_X.
    p = np.multiply(2.0, ops.g_objects, out=ops.prods)
    np.subtract(p, hx, out=p)
    x = sector_project(ops.object_part(p, out=ops.sums), sector)
    np.subtract(h, g, out=r)
    np.multiply(ops.mu, x, out=p)
    np.add(rx, p, out=rx)
    np.subtract(r, h, out=g)  # the step change, once g is read
    if plan.estimate is not None:
        plan.estimate = ops.object_part(rx).reshape(ext.n)
    return r


def _norms(fu, fv, pooled: bool) -> tuple[float, float]:
    """The norms of the two vectors whose float views (grids._floats) are
    fu and fv, bit for bit _norm's.  When pooled, their two sums of squares
    run side by side as pool tasks, each the one einsum over a whole float
    view that _norm makes, so no bit depends on the thread."""
    if not pooled:
        return sqrt(_dot(fu, fu)), sqrt(_dot(fv, fv))
    sums = np.empty(2)
    _run_tasks([partial(np.einsum, "i,i->", f, f, out=sums[i, ...])
                for i, f in enumerate((fu, fv))])
    return sqrt(sums[0]), sqrt(sums[1])


def _alignment(x0: np.ndarray, diff: np.ndarray):
    """align_phase's set-up on one x0 and one C-contiguous buffer diff for
    alpha x - x0, the float views of x0, of its even and odd parts and of
    diff, bound to the function of x that it returns.  run_solver makes
    one per solve, align_phase one per call."""
    f0, fd = _floats(x0), _floats(diff)
    re0, im0 = f0[0::2], f0[1::2]

    def align(x: np.ndarray) -> tuple[complex, float]:
        f = _floats(x)
        z = complex(_dot(f, f0), _dot(f[0::2], im0) - _dot(f[1::2], re0))
        alpha = z / abs(z) if z != 0 else 1.0 + 0.0j
        np.multiply(alpha, x, out=diff)
        np.subtract(diff, x0, out=diff)
        return complex(alpha), sqrt(_dot(fd, fd))

    return align


def align_phase(x, x0) -> tuple[complex, float]:
    """Optimal global phase alpha (|alpha| = 1) and the error ||alpha x - x0||.

    The inner product's imaginary part is the difference of two real dots
    summed in the same order, so align_phase(x0, x0) gives exactly
    alpha = 1 and error 0."""
    x0 = _vector(x0, np.complex128, np.size(x0), "align_phase: x0")
    x = _vector(x, np.complex128, x0.size, "align_phase: x")
    return _alignment(x0, np.empty_like(x0))(x)


@dataclass(frozen=True)
class InitSpec:
    """Solver initialization: random pixels, all-ones, or near the solution."""

    kind: str = INIT_RANDOM
    seed: int = 0
    delta: float = 1e-3

    def __post_init__(self) -> None:
        if self.kind not in (INIT_RANDOM, INIT_CONSTANT, INIT_NEAR):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if not (isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")


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
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class RecoveryResult:
    """Outcome of a solver run.

    x_hat is the object estimate the last history row was measured on, and
    relative_error = min_{|a|=1} ||a x_hat - x0|| / ||x0|| (nan without
    ground truth), so it equals history[-1][1].  history holds one row
    (k, relative_error, step_residual) per iterate, where step_residual is
    the relative iterate change used for stopping (nan at k = 1).
    iterations is the index k of the last iterate, the initial iterate
    being k = 1: the run took iterations - 1 DR steps, and history has
    iterations rows.  When the last iterate is non-finite, history has
    one row fewer, x_hat is all nan and relative_error is nan.  stop says
    why the run ended, one of STOP_ERROR_TOL ("error tol"), STOP_STEP_TOL
    ("step tol"), STOP_MAX_ITERS ("max_iters") and STOP_NON_FINITE
    ("non-finite"); `converged` reads true for the two tolerance tests.
    A run that stops on the step test may end with its error above tol.
    rate_estimate is the geometric-mean error ratio over a trailing window
    of at most 20 ratios among errors above 1e-12.  ntilde is the number of
    coordinates the iteration ran on: N for FDR, and for ODR its resolved
    padding (at ntilde = N the run was the FDR recursion).
    """

    x_hat: np.ndarray
    relative_error: float
    iterations: int
    stop: str
    rate_estimate: float
    ntilde: int
    history: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop in (STOP_ERROR_TOL, STOP_STEP_TOL)


RATE_FLOOR = 1e-12
RATE_WINDOW = 20


def estimate_rate(errors) -> float:
    """Geometric-mean ratio of the last RATE_WINDOW + 1 errors above RATE_FLOOR."""
    usable = [e for e in errors if np.isfinite(e) and e > RATE_FLOOR]
    if len(usable) < 2:
        return float("nan")
    tail = usable[-(RATE_WINDOW + 1):]
    return float((tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1)))


def _initial_iterate(init: InitSpec, op: PropagationOp, x0):
    """FDR's first iterate y0 in C^N, A* of the start object; the near start
    adds a perturbation of norm delta in C^N to A* x0.  ODR starts at the
    lift U A~ y0 of the same point (see run_solver)."""
    if init.kind == INIT_NEAR:
        if x0 is None:
            raise ValueError("NearSolution initialization needs the true object")
        rng = np.random.default_rng(init.seed)
        pert = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        return apply_astar(op, x0) + init.delta * pert / _norm(pert)
    if init.kind == INIT_RANDOM:
        rng = np.random.default_rng(init.seed)
        return apply_astar(op, rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n))
    return apply_astar(op, np.ones(op.n, dtype=np.complex128))  # constant: all-ones object


def run_solver(cfg: SolverConfig, op: PropagationOp, b, x0=None) -> RecoveryResult:
    """Iterate FDR or ODR from the configured initialization.

    FDR runs on all N coordinates and ignores cfg.ntilde.  ODR runs on
    cfg.ntilde coordinates, min(4n, N) when unset; at ntilde = N it is the
    FDR recursion and runs as FDR, bit for bit.  Any other ntilde outside
    [n, N] raises ValueError, as do an x0 that is not a length-n vector or
    is all zero and a b that is not a real length-N vector (grids._vector
    checks both; the step plan checks b).  The result records the resolved
    ntilde.
    FDR starts at y0 (see _initial_iterate) and ODR at the lift
    h = U A~ y0 = forward.extended_a(ext, y0), so the two first estimates
    agree to roundoff.  ODR iterates h (see odr_step); U is sqrt(L) times
    an isometry, so the step residual reads the same on h as on x.

    Stops when (with ground truth) the relative aligned error or the
    relative iterate change drops to cfg.tol, at cfg.max_iters, or at a
    non-finite iterate, read off the step's change after the initial
    iterate.  One test at the exit sets the result's stop to the first of
    these that holds for the last iterate, in that order, with the
    non-finite test first.  Each iterate is evaluated once: its object
    estimate, which each step leaves in the plan (see StepPlan), is A y
    (FDR), tracked through the steps rather than applied anew, or the x
    coordinates of U^-1 h (ODR), sector-projected when a sector is
    active.  The result is the last evaluation, so history[-1][1] equals
    relative_error exactly; a non-finite iterate evaluates to an all-nan
    x_hat with a nan error.
    """
    x0 = None if x0 is None else _vector(x0, np.complex128, op.n, "run_solver: x0")
    norm_x0 = _norm(x0) if x0 is not None else float("nan")
    if norm_x0 == 0:
        raise ValueError("run_solver: x0 must be nonzero (the error is relative to its norm)")

    if cfg.algorithm == ALGO_FDR:
        ntilde = op.N
    else:
        ntilde = cfg.ntilde if cfg.ntilde is not None else min(4 * op.n, op.N)
    ext = None if ntilde == op.N else extend_op(op, ntilde)
    # Picked per call, not bound at import: a wrapper set on this module's
    # fdr_step or odr_step sees every step.
    target, step = (op, fdr_step) if ext is None else (ext, odr_step)

    iterate = _initial_iterate(cfg.init, op, x0)
    plan = StepPlan(target, b, iterate if ext is None else extended_a(ext, iterate))  # h = U A~ y0
    iterate, ops = plan.iterates[0], plan.ops
    # The object estimate: A y (FDR), the x coordinates of U^-1 h (ODR).
    plan.estimate = (apply_a(op, iterate, plan=ops) if ext is None
                     else ops.object_part(ops.objects(iterate)).reshape(op.n))
    # Each step is written into the plan's other iterate, and leaves its
    # change in the plan's scratch, so no iterate-length buffer is
    # allocated per step (glibc would otherwise trim its heap and fault the
    # pages back in every step).  The measurement is set up once: the
    # alignment on x0, and the float views of the scratch and of the plan's
    # two iterates, which the steps alternate between.
    align = None if x0 is None else _alignment(x0, np.empty(op.n, dtype=np.complex128))
    scratch, floats = _floats(plan.scratch), [_floats(v) for v in plan.iterates]

    history: list[tuple[int, float, float]] = []
    tol, max_iters = cfg.tol, cfg.max_iters
    k = 1
    step_res = float("nan")
    finite = np.all(np.isfinite(iterate))

    while True:
        if not finite:
            x_hat = np.full(op.n, np.nan, dtype=np.complex128)
            rel = float("nan")
            break
        x_hat = sector_project(plan.estimate, cfg.sector)
        rel = align(x_hat)[1] / norm_x0 if align is not None else float("nan")
        history.append((k, rel, step_res))
        # rel is nan without ground truth and step_res nan at k = 1, so
        # neither passes its test there.
        if rel <= tol or step_res <= tol or k >= max_iters:
            break

        # The iterate k is plan.iterates[(k - 1) % 2]; scratch: nxt - iterate.
        nxt = step(iterate, target, b, cfg.sector, plan=plan)
        change, denom = _norms(scratch, floats[(k - 1) % 2], plan.pooled)
        # nxt is finite when its change from the finite iterate is; only an
        # overflowing change needs the full check.
        finite = isfinite(change) or np.all(np.isfinite(nxt))
        step_res = change / denom if denom > 0 else float("inf")
        iterate = nxt
        k += 1

    return RecoveryResult(
        x_hat=x_hat,
        relative_error=rel,
        iterations=k,
        stop=(STOP_NON_FINITE if not finite else STOP_ERROR_TOL if rel <= tol
              else STOP_STEP_TOL if step_res <= tol else STOP_MAX_ITERS),
        rate_estimate=estimate_rate([row[1] for row in history]),
        ntilde=ntilde,
        history=history,
    )
