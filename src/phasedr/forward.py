"""Random phase masks and the isometric propagation operators.

A measurement stacks one masked DFT per pattern,

    A* x = c * [ Phi diag(mu_1) x ; ... ; Phi diag(mu_l) x ],

where each Phi is the oversampled DFT of the object grid (or the plain DFT
for the unoversampled multi-pattern setup) and c normalizes A* to an
isometry, A A* = I.  Data are the magnitudes b = |A* x0|.

Each application of A*, A, A~* or A~ hands all its patterns to grids in one
stacked transform call, which may run them on separate cores; the results
are bit for bit those of transforming one pattern at a time.

Every operator transforms between a block of image points and its L
pattern images on the image grid: the plain DFT of that grid, with the
object side cut to per-axis index sets.  For A* and A the sets are the
object's leading points (the zero-padded oversampled DFT, or the plain DFT
for multi); for the extension they are the compact block of its lift
(ExtendedOp).  What an application sets up is a plan holding its own
buffers on both sides, the (L, *len(index)) block and the (L, grid.n)
pattern images, and the two grids.TransformPlans of that form made for
them, forward from the block to the images and inverse back, each made
on first use and both sharing one work stack.  An OperatorPlan adds the
(L, n) mask phasors and their conjugates, an ExtendedPlan the object
block's mask phasors and the projection onto U's range.  A call given
another argument copies it into the plan's buffer.  A* and A~* return
the plan's own buffer, not a copy, so on a held plan the next call
overwrites their result.  A solver makes one plan per solve and hands it
to every call, and a DR step runs its transforms on the plan's buffers;
a one-shot call makes a throwaway plan.  A plan keeps no reference to a
module's function, so a wrapper installed on one (perfbench's tracer)
still sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .grids import (  # dft_oversampled: bound here for perfbench's binding test
    GridShape,
    TransformPlan,
    _norm,
    _vector,
    dft_oversampled,
    dft_plain,
    idft_plain,
)

VARIANT_ONE_MASK = "one-mask"
VARIANT_ONE_AND_HALF = "one-and-half"
VARIANT_TWO_MASK = "two-mask"
VARIANT_MULTI = "multi"

MASK_UNIFORM = "uniform-circle"
MASK_IDENTITY = "identity"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MaskSpec:
    """Unimodular phase mask mu(j) = exp(i*phi(j)) on the object grid."""

    phases: np.ndarray
    kind: str

    @cached_property
    def values(self) -> np.ndarray:
        """The phasors exp(i*phi), computed on first use and frozen.

        The identity mask's phasors are all exactly 1, so they are a
        read-only broadcast of one scalar rather than n stored values.
        """
        if self.kind == MASK_IDENTITY:
            return np.broadcast_to(np.complex128(1.0), self.phases.shape)
        return _freeze(np.exp(1j * self.phases))


def make_mask(shape: GridShape, kind: str, seed: int = 0) -> MaskSpec:
    """Draw a phase mask.

    `uniform-circle` draws phases i.i.d. uniform on [0, 2*pi) from
    numpy's seeded default generator; `identity` is the all-ones mask
    (zero phases).  Equal (shape, kind, seed) give bit-identical masks.
    """
    if kind == MASK_IDENTITY:
        phases = np.zeros(shape.n)
    elif kind == MASK_UNIFORM:
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, shape.n)
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    return MaskSpec(phases=_freeze(phases), kind=kind)


@dataclass(frozen=True)
class PropagationOp:
    """Isometric measurement map A*: C^n -> C^N and its adjoint A.

    Every pattern lives on the same image grid: the oversampled grid of the
    object, or the object grid itself for multi (`oversampled` is False).
    """

    variant: str
    shape: GridShape
    masks: tuple[MaskSpec, ...]

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def oversampled(self) -> bool:
        return self.variant != VARIANT_MULTI

    @cached_property
    def grid(self) -> GridShape:
        """The image grid shared by all patterns."""
        return GridShape(self.shape.oversampled_dims) if self.oversampled else self.shape

    @property
    def N(self) -> int:
        return len(self.masks) * self.grid.n

    @cached_property
    def c(self) -> float:
        """The normalization 1/sqrt(N) that makes A* an isometry."""
        return 1.0 / np.sqrt(self.N)


def make_operator(
    variant: str,
    shape: GridShape,
    seed: int = 0,
    patterns: int = 3,
) -> PropagationOp:
    """Build a propagation operator for one of the measurement layouts.

    one-mask       one oversampled coded pattern           (N = n_os)
    one-and-half   oversampled coded + oversampled plain   (N = 2 n_os)
    two-mask       two oversampled coded patterns          (N = 2 n_os)
    multi          `patterns` unoversampled patterns,      (N = patterns * n)
                   the last one plain

    Pattern k's mask is seeded with seed + k.  The normalization c = 1/sqrt(N)
    is verified against random vectors at construction.
    """
    if variant == VARIANT_ONE_MASK:
        masks = (make_mask(shape, MASK_UNIFORM, seed),)
    elif variant == VARIANT_ONE_AND_HALF:
        masks = (make_mask(shape, MASK_UNIFORM, seed), make_mask(shape, MASK_IDENTITY, seed + 1))
    elif variant == VARIANT_TWO_MASK:
        masks = (make_mask(shape, MASK_UNIFORM, seed), make_mask(shape, MASK_UNIFORM, seed + 1))
    elif variant == VARIANT_MULTI:
        if patterns < 2:
            raise ValueError("multi variant needs at least 2 patterns")
        kinds = [MASK_UNIFORM] * (patterns - 1) + [MASK_IDENTITY]
        masks = tuple(make_mask(shape, k, seed + i) for i, k in enumerate(kinds))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    op = PropagationOp(variant=variant, shape=shape, masks=masks)
    _verify_isometry(op)
    return op


def _verify_isometry(op: PropagationOp) -> None:
    rng = np.random.default_rng(12345)
    plan = OperatorPlan(op)  # one throwaway plan for the whole check
    for _ in range(3):
        x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        y = apply_astar(op, x, plan=plan)
        err = _norm(apply_a(op, y, plan=plan) - x) / _norm(x)
        if not err < 1e-10:
            raise RuntimeError(f"operator normalization failed: |AA*x - x|/|x| = {err:.3e}")


class _TransformPair:
    """The DFT plans between block, the (L, *len(index)) block of base's
    image grid at the per-axis index sets index, and images, its (L,
    grid.n) pattern images: forward from block to images and inverse back,
    each made for those two buffers on its first use.  Their pass buffers
    come from one N-length work stack: the given one, else one that the
    inverse makes.  A forward FFT plan needs none, as it pads in its output,
    so a one-shot A* allocates no pass buffer on an FFT grid and only its
    d - 1 intermediate passes on a dense one.  target is what the plan was
    made for, the operator or extension, which _plan checks."""

    def __init__(self, target, base: PropagationOp, index, block, images, work=None) -> None:
        self.target, self.grid, self.index, self.L = (target,), base.grid, index, len(base.masks)
        self.ends, self.work = (block, images), work

    @cached_property
    def forward(self) -> TransformPlan:
        return TransformPlan(self.grid, self.grid.dims, False, *self.ends, self.work, self.index)

    @cached_property
    def inverse(self) -> TransformPlan:
        if self.work is None:
            self.work = np.empty(self.L * self.grid.n, dtype=np.complex128)
        return TransformPlan(self.grid, self.grid.dims, True, *self.ends[::-1], self.work,
                             self.index)


class OperatorPlan(_TransformPair):
    """What A* and A set up on one operator, made once and reused by every
    call given it: the (L, n) stack that holds A*'s masked input and A's
    unmasked images; `flat`, a length-N buffer, and `images`, its (L,
    grid.n) pattern view, which hold A*'s result and A's argument; the
    transform plans between the stack and images (see _TransformPair); and
    the (L, n) mask phasors `mus` and their conjugates, made on A's first
    call.  A* returns flat itself, and A given flat as y copies nothing.
    A DR step hands A and A* its reflection and A* x there."""

    def __init__(self, op: PropagationOp) -> None:
        self.stack = np.empty((len(op.masks), op.n), dtype=np.complex128)
        self.flat = np.empty(op.N, dtype=np.complex128)
        self.images = self.flat.reshape(len(op.masks), op.grid.n)
        super().__init__(op, op, tuple(map(range, op.shape.dims)), self.stack, self.images)
        self.c = op.c
        self.mus = np.stack([m.values for m in op.masks])

    @cached_property
    def conj_mus(self) -> np.ndarray:
        return np.conj(self.mus)


def _plan(plan, cls, *target):
    """plan when it was made for target, the same objects (an operator, and
    a StepPlan's data vector after it); a throwaway cls(*target) when None."""
    if plan is None:
        return cls(*target)
    if plan.target[0] is not target[0] or plan.target[-1] is not target[-1]:
        raise ValueError(f"plan: a {cls.__name__} made for other arguments")
    return plan


def apply_astar(op: PropagationOp, x, after=None, plan=None) -> np.ndarray:
    """A* x: stacked masked DFTs, length N, from one stacked transform call.

    The masking and the scaling by op.c run in the transform's hooks.
    after(rows), when given, then runs on those rows of the plan's pattern
    images, on the pool for large grids (see grids).  The result is the
    plan's flat, not a copy: on a held plan the next call on it overwrites
    the result.  plan is an OperatorPlan of op; without one the call makes
    its own, so its result is a new array."""
    plan = _plan(plan, OperatorPlan, op)
    x = _vector(x, np.complex128, op.n, "apply_astar")
    stack, images, mus, c = plan.stack, plan.images, plan.mus, plan.c

    def mask(rows):
        np.multiply(mus[rows], x, out=stack[rows])

    def scale(rows):
        images[rows] *= c
        if after is not None:
            after(rows)

    dft_plain(stack, op.grid, before=mask, after=scale, out=images, plan=plan.forward)
    return plan.flat


def apply_a(op: PropagationOp, y, before=None, plan=None) -> np.ndarray:
    """A y: adjoint of apply_astar, length n, from one stacked transform call.

    y is copied into the plan's flat unless it is that buffer.  before(rows),
    when given, first fills those rows of the plan's pattern images, on the
    pool for large grids (see grids); y must then be plan.flat.  The
    conjugate-mask multiply runs in the transform's after hook; the masked
    pattern images are then summed in pattern order onto zeros.  plan is an
    OperatorPlan of op; without one the call makes its own."""
    plan = _plan(plan, OperatorPlan, op)
    if y is not plan.flat:
        if before is not None:
            raise ValueError("apply_a: a before hook fills the plan's flat, which y must be")
        np.copyto(plan.flat, _vector(y, np.complex128, op.N, "apply_a"))
    stack, conj_mus = plan.stack, plan.conj_mus

    def unmask(rows):
        np.multiply(conj_mus[rows], stack[rows], out=stack[rows])

    idft_plain(plan.images, op.grid, before=before, after=unmask, out=stack, plan=plan.inverse)
    return plan.c * np.add.reduce(stack, axis=0, initial=0)


@dataclass(frozen=True)
class ExtendedOp:
    """Isometric extension A~* = [A*, A_perp*]: C^ntilde -> C^N.

    The L patterns share one image grid (the oversampled grid, or the object
    grid for multi).  A~* lifts the coordinates (x, m, t) to L images h_l on
    it and returns each one's unitary DFT, F h_l / sqrt(grid.n):

        object pixel j:  (h_1(j), ..., h_L(j)) = v_j x_j + Q_j m_j,
        padded pixel p:  h_l(p) = t_(p,l),

    with v_j = (mu_1(j), ..., mu_L(j)) / sqrt(L) and Q_j the other L-1
    columns of the Householder reflector of v_j.  [v_j, Q_j] is unitary, so
    all N coordinates give a unitary map whose x block is A*, and any leading
    ntilde of them an isometry.  The fixed order: x, then the m_j pixel-major,
    then the padded pixels by cyclic Chebyshev distance from the support
    (ties in raster order), each pixel's L patterns interleaved.  With one
    pattern this is the zero padding of HIO; multi has no padded pixels.

    No function here takes or returns these coordinates.  The operators act
    on the lift U x = sqrt(L) h, which ODR iterates: extended_astar(h) is
    A~* x and extended_a(y) is U A~ y.  The lift lies flat on the compact
    block of the (L, *grid) image stack, zero elsewhere: the rows,
    columns, ... holding a live pixel (an object pixel, or a padded pixel
    whose t lies in the leading ntilde coordinates).  The object pixels are
    its leading (L, *dims) block, in raster order, reached through slice
    views; only the padded pixels keep an index array.
    """

    base: PropagationOp
    ntilde: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def N(self) -> int:
        return self.base.N

    @cached_property
    def layout(self) -> tuple[GridShape, tuple[tuple[int, ...], ...], tuple[slice, ...],
                              np.ndarray]:
        """The image grid; the compact block's index sets, per axis the
        sorted grid points that hold a live pixel; the index of the (L,
        *dims) object block in the (L, *len(index)) compact block; and the
        flat positions in the compact block of the coordinates after x and
        m, the padded pixels' t."""
        shape, grid, L = self.base.shape, self.base.grid, len(self.base.masks)
        dist = np.zeros(grid.n, dtype=np.int64)
        for i, m, size in zip(np.indices(grid.dims).reshape(grid.ndim, -1), shape.dims, grid.dims):
            dist = np.maximum(dist, np.where(i < m, 0, np.minimum(i - m + 1, size - i)))
        padded = np.argsort(dist, kind="stable")[self.n :]  # the first n are the object
        tail = (padded[:, None] + grid.n * np.arange(L)).ravel()[: max(self.ntilde - L * self.n, 0)]
        points = np.unravel_index(tail % grid.n, grid.dims)
        index = tuple(tuple(np.union1d(np.arange(m), p).tolist())
                      for m, p in zip(shape.dims, points))
        live = tuple(map(len, index))
        at = np.ravel_multi_index([np.searchsorted(ix, p) for ix, p in zip(index, points)], live)
        block = (slice(None), *(slice(0, m) for m in shape.dims))
        return grid, index, block, _freeze(at + prod(live) * (tail // grid.n))

    @cached_property
    def householder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, w, kappa) on the (L, *dims) object block: the mask values and
        the reflectors I - kappa w w^H, w_j = v_j + mu_1(j) e_1 and
        kappa_j = 2 / ||w_j||^2, that map v_j to -mu_1(j) e_1; rows 2..L of
        the reflector applied to h give Q_j^H h."""
        mu = np.stack([m.values for m in self.base.masks]).reshape(-1, *self.base.shape.dims)
        w = mu / np.sqrt(len(mu))
        w[0] += mu[0]
        return _freeze(mu), _freeze(w), _freeze(2.0 / np.sum(np.abs(w) ** 2, axis=0))

    @cached_property
    def lift_range(self) -> tuple[np.ndarray, tuple | None]:
        """(mask, cut), U's range in the (L, K) block: mask is 1 on the
        object pixels and on the padded (pixel, pattern) pairs inside
        ntilde.  Below ntilde = L n the last pixels' m_j are cut, and the
        range there is v_j and the columns of Q_j that m_j keeps: cut holds
        their positions in a block row, an (L, cut) 0/1 mask of the kept
        reflector coordinates, w and kappa; else it is None."""
        _, index, block, tail = self.layout
        _, w, kappa = self.householder
        L, n, live = len(w), self.n, tuple(map(len, index))
        mask = np.zeros((L, *live))
        mask[block] = 1.0
        mask.ravel()[tail] = 1.0
        mask = _freeze(mask.reshape(L, -1))
        kept = np.clip(self.ntilde - n - (L - 1) * np.arange(n), 0, L - 1)  # m_j's coordinates
        cut = np.flatnonzero(kept < L - 1)
        if not cut.size:
            return mask, None
        w = w.reshape(L, n)[:, cut]
        return mask, (np.ravel_multi_index(np.unravel_index(cut, self.base.shape.dims), live),
                      _freeze((np.arange(L)[:, None] <= kept[cut]).astype(np.float64)),
                      _freeze(w), _freeze(kappa.ravel()[cut]))


def extend_op(op: PropagationOp, ntilde: int) -> ExtendedOp:
    """The canonical extension of A* to ntilde columns (see :class:`ExtendedOp`)."""
    n, N = op.n, op.N
    if not n <= ntilde <= N:
        raise ValueError(f"ntilde must satisfy {n} <= ntilde <= {N}, got {ntilde}")
    ext = ExtendedOp(base=op, ntilde=ntilde)
    _verify_extension(ext)
    return ext


def _verify_extension(ext: ExtendedOp) -> None:
    """Check A~ A~* = I and A A~* = [I 0] on lifts h = U x in U's range,
    which extended_a makes from random y: U A~ A~* x = h, and A A~* x is
    the x of U^-1 h.  Those hold on the whole block too, so also check that
    U's range has dimension ntilde: P_U acts on each image point's L
    pattern values, so its trace is the sum of the (l, l) entries of P_U
    applied to the L unit blocks E_l, ones in pattern row l."""
    rng = np.random.default_rng(707)
    plan, base = ExtendedPlan(ext), OperatorPlan(ext.base)  # throwaway plans for the check
    trace = 0.0
    for row in range(plan.L):
        plan.g[...] = (np.arange(plan.L) == row)[:, None]  # E_row
        plan.restrict(slice(None))
        plan.project_cut()
        trace += plan.g[row].real.sum()
    for _ in range(3):
        h = extended_a(ext, rng.standard_normal(ext.N) + 1j * rng.standard_normal(ext.N),
                       plan=plan)
        scale, x = _norm(h), plan.object_part(plan.objects(h)).ravel()
        iso = _norm(extended_a(ext, extended_astar(ext, h, plan=plan), plan=plan) - h) / scale
        cross = _norm(apply_a(ext.base, extended_astar(ext, h, plan=plan), plan=base) - x) / scale
        if not (iso < 1e-10 and cross < 1e-10 and abs(trace - ext.ntilde) <= 1e-9 * ext.ntilde):
            raise RuntimeError(f"extension verification failed (isometry {iso:.3e}, cross "
                               f"{cross:.3e}, trace of P_U {trace:.6g} for ntilde {ext.ntilde})")


class ExtendedPlan(_TransformPair):
    """What A~*, A~ and the ODR step set up on one extension, made once and
    reused by every call given it: A~'s block g, in which A~* takes its
    argument, and its object block view; the (L, grid.n) images y, A~*'s
    result and A~'s argument; the transform plans between them on the
    compact block's index sets (see _TransformPair), whose inverse every
    ODR step runs; the object block's mu and conj(mu) / L, and scratch;
    and U's range (ExtendedOp.lift_range), onto which restrict and
    project_cut project g."""

    def __init__(self, ext: ExtendedOp) -> None:
        _, index, self.block, _ = ext.layout
        self.live = (len(ext.base.masks), *map(len, index))
        self.y = np.empty((self.live[0], ext.base.grid.n), dtype=np.complex128)
        self.g = np.empty((self.live[0], prod(self.live[1:])), dtype=np.complex128)
        super().__init__(ext, ext.base, index, self.g, self.y,
                         np.empty(ext.N, dtype=np.complex128))
        mu = ext.householder[0]
        self.mu, self.conj_mu = mu, np.conj(mu) / self.L
        self.prods = np.empty(mu.shape, dtype=np.complex128)
        self.sums = np.empty(mu.shape[1:], dtype=np.complex128)
        self.mask, self.cut = ext.lift_range
        self.g_objects = self.objects(self.g)

    def objects(self, h: np.ndarray) -> np.ndarray:
        """The (L, *dims) object block view of a block h."""
        return h.reshape(self.live)[self.block]

    def object_part(self, v: np.ndarray, out=None) -> np.ndarray:
        """sum_l conj(mu_l) v_l / L into out when given: x of U^-1 h, for v
        the object block of h.  v may be prods."""
        np.multiply(self.conj_mu, v, out=self.prods)
        return self.prods.sum(axis=0, out=out)

    def restrict(self, rows) -> None:
        """Zero those rows of g off U's range S, as a transform's after hook
        may; with project_cut after it, this is P_U."""
        g = self.g[rows]
        np.multiply(g, self.mask[rows], out=g)

    def project_cut(self) -> None:
        """P_U's rest, in place in g, on the pixels whose m block is cut:
        reflect, zero the coordinates m_j lacks, reflect back."""
        if self.cut is not None:
            pos, keep, w, kappa = self.cut
            self.g[:, pos] = _reflect(_reflect(self.g[:, pos], w, kappa) * keep, w, kappa)


def _reflect(h: np.ndarray, w: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """The reflectors I - kappa w w^H applied to the columns of the (L, ...) h."""
    return h - (kappa * (np.conj(w) * h).sum(axis=0)) * w


def extended_astar(ext: ExtendedOp, h, plan=None) -> np.ndarray:
    """c F h, length N, from one stacked transform call: A~* x for the lift
    h = U x, a flat (L, K) block on U's range, copied into the plan's g.
    plan is an ExtendedPlan of ext, whose y the result is; without one the
    call makes its own."""
    plan = _plan(plan, ExtendedPlan, ext)
    h = _vector(h, np.complex128, plan.g.size, "extended_astar")
    np.copyto(plan.g, h.reshape(plan.g.shape))
    y, c = plan.y, ext.base.c

    def scale(rows):
        y[rows] *= c

    return dft_plain(plan.g, plan.grid, after=scale, out=y, plan=plan.forward).reshape(ext.N)


def extended_a(ext: ExtendedOp, y, plan=None) -> np.ndarray:
    """U A~ y = L c P_U F^-1 y, a new flat (L, K) block: the lift of A~ y.
    y is copied into the plan's y; one stacked transform call takes it to
    the block, into the plan's g, whose after hook zeroes g off U's range;
    then the rest of P_U and the scale.  plan is an ExtendedPlan of ext;
    without one the call makes its own."""
    y = _vector(y, np.complex128, ext.N, "extended_a")
    plan = _plan(plan, ExtendedPlan, ext)
    np.copyto(plan.y, y.reshape(plan.y.shape))
    idft_plain(plan.y, plan.grid, after=plan.restrict, out=plan.g, plan=plan.inverse)
    plan.project_cut()
    return (plan.L * ext.base.c) * plan.g.reshape(-1)


@dataclass(frozen=True)
class MeasuredData:
    """Magnitude data b >= 0."""

    b: np.ndarray


def synthesize_data(op: PropagationOp, x0, nsr: float = 0.0, noise_seed: int = 0) -> MeasuredData:
    """Synthesize b = |A* x0|, optionally with additive Gaussian noise.

    For nsr > 0 a seeded Gaussian vector eps (numpy default generator,
    standard_normal(N)) is rescaled so that ||eps|| / ||A* x0|| equals nsr
    exactly, added to the magnitudes, and negatives are clamped to zero.
    Both norms are summed without BLAS (grids._norm), so the noise does not
    depend on the BLAS thread count.
    """
    if not nsr >= 0:  # nan fails it too
        raise ValueError("nsr must be >= 0")
    b = np.abs(apply_astar(op, x0))
    if nsr > 0:
        rng = np.random.default_rng(noise_seed)
        eps = rng.standard_normal(op.N)
        eps *= nsr * _norm(b) / _norm(eps)
        b = np.maximum(b + eps, 0.0)
    return MeasuredData(b=_freeze(b))
