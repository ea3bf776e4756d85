"""Random phase masks and the isometric propagation operators.

A measurement stacks one masked DFT per pattern,

    A* x = c * [ Phi diag(mu_1) x ; ... ; Phi diag(mu_l) x ],

where each Phi is the oversampled DFT of the object grid (or the plain DFT
for the unoversampled multi-pattern setup) and c normalizes A* to an
isometry, A A* = I.  Data are the magnitudes b = |A* x0|.

Each application of A*, A, A~* or A~ hands all its patterns to grids in one
stacked transform call, which may run them on separate cores; the results
are bit for bit those of transforming one pattern at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from .grids import (
    GridShape,
    _norm,
    dft_oversampled,
    dft_plain,
    idft_oversampled,
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
    seed: int

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
    return MaskSpec(phases=_freeze(phases), kind=kind, seed=int(seed))


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
    with_plain: bool = True,
) -> PropagationOp:
    """Build a propagation operator for one of the measurement layouts.

    one-mask       one oversampled coded pattern           (N = n_os)
    one-and-half   oversampled coded + oversampled plain   (N = 2 n_os)
    two-mask       two oversampled coded patterns          (N = 2 n_os)
    multi          `patterns` unoversampled patterns, the last one plain
                   when with_plain is set                  (N = patterns * n)

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
        kinds = [MASK_UNIFORM] * patterns
        if with_plain:
            kinds[-1] = MASK_IDENTITY
        masks = tuple(make_mask(shape, k, seed + i) for i, k in enumerate(kinds))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    op = PropagationOp(variant=variant, shape=shape, masks=masks)
    _verify_isometry(op)
    return op


def _verify_isometry(op: PropagationOp, tol: float = 1e-10) -> None:
    rng = np.random.default_rng(12345)
    for _ in range(3):
        x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        err = _norm(apply_a(op, apply_astar(op, x)) - x) / _norm(x)
        if not err < tol:
            raise RuntimeError(f"operator normalization failed: |AA*x - x|/|x| = {err:.3e}")


def apply_astar(op: PropagationOp, x, after=None, out=None) -> np.ndarray:
    """A* x: stacked masked DFTs, length N, from one stacked transform call.

    The masking and the scaling by op.c run in the transform's hooks.
    after(rows), when given, then runs on those rows of the (L, grid.n)
    pattern view of the result, on the pool for large grids (see grids).
    The result is written into out when given, a length-N complex128
    buffer, and returned."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (op.n,):
        raise ValueError(f"apply_astar: expected length {op.n}, got shape {x.shape}")
    if out is None:
        out = np.empty(op.N, dtype=np.complex128)
    transform = dft_oversampled if op.oversampled else dft_plain
    masked = np.empty((len(op.masks), op.n), dtype=np.complex128)
    images = out.reshape(len(op.masks), op.grid.n)
    mus = [m.values for m in op.masks]  # cached here, not in a hook

    def mask(rows):
        for row, mu in zip(masked[rows], mus[rows]):
            np.multiply(mu, x, out=row)

    def scale(rows):
        images[rows] *= op.c
        if after is not None:
            after(rows)

    transform(masked, op.shape, before=mask, after=scale, out=images)
    return out


def apply_a(op: PropagationOp, y, before=None) -> np.ndarray:
    """A y: adjoint of apply_astar, length n, from one stacked transform call.

    before(rows), when given, first fills those rows of the (L, grid.n)
    pattern view of y, which must then be a complex128 buffer, on the pool
    for large grids (see grids).  The conjugate-mask multiply runs in the
    transform's after hook; the masked pattern images are then summed in
    pattern order onto zeros."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.N,):
        raise ValueError(f"apply_a: expected length {op.N}, got shape {y.shape}")
    inverse = idft_oversampled if op.oversampled else idft_plain
    images = np.empty((len(op.masks), op.n), dtype=np.complex128)
    conjs = [np.conj(m.values) for m in op.masks]  # here, not in a hook

    def unmask(rows):
        for image, conj in zip(images[rows], conjs[rows]):
            np.multiply(conj, image, out=image)

    inverse(y.reshape(len(op.masks), op.grid.n), op.shape, before=before, after=unmask,
            out=images)
    return op.c * np.add.reduce(images, axis=0, initial=0)


@dataclass(frozen=True)
class ExtendedOp:
    """Isometric extension A~* = [A*, A_perp*]: C^ntilde -> C^N.

    The L patterns share one image grid (the oversampled grid, or the object
    grid for multi).  A~* fills L images h_l on it from the coordinates
    (x, m, t) and returns each one's unitary DFT, F h_l / sqrt(grid.n):

        object pixel j:  (h_1(j), ..., h_L(j)) = v_j x_j + Q_j m_j,
        padded pixel p:  h_l(p) = t_(p,l),

    with v_j = (mu_1(j), ..., mu_L(j)) / sqrt(L) and Q_j the other L-1
    columns of the Householder reflector of v_j.  [v_j, Q_j] is unitary, so
    all N coordinates give a unitary map whose x block is A*, and any leading
    ntilde of them an isometry.  The fixed order: x, then the m_j pixel-major,
    then the padded pixels by cyclic Chebyshev distance from the support
    (ties in raster order), each pixel's L patterns interleaved.  With one
    pattern this is the zero padding of HIO; multi has no padded pixels.

    The object pixels are the leading (L, *dims) block of the (L, *grid)
    image stack, in raster order, so the operators address x and m through
    slice views of it (the m block laid in as a reshape/transpose); only the
    padded pixels keep an index array.  A~* transforms its image stack in
    place.  extended_a takes apply_a's before hook: the hook fills A~'s
    input, which A~ then overwrites with the pattern images.
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
    def layout(self) -> tuple[GridShape, tuple[slice, ...], np.ndarray]:
        """The image grid; the index of the (L, *dims) object block in the
        (L, *grid.dims) image stack; and the flat positions in the (L, grid.n)
        stack of the coordinates after x and m, the padded pixels' t."""
        shape, grid, L = self.base.shape, self.base.grid, len(self.base.masks)
        dist = np.zeros(grid.n, dtype=np.int64)
        for i, m, size in zip(np.indices(grid.dims).reshape(grid.ndim, -1), shape.dims, grid.dims):
            dist = np.maximum(dist, np.where(i < m, 0, np.minimum(i - m + 1, size - i)))
        padded = np.argsort(dist, kind="stable")[self.n :]  # the first n are the object
        tail = (padded[:, None] + grid.n * np.arange(L)).ravel()
        block = (slice(None), *(slice(0, m) for m in shape.dims))
        return grid, block, _freeze(tail[: max(self.ntilde - L * self.n, 0)])

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


def extend_op(op: PropagationOp, ntilde: int) -> ExtendedOp:
    """The canonical extension of A* to ntilde columns (see :class:`ExtendedOp`)."""
    n, N = op.n, op.N
    if not n <= ntilde <= N:
        raise ValueError(f"ntilde must satisfy {n} <= ntilde <= {N}, got {ntilde}")
    ext = ExtendedOp(base=op, ntilde=ntilde)
    _verify_extension(ext)
    return ext


def _verify_extension(ext: ExtendedOp, tol: float = 1e-10) -> None:
    """Check A~ A~* x = x and A A~*[0; t] = 0 on random vectors."""
    rng = np.random.default_rng(707)
    for _ in range(3):
        x = rng.standard_normal(ext.ntilde) + 1j * rng.standard_normal(ext.ntilde)
        scale = _norm(x)
        iso = _norm(extended_a(ext, extended_astar(ext, x)) - x) / scale
        x[: ext.n] = 0.0  # [0; t]
        cross = _norm(apply_a(ext.base, extended_astar(ext, x))) / scale
        if not (iso < tol and cross < tol):
            raise RuntimeError(
                f"extension verification failed (isometry {iso:.3e}, cross {cross:.3e})"
            )


def extended_astar(ext: ExtendedOp, x) -> np.ndarray:
    """A~* x = A* x[:n] + A_perp* x[n:], length N, from one stacked transform call.

    The image stack is transformed in place, and scaled by op.c in the
    transform's after hook."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (ext.ntilde,):
        raise ValueError(f"extended_astar: expected length {ext.ntilde}, got shape {x.shape}")
    (grid, block, tail), (mu, w, kappa) = ext.layout, ext.householder
    L, n = len(mu), ext.n
    # sqrt(L) (m, t): the m_j pixel-major, then the padded pixels' t, zero past ntilde.
    mt = np.zeros(max(ext.ntilde, L * n) - n, dtype=np.complex128)
    np.multiply(sqrt(L), x[n:], out=mt[: ext.ntilde - n])
    m = np.zeros(mu.shape, dtype=np.complex128)
    m.reshape(L, n)[1:] = mt[: n * (L - 1)].reshape(n, L - 1).T
    images = np.zeros((L, grid.n), dtype=np.complex128)
    # sqrt(L) h = sqrt(L) Q m + mu x on the object pixels; the x block is then
    # op.c * F(mu x), the exact arithmetic of apply_astar.
    images.reshape(L, *grid.dims)[block] = (m - (kappa * (np.conj(w) * m).sum(axis=0)) * w
                                            + mu * x[:n].reshape(mu.shape[1:]))
    images.ravel()[tail] = mt[n * (L - 1) :]

    def scale(rows):
        images[rows] *= ext.base.c

    return dft_plain(images, grid, after=scale, out=images).reshape(ext.N)


def extended_a(ext: ExtendedOp, y, before=None) -> np.ndarray:
    """A~ y = [A y ; A_perp y], length ntilde, from one stacked transform call.

    before(rows), when given, first fills those rows of the (L, grid.n)
    pattern view of y, which must then be a complex128 buffer, on the pool
    for large grids (see grids); the transform then writes the pattern
    images over y, which is the caller's scratch.  Without before, y is only
    read.  The sums over patterns on the object block run on the caller."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (ext.N,):
        raise ValueError(f"extended_a: expected length {ext.N}, got shape {y.shape}")
    (grid, block, tail), (mu, w, kappa) = ext.layout, ext.householder
    L, n = len(mu), ext.n
    rows = y.reshape(L, grid.n)
    images = idft_plain(rows, grid, before=before, out=rows if before is not None else None)
    h = images.reshape(L, *grid.dims)[block]
    # [c mu^H h ; Q^H h pixel-major ; the padded pixels' t], the last two over
    # sqrt(grid.n), cut to ntilde.
    z = np.empty(max(ext.ntilde, L * n), dtype=np.complex128)
    np.multiply(ext.base.c, (np.conj(mu) * h).sum(axis=0), out=z[:n].reshape(mu.shape[1:]))
    np.subtract(h[1:], (kappa * (np.conj(w) * h).sum(axis=0)) * w[1:],
                out=z[n : L * n].reshape(*mu.shape[1:], L - 1).transpose(-1, *range(mu.ndim - 1)))
    np.take(images, tail, out=z[L * n :])
    z[n:] /= sqrt(grid.n)
    return z[: ext.ntilde]


@dataclass(frozen=True)
class MeasuredData:
    """Magnitude data b >= 0 with its noise metadata."""

    b: np.ndarray
    nsr: float
    noise_seed: int


def synthesize_data(op: PropagationOp, x0, nsr: float = 0.0, noise_seed: int = 0) -> MeasuredData:
    """Synthesize b = |A* x0|, optionally with additive Gaussian noise.

    For nsr > 0 a seeded Gaussian vector eps (numpy default generator,
    standard_normal(N)) is rescaled so that ||eps|| / ||A* x0|| equals nsr
    exactly, added to the magnitudes, and negatives are clamped to zero.
    Both norms are summed without BLAS (grids._norm), so the noise does not
    depend on the BLAS thread count.
    """
    if nsr < 0:
        raise ValueError("nsr must be >= 0")
    b = np.abs(apply_astar(op, x0))
    if nsr > 0:
        rng = np.random.default_rng(noise_seed)
        eps = rng.standard_normal(op.N)
        eps *= nsr * _norm(b) / _norm(eps)
        b = np.maximum(b + eps, 0.0)
    return MeasuredData(b=_freeze(b), nsr=float(nsr), noise_seed=int(noise_seed))
