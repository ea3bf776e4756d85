"""Random phase masks and the isometric propagation operators.

A measurement stacks one masked DFT per pattern,

    A* x = c * [ Phi diag(mu_1) x ; ... ; Phi diag(mu_l) x ],

where each Phi is the oversampled DFT of the object grid (or the plain DFT
for the unoversampled multi-pattern setup) and c normalizes A* to an
isometry, A A* = I.  Data are the magnitudes b = |A* x0|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import (
    GridShape,
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
    """Isometric measurement map A*: C^n -> C^N and its adjoint A."""

    variant: str
    shape: GridShape
    masks: tuple[MaskSpec, ...]
    oversampled: tuple[bool, ...]
    c: float

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def pattern_lengths(self) -> tuple[int, ...]:
        return tuple(
            self.shape.n_oversampled if ov else self.shape.n
            for ov in self.oversampled
        )

    @property
    def N(self) -> int:
        return sum(self.pattern_lengths)


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
        oversampled = (True,)
    elif variant == VARIANT_ONE_AND_HALF:
        masks = (make_mask(shape, MASK_UNIFORM, seed), make_mask(shape, MASK_IDENTITY, seed + 1))
        oversampled = (True, True)
    elif variant == VARIANT_TWO_MASK:
        masks = (make_mask(shape, MASK_UNIFORM, seed), make_mask(shape, MASK_UNIFORM, seed + 1))
        oversampled = (True, True)
    elif variant == VARIANT_MULTI:
        if patterns < 2:
            raise ValueError("multi variant needs at least 2 patterns")
        kinds = [MASK_UNIFORM] * patterns
        if with_plain:
            kinds[-1] = MASK_IDENTITY
        masks = tuple(make_mask(shape, k, seed + i) for i, k in enumerate(kinds))
        oversampled = (False,) * patterns
    else:
        raise ValueError(f"unknown variant {variant!r}")

    N = sum(shape.n_oversampled if ov else shape.n for ov in oversampled)
    op = PropagationOp(
        variant=variant, shape=shape, masks=masks, oversampled=oversampled,
        c=1.0 / np.sqrt(N),
    )
    _verify_isometry(op)
    return op


def _verify_isometry(op: PropagationOp, tol: float = 1e-10) -> None:
    rng = np.random.default_rng(12345)
    for _ in range(3):
        x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        err = np.linalg.norm(apply_a(op, apply_astar(op, x)) - x) / np.linalg.norm(x)
        if not err < tol:
            raise RuntimeError(f"operator normalization failed: |AA*x - x|/|x| = {err:.3e}")


def apply_astar(op: PropagationOp, x) -> np.ndarray:
    """A* x: stacked masked DFTs, length N."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (op.n,):
        raise ValueError(f"apply_astar: expected length {op.n}, got shape {x.shape}")
    out = np.empty(op.N, dtype=np.complex128)
    start = 0
    for mask, ov, length in zip(op.masks, op.oversampled, op.pattern_lengths):
        g = mask.values * x
        out[start : start + length] = dft_oversampled(g, op.shape) if ov else dft_plain(g, op.shape)
        start += length
    out *= op.c
    return out


def apply_a(op: PropagationOp, y) -> np.ndarray:
    """A y: adjoint of apply_astar, length n."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.N,):
        raise ValueError(f"apply_a: expected length {op.N}, got shape {y.shape}")
    out = np.zeros(op.n, dtype=np.complex128)
    start = 0
    for mask, ov, length in zip(op.masks, op.oversampled, op.pattern_lengths):
        block = y[start : start + length]
        back = idft_oversampled(block, op.shape) if ov else idft_plain(block, op.shape)
        out += np.conj(mask.values) * back
        start += length
    return op.c * out


@dataclass(frozen=True)
class ExtendedOp:
    """Isometric extension A~* = [A*, A_perp*]: C^ntilde -> C^N.

    The complement columns are an orthonormal basis of a random subspace
    orthogonal to range(A*), built by QR from seeded Gaussian vectors; the
    choice is not canonical and object-domain iterations may depend on it.
    """

    base: PropagationOp
    ntilde: int
    perp: np.ndarray | None
    seed: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def N(self) -> int:
        return self.base.N


def extend_op(op: PropagationOp, ntilde: int, seed: int = 0, attempts: int = 3) -> ExtendedOp:
    """Extend A* with ntilde - n orthonormal columns orthogonal to range(A*)."""
    n, N = op.n, op.N
    if not n <= ntilde <= N:
        raise ValueError(f"ntilde must satisfy {n} <= ntilde <= {N}, got {ntilde}")
    k = ntilde - n
    if k == 0:
        return ExtendedOp(base=op, ntilde=ntilde, perp=None, seed=int(seed))

    last_err = None
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        z = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
        for j in range(k):
            z[:, j] -= apply_astar(op, apply_a(op, z[:, j]))
        q, r = np.linalg.qr(z)
        diag = np.abs(np.diag(r))
        if diag.min() > 1e-8 * max(diag.max(), 1.0):
            ext = ExtendedOp(base=op, ntilde=ntilde, perp=_freeze(q), seed=int(seed + attempt))
            _verify_extension(ext)
            return ext
        last_err = f"rank deficiency in attempt {attempt} (min |R_jj| = {diag.min():.3e})"
    raise RuntimeError(f"extend_op: orthonormalization failed after {attempts} attempts: {last_err}")


def _verify_extension(ext: ExtendedOp, tol: float = 1e-10) -> None:
    q = ext.perp
    gram_err = np.abs(q.conj().T @ q - np.eye(q.shape[1])).max()
    rng = np.random.default_rng(707)
    cross = max(
        np.linalg.norm(apply_a(ext.base, q @ (rng.standard_normal(q.shape[1]) + 0j)))
        for _ in range(3)
    )
    if not (gram_err < tol and cross < 1e-8):
        raise RuntimeError(
            f"extension verification failed (gram {gram_err:.3e}, cross {cross:.3e})"
        )


def extended_astar(ext: ExtendedOp, x) -> np.ndarray:
    """A~* x = A* x[:n] + A_perp* x[n:], length N."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (ext.ntilde,):
        raise ValueError(f"extended_astar: expected length {ext.ntilde}, got shape {x.shape}")
    out = apply_astar(ext.base, x[: ext.n])
    if ext.perp is not None:
        out = out + ext.perp @ x[ext.n :]
    return out


def extended_a(ext: ExtendedOp, y) -> np.ndarray:
    """A~ y = [A y ; A_perp y], length ntilde."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (ext.N,):
        raise ValueError(f"extended_a: expected length {ext.N}, got shape {y.shape}")
    head = apply_a(ext.base, y)
    if ext.perp is None:
        return head
    return np.concatenate([head, ext.perp.conj().T @ y])


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
    """
    if nsr < 0:
        raise ValueError("nsr must be >= 0")
    b = np.abs(apply_astar(op, x0))
    if nsr > 0:
        rng = np.random.default_rng(noise_seed)
        eps = rng.standard_normal(op.N)
        eps *= nsr * np.linalg.norm(b) / np.linalg.norm(eps)
        b = np.maximum(b + eps, 0.0)
    return MeasuredData(b=_freeze(b), nsr=float(nsr), noise_seed=int(noise_seed))
