"""Synthetic test objects: complex images with loose support.

Desk-scale stand-ins for the usual benchmark images: a randomly phased
smooth blob (phases drawn in a configurable sector) and a deterministic
complex image whose real part is a radial gradient and whose imaginary
part is a diagonal stripe texture.  A zero margin of configurable width
gives every generated object a loose support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridShape

KIND_RPP = "rpp"
KIND_TCB = "tcb"


@dataclass(frozen=True)
class ImageSpec:
    """Recipe for a test object on the given grid."""

    kind: str
    shape: GridShape
    margin: int = 1
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_RPP, KIND_TCB):
            raise ValueError(f"unknown image kind {self.kind!r}")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")


def _interior_dims(spec: ImageSpec) -> tuple[int, ...]:
    dims = tuple(m - 2 * spec.margin for m in spec.shape.dims)
    if any(m < 1 for m in dims):
        raise ValueError(f"margin {spec.margin} leaves no interior on grid {spec.shape}")
    return dims


def _bump(dims: tuple[int, ...]) -> np.ndarray:
    # Separable sine window with a high floor: mostly-flat magnitudes like a
    # phantom's, support equal to the whole interior rectangle.
    mags = np.ones(dims)
    for axis, length in enumerate(dims):
        w = np.sin(np.pi * (np.arange(length) + 1.0) / (length + 1.0))
        shape = [1] * len(dims)
        shape[axis] = length
        mags = mags * w.reshape(shape)
    return 0.5 + 0.5 * mags / mags.max()


def gen_image(spec: ImageSpec) -> np.ndarray:
    """Generate the complex object grid described by `spec`.

    Deterministic under (kind, shape, margin, sector, seed); margins are
    exactly zero.
    """
    dims = _interior_dims(spec)

    if spec.kind == KIND_RPP:
        rng = np.random.default_rng(spec.seed)
        phases = rng.uniform(-spec.alpha * np.pi, spec.beta * np.pi, dims)
        interior = _bump(dims) * np.exp(1j * phases)
    else:  # deterministic complex image
        centred = [np.arange(L) - (L - 1) / 2.0 for L in dims]
        r2 = np.zeros(dims)
        diag = np.zeros(dims)
        for axis, c in enumerate(centred):
            shape = [1] * len(dims)
            shape[axis] = dims[axis]
            r2 = r2 + (c.reshape(shape) / max((dims[axis] - 1) / 2.0, 1.0)) ** 2
            diag = diag + np.arange(dims[axis]).reshape(shape)
        real = 0.2 + 0.8 * np.clip(1.0 - np.sqrt(r2) / np.sqrt(len(dims)), 0.0, 1.0)
        imag = 0.3 + 0.5 * (1.0 + np.sin(2.0 * np.pi * diag / 5.0)) / 2.0
        interior = real + 1j * imag

    out = np.zeros(spec.shape.dims, dtype=np.complex128)
    sl = tuple(slice(spec.margin, spec.margin + m) for m in dims)
    out[sl] = interior
    return out


def support_rank(grid: np.ndarray) -> int:
    """Affine dimension of the support's convex hull (0 for a point/empty)."""
    pts = np.argwhere(np.abs(grid) > 0)
    if pts.shape[0] == 0:
        return 0
    return int(np.linalg.matrix_rank(pts[1:] - pts[0])) if pts.shape[0] > 1 else 0
