"""Grid geometry, oversampled DFTs and complex/real vector plumbing.

Objects live on a d-dimensional support grid with per-axis extents
(M_1+1, ..., M_d+1) and are vectorized row-major into C^n.  The matching
oversampled frequency grid has 2*M_j+1 points per axis, the sampling at
which a diffraction pattern determines the object's autocorrelation.
The oversampled transforms are pruned: they skip the 1-D transforms of
all-zero padding rows and of outputs that are cut away, and give the same
bits as the full padded FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


@dataclass(frozen=True)
class GridShape:
    """Extents (M_1+1, ..., M_d+1) of the object support grid."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(m) for m in self.dims)
        if len(dims) < 1:
            raise ValueError("GridShape needs at least one axis")
        if any(m < 1 for m in dims):
            raise ValueError(f"extents must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        """Number of object-grid points."""
        return prod(self.dims)

    @property
    def oversampled_dims(self) -> tuple[int, ...]:
        """Per-axis extents 2*M_j+1 of the oversampled frequency grid."""
        return tuple(2 * m - 1 for m in self.dims)

    @property
    def n_oversampled(self) -> int:
        return prod(self.oversampled_dims)

    def __str__(self) -> str:
        return "x".join(str(m) for m in self.dims)


def _as_complex_vector(x, length: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (length,):
        raise ValueError(f"{what}: expected flat length {length}, got shape {x.shape}")
    return x


def dft_oversampled(x, shape: GridShape) -> np.ndarray:
    """Oversampled DFT: zero-pad to the (2M_j+1) grid per axis, then FFT.

    Returns the unnormalized transform of length shape.n_oversampled.  The
    matrix realized here is a sub-column block of the full DFT on the padded
    grid, so its Gram matrix is n_oversampled * I; dividing by
    sqrt(n_oversampled) makes the map isometric.  Normalization is applied
    at the measurement-operator level, not here.

    The transform is pruned: each axis pass pads only that axis, so the
    all-zero rows of the padded grid are never transformed.  Every computed
    1-D transform is the one the full padded FFT computes, so the result is
    bit-identical to it.
    """
    x = _as_complex_vector(x, shape.n, "dft_oversampled")
    axes = tuple(range(shape.ndim))
    return np.fft.fftn(x.reshape(shape.dims), s=shape.oversampled_dims, axes=axes).ravel()


def idft_oversampled(y, shape: GridShape) -> np.ndarray:
    """Adjoint of :func:`dft_oversampled`, restricted to the object grid.

    The inverse is pruned: it transforms the last axis first, as ifftn
    does, and cuts each axis to its object extent straight after
    transforming it, so later passes skip the discarded outputs.  The
    result is bit-identical to the full inverse FFT followed by the cut.
    """
    y = _as_complex_vector(y, shape.n_oversampled, "idft_oversampled")
    grid = y.reshape(shape.oversampled_dims)
    for axis in reversed(range(shape.ndim)):
        keep = (slice(None),) * axis + (slice(0, shape.dims[axis]),)
        grid = np.fft.ifft(grid, axis=axis)[keep]
    return (grid * shape.n_oversampled).ravel()


def dft_plain(x, shape: GridShape) -> np.ndarray:
    """Unoversampled (standard) DFT on the object grid itself."""
    x = _as_complex_vector(x, shape.n, "dft_plain")
    return np.fft.fftn(x.reshape(shape.dims)).ravel()


def idft_plain(y, shape: GridShape) -> np.ndarray:
    """Adjoint of :func:`dft_plain` (Gram matrix is n * I)."""
    y = _as_complex_vector(y, shape.n, "idft_plain")
    return (np.fft.ifftn(y.reshape(shape.dims)) * shape.n).ravel()


def realify(v) -> np.ndarray:
    """Map C^N -> R^{2N}, stacking the real part over the imaginary part."""
    v = np.asarray(v, dtype=np.complex128)
    return np.concatenate([v.real, v.imag])


def unrealify(p) -> np.ndarray:
    """Inverse of :func:`realify`; exact round trip."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size % 2:
        raise ValueError(f"unrealify: need even flat length, got shape {p.shape}")
    half = p.size // 2
    return p[:half] + 1j * p[half:]


def embed(x, target: int) -> np.ndarray:
    """Zero padding: append zeros up to flat length `target`."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("embed expects a flat vector")
    if target < x.size:
        raise ValueError(f"embed: target {target} < length {x.size}")
    out = np.zeros(target, dtype=np.complex128)
    out[: x.size] = x
    return out


def phase_factor(y) -> np.ndarray:
    """Componentwise y/|y| with the convention 1 where |y| = 0."""
    y = np.asarray(y, dtype=np.complex128)
    mag = np.abs(y)
    return np.divide(y, mag, out=np.ones_like(y), where=mag > 0)
