"""Independent brute-force oracles used to check the fast implementations.

Everything here is built from definitions (explicit DFT sums, dense matrix
assembly, grid search) and never calls the FFT-based code paths it verifies.
"""

from __future__ import annotations

import numpy as np

from phasedr.grids import GridShape
from phasedr.solvers import NO_SECTOR, sector_project


def naive_dft_matrix(shape: GridShape, oversampled: bool) -> np.ndarray:
    """Explicit DFT matrix: rows over the frequency grid, columns over the object grid."""
    target = shape.oversampled_dims if oversampled else shape.dims
    freq = np.stack(
        np.meshgrid(*[np.arange(L) for L in target], indexing="ij"), axis=-1
    ).reshape(-1, shape.ndim)
    obj = np.stack(
        np.meshgrid(*[np.arange(m) for m in shape.dims], indexing="ij"), axis=-1
    ).reshape(-1, shape.ndim)
    lengths = np.asarray(target, dtype=float)
    phase = np.zeros((freq.shape[0], obj.shape[0]))
    for axis in range(shape.ndim):
        phase += np.outer(freq[:, axis], obj[:, axis]) / lengths[axis]
    return np.exp(-2j * np.pi * phase)


def dense_astar(op) -> np.ndarray:
    """Dense N x n matrix of A*, assembled from the explicit DFT blocks."""
    phi = naive_dft_matrix(op.shape, op.oversampled)
    return op.c * np.vstack([phi * mask.values[None, :] for mask in op.masks])


def proj_p1(y, op, sector=NO_SECTOR) -> np.ndarray:
    """Reference P1 y = A*[A y]_X, the projection onto the diffracted-field set A* X.

    Dense A* from explicit DFT sums; the pixelwise sector map is the library's
    sector_project, which has its own grid-search oracle below.
    """
    dense = dense_astar(op)
    return dense @ sector_project(dense.conj().T @ y, sector)


def proj_p2(y, b) -> np.ndarray:
    """Reference P2 y = b . y/|y| onto the magnitude set {|y| = b}, with y/|y| = 1 at y = 0."""
    y = np.asarray(y, dtype=complex)
    mag = np.abs(y)
    unit = np.ones_like(y)
    unit[mag > 0] = y[mag > 0] / mag[mag > 0]
    return np.asarray(b) * unit


def dense_extended_astar(ext) -> np.ndarray:
    """Dense N x ntilde matrix of A~*, assembled column by column from its definition.

    Each column is an image stack on the shared pattern grid (a basis vector
    on a padded pixel, or a column of a pixel's explicit Householder mixing on
    an object pixel) sent through the explicit unitary DFT of that grid.
    """
    op = ext.base
    L = len(op.masks)
    dims = op.shape.oversampled_dims if op.oversampled else op.shape.dims
    grid = GridShape(dims)
    dft = naive_dft_matrix(grid, oversampled=False) / np.sqrt(grid.n)
    cells = list(np.ndindex(*dims))

    def cyclic_chebyshev(cell):
        return max(0 if i < m else min(i - (m - 1), size - i)
                   for i, m, size in zip(cell, op.shape.dims, dims))

    # (grid position, unitary [v_j, Q_j]) per object pixel, raster order
    mixing = []
    for j, cell in enumerate(np.ndindex(*op.shape.dims)):
        v = np.array([mask.values[j] for mask in op.masks]) / np.sqrt(L)
        w = v.copy()
        w[0] += op.masks[0].values[j]
        reflector = np.eye(L) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
        mixing.append((cells.index(cell), np.column_stack([v, reflector[:, 1:]])))

    # object coordinates first, then the mixed coordinates pixel-major
    stacks = []
    for pos, basis in mixing:
        stack = np.zeros((L, grid.n), dtype=complex)
        stack[:, pos] = basis[:, 0]
        stacks.append(stack)
    for pos, basis in mixing:
        for i in range(1, L):
            stack = np.zeros((L, grid.n), dtype=complex)
            stack[:, pos] = basis[:, i]
            stacks.append(stack)
    padded = [k for k, cell in enumerate(cells) if cyclic_chebyshev(cell) > 0]
    padded.sort(key=lambda k: (cyclic_chebyshev(cells[k]), k))
    for k in padded:
        for pattern in range(L):
            stack = np.zeros((L, grid.n), dtype=complex)
            stack[pattern, k] = 1.0
            stacks.append(stack)
    columns = [np.concatenate([dft @ image for image in stack]) for stack in stacks[: ext.ntilde]]
    return np.column_stack(columns)


def sector_nearest_point(z: complex, alpha: float, beta: float, stages: int = 2,
                         resolution: int = 1001) -> complex:
    """Nearest point to z in {r e^{it}: r >= 0, t in [-alpha*pi, beta*pi]}.

    Two-stage dense angular-radial grid search; final resolution is far below
    the comparison tolerances used in tests.
    """
    t_lo, t_hi = -alpha * np.pi, beta * np.pi
    r_lo, r_hi = 0.0, 2.0 * abs(z) + 1e-12
    best = 0.0 + 0.0j
    for _ in range(stages):
        thetas = np.linspace(t_lo, t_hi, resolution)
        radii = np.linspace(r_lo, r_hi, resolution)
        cand = radii[None, :] * np.exp(1j * thetas[:, None])
        dist = np.abs(cand - z)
        it, ir = np.unravel_index(np.argmin(dist), dist.shape)
        best = cand[it, ir]
        dt = thetas[1] - thetas[0] if resolution > 1 else 0.0
        dr = radii[1] - radii[0] if resolution > 1 else 0.0
        t_lo, t_hi = max(-alpha * np.pi, thetas[it] - dt), min(beta * np.pi, thetas[it] + dt)
        r_lo, r_hi = max(0.0, radii[ir] - dr), radii[ir] + dr
    return complex(best)


def fd_jacobian_residual(step, y0, direction, jacobian_dir, eps: float) -> float:
    """||(step(y0 + eps*d) - step(y0))/eps - J d|| for one direction d."""
    fd = (step(y0 + eps * direction) - step(y0)) / eps
    return float(np.linalg.norm(fd - jacobian_dir))


def random_complex(rng, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)
