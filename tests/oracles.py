"""Independent brute-force oracles used to check the fast implementations.

Everything here is built from definitions (explicit DFT sums, dense matrix
assembly, grid search) and never calls the FFT-based code paths it verifies.
The exception is the per-pattern loops at the end: they redo an operator's
arithmetic one pattern at a time on the flat DFTs (themselves checked against
explicit sums; for an extension, on the index sets of its layout), as
references for the stacked operators' exact bits.
"""

from __future__ import annotations

import numpy as np

from phasedr.grids import (
    GridShape,
    TransformPlan,
    dft_oversampled,
    dft_plain,
    idft_oversampled,
    idft_plain,
)
from phasedr.solvers import NO_SECTOR, SectorSpec, sector_project


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


def per_pattern_astar(op, x) -> np.ndarray:
    """A* x one pattern at a time: each masked image through the flat DFT."""
    transform = dft_oversampled if op.oversampled else dft_plain
    out = np.empty(op.N, dtype=np.complex128)
    for image, mask in zip(out.reshape(len(op.masks), op.grid.n), op.masks):
        image[:] = transform(mask.values * x, op.shape)
    out *= op.c
    return out


def per_pattern_a(op, y) -> np.ndarray:
    """A y one pattern at a time, each unmasked image added onto zeros."""
    inverse = idft_oversampled if op.oversampled else idft_plain
    out = np.zeros(op.n, dtype=np.complex128)
    for block, mask in zip(y.reshape(len(op.masks), op.grid.n), op.masks):
        out += np.conj(mask.values) * inverse(block, op.shape)
    return op.c * out


def _flat_layout(ext):
    """(grid, obj, tail): the flat positions of the object pixels on the image
    grid, and of coordinates n.. in the (L, grid.n) image stack, rebuilt from
    ExtendedOp's definition as index arrays, for the gather/scatter oracles."""
    op = ext.base
    L, grid = len(op.masks), op.grid
    dist = np.zeros(grid.n, dtype=np.int64)
    for i, m, size in zip(np.indices(grid.dims).reshape(grid.ndim, -1), op.shape.dims, grid.dims):
        dist = np.maximum(dist, np.where(i < m, 0, np.minimum(i - m + 1, size - i)))
    order = np.argsort(dist, kind="stable")
    obj, padded = order[: op.n], order[op.n :]
    tail = np.concatenate([(obj[:, None] + grid.n * np.arange(1, L)).ravel(),
                           (padded[:, None] + grid.n * np.arange(L)).ravel()])
    return grid, obj, tail[: ext.ntilde - op.n]


def _flat_householder(ext):
    """(mu, w, kappa) of the extension as (L, n) and (n,) arrays."""
    mu, w, kappa = ext.householder
    return mu.reshape(len(mu), -1), w.reshape(len(w), -1), kappa.ravel()


def _compact_cells(ext):
    """(cells, shape): the index and shape of the compact block in a
    (grid.dims) image."""
    index = ext.layout[1]
    return np.ix_(*index), tuple(map(len, index))


def _compact_dft(ext, v, inverse: bool) -> np.ndarray:
    """The one-pattern plain DFT of the flat v to (or from) the compact
    block on the layout's index sets, the per-pattern kernel of the
    extended operators, run by a plan made for v."""
    grid, index = ext.layout[:2]
    v = np.ascontiguousarray(v, dtype=np.complex128)
    plan = TransformPlan(grid, grid.dims, inverse, v, index=index)
    return (idft_plain if inverse else dft_plain)(v, grid, out=plan.dest, plan=plan)


def _to_block(ext, images) -> np.ndarray:
    """The flat (L, K) compact block of an (L, grid.n) image stack."""
    grid = ext.base.grid
    cells = _compact_cells(ext)[0]
    return np.stack([image.reshape(grid.dims)[cells].ravel() for image in images]).ravel()


def _from_block(ext, h) -> np.ndarray:
    """The (L, grid.n) image stack that is the flat (L, K) compact block h
    on its cells and zero elsewhere."""
    grid, L = ext.base.grid, len(ext.base.masks)
    cells, shape = _compact_cells(ext)
    images = np.zeros((L, *grid.dims), dtype=np.complex128)
    for image, block in zip(images, np.reshape(h, (L, -1))):
        image[cells] = block.reshape(shape)
    return images.reshape(L, grid.n)


def per_pattern_lift(ext, x) -> np.ndarray:
    """U x, the flat compact image block that A~* transforms, built by
    gathers and scatters on index arrays: mu x + sqrt(L) Q m on the object
    pixels, sqrt(L) t on the padded ones."""
    (grid, obj, tail), (mu, w, kappa) = _flat_layout(ext), _flat_householder(ext)
    images = np.zeros((len(mu), grid.n), dtype=np.complex128)
    images.ravel()[tail] = np.sqrt(len(mu)) * x[ext.n :]
    m = images[:, obj]
    images[:, obj] = m - (kappa * np.sum(np.conj(w) * m, axis=0)) * w + mu * x[: ext.n]
    return _to_block(ext, images)


def per_pattern_unlift(ext, h) -> np.ndarray:
    """U^-1 h for h in U's range: x = sum_l conj(mu_l) h_l / L on the object
    pixels, then m = Q^H h / sqrt(L) pixel-major and t = h / sqrt(L) on the
    padded pixels, read by gathers on index arrays."""
    (_, obj, tail), (mu, w, kappa) = _flat_layout(ext), _flat_householder(ext)
    L = len(mu)
    images = _from_block(ext, h)
    ho = images[:, obj]
    x = np.sum(np.conj(mu) * ho, axis=0) / L
    images[:, obj] = ho - (kappa * np.sum(np.conj(w) * ho, axis=0)) * w
    return np.concatenate([x, images.ravel()[tail] / np.sqrt(L)])


def per_pattern_extended_astar(ext, x) -> np.ndarray:
    """A~* x with one flat plain DFT per pattern image, each image's compact
    block of the lift transformed alone."""
    L = len(ext.base.masks)
    out = np.concatenate([_compact_dft(ext, block, inverse=False)
                          for block in per_pattern_lift(ext, x).reshape(L, -1)])
    out *= ext.base.c
    return out


def per_pattern_extended_a(ext, y) -> np.ndarray:
    """A~ y with one flat inverse plain DFT per pattern block, computed on
    the compact block alone and read out by gathers on index arrays."""
    (grid, obj, tail), (mu, w, kappa) = _flat_layout(ext), _flat_householder(ext)
    cells, shape = _compact_cells(ext)
    images = np.zeros((len(mu), *grid.dims), dtype=np.complex128)
    for image, block in zip(images, y.reshape(len(mu), grid.n)):
        image[cells] = _compact_dft(ext, block, inverse=True).reshape(shape)
    images = images.reshape(len(mu), grid.n)
    h = images[:, obj]
    head = ext.base.c * np.sum(np.conj(mu) * h, axis=0)
    images[:, obj] = h - (kappa * np.sum(np.conj(w) * h, axis=0)) * w
    return np.concatenate([head, images.ravel()[tail] / np.sqrt(grid.n)])


def project_object_set(x, n: int, sector: SectorSpec) -> np.ndarray:
    """[x]_X for a padded vector: sector (or identity) on the first n coords, 0 beyond."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros_like(x)
    out[:n] = sector_project(x[:n], sector)
    return out


def per_pattern_odr_step(x, ext, b, sector=NO_SECTOR) -> np.ndarray:
    """One ODR update x + [2z - x]_X - z, z = A~(b . phase(A~* x)), through the
    per-pattern extended operators, with temporaries for every term."""
    z = per_pattern_extended_a(ext, proj_p2(per_pattern_extended_astar(ext, x), b))
    return x + project_object_set(2.0 * z - x, ext.n, sector) - z


def _project_range(ext, g) -> np.ndarray:
    """P_U g for an (L, K) block g, with U's range rebuilt from the
    definition: the live set S of the (L, grid.n) stack on the block's
    cells, and on each object pixel whose m block is cut, the reflector
    coordinates that m keeps."""
    op = ext.base
    L, n, grid = len(op.masks), op.n, op.grid
    (_, obj, tail), (_, w, kappa) = _flat_layout(ext), _flat_householder(ext)
    live = np.zeros((L, grid.n))
    live[:, obj] = 1.0
    live.ravel()[tail] = 1.0  # the m coordinates on object pixels, the t on padded ones
    g = g * _to_block(ext, live).reshape(L, -1)
    # m_j's i-th coordinate is n + j (L - 1) + i; those past ntilde are cut.
    kept = np.array([sum(n + j * (L - 1) + i < ext.ntilde for i in range(L - 1))
                     for j in range(n)], dtype=np.int64)
    cut = np.flatnonzero(kept < L - 1)
    if cut.size:
        wc, kc, pos = w[:, cut], kappa[cut], _object_positions(ext)[cut]
        v = g[:, pos]
        v = v - (kc * np.sum(np.conj(wc) * v, axis=0)) * wc
        v = v * (np.arange(L)[:, None] <= kept[cut]).astype(np.float64)
        g[:, pos] = v - (kc * np.sum(np.conj(wc) * v, axis=0)) * wc
    return g


def _object_positions(ext) -> np.ndarray:
    """The position in a block row of each object pixel, in raster order."""
    cells = np.ravel_multi_index(np.ix_(*ext.layout[1]), ext.base.grid.dims).ravel()
    return np.array([np.flatnonzero(cells == j)[0] for j in _flat_layout(ext)[1]])


def per_pattern_lifted_a(ext, y) -> np.ndarray:
    """U A~ y = L c P_U F^-1 y, the flat (L, K) block: one flat inverse
    plain DFT per pattern onto the compact block, P_U from the definition
    (_project_range), then the scale."""
    grid, L = ext.base.grid, len(ext.base.masks)
    g = np.stack([_compact_dft(ext, row, inverse=True) for row in np.reshape(y, (L, grid.n))])
    return (L * ext.base.c * _project_range(ext, g)).ravel()


def per_pattern_block_odr_step(h, ext, b, sector=NO_SECTOR) -> np.ndarray:
    """One ODR update of a lifted block h = U x, h - g + P_X(2g - h) with
    g = P_U(L c F^-1(b . phase(F h))), one flat DFT per pattern row and
    temporaries for every term; P_U as in _project_range."""
    op = ext.base
    L = len(op.masks)
    mu = _flat_householder(ext)[0]
    objpos = _object_positions(ext)
    h = np.reshape(h, (L, -1))
    y = np.concatenate([_compact_dft(ext, row, inverse=False) for row in h])
    p = proj_p2(y, L * op.c * b).reshape(L, -1)
    g = _project_range(ext, np.stack([_compact_dft(ext, row, inverse=True) for row in p]))
    xs = sector_project(np.sum(np.conj(mu) / L * (2.0 * g[:, objpos] - h[:, objpos]), axis=0),
                        sector)
    out = h - g
    out[:, objpos] = out[:, objpos] + mu * xs
    return out.ravel()
