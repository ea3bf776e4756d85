"""Grid geometry, oversampled DFTs and complex/real vector plumbing.

Objects live on a d-dimensional support grid with per-axis extents
(M_1+1, ..., M_d+1) and are vectorized row-major into C^n.  The matching
oversampled frequency grid has 2*M_j+1 points per axis, the sampling at
which a diffraction pattern determines the object's autocorrelation.
The oversampled transforms are pruned: they skip the 1-D transforms of
all-zero padding rows and of outputs that are cut away, and give the same
bits as the full padded FFTs.

The four DFTs take a flat vector or a (k, n) stack of k vectors, so a
measurement operator transforms all its patterns in one call.  Every 1-D
transform is the numpy FFT the flat call makes, in the same axis order, so
row i of a stacked result equals the flat call on row i bit for bit.  A
stack on a grid of fewer than PARALLEL_MIN_POINTS image points runs as one
numpy call per axis; on larger grids each row is one task, and the tasks
run on a shared pool of (usable CPUs - 1) threads plus the calling thread.

A call may bring pointwise work along as two hooks, each given a slice of
rows: before(rows) fills those rows of the input, and after(rows) consumes
those rows of the output.  On the pool they run inside each row's task,
next to its transform; below PARALLEL_MIN_POINTS they run once, over all
rows, around the stacked call.  A call writes its result into a caller's
out buffer when given one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from math import prod

import numpy as np

# Image grids with at least this many points transform the rows of a stack
# as separate tasks across the CPUs.  Below it, one stacked numpy call per
# axis is faster than handing rows to threads.
PARALLEL_MIN_POINTS = 2**13

_pool = None  # the concurrent.futures.ThreadPoolExecutor, once started
_pool_ways = 0  # threads a stack is split over; 0 until first use
_pool_lock = threading.Lock()
# Non-empty in a forked child, whose copy of the pool has no threads.  The
# fork hook appends to this list instead of calling a function of this
# module, so it holds none of the module's globals: a copy of the module
# dropped from sys.modules is collected, and its pool's threads end.
_forked: list = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=partial(_forked.append, True))


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

    @cached_property
    def n(self) -> int:
        """Number of object-grid points."""
        return prod(self.dims)

    @cached_property
    def oversampled_dims(self) -> tuple[int, ...]:
        """Per-axis extents 2*M_j+1 of the oversampled frequency grid."""
        return tuple(2 * m - 1 for m in self.dims)

    @cached_property
    def n_oversampled(self) -> int:
        return prod(self.oversampled_dims)

    def __str__(self) -> str:
        return "x".join(str(m) for m in self.dims)


def _worker_pool():
    """The shared transform pool, started on first use, and the number of
    threads (workers plus caller) a stack is split over.  With one usable
    CPU there is no pool and stacks run on the calling thread."""
    global _pool, _pool_ways, _pool_lock
    if _forked:  # the parent's pool threads (and lock holders) are not here
        _forked.clear()
        _pool, _pool_ways, _pool_lock = None, 0, threading.Lock()
    with _pool_lock:
        if not _pool_ways:
            if hasattr(os, "sched_getaffinity"):
                _pool_ways = len(os.sched_getaffinity(0))
            else:
                _pool_ways = os.cpu_count() or 1
            if _pool_ways > 1:
                # Imported here: concurrent.futures loads logging (0.6 MB of
                # RSS), which runs that never reach the pool do not need.
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(_pool_ways - 1, thread_name_prefix="phasedr-fft")
        return _pool, _pool_ways


def _run_tasks(tasks) -> None:
    """Run the calls in tasks, spread over the pool's threads and the caller.

    The workers call only numpy, on buffers the caller allocated: they
    allocate no result memory, and no phasedr function (which perfbench's
    tracer may wrap, assuming one thread) runs off the calling thread.  A
    caller's hooks keep to the same rules.  An exception raised in a task
    is raised here, on the calling thread."""
    pool, ways = _worker_pool()
    ways = min(ways, len(tasks))
    futures = [pool.submit(lambda share=tasks[j::ways]: [run() for run in share])
               for j in range(1, ways)]
    try:
        for run in tasks[::ways]:
            run()
    finally:
        # Every task has ended before this returns or raises, also when
        # one of them raised: they write into the caller's buffers.
        for f in futures:
            f.exception()
    for f in futures:
        f.result()


def _transform(v, shape: GridShape, image: tuple[int, ...], inverse: bool, what: str,
               before=None, after=None, out=None) -> np.ndarray:
    """The d-axis DFT between the object grid and the image grid, flat or stacked.

    Forward: each axis, last first, is transformed at its image extent, the
    zero padding coming from numpy's n=.  Inverse: each axis, last first, is
    inverse-transformed in place and cut to its object extent, then the
    result is scaled by the image size, the adjoint's normalization.

    before(rows) fills those rows of v before they are transformed, and
    after(rows) runs once those rows of the result are written (see the
    module docstring); rows is a slice of the stack's rows.  The result is
    written into out when given, a C-contiguous buffer of the result's
    shape, and returned.  out may be v itself (the plain transforms), as
    numpy.fft, like every numpy ufunc, reads an input that overlaps its
    output as if it did not.
    """
    dims, d = shape.dims, shape.ndim
    src_dims = image if inverse else dims
    src_len, out_len = prod(src_dims), prod(dims if inverse else image)
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (src_len,) and not (v.ndim == 2 and v.shape[1] == src_len):
        raise ValueError(f"{what}: expected flat length {src_len} or a (k, {src_len}) "
                         f"stack, got shape {v.shape}")
    src = v.reshape(-1, *src_dims)
    k = src.shape[0]
    out_shape = v.shape[:-1] + (out_len,)
    if out is None:
        out = np.empty(out_shape, dtype=np.complex128)
    elif out.shape != out_shape or not out.flags.c_contiguous:
        raise ValueError(f"{what}: out must be a C-contiguous {out_shape} array")
    dest_rows = out.reshape(k, out_len)

    def task(rows: slice):
        """Allocate the buffers of these rows here, on the calling thread, and
        return the call that fills, transforms and hands on these rows
        (numpy.fft's out=, hence NumPy >= 2.0)."""
        m = src[rows].shape[0]
        if inverse:
            # One buffer: after the first pass each pass runs in place on the
            # cut view the previous one left.
            work = np.empty((m, *image), dtype=np.complex128)
            dest = dest_rows[rows].reshape(m, *dims)

            def fft():
                a, view = src[rows], work
                for axis in reversed(range(d)):
                    np.fft.ifft(a, n=image[axis], axis=axis + 1, out=view)
                    a = view = view[(slice(None),) * (axis + 1) + (slice(0, dims[axis]),)]
                np.multiply(a, prod(image), out=dest)
        else:
            # bufs[j] takes the pass over axis j, which pads it; the last
            # pass writes into out.
            bufs = [dest_rows[rows].reshape(m, *image)] + [
                np.empty((m, *dims[:j], *image[j:]), dtype=np.complex128) for j in range(1, d)]

            def fft():
                a = src[rows]
                for axis in reversed(range(d)):
                    np.fft.fft(a, n=image[axis], axis=axis + 1, out=bufs[axis])
                    a = bufs[axis]

        def run():
            if before is not None:
                before(rows)
            fft()
            if after is not None:
                after(rows)

        return run

    if k > 1 and prod(image) >= PARALLEL_MIN_POINTS:
        _run_tasks([task(slice(i, i + 1)) for i in range(k)])
    else:
        task(slice(None))()
    return out


def dft_oversampled(x, shape: GridShape, before=None, after=None, out=None) -> np.ndarray:
    """Oversampled DFT: zero-pad to the (2M_j+1) grid per axis, then FFT.

    Returns the unnormalized transform of length shape.n_oversampled, or a
    (k, n_oversampled) stack for a (k, n) stack.  The matrix realized here
    is a sub-column block of the full DFT on the padded grid, so its Gram
    matrix is n_oversampled * I; dividing by sqrt(n_oversampled) makes the
    map isometric.  Normalization is applied
    at the measurement-operator level, not here.

    The transform is pruned: each axis pass pads only that axis, so the
    all-zero rows of the padded grid are never transformed.  Every computed
    1-D transform is the one the full padded FFT computes, so the result is
    bit-identical to it.
    """
    return _transform(x, shape, shape.oversampled_dims, False, "dft_oversampled",
                      before, after, out)


def idft_oversampled(y, shape: GridShape, before=None, after=None, out=None) -> np.ndarray:
    """Adjoint of :func:`dft_oversampled`, restricted to the object grid.

    Takes a flat vector or a (k, n_oversampled) stack.  The inverse is
    pruned: it transforms the last axis first, as ifftn does, and cuts each
    axis to its object extent straight after transforming it, so later
    passes skip the discarded outputs.  The result is bit-identical to the
    full inverse FFT followed by the cut.
    """
    return _transform(y, shape, shape.oversampled_dims, True, "idft_oversampled",
                      before, after, out)


def dft_plain(x, shape: GridShape, before=None, after=None, out=None) -> np.ndarray:
    """Unoversampled (standard) DFT on the object grid itself, flat or stacked."""
    return _transform(x, shape, shape.dims, False, "dft_plain", before, after, out)


def idft_plain(y, shape: GridShape, before=None, after=None, out=None) -> np.ndarray:
    """Adjoint of :func:`dft_plain` (Gram matrix is n * I), flat or stacked."""
    return _transform(y, shape, shape.dims, True, "idft_plain", before, after, out)


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
    """||v|| of a real or complex vector, summed over its float view by :func:`_dot`."""
    f = _floats(v)
    return float(np.sqrt(_dot(f, f)))


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
    return _phase(y, np.empty_like(y))


def _phase(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phase_factor of the complex128 array y, written into out and returned;
    out may be y itself.

    Calls only numpy, so transform hooks may run it on the pool."""
    mag = np.abs(y)
    live = mag > 0
    np.divide(y, mag, out=out, where=live)
    if not live.all():
        np.copyto(out, 1.0, where=np.logical_not(live, out=live))
    return out
