"""Grid geometry, oversampled DFTs and complex/real vector plumbing.

Objects live on a d-dimensional support grid with per-axis extents
(M_1+1, ..., M_d+1) and are vectorized row-major into C^n.  The matching
oversampled frequency grid has 2*M_j+1 points per axis, the sampling at
which a diffraction pattern determines the object's autocorrelation.

A DFT runs one pass per axis, last axis first, between an image grid and
an object side that is, per axis, an index set of image points.  The
oversampled DFTs below take the object's leading M_j+1 points on the
oversampled grid, the plain ones every point; a TransformPlan may hold any
sorted sets.  So forward's operators all run the plain DFT of their image
grid with a plan over their object side's sets: the object's leading
points for A* and A, the compact block of the lift for an extension.
When every image extent is at most DENSE_MAX_EXTENT points (the 31-point
axes of a 16x16 object and below), a pass is one product with a dense DFT
matrix: the DFT of the set's points, zero elsewhere on the image axis, or
the unnormalized inverse DFT read only at them.  Otherwise a pass is a
numpy FFT, whose index sets must be leading ones.  Both kinds are pruned:
they skip the all-zero padding rows and the outputs that are cut away.
FFT passes give the same bits as the full padded FFTs; dense passes agree
with them to roundoff.

The four DFTs take a flat vector or a (k, n) stack of k vectors, so a
measurement operator transforms all its patterns in one call.  Each pass
is the numpy call a flat call makes, with the k rows as a batch axis: an
FFT along one axis, or a matmul, which calls BLAS gemm once per row (on
2-D grids at most 31 x 31 x 31 multiply-adds, below the size at which
OpenBLAS splits a gemm over threads).  So row i of a stacked result
equals the flat call on row i bit for bit.  A stack on a grid of fewer
than PARALLEL_MIN_POINTS image points runs as one numpy call per axis; on
larger grids each row is one task, and the tasks run on a shared pool of
(usable CPUs - 1) threads plus the calling thread.

A call may bring pointwise work along as two hooks, each given a slice of
rows: before(rows) fills those rows of the input, and after(rows) consumes
those rows of the output.  On the pool they run inside each row's task,
next to its transform; below PARALLEL_MIN_POINTS they run once, over all
rows, around the stacked call.  A call writes its result into a caller's
out buffer when given one.

What a call sets up before its passes (the geometry, the pass buffers and
the cut views the passes write, the split of the rows into tasks, and each
pass as one call: a product with a dense matrix or an FFT along one axis)
is a TransformPlan.  A caller that transforms stacks of one shape many
times, as a solve does, makes the plan once and hands it to every call; a
call without one makes a throwaway plan, so both run one code path.  The
dense matrices are built once per shape and shared read-only by every
plan.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import prod, sqrt

import numpy as np

# Image grids with at least this many points transform the rows of a stack
# as separate tasks across the CPUs.  Below it, one stacked numpy call per
# axis is faster than handing rows to threads.
PARALLEL_MIN_POINTS = 2**13
# Plans whose image extents are all at most this many points run each axis
# pass as one product with a dense DFT matrix instead of an FFT.  numpy's
# FFT of a short axis, above all of a prime one such as the 31 frequencies
# of a 16-pixel axis, costs more than the product: on a 2-vCPU x86 host a
# 16x16 grid's transform pair took 0.3 of the FFT time, a plain 31x31 pair
# 0.5.  From 32 points up the plain transforms of equal extent are as fast
# as FFTs, and at 48 and 63 points they take twice as long.
DENSE_MAX_EXTENT = 31
_COMPLEX = np.dtype(np.complex128)
_TINY = 2.0**-1022  # the least normal float64

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


@lru_cache(maxsize=64)
def _dft_matrix(g: int, index: tuple[int, ...], inverse: bool) -> np.ndarray:
    """The matrix of one dense pass along a g-point image axis whose object
    side is the points index, shared read-only by every plan.  Forward, the
    (g, len(index)) matrix exp(-2 pi i ((j k) mod g) / g) over every j and
    the k in index: the DFT of those points, zero elsewhere on the axis.
    Inverse, the (len(index), g) matrix exp(+2 pi i ((j k) mod g) / g) over
    the j in index and every k: the unnormalized inverse DFT read only at
    those points.  index = range(M) gives the zero-padded DFT of M points
    and its cut inverse, index = range(g) the plain DFT and its inverse."""
    points, freqs = np.array(index), np.arange(g)
    jk = np.multiply.outer(points, freqs) if inverse else np.multiply.outer(freqs, points)
    sign = 1 if inverse else -1
    mat = np.exp(sign * 2j * np.pi * (jk % g) / g)
    mat.setflags(write=False)
    return mat


def _times(mat: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows @ mat into out: a dense pass along the last axis."""
    return np.matmul(rows, mat, out=out)


class TransformPlan:
    """The set-up of one DFT between an object grid and an image grid, made
    once for a (k, n) stack and reused by every call given it.

    It holds the geometry, its passes (dense products when `dense`, see
    DENSE_MAX_EXTENT, else FFTs), each a call with the pass buffers or cut
    views it reads and writes, and the split of the rows into tasks,
    decided by PARALLEL_MIN_POINTS when the plan is made.  The pass
    buffers are carved from `work`, a flat complex128 buffer, while it
    lasts: a dense plan and a forward FFT plan take the d - 1 intermediate
    passes, an inverse FFT plan one (k, *image) stack.  A forward and an
    inverse plan may share one work buffer, since a call's passes end
    before it returns; a plan serves one call at a time.  A plan holds no
    input or output.

    index holds the object side's image points per axis, each a sorted
    tuple of ints or a range, range(M_j+1) when not given: a forward plan
    transforms the (k, *len(index)) block of those points, and an inverse
    plan returns only that block.  An FFT plan takes only leading sets,
    range(m).
    """

    def __init__(self, shape: GridShape, image: tuple[int, ...], inverse: bool, k: int,
                 work=None, index=None) -> None:
        dims, d = shape.dims, shape.ndim
        self.key, self.k = (dims, image, inverse), k
        self.scale = prod(image)
        fft = np.fft.ifft if inverse else np.fft.fft
        index = tuple(map(range, dims)) if index is None else tuple(index)
        if len(index) != d:
            raise ValueError(f"TransformPlan: {len(index)} index sets for {d} axes")
        if max(image) > DENSE_MAX_EXTENT and any(ix[-1] != len(ix) - 1 for ix in index):
            raise ValueError("TransformPlan: an FFT plan takes only leading index sets")
        dims = tuple(map(len, index))  # the object side's extents
        src_dims, dest_dims = (image, dims) if inverse else (dims, image)
        self.src_len, dest_len = prod(src_dims), prod(dest_dims)
        self.src_rows, self.dest_rows = (k, *src_dims), (k, *dest_dims)
        # input shape -> output shape: a (k, n) stack, or one flat vector
        self.out_shapes = {(k, self.src_len): (k, dest_len)}
        if k == 1:
            self.out_shapes[(self.src_len,)] = (dest_len,)
        at = 0

        def carve(shape_j):  # a pass buffer, from work while it lasts
            nonlocal at
            size = prod(shape_j)
            if work is not None and at + size <= work.size:
                at += size
                return work[at - size : at].reshape(shape_j)
            return np.empty(shape_j, dtype=np.complex128)

        # Each pass is (call, input, output), last axis first, and runs as
        # call(input, out=output); None stands for the call's input rows or
        # output rows.
        passes, inp, cut = [], None, None
        self.dense = max(image) <= DENSE_MAX_EXTENT
        if self.dense:
            # The product along the last axis is rows @ M.T over (k, P, n);
            # along any other it is M @ rows over (k, P, n, Q), P and Q the
            # points before and after the axis.  The first pass's input and
            # the last pass's output are the call's rows in those shapes.
            ext = list(src_dims)
            for axis in range(d - 1, -1, -1):
                n_in, n_out = ext[axis], dest_dims[axis]
                mat = _dft_matrix(image[axis], index[axis], inverse)
                before_axis, after_axis = prod(ext[:axis]), prod(ext[axis + 1 :])
                if axis == d - 1:
                    shapes = [(k, before_axis, n) for n in (n_in, n_out)]
                else:
                    shapes = [(k, before_axis, n, after_axis) for n in (n_in, n_out)]
                if inp is None:
                    self.src_rows = shapes[0]
                else:
                    inp = inp.reshape(shapes[0])
                out = carve(shapes[1]) if axis else None
                call = partial(_times, mat.T) if axis == d - 1 else partial(np.matmul, mat)
                passes.append((call, inp, out))
                ext[axis], inp = n_out, out
            self.dest_rows = shapes[1]
        elif inverse:
            # After the first pass each pass runs in place on the cut view
            # the previous one left.
            out = carve((k, *image))
            for axis in range(d - 1, -1, -1):
                passes.append((partial(fft, n=image[axis], axis=axis + 1), inp, out))
                inp = out = out[(slice(None),) * (axis + 1) + (slice(0, dims[axis]),)]
            cut = out
        else:
            # Pass j pads axis j into its own buffer; the last pass writes
            # the caller's output.
            for axis in range(d - 1, -1, -1):
                out = carve((k, *dims[:axis], *image[axis:])) if axis else None
                passes.append((partial(fft, n=image[axis], axis=axis + 1), inp, out))
                inp = out
        if k > 1 and self.scale >= PARALLEL_MIN_POINTS:
            def part(a, i):
                return None if a is None else a[i : i + 1]

            self.groups = [(slice(i, i + 1),
                            [(call, part(a, i), part(o, i)) for call, a, o in passes],
                            part(cut, i)) for i in range(k)]
        else:
            self.groups = [(slice(None), passes, cut)]

    def run(self, src: np.ndarray, dest: np.ndarray, before=None, after=None,
            group=None) -> None:
        """Transform the stack src, shaped src_rows, into the stack dest,
        shaped dest_rows, with the row hooks before and after (see
        _transform): all groups of rows, or only `group`, a task of the
        pool."""
        if group is None:
            if len(self.groups) > 1:
                _run_tasks([partial(self.run, src, dest, before, after, g) for g in self.groups])
                return
            group = self.groups[0]
        rows, passes, cut = group
        if before is not None:
            before(rows)
        for call, a, o in passes:  # numpy.fft's out=, hence NumPy >= 2.0
            call(src[rows] if a is None else a, out=dest[rows] if o is None else o)
        if cut is not None:
            np.multiply(cut, self.scale, dest[rows])
        if after is not None:
            after(rows)


def _buffer(buf, shape: tuple[int, ...], what: str, *inputs) -> np.ndarray:
    """buf, once checked to be a C-contiguous complex128 array of this shape
    that shares no memory with any of inputs; raises ValueError otherwise.
    A call that writes into buf, or fills it in a hook, reads it through no
    copy and reads no input that it overwrites."""
    if (type(buf) is not np.ndarray or buf.dtype != _COMPLEX or buf.shape != shape
            or not buf.flags.c_contiguous):
        raise ValueError(f"{what} must be a C-contiguous complex128 array of shape {shape}")
    for v in inputs:
        if v is not None and np.may_share_memory(buf, v):
            raise ValueError(f"{what} must not overlap the call's inputs")
    return buf


def _transform(v, shape: GridShape, image: tuple[int, ...], inverse: bool, what: str,
               before=None, after=None, out=None, plan=None) -> np.ndarray:
    """The d-axis DFT between the object grid and the image grid, flat or stacked.

    Forward: each axis, last first, is transformed at its image extent, the
    zero padding coming from numpy's n=.  Inverse: each axis, last first, is
    inverse-transformed in place and cut to its object extent, then the
    result is scaled by the image size, the adjoint's normalization.  A
    dense plan's matrices hold the padding, the cut and that scale (the
    inverse matrix is the unnormalized conjugate DFT), so its passes write
    no cut views and no scaling pass follows them.

    before(rows) fills those rows of v before they are transformed, and
    after(rows) runs once those rows of the result are written (see the
    module docstring); rows is a slice of the stack's rows.  The result is
    written into out when given, a C-contiguous complex128 buffer of the
    result's shape, and returned.  out may be v itself (the plain
    transforms), as numpy.fft, like every numpy ufunc, reads an input that
    overlaps its output as if it did not.  plan, a TransformPlan of this
    transform and stack, replaces the set-up a call otherwise makes.
    """
    v = np.asarray(v, dtype=np.complex128)
    if plan is None:
        plan = TransformPlan(shape, image, inverse, v.shape[0] if v.ndim == 2 else 1)
    elif plan.key != (shape.dims, image, inverse):
        raise ValueError(f"{what}: the plan is for another transform")
    out_shape = plan.out_shapes.get(v.shape)
    if out_shape is None:
        raise ValueError(f"{what}: expected flat length {plan.src_len} or a "
                         f"({plan.k}, {plan.src_len}) stack, got shape {v.shape}")
    if out is None:
        out = np.empty(out_shape, dtype=np.complex128)
    elif out.shape != out_shape or out.dtype != _COMPLEX or not out.flags.c_contiguous:
        raise ValueError(f"{what}: out must be a C-contiguous complex128 {out_shape} array")
    plan.run(v.reshape(plan.src_rows), out.reshape(plan.dest_rows), before, after)
    return out


def dft_oversampled(x, shape: GridShape, before=None, after=None, out=None,
                    plan=None) -> np.ndarray:
    """Oversampled DFT: zero-pad to the (2M_j+1) grid per axis, then FFT.

    Returns the unnormalized transform of length shape.n_oversampled, or a
    (k, n_oversampled) stack for a (k, n) stack.  The matrix realized here
    is a sub-column block of the full DFT on the padded grid, so its Gram
    matrix is n_oversampled * I; dividing by sqrt(n_oversampled) makes the
    map isometric.  Normalization is applied
    at the measurement-operator level, not here.

    The transform is pruned: each axis pass pads only that axis, so the
    all-zero rows of the padded grid are never transformed.  Above
    DENSE_MAX_EXTENT every computed 1-D transform is the one the full padded
    FFT computes, so the result is bit-identical to it.  At or below it each
    pass is a product with the (2M_j+1) x (M_j+1) DFT matrix, which agrees
    with the padded FFT to roundoff.
    """
    return _transform(x, shape, shape.oversampled_dims, False, "dft_oversampled",
                      before, after, out, plan)


def idft_oversampled(y, shape: GridShape, before=None, after=None, out=None,
                     plan=None) -> np.ndarray:
    """Adjoint of :func:`dft_oversampled`, restricted to the object grid.

    Takes a flat vector or a (k, n_oversampled) stack.  The inverse is
    pruned: it transforms the last axis first, as ifftn does, and cuts each
    axis to its object extent straight after transforming it, so later
    passes skip the discarded outputs.  Above DENSE_MAX_EXTENT the result is
    bit-identical to the full inverse FFT followed by the cut and the
    scaling; at or below it each pass is a product with the (M_j+1) x
    (2M_j+1) unnormalized inverse DFT matrix, equal to that to roundoff.
    """
    return _transform(y, shape, shape.oversampled_dims, True, "idft_oversampled",
                      before, after, out, plan)


def dft_plain(x, shape: GridShape, before=None, after=None, out=None,
              plan=None) -> np.ndarray:
    """Unoversampled (standard) DFT on the object grid itself, flat or stacked."""
    return _transform(x, shape, shape.dims, False, "dft_plain", before, after, out, plan)


def idft_plain(y, shape: GridShape, before=None, after=None, out=None,
               plan=None) -> np.ndarray:
    """Adjoint of :func:`dft_plain` (Gram matrix is n * I), flat or stacked."""
    return _transform(y, shape, shape.dims, True, "idft_plain", before, after, out, plan)


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
    return sqrt(_dot(f, f))  # the correctly rounded square root, as np.sqrt's


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
    return _unit(y, np.abs(y), np.empty_like(y))


def _unit(y: np.ndarray, mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y / mag with 1 where mag = 0, for mag = |y| already formed: the
    divide of :func:`phase_factor`, into out, which may be y.  mag is
    scratch: it may be left holding 1 / mag.  Calls only numpy, so
    transform hooks may run it on the pool.

    numpy divides a complex y by a real mag as y * (1 / mag), so when every
    mag is normal the reciprocal and a multiply give the divide's values
    (only the sign of an exact zero may differ) at less cost.  A subnormal
    mag has lost bits, and below 1 / max float its reciprocal overflows, so
    those entries are first scaled by 2**64, exactly, to a normal size."""
    if mag.min(initial=np.inf) >= _TINY:
        np.divide(1.0, mag, out=mag)
        return np.multiply(y, mag, out=out)
    y = y * np.where(mag < _TINY, 2.0**64, 1.0)
    mag = np.abs(y)
    np.divide(y, mag, out=out, where=mag > 0)
    np.copyto(out, 1.0, where=mag == 0)
    return out
