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
numpy FFT, run on the runs of consecutive points of the index sets (a
leading set is one run; the ring around a support, two).  A forward FFT
copies each cell of its input, a product of runs, to its place in the
output stack and zeroes each axis's gaps there before transforming it in
place, so no numpy call gets an input shorter than its n: numpy transforms
such a padded call one line at a time, a full-length one on its vectorized
path.  Both kinds are pruned: they skip the all-zero rows off the sets and
the outputs that are cut away.  FFT passes give the same bits as the full
FFTs of the block scattered into zeros; dense passes agree with them to
roundoff.

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

What a call sets up before its passes (the geometry, the pass buffers,
the views of its input, its output and those buffers that the passes read
and write, the split of the rows into tasks, and the passes as calls:
products with dense matrices, or FFTs) is a TransformPlan, made for that
input and output.  A caller that transforms the same buffers many times,
as a solve does, makes the plan once and hands it to every call on them;
a call without one makes a throwaway plan on its own arrays, so both run
one code path.  The dense matrices are built once per shape and shared
read-only by every plan.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import product
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
# two-pattern 16x16 grid's transform pair took 0.3 of the FFT time, a plain
# 31x31 pair 0.4, against FFT forwards that pad in their output.  From 32
# points up the plain transforms of equal extent are as fast as FFTs, and
# at 48 and 63 points they take twice as long.
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


def _runs(ix) -> list[tuple[slice, slice]]:
    """The maximal runs of consecutive points of the sorted index set ix,
    as (block slice, image slice) pairs."""
    cuts = [j for j in range(len(ix) + 1) if j in (0, len(ix)) or ix[j] != ix[j - 1] + 1]
    return [(slice(a, b), slice(ix[a], ix[b - 1] + 1)) for a, b in zip(cuts, cuts[1:])]


def _fft_in_place(cells, steps, rows: np.ndarray, out: np.ndarray) -> None:
    """The forward FFT passes of rows into out, padding in out itself.

    Each cell (block, image) of rows is copied to its place in out.  Then
    each step (axis, views, gaps), last axis first, zeroes the gaps (runs,
    as _runs gives them) of its views along its axis and transforms the
    views, the lines on the runs of the axes before it, in place along that
    axis.  So numpy pads nothing through n=, which would take it off its
    vectorized path (see the module docstring)."""
    for block, image in cells:
        out[image] = rows[block]
    for axis, views, gaps in steps:
        for view, (_, gap) in product(views, gaps):
            out[(*view, gap)] = 0.0
        for view in views:
            v = out[view]
            np.fft.fft(v, axis=axis, out=v)


def _read_cells(cells, scale: float, stack: np.ndarray, out: np.ndarray) -> None:
    """Each cell (block, image) of stack, times scale, into its place in out."""
    for block, image in cells:
        np.multiply(stack[image], scale, out[block])


class TransformPlan:
    """The set-up of one DFT between an object grid and an image grid, made
    for one input and one output and run on them by every call given it.

    src, the input, is a C-contiguous complex128 flat vector or a stack of k
    of them, (k, length); dest, the output, a C-contiguous complex128 buffer
    of the result's shape, made when not given; both are checked when the
    plan is made and held as `src` and `dest`.  dest may be src itself (the
    plain transforms), as numpy.fft, like every numpy ufunc, reads an input
    that overlaps its output as if it did not.  The plan holds the geometry,
    its passes (dense products when `dense`, see DENSE_MAX_EXTENT, else
    FFTs), each a call with the views of src, dest and the pass buffers that
    it reads and writes, and the split of the rows into tasks, decided by
    PARALLEL_MIN_POINTS when the plan is made.  The pass buffers are carved
    from `work`, a flat complex128 buffer, while it lasts: a dense plan
    takes the d - 1 intermediate passes, an inverse FFT plan one (k, *image)
    stack, and a forward FFT plan none, as it pads and transforms in dest
    (see _fft_in_place and _read_cells).  Plans may share one work buffer,
    since a call's passes end before it returns; a plan serves one call at a
    time.

    index holds the object side's image points per axis, each a sorted
    tuple of ints or a range, range(M_j+1) when not given: a forward plan
    transforms the (k, *len(index)) block of those points, and an inverse
    plan returns only that block.
    """

    def __init__(self, shape: GridShape, image: tuple[int, ...], inverse: bool, src,
                 dest=None, work=None, index=None) -> None:
        dims, d = shape.dims, shape.ndim
        self.key, what = (dims, image, inverse), _name(dims, image, inverse)
        self.scale = prod(image)
        index = tuple(map(range, dims)) if index is None else tuple(index)
        if len(index) != d:
            raise ValueError(f"TransformPlan: {len(index)} index sets for {d} axes")
        dims = tuple(map(len, index))  # the object side's extents
        src_dims, dest_dims = (image, dims) if inverse else (dims, image)
        src_len, k = prod(src_dims), len(src) if np.ndim(src) == 2 else 1
        if np.shape(src) not in ((src_len,), (k, src_len)):
            raise ValueError(f"{what}: expected flat length {src_len} or a (k, {src_len}) "
                             f"stack, got shape {np.shape(src)}")
        self.src = _buffer(src, np.shape(src), f"{what}: the input")
        dest_shape = (*src.shape[:-1], prod(dest_dims))
        self.dest = np.empty(dest_shape, dtype=np.complex128) if dest is None else _buffer(
            dest, dest_shape, f"{what}: out")
        at = 0

        def carve(shape_j):  # a pass buffer, from work while it lasts
            nonlocal at
            size = prod(shape_j)
            if work is not None and at + size <= work.size:
                at += size
                return work[at - size : at].reshape(shape_j)
            return np.empty(shape_j, dtype=np.complex128)

        # Each pass is (call, input, output), last axis first, and runs as
        # call(input, out=output).
        passes = []
        self.dense = max(image) <= DENSE_MAX_EXTENT
        if self.dense:
            # The product along the last axis is rows @ M.T over (k, P, n);
            # along any other it is M @ rows over (k, P, n, Q), P and Q the
            # points before and after the axis.  The first pass reads src
            # and the last writes dest in those shapes.
            ext, inp = list(src_dims), self.src
            for axis in range(d - 1, -1, -1):
                n_in, n_out = ext[axis], dest_dims[axis]
                mat = _dft_matrix(image[axis], index[axis], inverse)
                before_axis, after_axis = prod(ext[:axis]), prod(ext[axis + 1 :])
                if axis == d - 1:
                    shapes = [(k, before_axis, n) for n in (n_in, n_out)]
                else:
                    shapes = [(k, before_axis, n, after_axis) for n in (n_in, n_out)]
                out = carve(shapes[1]) if axis else self.dest.reshape(shapes[1])
                call = partial(_times, mat.T) if axis == d - 1 else partial(np.matmul, mat)
                passes.append((call, inp.reshape(shapes[0]), out))
                ext[axis], inp = n_out, out
        else:
            # The block's cells, the products of the runs of its index
            # sets, as (block, image) indexes of the (k, *dims) block and
            # the (k, *image) stack; and per axis the image slices of its
            # runs, whose products pick the lines a pass transforms.
            runs = [_runs(ix) for ix in index]
            cells = [tuple((slice(None), *half) for half in zip(*c)) for c in product(*runs)]
            spans = [[i for _, i in r] for r in runs]
            src_rows, dest_rows = (self.src.reshape(k, *src_dims),
                                   self.dest.reshape(k, *dest_dims))
            if inverse:
                # The first pass reads src into the whole stack; each later
                # one runs in place on the lines on the runs of the axes
                # already transformed.  Then the cells are read out to dest.
                stack = carve((k, *image))
                for axis in range(d - 1, -1, -1):
                    for s in product(*spans[axis + 1 :]):
                        view = stack[(slice(None),) * (axis + 2) + s]
                        passes.append((partial(np.fft.ifft, axis=axis + 1),
                                       src_rows if axis == d - 1 else view, view))
                passes.append((partial(_read_cells, cells, self.scale), stack, dest_rows))
            else:
                # One pass over dest: see _fft_in_place.  The gaps of an
                # axis are the runs of the points off its set.
                steps = [(axis + 1, [(slice(None), *s) for s in product(*spans[:axis])],
                          _runs(np.setdiff1d(range(image[axis]), index[axis])))
                         for axis in range(d - 1, -1, -1)]
                passes.append((partial(_fft_in_place, cells, steps), src_rows, dest_rows))
        if k > 1 and self.scale >= PARALLEL_MIN_POINTS:
            self.groups = [(slice(i, i + 1), [(call, a[i : i + 1], o[i : i + 1])
                                              for call, a, o in passes]) for i in range(k)]
        else:
            self.groups = [(slice(None), passes)]

    def run(self, before=None, after=None, group=None) -> np.ndarray:
        """Transform src into dest, with the row hooks before and after (see
        _transform): all groups of rows, or only `group`, a task of the
        pool.  Returns dest."""
        if group is None:
            if len(self.groups) > 1:
                _run_tasks([partial(self.run, before, after, g) for g in self.groups])
                return self.dest
            group = self.groups[0]
        rows, passes = group
        if before is not None:
            before(rows)
        for call, a, o in passes:  # numpy.fft's out=, hence NumPy >= 2.0
            call(a, out=o)
        if after is not None:
            after(rows)
        return self.dest


def _name(dims: tuple[int, ...], image: tuple[int, ...], inverse: bool) -> str:
    """The DFT entry point that runs the transform (dims, image, inverse),
    which error messages name."""
    return ("idft_" if inverse else "dft_") + ("plain" if image == dims else "oversampled")


def _buffer(buf, shape: tuple[int, ...], what: str) -> np.ndarray:
    """buf, once checked to be a C-contiguous complex128 array of this
    shape; raises ValueError otherwise.  A call that writes into buf, or
    fills it in a hook, then reads it through no copy."""
    if (type(buf) is not np.ndarray or buf.dtype != _COMPLEX or buf.shape != shape
            or not buf.flags.c_contiguous):
        raise ValueError(f"{what} must be a C-contiguous complex128 array of shape {shape}")
    return buf


def _vector(v, dtype, length: int, fn: str) -> np.ndarray:
    """v as a flat dtype array of this length; else a ValueError that names
    fn, the public function that was given v."""
    v = np.asarray(v, dtype=dtype)
    if v.shape != (length,):
        raise ValueError(f"{fn}: expected length {length}, got shape {v.shape}")
    return v


def _transform(v, shape: GridShape, image: tuple[int, ...], inverse: bool, before=None,
               after=None, out=None, plan=None) -> np.ndarray:
    """The d-axis DFT between the object grid and the image grid, flat or stacked.

    Forward: v is copied to the plan's index sets in the output stack, and
    each axis, last first, is zero-padded there to its image extent and
    transformed in place.  Inverse: each axis, last first, is
    inverse-transformed in place on the lines that the axes after it keep,
    then the block at the index sets is read out, scaled by the image size,
    the adjoint's normalization.  A dense plan's matrices hold the padding,
    the cut and that scale (the inverse matrix is the unnormalized conjugate
    DFT), so its passes write no cut views and no scaling pass follows them.

    before(rows) fills those rows of v before they are transformed, and
    after(rows) runs once those rows of the result are written (see the
    module docstring); rows is a slice of the stack's rows.  The result is
    written into out when given, a C-contiguous complex128 buffer of the
    result's shape that may be v itself, and returned.  A call runs a
    TransformPlan made for v and out (see there): plan, one of this
    transform made for exactly these arrays, or else a throwaway one it
    makes, so both run one code path.
    """
    if plan is None:
        plan = TransformPlan(shape, image, inverse, np.ascontiguousarray(v, dtype=np.complex128),
                             out)
    elif plan.key != (shape.dims, image, inverse):
        raise ValueError(f"{_name(shape.dims, image, inverse)}: the plan is for another transform")
    elif v is not plan.src or out is not plan.dest:
        raise ValueError(f"{_name(shape.dims, image, inverse)}: the plan is made for other arrays")
    return plan.run(before, after)


def dft_oversampled(x, shape: GridShape, before=None, after=None, out=None,
                    plan=None) -> np.ndarray:
    """Oversampled DFT: zero-pad to the (2M_j+1) grid per axis, then FFT.

    Returns the unnormalized transform of length shape.n_oversampled, or a
    (k, n_oversampled) stack for a (k, n) stack.  The matrix realized here
    is a sub-column block of the full DFT on the padded grid, so its Gram
    matrix is n_oversampled * I; dividing by sqrt(n_oversampled) makes the
    map isometric.  Normalization is applied
    at the measurement-operator level, not here.

    The transform is pruned: each axis pass zeroes only that axis's padding
    in the output stack and transforms the lines that can be nonzero, so
    the all-zero rows of the padded grid are never transformed.  Above
    DENSE_MAX_EXTENT every computed 1-D transform is the one the full padded
    FFT computes, so the result is bit-identical to it.  At or below it each
    pass is a product with the (2M_j+1) x (M_j+1) DFT matrix, which agrees
    with the padded FFT to roundoff.
    """
    return _transform(x, shape, shape.oversampled_dims, False, before, after, out, plan)


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
    return _transform(y, shape, shape.oversampled_dims, True, before, after, out, plan)


def dft_plain(x, shape: GridShape, before=None, after=None, out=None,
              plan=None) -> np.ndarray:
    """Unoversampled (standard) DFT on the grid shape, flat or stacked.

    Its object side is the whole grid or, with a plan, the plan's per-axis
    index sets of it, zero elsewhere.  forward's operators call it so: on
    their image grid, with a plan whose sets are the object's leading
    points (A*) or an extension's compact block.  Either way its Gram
    matrix is shape.n * I."""
    return _transform(x, shape, shape.dims, False, before, after, out, plan)


def idft_plain(y, shape: GridShape, before=None, after=None, out=None,
               plan=None) -> np.ndarray:
    """Adjoint of :func:`dft_plain`, flat or stacked: the unnormalized
    inverse DFT, read on the same object side (the plan's index sets)."""
    return _transform(y, shape, shape.dims, True, before, after, out, plan)


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
    v = np.empty(half, dtype=np.complex128)
    v.real, v.imag = p[:half], p[half:]
    return v


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
