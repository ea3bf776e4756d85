"""Tests for the grid/DFT substrate."""

import os
import subprocess
import sys
import threading
from math import prod
from pathlib import Path

import numpy as np
import pytest

from phasedr import grids
from phasedr.forward import extend_op, make_operator
from phasedr.grids import (
    GridShape,
    TransformPlan,
    dft_oversampled,
    dft_plain,
    idft_oversampled,
    idft_plain,
    phase_factor,
    realify,
    unrealify,
)

from oracles import naive_dft_matrix, random_complex

SHAPES = [GridShape((2, 2)), GridShape((3, 3)), GridShape((4, 4)), GridShape((2, 3))]
# The pruned transforms loop over the axes, so also check 1-D and 3-D grids.
AXIS_SHAPES = [GridShape((3,)), GridShape((2, 3, 4))]


def test_grid_shape_properties():
    s = GridShape((2, 3))
    assert s.n == 6
    assert s.oversampled_dims == (3, 5)
    assert s.n_oversampled == 15
    assert str(s) == "2x3"


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(())
    with pytest.raises(ValueError):
        GridShape((2, 0))


def test_dft_of_delta_is_constant():
    s = GridShape((2, 2))
    x = np.zeros(4, dtype=complex)
    x[0] = 1.0
    y = dft_oversampled(x, s) / np.sqrt(s.n_oversampled)
    assert y.shape == (9,)
    assert np.allclose(y, 1.0 / 3.0, atol=1e-14)


@pytest.mark.parametrize("shape", SHAPES)
def test_normalized_dft_is_isometric(shape):
    rng = np.random.default_rng(42)
    c = 1.0 / np.sqrt(shape.n_oversampled)
    for _ in range(100):
        x = random_complex(rng, shape.n)
        assert abs(np.linalg.norm(c * dft_oversampled(x, shape)) - np.linalg.norm(x)) < 1e-12


@pytest.mark.parametrize("shape", SHAPES + AXIS_SHAPES + [GridShape((2, 2, 2))])
def test_dft_matches_naive_sum(shape):
    rng = np.random.default_rng(7)
    phi = naive_dft_matrix(shape, oversampled=True)
    x = random_complex(rng, shape.n)
    assert np.abs(dft_oversampled(x, shape) - phi @ x).max() < 1e-10
    y = random_complex(rng, shape.n_oversampled)
    assert np.abs(idft_oversampled(y, shape) - phi.conj().T @ y).max() < 1e-10


@pytest.mark.parametrize("shape", SHAPES)
def test_plain_dft_matches_naive_sum(shape):
    rng = np.random.default_rng(8)
    phi = naive_dft_matrix(shape, oversampled=False)
    x = random_complex(rng, shape.n)
    assert np.abs(dft_plain(x, shape) - phi @ x).max() < 1e-10


def test_idft_round_trip():
    s = GridShape((3, 3))
    rng = np.random.default_rng(0)
    x = random_complex(rng, s.n)
    c = 1.0 / np.sqrt(s.n_oversampled)
    back = c * idft_oversampled(c * dft_oversampled(x, s), s)
    assert np.linalg.norm(back - x) < 1e-12


def test_idft_of_constant_is_delta():
    s = GridShape((2, 2))
    y = np.full(9, 1.0 / 3.0, dtype=complex)
    x = idft_oversampled(y, s) / np.sqrt(9)
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.linalg.norm(x - expected) < 1e-12


@pytest.mark.parametrize("shape", SHAPES + AXIS_SHAPES)
def test_dft_adjoint_identity(shape):
    rng = np.random.default_rng(3)
    c = 1.0 / np.sqrt(shape.n_oversampled)
    for _ in range(10):
        x = random_complex(rng, shape.n)
        y = random_complex(rng, shape.n_oversampled)
        lhs = np.vdot(c * dft_oversampled(x, shape), y)
        rhs = np.vdot(x, c * idft_oversampled(y, shape))
        assert abs(lhs - rhs) < 1e-10


def test_plain_dft_adjoint_identity():
    s = GridShape((3, 4))
    rng = np.random.default_rng(4)
    x = random_complex(rng, s.n)
    y = random_complex(rng, s.n)
    assert abs(np.vdot(dft_plain(x, s), y) - np.vdot(x, idft_plain(y, s))) < 1e-10


def test_dft_shape_errors():
    s = GridShape((2, 2))
    with pytest.raises(ValueError):
        dft_oversampled(np.zeros(5, dtype=complex), s)
    with pytest.raises(ValueError):
        idft_oversampled(np.zeros(4, dtype=complex), s)


def _forward_plan(s, **kwargs):
    # A forward oversampled plan made for a zero input of its length.
    return TransformPlan(s, s.oversampled_dims, False, np.zeros(s.n, complex), **kwargs)


def _on_own_arrays(call, plan, s):
    # call run with plan on the arrays it was made for.
    return call(plan.src, s, out=plan.dest, plan=plan)


@pytest.mark.parametrize("call, match", [
    (lambda s: _forward_plan(s, index=(range(2),)), "index sets"),
    (lambda s: _on_own_arrays(dft_plain, _forward_plan(s), s), "another transform"),
    (lambda s: _on_own_arrays(idft_oversampled, _forward_plan(s), s), "another transform"),
    (lambda s: TransformPlan(s, s.oversampled_dims, False, np.zeros(2 * s.n, complex)[::2]),
     "input must be"),
    (lambda s: TransformPlan(s, s.oversampled_dims, False, np.zeros(s.n)), "input must be"),
    (lambda s: TransformPlan(s, s.oversampled_dims, False, np.zeros((2, s.n), complex),
                             np.empty(s.n_oversampled, complex)), "out must be"),
    (lambda s: dft_plain(np.zeros(s.n, complex), s, out=np.empty(2 * s.n, complex)[::2]),
     "out must be"),
    (lambda s: dft_plain(np.zeros(s.n, complex), s, out=np.empty(s.n)), "out must be"),
], ids=["index-set-count", "plan-of-another-size", "plan-of-another-direction",
        "strided-input", "float-input", "plan-out-of-another-shape", "strided-out",
        "float-out"])
def test_transform_and_embed_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call(GridShape((2, 3)))


def test_a_plan_takes_only_the_arrays_it_was_made_for():
    s = GridShape((2, 3))
    plan = _forward_plan(s)
    assert _on_own_arrays(dft_oversampled, plan, s) is plan.dest
    for v, out in ((plan.src.copy(), plan.dest), (plan.src, np.empty_like(plan.dest)),
                   (plan.src, None)):
        with pytest.raises(ValueError, match="made for other arrays"):
            dft_oversampled(v, s, out=out, plan=plan)


def test_realify_definition():
    assert np.array_equal(realify(np.array([1 + 2j])), np.array([1.0, 2.0]))


def test_realify_round_trip_exact():
    rng = np.random.default_rng(11)
    v = random_complex(rng, 37)
    assert np.array_equal(unrealify(realify(v)), v)


def test_unrealify_round_trip_keeps_signed_zeros():
    # -0.0 and +0.0 differ in their bits, so the round trip keeps each sign
    # in either part: no sum with 0.0 may turn a -0.0 into +0.0.
    p = np.array([1.0, -0.0, 2.0, 0.0, -0.0, 3.0, 0.0, -0.0])
    v = unrealify(p)
    assert realify(v).tobytes() == p.tobytes()
    assert unrealify(realify(v)).tobytes() == v.tobytes()


def test_real_inner_product_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = random_complex(rng, 15)
        v = random_complex(rng, 15)
        assert abs(np.real(np.vdot(u, v)) - realify(u) @ realify(v)) < 1e-14


def test_realify_multiply_by_minus_i():
    rng = np.random.default_rng(13)
    v = random_complex(rng, 9)
    expected = np.concatenate([v.imag, -v.real])
    assert np.allclose(realify(-1j * v), expected, atol=0)


def test_unrealify_length_check():
    with pytest.raises(ValueError):
        unrealify(np.zeros(5))


def test_phase_factor_convention():
    y = np.array([0.0, 2.0, -3j])
    w = phase_factor(y)
    assert w[0] == 1.0
    assert np.allclose(w, [1.0, 1.0, -1j], atol=1e-15)
    assert np.allclose(np.abs(w), 1.0, atol=0)


def test_unit_gives_the_divide_by_the_magnitude():
    # _unit multiplies y by 1 / |y|, which is how numpy divides a complex by
    # a real, so it has np.divide's values (== ignores the sign of zeros)
    # wherever |y| is normal: over the whole float range, subnormal and
    # exactly zero parts included.  A subnormal |y| (below about 2.2e-308),
    # whose reciprocal loses bits or overflows below 1 / max float, is
    # scaled first, so every phase has unit modulus and no warning is raised.
    rng = np.random.default_rng(17)
    size = 200_000
    parts = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-320, 308, (2, size))
    parts[0, rng.random(size) < 0.05] = 0.0
    parts[1, rng.random(size) < 0.05] = 0.0
    parts[:, (parts == 0).all(axis=0)] = 1.0  # no zero magnitude: the reciprocal path
    y = parts[0] + 1j * parts[1]
    mag = np.abs(y)
    normal = mag >= np.finfo(float).tiny
    assert (mag < 1 / np.finfo(float).max).any() and (mag > 1e307).any()
    got = grids._unit(y, np.abs(y), np.empty_like(y))
    assert np.abs(np.abs(got) - 1.0).max() <= 4 * np.finfo(float).eps
    assert np.array_equal(got[normal], np.divide(y[normal], mag[normal]))
    # A zero magnitude gives 1 there.
    y[::7] = 0.0
    live = y != 0
    got = grids._unit(y, np.abs(y), np.empty_like(y))
    assert np.all(got[~live] == 1.0)
    assert np.abs(np.abs(got) - 1.0).max() <= 4 * np.finfo(float).eps
    keep = live & normal
    assert np.array_equal(got[keep], np.divide(y[keep], mag[keep]))
    # Unit-scale phases take the reciprocal path.
    y = random_complex(rng, 1000)
    assert np.array_equal(grids._unit(y, np.abs(y), np.empty_like(y)), y / np.abs(y))


def test_grid_shape_extents_are_computed_once():
    s = GridShape((4, 5))
    assert s.oversampled_dims is s.oversampled_dims
    assert (s.n, s.oversampled_dims, s.n_oversampled) == (20, (7, 9), 63)
    # The cached extents leave equality and hashing to dims alone.
    assert s == GridShape((4, 5)) and hash(s) == hash(GridShape((4, 5)))


DFTS = [dft_oversampled, idft_oversampled, dft_plain, idft_plain]
# (32, 3) has 32- and 63-point image axes, past DENSE_MAX_EXTENT, so its
# transforms run FFT passes; the others run dense products.
STACK_SHAPES = [GridShape((5,)), GridShape((3, 4)), GridShape((2, 3, 4)), GridShape((32, 3))]


def _runs_dense(fn, shape) -> bool:
    oversampled = fn in (dft_oversampled, idft_oversampled)
    image = shape.oversampled_dims if oversampled else shape.dims
    inverse = fn in (idft_oversampled, idft_plain)
    src = np.zeros(prod(image) if inverse else shape.n, dtype=np.complex128)
    return grids.TransformPlan(shape, image, inverse, src).dense


@pytest.mark.parametrize("fn", DFTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [GridShape((16, 16)), GridShape((7,)), GridShape((3, 5, 4))],
                         ids=str)
def test_dense_passes_match_naive_dft(fn, shape):
    # Image extents of at most DENSE_MAX_EXTENT (31 for the 16x16 grid's
    # oversampled axes) run as dense DFT-matrix products.
    assert _runs_dense(fn, shape)
    phi = naive_dft_matrix(shape, oversampled=fn in (dft_oversampled, idft_oversampled))
    inverse = fn in (idft_oversampled, idft_plain)
    if inverse:
        phi = phi.conj().T
    x = random_complex(np.random.default_rng(11), phi.shape[1])
    want = phi @ x
    assert np.abs(fn(x, shape) - want).max() <= 1e-12 * np.abs(want).max()


def test_transforms_above_the_dense_bound_are_the_padded_fft():
    # 33-point oversampled and 32-point plain axes keep the FFT passes,
    # bit for bit the full padded FFT (and the full inverse FFT, cut and
    # scaled by the image size).
    rng = np.random.default_rng(12)
    for shape, oversampled in ((GridShape((17, 17)), True), (GridShape((32, 32)), False)):
        image = shape.oversampled_dims if oversampled else shape.dims
        fwd, inv = (dft_oversampled, idft_oversampled) if oversampled else (dft_plain, idft_plain)
        assert not (_runs_dense(fwd, shape) or _runs_dense(inv, shape))
        x = random_complex(rng, shape.n)
        want = np.fft.fftn(x.reshape(shape.dims), s=image, axes=(0, 1)).ravel()
        assert np.array_equal(fwd(x, shape).view(np.float64), want.view(np.float64))
        y = random_complex(rng, prod(image))
        full = np.fft.ifftn(y.reshape(image))[tuple(slice(0, m) for m in shape.dims)]
        want = (full * prod(image)).ravel()
        assert np.array_equal(inv(y, shape).view(np.float64), want.view(np.float64))


def test_dense_matrices_are_shared_read_only():
    shape = GridShape((16, 16))
    plans = [grids.TransformPlan(shape, shape.oversampled_dims, True, y)
             for y in (np.zeros(shape.n_oversampled, complex),
                       np.zeros((2, shape.n_oversampled), complex))]
    # Each plan's second pass, along the first axis, is a product with the
    # matrix itself.
    m1, m2 = (plan.groups[0][1][1][0].args[0] for plan in plans)
    assert m1 is m2 and not m1.flags.writeable


def _padded_dft_matrix(rows, cols, inverse):
    # The dense pass matrix as it was built before index sets: the DFT of
    # cols points zero-padded to rows, or the inverse DFT of cols points cut
    # to the first rows.
    g, sign = (cols, 1) if inverse else (rows, -1)
    j, k = np.ogrid[:rows, :cols]
    return np.exp(sign * 2j * np.pi * ((j * k) % g) / g)


def test_leading_index_sets_give_the_padded_matrices_bitwise():
    # index = range(M) is the oversampled pass (g = 2M - 1), range(g) the plain one.
    for m in range(1, grids.DENSE_MAX_EXTENT + 1):
        for g in {m, 2 * m - 1} & set(range(grids.DENSE_MAX_EXTENT + 1)):
            fwd = grids._dft_matrix(g, tuple(range(m)), False)
            inv = grids._dft_matrix(g, tuple(range(m)), True)
            assert np.array_equal(fwd.view(float), _padded_dft_matrix(g, m, False).view(float))
            assert np.array_equal(inv.view(float), _padded_dft_matrix(m, g, True).view(float))


@pytest.mark.parametrize("image, index", [
    ((31, 31), ((0, 1, 2, 5, 28, 30), tuple(range(20)) + (27, 29))),
    ((23,), ((0, 3, 4, 22),)),
    ((5, 7, 9), ((0, 1, 4), tuple(range(7)), (0, 2, 8))),
    # FFT plans: a ring set of two runs, one of four runs with lone
    # points, and a 3-D grid whose short axes hold two lone points.
    ((33, 33), (tuple(range(24)) + (30, 31, 32), tuple(range(33)))),
    ((40, 32), ((0, 1, 2, 17, 30, 38, 39), tuple(range(20)) + (31,))),
    ((34, 3, 5), ((0, 1, 33), (0, 2), (0, 1, 2, 3, 4))),
], ids=["31x31", "23", "5x7x9", "33x33", "40x32", "34x3x5"])
@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_plans_on_index_sets_match_the_dft(image, index, pooled, monkeypatch):
    # A forward plan transforms the block of the index sets' points, zero
    # elsewhere on the image grid; an inverse plan returns only that block.
    # Dense plans agree with the naive DFT to roundoff.  FFT plans give the
    # bits of fftn of the block scattered into zeros, and of ifftn
    # gathered at the block and scaled by the image size.
    if pooled:
        monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
    grid, axes = GridShape(image), tuple(range(1, len(image) + 1))
    dense = max(image) <= grids.DENSE_MAX_EXTENT
    phi = naive_dft_matrix(grid, oversampled=False) if dense else None
    cells = np.ravel_multi_index(np.ix_(*index), image).ravel()
    live = tuple(map(len, index))
    rng = np.random.default_rng(13)
    for k in (1, 3):
        x = random_complex(rng, k * cells.size).reshape(k, -1)
        y = random_complex(rng, k * grid.n).reshape(k, -1)
        fwd, inv = (grids.TransformPlan(grid, image, inverse, v, index=index)
                    for inverse, v in ((False, x), (True, y)))
        assert fwd.dense == inv.dense == dense
        assert len(fwd.groups) == len(inv.groups) == (k if pooled else 1)
        got_x = dft_plain(x, grid, out=fwd.dest, plan=fwd)
        got_y = idft_plain(y, grid, out=inv.dest, plan=inv)
        assert got_x is fwd.dest and got_y is inv.dest
        if dense:
            want = x @ phi[:, cells].T
            assert np.abs(got_x - want).max() <= 1e-12 * np.abs(want).max()
            want = y @ phi.conj()[:, cells]
            assert np.abs(got_y - want).max() <= 1e-12 * np.abs(want).max()
        else:
            block = np.zeros((k, *image), dtype=np.complex128)
            block[(slice(None), *np.ix_(*index))] = x.reshape(k, *live)
            _assert_bits(got_x, np.fft.fftn(block, axes=axes).reshape(k, -1))
            full = np.fft.ifftn(y.reshape(k, *image), axes=axes)[(slice(None), *np.ix_(*index))]
            _assert_bits(got_y, np.ascontiguousarray(full * grid.n).reshape(k, -1))
        # A plan made for an input and a given output gives the same bits
        # as the one-shot call and takes no other arrays.
        for call, inverse, v, got in ((dft_plain, False, x, got_x), (idft_plain, True, y, got_y)):
            out = np.empty_like(got)
            plan = grids.TransformPlan(grid, image, inverse, v, out, index=index)
            assert plan.dest is out and call(v, grid, out=out, plan=plan) is out
            _assert_bits(out, got)
            with pytest.raises(ValueError, match="made for other arrays"):
                call(v.copy(), grid, out=out, plan=plan)
        # A forward plan made for the full grid, not the block, is refused.
        with pytest.raises(ValueError, match="expected flat length"):
            grids.TransformPlan(grid, image, False, y, index=index)


def _padded_fftn(stack, shape):
    # Each row's full zero-padded FFT on the oversampled grid.
    axes = tuple(range(shape.ndim))
    return np.stack([np.fft.fftn(row.reshape(shape.dims), s=shape.oversampled_dims, axes=axes)
                     .ravel() for row in stack])


def _assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("shape", [GridShape((64, 64)), GridShape((17, 3, 4))], ids=str)
def test_padded_forward_is_the_full_padded_fft(shape):
    # The forward FFT pads in its output stack.  64x64 (a 127x127 grid)
    # runs its rows on the pool; the 3-D grid pads three axes.  The second
    # call, whose input a before hook fills, writes into the same out
    # buffer, so it must zero the padding that the first call transformed.
    first, second = (_stack_input(dft_oversampled, shape, 2, seed=s) for s in (31, 32))
    src, out = first.copy(), np.empty((2, shape.n_oversampled), dtype=np.complex128)
    plan = TransformPlan(shape, shape.oversampled_dims, False, src, out)
    assert not plan.dense
    assert (len(plan.groups) > 1) == (shape.n_oversampled >= grids.PARALLEL_MIN_POINTS)
    _assert_bits(dft_oversampled(src, shape, out=out, plan=plan), _padded_fftn(first, shape))
    src[...] = 0.0

    def before(rows):
        src[rows] = second[rows]

    got = dft_oversampled(src, shape, before=before, out=out, plan=plan)
    assert got is out
    _assert_bits(got, _padded_fftn(second, shape))


def test_fft_passes_never_pad_through_n(monkeypatch):
    # numpy runs a call whose input is shorter than its n (the padding
    # it would do itself) one line at a time, and a full-length call on its
    # vectorized several-lines-at-once path.  So every FFT pass, forward
    # and inverse, must hand numpy an input as long as n along its axis.
    calls = []

    def watch(fn):
        def call(a, n=None, axis=-1, **kwargs):
            calls.append((fn.__name__, a.shape[axis], a.shape[axis] if n is None else n))
            return fn(a, n=n, axis=axis, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "fft", watch(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", watch(np.fft.ifft))
    for shape in (GridShape((17, 17)), GridShape((64, 64)), GridShape((128, 128)),
                  GridShape((17, 3, 4))):
        for k in (1, 2):
            stack = _stack_input(dft_oversampled, shape, k, seed=35)
            y = dft_oversampled(stack, shape)
            idft_oversampled(y, shape)
            # The compact block of ODR's extension at 4n, whose index sets
            # are two runs: the support with its ring, and the ring's
            # other side.
            op = make_operator("one-and-half", shape, seed=3)
            _, index, _, _ = extend_op(op, 4 * op.n).layout
            assert 2 in {len(grids._runs(ix)) for ix in index}
            block = random_complex(np.random.default_rng(36), k * prod(map(len, index)))
            for call, inverse, v in ((dft_plain, False, block.reshape(k, -1)),
                                     (idft_plain, True, y)):
                plan = TransformPlan(op.grid, op.grid.dims, inverse, v, index=index)
                call(v, op.grid, out=plan.dest, plan=plan)
    assert {name for name, _, _ in calls} == {"fft", "ifft"}
    assert all(length == n for _, length, n in calls), [c for c in calls if c[1] != c[2]]


def _stack_input(fn, shape, k, seed):
    length = shape.n_oversampled if fn is idft_oversampled else shape.n
    return random_complex(np.random.default_rng(seed), k * length).reshape(k, length)


@pytest.mark.parametrize("fn", DFTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stack_equals_flat_calls_bitwise(fn, shape, k):
    stack = _stack_input(fn, shape, k, seed=k)
    got = fn(stack, shape)
    want = np.stack([fn(row, shape) for row in stack])
    assert got.shape == want.shape and got.flags.owndata
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("fn", DFTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_threaded_stack_equals_serial_bitwise(fn, shape, monkeypatch):
    stack = _stack_input(fn, shape, 3, seed=21)
    serial = fn(stack, shape)
    monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)  # every stack runs on the pool
    threaded = fn(stack, shape)
    assert np.array_equal(threaded.view(np.float64), serial.view(np.float64))


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
@pytest.mark.parametrize("fn", DFTS, ids=lambda f: f.__name__)
def test_hooks_fill_and_consume_every_row_once(fn, threaded, monkeypatch):
    if threaded:
        monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
    shape = GridShape((3, 4))
    stack = _stack_input(fn, shape, 3, seed=5)
    want = fn(stack, shape)
    src = np.empty_like(stack)
    out = np.empty_like(want)
    seen = {}  # row index -> that row of the result as after() saw it

    def before(rows):
        src[rows] = stack[rows]

    def after(rows):
        for i in range(3)[rows]:
            assert i not in seen
            seen[i] = out[i].copy()
        out[rows] *= 2.0

    got = fn(src, shape, before=before, after=after, out=out)
    assert got is out
    assert np.array_equal(np.stack([seen[i] for i in range(3)]).view(np.float64),
                          want.view(np.float64))
    assert np.array_equal(got.view(np.float64), (2.0 * want).view(np.float64))


def test_concurrent_callers_share_the_pool(monkeypatch):
    # Eight callers race to start a fresh pool and then share it; every
    # result must still equal its serial value.
    shape = GridShape((3, 5))
    stacks = [_stack_input(dft_oversampled, shape, 3, seed=s) for s in range(8)]
    want = [dft_oversampled(stack, shape) for stack in stacks]
    monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
    monkeypatch.setattr(grids, "_pool", None)
    monkeypatch.setattr(grids, "_pool_ways", 0)
    results = [[] for _ in stacks]

    def caller(i):
        for _ in range(20):
            results[i].append(dft_oversampled(stacks[i], shape))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        if grids._pool is not None:
            grids._pool.shutdown()
    for got, ref in zip(results, want):
        assert len(got) == 20
        assert all(np.array_equal(g.view(np.float64), ref.view(np.float64)) for g in got)


def test_stack_shape_errors():
    s = GridShape((2, 2))
    with pytest.raises(ValueError):
        dft_oversampled(np.zeros((2, 5), dtype=complex), s)
    with pytest.raises(ValueError):
        idft_oversampled(np.zeros((2, 4), dtype=complex), s)
    with pytest.raises(ValueError):
        dft_plain(np.zeros((1, 2, 4), dtype=complex), s)
    with pytest.raises(ValueError):
        dft_plain(np.zeros((2, 4), dtype=complex), s, out=np.empty((2, 3), dtype=complex))


_FORK_PROBE = """
import os, signal
import numpy as np
from phasedr import grids
grids.PARALLEL_MIN_POINTS = 1
s = grids.GridShape((3, 4))
x = np.ones((2, s.n), dtype=complex)
want = grids.dft_oversampled(x, s)  # starts the pool
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child waiting on the parent's threads would hang
    os._exit(0 if np.array_equal(grids.dft_oversampled(x, s), want) else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_its_own_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FORK_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# Re-imports phasedr four times, runs a pooled stack each time, collects the
# dropped copies and prints the live thread count after each round.
_REIMPORT_PROBE = """
import gc, importlib, sys, threading, time
import numpy as np
counts = []
for _ in range(4):
    for key in [k for k in sys.modules if k == "phasedr" or k.startswith("phasedr.")]:
        del sys.modules[key]
    grids = importlib.import_module("phasedr.grids")
    grids.PARALLEL_MIN_POINTS = 1
    s = grids.GridShape((3, 4))
    grids.dft_oversampled(np.ones((2, s.n), dtype=complex), s)
    del grids, s
    gc.collect()
    # a dropped pool's worker ends once it wakes to find its pool gone
    deadline = time.monotonic() + 10
    while (sum(t.name.startswith("phasedr-fft") for t in threading.enumerate()) > 1
           and time.monotonic() < deadline):
        time.sleep(0.01)
    counts.append(threading.active_count())
print(counts)
"""


def test_reimport_does_not_leak_pool_threads():
    # The fork hook must not keep a dropped copy of grids, and so its pool
    # and the pool's threads, alive.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _REIMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=180)
    assert run.returncode == 0, run.stderr
    counts = eval(run.stdout)
    assert len(counts) == 4 and len(set(counts)) == 1, counts
