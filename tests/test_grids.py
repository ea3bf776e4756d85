"""Tests for the grid/DFT substrate."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from phasedr import grids
from phasedr.grids import (
    GridShape,
    dft_oversampled,
    dft_plain,
    embed,
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


def test_realify_definition():
    assert np.array_equal(realify(np.array([1 + 2j])), np.array([1.0, 2.0]))


def test_realify_round_trip_exact():
    rng = np.random.default_rng(11)
    v = random_complex(rng, 37)
    assert np.array_equal(unrealify(realify(v)), v)


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


def test_embed_restrict():
    assert np.array_equal(embed(np.array([1.0, 2.0]), 4), np.array([1, 2, 0, 0], dtype=complex))
    rng = np.random.default_rng(14)
    x = random_complex(rng, 6)
    padded = embed(x, 19)
    # the restriction [.]_n is the leading slice; the tail is zero
    assert np.array_equal(padded[:6], x)
    assert not np.any(padded[6:])
    with pytest.raises(ValueError):
        embed(x, 5)


def test_phase_factor_convention():
    y = np.array([0.0, 2.0, -3j])
    w = phase_factor(y)
    assert w[0] == 1.0
    assert np.allclose(w, [1.0, 1.0, -1j], atol=1e-15)
    assert np.allclose(np.abs(w), 1.0, atol=0)


def test_grid_shape_extents_are_computed_once():
    s = GridShape((4, 5))
    assert s.oversampled_dims is s.oversampled_dims
    assert (s.n, s.oversampled_dims, s.n_oversampled) == (20, (7, 9), 63)
    # The cached extents leave equality and hashing to dims alone.
    assert s == GridShape((4, 5)) and hash(s) == hash(GridShape((4, 5)))


DFTS = [dft_oversampled, idft_oversampled, dft_plain, idft_plain]
STACK_SHAPES = [GridShape((5,)), GridShape((3, 4)), GridShape((2, 3, 4))]


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
