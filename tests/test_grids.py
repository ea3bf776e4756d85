"""Tests for the grid/DFT substrate."""

import numpy as np
import pytest

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
