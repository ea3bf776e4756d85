"""Tests for synthetic test-image generation."""

import numpy as np
import pytest

from phasedr.grids import GridShape
from phasedr.images import ImageSpec, gen_image, support_rank


def test_margin_ring_exactly_zero():
    spec = ImageSpec(kind="rpp", shape=GridShape((6, 6)), margin=1, seed=3)
    img = gen_image(spec)
    assert np.all(img[0, :] == 0)
    assert np.all(img[-1, :] == 0)
    assert np.all(img[:, 0] == 0)
    assert np.all(img[:, -1] == 0)
    assert np.all(np.abs(img[1:-1, 1:-1]) > 0)


def test_degenerate_positivity_sector():
    spec = ImageSpec(kind="rpp", shape=GridShape((5, 5)), margin=1, alpha=0.0, beta=0.0, seed=9)
    img = gen_image(spec)
    interior = img[1:-1, 1:-1]
    assert np.all(interior.imag == 0)
    assert np.all(interior.real >= 0)


def test_rpp_phases_lie_in_sector():
    spec = ImageSpec(kind="rpp", shape=GridShape((8, 8)), margin=1, alpha=0.25, beta=0.5, seed=4)
    img = gen_image(spec)
    angles = np.angle(img[np.abs(img) > 0])
    assert np.all(angles >= -0.25 * np.pi - 1e-12)
    assert np.all(angles <= 0.5 * np.pi + 1e-12)


def test_determinism_bit_exact():
    spec = ImageSpec(kind="rpp", shape=GridShape((7, 7)), margin=2, seed=11)
    assert np.array_equal(gen_image(spec), gen_image(spec))


def test_tcb_is_seed_free_deterministic():
    a = gen_image(ImageSpec(kind="tcb", shape=GridShape((9, 9)), margin=1, seed=1))
    b = gen_image(ImageSpec(kind="tcb", shape=GridShape((9, 9)), margin=1, seed=999))
    assert np.array_equal(a, b)
    interior = a[1:-1, 1:-1]
    assert np.all(interior.real > 0)
    assert np.all(interior.imag > 0)


@pytest.mark.parametrize("kind", ["rpp", "tcb"])
@pytest.mark.parametrize("dims", [(4, 4), (6, 5), (8, 8)])
def test_rank_two_support(kind, dims):
    spec = ImageSpec(kind=kind, shape=GridShape(dims), margin=1, seed=2)
    assert support_rank(gen_image(spec)) >= 2


def test_degenerate_shape_raises():
    with pytest.raises(ValueError):
        gen_image(ImageSpec(kind="rpp", shape=GridShape((4, 4)), margin=2, seed=0))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ImageSpec(kind="noise", shape=GridShape((4, 4)))


def test_negative_margin_rejected():
    with pytest.raises(ValueError, match="margin"):
        ImageSpec(kind="rpp", shape=GridShape((4, 4)), margin=-1)


def test_support_rank_edge_cases():
    assert support_rank(np.zeros((3, 3))) == 0
    point = np.zeros((3, 3))
    point[1, 1] = 1.0
    assert support_rank(point) == 0
    line = np.zeros((3, 3))
    line[1, :] = 1.0
    assert support_rank(line) == 1


def test_file_image_round_trip(tmp_path):
    from phasedr.io import load_pgm_pair, save_pgm_pair

    original = gen_image(ImageSpec(kind="tcb", shape=GridShape((8, 8)), margin=2))
    stem = tmp_path / "obj"
    save_pgm_pair(stem, original[2:-2, 2:-2])
    loaded = load_pgm_pair(stem)
    scale = max(np.abs(original).max(), 1.0)
    assert np.abs(loaded - original[2:-2, 2:-2]).max() < 2.0 * scale / 65535
