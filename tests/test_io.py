"""Tests for the plain-text file formats."""

import re

import numpy as np
import pytest

from phasedr.io import (
    load_data,
    load_mask,
    load_pgm_pair,
    read_csv,
    save_data,
    save_mask,
    save_pgm_pair,
    write_csv,
)


def test_pgm_pair_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    stem = tmp_path / "img"
    re_p, im_p, meta_p = save_pgm_pair(stem, grid)
    assert re_p.exists() and im_p.exists() and meta_p.exists()
    assert re_p.read_text().startswith("P2\n4 6\n65535\n")
    loaded = load_pgm_pair(stem)
    # 16-bit quantization within each part's recorded range
    for part in (np.real, np.imag):
        span = part(grid).max() - part(grid).min()
        assert np.abs(part(loaded) - part(grid)).max() <= span / 65535 * 0.51


def test_pgm_constant_part(tmp_path):
    grid = np.full((3, 3), 2.5 + 0j)
    stem = tmp_path / "flat"
    save_pgm_pair(stem, grid)
    loaded = load_pgm_pair(stem)
    assert np.allclose(loaded, grid, atol=0)


def test_pgm_requires_2d(tmp_path):
    with pytest.raises(ValueError):
        save_pgm_pair(tmp_path / "bad", np.zeros(5, dtype=complex))


def test_mask_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    phases = rng.uniform(0, 2 * np.pi, 12)
    path = tmp_path / "mask.txt"
    save_mask(path, phases)
    assert path.read_text().startswith("PHASES 12\n")
    assert np.array_equal(load_mask(path), phases)


def test_data_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    b = np.abs(rng.standard_normal(9))
    path = tmp_path / "data.txt"
    save_data(path, b)
    assert path.read_text().startswith("B 9\n")
    assert np.array_equal(load_data(path), b)


def test_bad_headers(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("NOPE 3\n1 2 3\n")
    with pytest.raises(ValueError):
        load_mask(p)
    with pytest.raises(ValueError):
        load_data(p)


@pytest.mark.parametrize("load, tag", [(load_mask, "PHASES"), (load_data, "B")])
@pytest.mark.parametrize("count", ["", " 2.5", " two"])
def test_header_without_integer_count(tmp_path, load, tag, count):
    # A tag-only file and a non-integer count are malformed headers like a
    # wrong tag: a ValueError naming the file, not IndexError or a bare int().
    p = tmp_path / "values.txt"
    p.write_text(f"{tag}{count}\n1.0\n2.0\n")
    with pytest.raises(ValueError, match=re.escape(str(p))):
        load(p)


@pytest.mark.parametrize("header", ["P2\n", "P2\n3 2\n", "P2\n3 two 255\n", "P2\n3 2 1.5\n"])
def test_pgm_header_without_integer_fields(tmp_path, header):
    # A PGM header short of an integer width, height or maxval is malformed
    # like a wrong magic: a ValueError naming the file, not an IndexError.
    stem = tmp_path / "img"
    save_pgm_pair(stem, np.ones((2, 3), dtype=complex))
    bad = tmp_path / "img.re.pgm"
    bad.write_text(header)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        load_pgm_pair(stem)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out" / "rows.csv"
    rows = [[0, "fdr", 1, 0.5], [0, "fdr", 2, 0.25]]
    write_csv(path, ["trial", "algo", "k", "err"], rows, config_comment="seed=3 shape=4x4")
    header, body, comment = read_csv(path)
    assert header == ["trial", "algo", "k", "err"]
    assert comment == "seed=3 shape=4x4"
    assert body == [["0", "fdr", "1", "0.5"], ["0", "fdr", "2", "0.25"]]
