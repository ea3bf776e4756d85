"""Plain-text file formats: PGM image pairs, mask/data exports, CSV output.

Complex images travel as two ASCII PGM (P2, maxval 65535) files holding the
real and imaginary parts, linearly mapped onto the 16-bit range; the exact
ranges are recorded in a sidecar so the mapping inverts (up to quantization).
Masks and magnitude data use one-line-per-value text files with a short
header.  CSV files carry a `#` comment line recording the generating config.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535


def _write_pgm(path: Path, values: np.ndarray, lo: float, hi: float) -> None:
    if values.ndim != 2:
        raise ValueError("PGM export requires a 2-d grid")
    span = hi - lo
    if span > 0:
        pix = np.rint((values - lo) / span * PGM_MAXVAL).astype(int)
    else:
        pix = np.zeros(values.shape, dtype=int)
    rows = "\n".join(" ".join(str(v) for v in row) for row in pix)
    path.write_text(f"P2\n{values.shape[1]} {values.shape[0]}\n{PGM_MAXVAL}\n{rows}\n")


def _read_pgm(path: Path) -> np.ndarray:
    tokens = []
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM (P2) file")
    try:
        w, h, maxval = map(int, tokens[1:4])
    except ValueError:
        raise ValueError(f"{path}: PGM header needs integer width, height and maxval") from None
    if w < 1 or h < 1 or not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"{path}: PGM needs width and height >= 1 and maxval in [1, {PGM_MAXVAL}]")
    pix = np.array([int(t) for t in tokens[4 : 4 + w * h]], dtype=float)
    if pix.size != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, found {pix.size}")
    if pix.min() < 0 or pix.max() > maxval:
        raise ValueError(f"{path}: pixel values must lie in [0, {maxval}]")
    return pix.reshape(h, w) / maxval


def save_pgm_pair(stem: str | Path, grid: np.ndarray) -> tuple[Path, Path, Path]:
    """Write <stem>.re.pgm, <stem>.im.pgm and the <stem>.range.txt sidecar."""
    grid = np.asarray(grid, dtype=np.complex128)
    stem = Path(stem)
    re_path = stem.with_suffix(stem.suffix + ".re.pgm")
    im_path = stem.with_suffix(stem.suffix + ".im.pgm")
    meta_path = stem.with_suffix(stem.suffix + ".range.txt")
    ranges = {}
    for name, part, path in (("re", grid.real, re_path), ("im", grid.imag, im_path)):
        lo, hi = float(part.min()), float(part.max())
        ranges[name] = (lo, hi)
        _write_pgm(path, part, lo, hi)
    meta_path.write_text(
        "".join(f"{name}_min {lo!r}\n{name}_max {hi!r}\n" for name, (lo, hi) in ranges.items())
    )
    return re_path, im_path, meta_path


def load_pgm_pair(stem: str | Path) -> np.ndarray:
    """Inverse of :func:`save_pgm_pair` (lossy: 16-bit quantization).

    A malformed PGM (size, maxval outside [1, 65535], a pixel outside
    [0, maxval]), or a sidecar with a line other than "key float" or
    without all four range keys, raises ValueError naming the file.
    """
    stem = Path(stem)
    meta_path = stem.with_suffix(stem.suffix + ".range.txt")
    try:
        lines = map(str.split, meta_path.read_text().splitlines())
        meta = {key: float(value) for key, value in lines}
        ranges = [(meta[f"{name}_min"], meta[f"{name}_max"]) for name in ("re", "im")]
    except (KeyError, ValueError):
        raise ValueError(f"{meta_path}: range sidecar needs one 'key float' line for each of "
                         "re_min, re_max, im_min and im_max") from None
    out = []
    for name, (lo, hi) in zip(("re", "im"), ranges):
        unit = _read_pgm(stem.with_suffix(stem.suffix + f".{name}.pgm"))
        out.append(lo + unit * (hi - lo))
    return out[0] + 1j * out[1]


def _save_values(path: str | Path, tag: str, values: np.ndarray) -> None:
    """Header "TAG count", then one float repr per line."""
    values = np.asarray(values, dtype=np.float64).ravel()
    lines = [f"{tag} {values.size}"] + [repr(float(v)) for v in values]
    Path(path).write_text("\n".join(lines) + "\n")


def _load_values(path: str | Path, tag: str, kind: str) -> np.ndarray:
    tokens = Path(path).read_text().split()
    if not tokens or tokens[0] != tag:
        raise ValueError(f"{path}: not a {kind} file")
    try:
        count = int(tokens[1])
    except (IndexError, ValueError):
        raise ValueError(
            f"{path}: {kind} header needs an integer value count after {tag}") from None
    values = np.array([float(t) for t in tokens[2 : 2 + count]])
    if values.size != count:
        raise ValueError(f"{path}: expected {count} values, found {values.size}")
    return values


def save_mask(path: str | Path, phases: np.ndarray) -> None:
    """Mask export: header "PHASES n", then n phase values (radians, row-major)."""
    _save_values(path, "PHASES", phases)


def load_mask(path: str | Path) -> np.ndarray:
    return _load_values(path, "PHASES", "mask")


def save_data(path: str | Path, b: np.ndarray) -> None:
    """Magnitude-data export: header "B N", then N nonnegative values."""
    _save_values(path, "B", b)


def load_data(path: str | Path) -> np.ndarray:
    return _load_values(path, "B", "data")


def write_csv(path: str | Path, header: list[str], rows, config_comment: str) -> Path:
    """Write rows with a header line after a leading `#` config comment."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# {config_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]], str]:
    """Read back a CSV written by :func:`write_csv`."""
    comment = ""
    rows: list[list[str]] = []
    with Path(path).open() as fh:
        for line in fh:
            if line.startswith("#"):
                comment = line[1:].strip()
                continue
            rows.append(next(csv.reader([line])))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:], comment
