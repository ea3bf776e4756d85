"""Forward models: masks, stacked masked DFTs, isometry, and file exports.

Walks through building each measurement layout, checks the isometry
A A* = I numerically, synthesizes noisy magnitude data at an exact
noise-to-signal ratio, and round-trips the text file formats.

Run:  python3 demos/01_forward_model.py      (writes into demo_out/)
"""

import pathlib

import numpy as np

from phasedr import (
    GridShape,
    ImageSpec,
    apply_a,
    apply_astar,
    gen_image,
    make_mask,
    make_operator,
    synthesize_data,
)
from phasedr.io import load_data, load_mask, save_data, save_mask, save_pgm_pair

out = pathlib.Path("demo_out")
out.mkdir(exist_ok=True)

shape = GridShape((8, 8))
print(f"object grid {shape} -> n = {shape.n}, oversampled {shape.oversampled_dims}"
      f" -> {shape.n_oversampled} frequency samples per pattern")

# A seeded random phase mask is reproducible bit for bit.
mask = make_mask(shape, "uniform-circle", seed=7)
assert np.array_equal(mask.phases, make_mask(shape, "uniform-circle", seed=7).phases)
save_mask(out / "mask.txt", mask.phases)
print(f"mask: {mask.kind}, first phases {np.round(mask.phases[:3], 4)}, "
      f"round-trip ok: {np.array_equal(load_mask(out / 'mask.txt'), mask.phases)}")

# Every layout is normalized to an isometry.
rng = np.random.default_rng(0)
x = rng.standard_normal(shape.n) + 1j * rng.standard_normal(shape.n)
for variant in ["one-mask", "one-and-half", "two-mask", "multi"]:
    op = make_operator(variant, shape, seed=7, patterns=4)
    y = apply_astar(op, x)
    err = np.linalg.norm(apply_a(op, y) - x)
    print(f"  {variant:13s} N = {op.N:4d}  pattern grid {op.grid}  "
          f"|A(A*x) - x| = {err:.2e}")

# Magnitude data with an exact 5% noise-to-signal ratio.
img = gen_image(ImageSpec(kind="rpp", shape=shape, margin=1, seed=3))
x0 = img.ravel() / np.linalg.norm(img)
op = make_operator("one-and-half", shape, seed=7)
clean = synthesize_data(op, x0)
noisy = synthesize_data(op, x0, nsr=0.05, noise_seed=11)
print(f"data: N = {clean.b.size}, ||b|| = {np.linalg.norm(clean.b):.4f} (= ||x0||), "
      f"noisy deviation = {np.linalg.norm(noisy.b - clean.b) / np.linalg.norm(clean.b):.4f}")

save_data(out / "data.txt", noisy.b)
print(f"data file round-trip ok: {np.array_equal(load_data(out / 'data.txt'), noisy.b)}")

paths = save_pgm_pair(out / "object", img)
print(f"image exported as PGM pair: {paths[0].name}, {paths[1].name} (+ range sidecar)")
