"""Tests for masks, propagation operators, extensions and data synthesis."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from phasedr import forward, grids
from phasedr.forward import (
    MASK_IDENTITY,
    MASK_UNIFORM,
    VARIANT_MULTI,
    VARIANT_ONE_AND_HALF,
    VARIANT_ONE_MASK,
    VARIANT_TWO_MASK,
    PropagationOp,
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_mask,
    make_operator,
    synthesize_data,
)
from phasedr.grids import GridShape
from phasedr.solvers import NO_SECTOR, odr_step

from blas_probe import outputs_under_blas_threads
from oracles import (
    _flat_layout,
    dense_astar,
    dense_extended_astar,
    naive_dft_matrix,
    per_pattern_a,
    per_pattern_astar,
    per_pattern_extended_astar,
    per_pattern_lift,
    per_pattern_lifted_a,
    per_pattern_unlift,
    proj_p2,
    project_object_set,
    random_complex,
)

VARIANTS = [VARIANT_ONE_MASK, VARIANT_ONE_AND_HALF, VARIANT_TWO_MASK, VARIANT_MULTI]
SHAPES = [GridShape((2, 2)), GridShape((3, 3)), GridShape((4, 4)), GridShape((2, 3))]


def _op(variant, shape, seed=0):
    return make_operator(variant, shape, seed=seed, patterns=3)


def test_identity_mask_is_all_zero_phases():
    m = make_mask(GridShape((2, 2)), MASK_IDENTITY, 99)
    assert np.array_equal(m.phases, np.zeros(4))
    assert np.array_equal(m.values, np.ones(4, dtype=complex))


def test_mask_determinism_bit_exact():
    s = GridShape((3, 3))
    a = make_mask(s, MASK_UNIFORM, 7)
    b = make_mask(s, MASK_UNIFORM, 7)
    assert np.array_equal(a.phases, b.phases)
    c = make_mask(s, MASK_UNIFORM, 8)
    assert not np.array_equal(a.phases, c.phases)


def test_mask_phase_mean_regression():
    # Frozen sanity statistic: well-spread phases have small resultant.
    m = make_mask(GridShape((4, 4)), MASK_UNIFORM, 7)
    resultant = abs(np.mean(np.exp(1j * m.phases)))
    assert resultant < 0.5
    assert abs(resultant - 0.11810515001659523) < 1e-12


def test_unknown_mask_kind():
    with pytest.raises(ValueError):
        make_mask(GridShape((2, 2)), "amplitude", 0)


def test_pattern_counts_and_lengths():
    s = GridShape((3, 3))
    assert _op(VARIANT_ONE_MASK, s).N == 25
    assert _op(VARIANT_ONE_AND_HALF, s).N == 50
    assert _op(VARIANT_TWO_MASK, s).N == 50
    op = make_operator(VARIANT_MULTI, s, patterns=4)
    assert op.N == 4 * s.n
    assert op.masks[-1].kind == MASK_IDENTITY
    assert all(m.kind == MASK_UNIFORM for m in op.masks[:-1])


@pytest.mark.parametrize("variant", VARIANTS)
def test_patterns_share_one_grid(variant):
    s = GridShape((3, 4))
    op = _op(variant, s)
    assert op.grid == (s if variant == VARIANT_MULTI else GridShape((5, 7)))
    assert op.N == len(op.masks) * op.grid.n
    assert op.c == 1.0 / np.sqrt(op.N)


def test_one_and_half_has_one_plain_pattern():
    op = _op(VARIANT_ONE_AND_HALF, GridShape((3, 3)))
    assert op.masks[0].kind == MASK_UNIFORM
    assert op.masks[1].kind == MASK_IDENTITY


def test_delta_object_identity_mask_constant_modulus():
    s = GridShape((3, 3))
    op = make_operator(VARIANT_MULTI, s, patterns=2)
    x = np.zeros(s.n, dtype=complex)
    x[0] = 1.0
    # plain pattern block of A* delta has modulus c everywhere
    y = apply_astar(op, x)
    assert np.allclose(np.abs(y[s.n :]), op.c, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_isometry_all_variants(variant, shape):
    rng = np.random.default_rng(5)
    for seed in range(5):
        op = _op(variant, shape, seed=seed)
        x = random_complex(rng, op.n)
        assert abs(np.linalg.norm(apply_astar(op, x)) - np.linalg.norm(x)) < 1e-10
        assert np.linalg.norm(apply_a(op, apply_astar(op, x)) - x) < 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_isometry_fifty_mask_seeds(variant):
    shape = GridShape((3, 3))
    rng = np.random.default_rng(6)
    for seed in range(50):
        op = _op(variant, shape, seed=seed)
        x = random_complex(rng, op.n)
        assert np.linalg.norm(apply_a(op, apply_astar(op, x)) - x) < 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_against_dense_oracle(variant, shape):
    rng = np.random.default_rng(17)
    op = _op(variant, shape, seed=3)
    dense = dense_astar(op)
    x = random_complex(rng, op.n)
    y = random_complex(rng, op.N)
    assert np.abs(apply_astar(op, x) - dense @ x).max() < 1e-10
    assert np.abs(apply_a(op, y) - dense.conj().T @ y).max() < 1e-10


def test_adjoint_identity():
    rng = np.random.default_rng(23)
    op = _op(VARIANT_ONE_AND_HALF, GridShape((3, 3)), seed=1)
    for _ in range(10):
        x = random_complex(rng, op.n)
        y = random_complex(rng, op.N)
        assert abs(np.vdot(apply_astar(op, x), y) - np.vdot(x, apply_a(op, y))) < 1e-10


def test_two_mask_second_pattern_block():
    # Support on pattern 2 only: A y is the conjugate-mask-weighted inverse DFT
    # of that block alone.
    s = GridShape((3, 3))
    op = _op(VARIANT_TWO_MASK, s, seed=9)
    rng = np.random.default_rng(31)
    block = random_complex(rng, s.n_oversampled)
    y = np.concatenate([np.zeros(s.n_oversampled, dtype=complex), block])
    phi = naive_dft_matrix(s, oversampled=True)
    expected = op.c * np.conj(op.masks[1].values) * (phi.conj().T @ block)
    assert np.abs(apply_a(op, y) - expected).max() < 1e-10


def test_length_mismatch_errors():
    op = _op(VARIANT_ONE_MASK, GridShape((2, 2)))
    with pytest.raises(ValueError):
        apply_astar(op, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        apply_a(op, np.zeros(op.N + 1, dtype=complex))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dims", [(3, 3), (40, 40), (2, 3, 4)], ids=["3x3", "40x40", "2x3x4"])
def test_extend_op_trivial(variant, dims):
    # At ntilde = n the extension is A* itself, on a dense grid, an FFT
    # grid (40x40) and a 3-D grid: A~* of the lift mu x gives A*'s bits,
    # and U A~ y is the lift of A y, to roundoff.
    op = _op(variant, GridShape(dims))
    ext = extend_op(op, op.n)
    rng = np.random.default_rng(2)
    x, y = random_complex(rng, op.n), random_complex(rng, op.N)
    assert extended_astar(ext, per_pattern_lift(ext, x)).tobytes() == apply_astar(op, x).tobytes()
    want = apply_a(op, y)
    assert np.linalg.norm(per_pattern_unlift(ext, extended_a(ext, y)) - want) <= (
        1e-12 * np.linalg.norm(want))


def test_extend_one_mask_full_is_unitary():
    op = _op(VARIANT_ONE_MASK, GridShape((3, 3)), seed=4)
    ext = extend_op(op, op.N)
    rng = np.random.default_rng(3)
    y = random_complex(rng, op.N)
    assert np.linalg.norm(extended_astar(ext, extended_a(ext, y)) - y) < 1e-10


# (variant, patterns): the four layouts, multi without its plain pattern
EXT_LAYOUTS = [(VARIANT_ONE_MASK, 3), (VARIANT_ONE_AND_HALF, 3), (VARIANT_TWO_MASK, 3),
               (VARIANT_MULTI, 3), (VARIANT_MULTI, 4)]
EXT_SHAPES = [GridShape((5,)), GridShape((2, 3)), GridShape((2, 3, 2))]
EXT_CASES = pytest.mark.parametrize(
    "variant, patterns, shape",
    [(v, p, s) for v, p in EXT_LAYOUTS for s in EXT_SHAPES],
    ids=[f"{v}{':' + str(p) if v == VARIANT_MULTI else ''}-{s.ndim}d"
         for v, p in EXT_LAYOUTS for s in EXT_SHAPES],
)


def _ext_op(variant, patterns, shape):
    if variant != VARIANT_MULTI:
        return make_operator(variant, shape, seed=5)
    masks = tuple(make_mask(shape, MASK_UNIFORM, 5 + k) for k in range(patterns))
    return PropagationOp(variant=VARIANT_MULTI, shape=shape, masks=masks)


@EXT_CASES
def test_extension_gram_matrix(variant, patterns, shape):
    op = _ext_op(variant, patterns, shape)
    rng = np.random.default_rng(6)
    for ntilde in (op.n + 3, (op.n + op.N) // 2, op.N):
        ext = extend_op(op, ntilde)
        dense = dense_extended_astar(ext)
        assert np.abs(dense.conj().T @ dense - np.eye(ntilde)).max() < 1e-10
        assert np.abs(dense[:, : op.n] - dense_astar(op)).max() < 1e-10
        x = random_complex(rng, ntilde)
        assert np.linalg.norm(extended_astar(ext, per_pattern_lift(ext, x)) - dense @ x) < 1e-10
        y = random_complex(rng, op.N)
        assert np.linalg.norm(per_pattern_unlift(ext, extended_a(ext, y))
                              - dense.conj().T @ y) < 1e-10


@EXT_CASES
def test_extension_orthogonality_relations(variant, patterns, shape):
    op = _ext_op(variant, patterns, shape)
    rng = np.random.default_rng(8)
    for ntilde in (op.n + 1, (op.n + op.N) // 2, op.N):
        ext = extend_op(op, ntilde)
        # A A_perp* = 0
        t = random_complex(rng, ntilde)
        t[: op.n] = 0.0
        assert np.linalg.norm(apply_a(op, extended_astar(ext, per_pattern_lift(ext, t)))) < 1e-10
        # A~ A* x = [x; 0]: A A* = I and A_perp A* = 0
        x = random_complex(rng, op.n)
        padded = np.pad(x, (0, ntilde - op.n))
        got = per_pattern_unlift(ext, extended_a(ext, apply_astar(op, x)))
        assert np.linalg.norm(got - padded) < 1e-10
        # A~ A~* = I on C^ntilde
        z = random_complex(rng, ntilde)
        got = per_pattern_unlift(ext, extended_a(ext, extended_astar(ext, per_pattern_lift(ext, z))))
        assert np.linalg.norm(got - z) < 1e-10


# Extensions transform only the compact block of their live rows and
# columns.  Checked against the dense oracle on dense grids: 16x16 (a 31x31
# grid), a 1-D and a 3-D grid.  The layout cases add 17x16, whose 33-point
# axis runs FFT passes.
PRUNED_CASES = [(VARIANT_ONE_AND_HALF, GridShape((16, 16))), (VARIANT_TWO_MASK, GridShape((12,))),
                (VARIANT_TWO_MASK, GridShape((3, 4, 5)))]
LAYOUT_CASES = PRUNED_CASES + [(VARIANT_ONE_AND_HALF, GridShape((17, 16)))]


@lru_cache(maxsize=None)
def _full_extension(variant, shape):
    """The operator and the dense N x N oracle of its full extension, whose
    leading ntilde columns are the oracle of every smaller one."""
    op = make_operator(variant, shape, seed=11)
    return op, dense_extended_astar(extend_op(op, op.N))


def _ntildes(op):
    L = len(op.masks)
    return sorted({op.n, op.n + 7, L * op.n - 1, L * op.n, min(4 * op.n, op.N), op.N - 1})


@pytest.mark.parametrize("variant, shape", PRUNED_CASES, ids=lambda v: str(v))
def test_pruned_extension_matches_dense_oracle(variant, shape):
    op, dense = _full_extension(variant, shape)
    rng = np.random.default_rng(21)
    b = np.abs(apply_astar(op, random_complex(rng, op.n)))

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for ntilde in _ntildes(op):
        ext, D = extend_op(op, ntilde), dense[:, :ntilde]
        x, y = random_complex(rng, ntilde), random_complex(rng, op.N)
        h = per_pattern_lift(ext, x)
        assert close(extended_astar(ext, h), D @ x)
        assert close(per_pattern_unlift(ext, extended_a(ext, y)), D.conj().T @ y)
        z = D.conj().T @ proj_p2(D @ x, b)
        assert close(per_pattern_unlift(ext, odr_step(h, ext, b)),
                     x + project_object_set(2.0 * z - x, op.n, NO_SECTOR) - z)
    if shape.dims == (16, 16):
        # At 4n the live pixels fill rows 0..18, 28..30 and columns 0..19, 27..30.
        index = extend_op(op, 4 * op.n).layout[1]
        assert index == ((*range(19), 28, 29, 30), (*range(20), 27, 28, 29, 30))


@pytest.mark.parametrize("variant, shape", LAYOUT_CASES, ids=lambda v: str(v))
def test_compact_layout_agrees_with_flat_layout(variant, shape):
    op = make_operator(variant, shape, seed=11)
    L = len(op.masks)
    for ntilde in _ntildes(op):
        ext = extend_op(op, ntilde)
        grid, index, block, tail = ext.layout
        _, obj, flat_tail = _flat_layout(ext)
        # grid position of each compact cell
        cells = np.ravel_multi_index(np.ix_(*index), grid.dims)
        size = cells.size
        assert np.array_equal(cells[block[1:]].ravel(), obj)
        padded = flat_tail[(L - 1) * op.n :]
        assert np.array_equal(cells.ravel()[tail % size] + grid.n * (tail // size), padded)
        live = np.unravel_index(np.union1d(obj, padded % grid.n), grid.dims)
        assert index == tuple(tuple(np.unique(p).tolist()) for p in live)


def test_extend_op_range_errors():
    op = _op(VARIANT_ONE_MASK, GridShape((2, 2)))
    with pytest.raises(ValueError):
        extend_op(op, op.n - 1)
    with pytest.raises(ValueError):
        extend_op(op, op.N + 1)


def test_extend_op_rejects_a_missing_range_projection(monkeypatch):
    # Without P_U, A~ A~* = I and A A~* = [I 0] still hold on the whole
    # compact block; the trace of P_U, ntilde, is what shows it missing.
    op = _op(VARIANT_ONE_AND_HALF, GridShape((8, 8)))
    ntildes = (op.n + 3, 4 * op.n, op.N - 1)
    for ntilde in ntildes:
        extend_op(op, ntilde)
    monkeypatch.setattr(forward.ExtendedPlan, "restrict", lambda self, rows: None)
    monkeypatch.setattr(forward.ExtendedPlan, "project_cut", lambda self: None)
    for ntilde in ntildes:
        with pytest.raises(RuntimeError, match="trace of P_U"):
            extend_op(op, ntilde)


def test_extend_op_determinism():
    # The extension is canonical: two builds are identical.
    op = _op(VARIANT_ONE_AND_HALF, GridShape((3, 3)), seed=5)
    ntilde = (op.n + op.N) // 2
    a, b = extend_op(op, ntilde), extend_op(op, ntilde)
    assert a.layout[:3] == b.layout[:3]
    for u, v in zip(a.layout[3:] + a.householder, b.layout[3:] + b.householder):
        assert np.array_equal(u, v)
    rng = np.random.default_rng(9)
    x = per_pattern_lift(a, random_complex(rng, ntilde))
    y = random_complex(rng, op.N)
    assert np.array_equal(extended_astar(a, x), extended_astar(b, x))
    assert np.array_equal(extended_a(a, y), extended_a(b, y))


def test_extend_op_memory_is_linear():
    # The complement is matrix-free: at 128x128 a dense N x (ntilde - n)
    # basis would take 100 GB; the extension holds a few vectors.
    op = make_operator(VARIANT_ONE_AND_HALF, GridShape((128, 128)), seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ext = extend_op(op, 4 * op.n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ext.ntilde == 4 * op.n
    assert held < 64 * op.N, f"extension holds {held} bytes, N = {op.N}"


def test_synthesize_noiseless_exact():
    op = _op(VARIANT_ONE_AND_HALF, GridShape((3, 3)), seed=2)
    rng = np.random.default_rng(4)
    x0 = random_complex(rng, op.n)
    data = synthesize_data(op, x0)
    assert np.array_equal(data.b, np.abs(apply_astar(op, x0)))


def test_synthesize_noise_scaling_exact():
    op = _op(VARIANT_TWO_MASK, GridShape((3, 3)), seed=2)
    rng = np.random.default_rng(4)
    x0 = random_complex(rng, op.n)
    b0 = np.abs(apply_astar(op, x0))
    data = synthesize_data(op, x0, nsr=0.1, noise_seed=77)
    # regenerate the documented noise draw and verify the exact NSR scaling
    # (both norms summed without BLAS, as synthesize_data sums them)
    eps = np.random.default_rng(77).standard_normal(op.N)
    eps *= 0.1 * grids._norm(b0) / grids._norm(eps)
    assert abs(np.linalg.norm(eps) / np.linalg.norm(b0) - 0.1) < 1e-12
    assert np.array_equal(data.b, np.maximum(b0 + eps, 0.0))
    assert np.all(data.b >= 0)


# Noisy data on a 128x128 one-and-half operator (N = 130050), whose norms
# are long enough for OpenBLAS to split them over threads; prints a digest
# of b's bytes.
_NOISE_PROBE = """
import hashlib
import numpy as np
from phasedr.forward import make_operator, synthesize_data
from phasedr.grids import GridShape
op = make_operator("one-and-half", GridShape((128, 128)), seed=3)
rng = np.random.default_rng(5)
x0 = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
b = synthesize_data(op, x0, nsr=0.1, noise_seed=7).b
print(b.size, hashlib.sha256(b.tobytes()).hexdigest())
"""


def test_noise_does_not_depend_on_blas_threads():
    outputs = outputs_under_blas_threads(_NOISE_PROBE)
    assert outputs[0].split()[0] == "130050"
    assert outputs[0] == outputs[1]


def test_synthesize_determinism():
    op = _op(VARIANT_ONE_AND_HALF, GridShape((3, 3)), seed=2)
    rng = np.random.default_rng(4)
    x0 = random_complex(rng, op.n)
    a = synthesize_data(op, x0, nsr=0.05, noise_seed=3)
    b = synthesize_data(op, x0, nsr=0.05, noise_seed=3)
    assert np.array_equal(a.b, b.b)


def test_delta_object_identity_masks_constant_b():
    s = GridShape((2, 2))
    op = make_operator(VARIANT_MULTI, s, patterns=2, seed=0)
    # use the plain block: delta through the plain DFT has |.| = c
    x0 = np.zeros(s.n, dtype=complex)
    x0[0] = 1.0
    data = synthesize_data(op, x0)
    assert np.allclose(data.b[s.n :], op.c, atol=1e-14)


def test_bad_variant():
    with pytest.raises(ValueError):
        make_operator("three-mask", GridShape((2, 2)))


def _bits(v):
    return np.ascontiguousarray(v).view(np.float64)


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [GridShape((4, 4)), GridShape((2, 3, 4))], ids=str)
def test_stacked_operators_match_per_pattern_loop_bitwise(variant, shape, threaded, monkeypatch):
    if threaded:
        monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
    op = _op(variant, shape, seed=6)
    rng = np.random.default_rng(31)
    x = random_complex(rng, op.n)
    y = random_complex(rng, op.N)
    astar = apply_astar(op, x)
    assert astar.shape == (op.N,) and astar.flags.owndata
    assert np.array_equal(_bits(astar), _bits(per_pattern_astar(op, x)))
    assert np.array_equal(_bits(apply_a(op, y)), _bits(per_pattern_a(op, y)))

    ext = extend_op(op, min(4 * op.n, op.N))
    xt = random_complex(rng, ext.ntilde)
    assert np.array_equal(_bits(extended_astar(ext, per_pattern_lift(ext, xt))),
                          _bits(per_pattern_extended_astar(ext, xt)))
    assert np.array_equal(_bits(extended_a(ext, y)), _bits(per_pattern_lifted_a(ext, y)))


# Dense 8x8, FFT 20x18 and pooled 64x64 grids.
@pytest.mark.parametrize("shape", [GridShape((8, 8)), GridShape((20, 18)), GridShape((64, 64))],
                         ids=str)
def test_astar_after_a_on_one_plan_matches_a_fresh_plan(shape):
    # A's inverse passes overwrite the plan's work stack; A*'s forward
    # passes, which pad in their output, must not read anything left there.
    # A held plan runs its transforms on its own buffers: it copies a
    # foreign argument in, A* returns the plan's flat itself, and A given
    # that buffer copies nothing, all with a fresh plan's bits.
    op = _op(VARIANT_ONE_AND_HALF, shape, seed=7)
    rng = np.random.default_rng(32)
    x, y = random_complex(rng, op.n), random_complex(rng, op.N)
    y_in = y.copy()
    plan = forward.OperatorPlan(op)
    assert plan.forward.dense == (shape.n == 64)
    assert (len(plan.inverse.groups) > 1) == (shape.n == 64 * 64)
    want_astar, want_a = apply_astar(op, x), apply_a(op, y)
    for _ in range(2):
        apply_a(op, y, plan=plan)
        assert apply_astar(op, x, plan=plan) is plan.flat
        assert np.array_equal(_bits(plan.flat), _bits(want_astar))
        assert np.array_equal(_bits(apply_a(op, y, plan=plan)), _bits(want_a))
        plan.flat[:] = y
        assert np.array_equal(_bits(apply_a(op, plan.flat, plan=plan)), _bits(want_a))
    assert np.array_equal(_bits(y), _bits(y_in))
    # A before hook fills the plan's flat, so it comes only with that buffer.
    with pytest.raises(ValueError, match="before hook"):
        apply_a(op, y, before=lambda rows: None, plan=plan)

    ext = extend_op(op, 4 * op.n)
    want_h = extended_a(ext, y)
    want_y = extended_astar(ext, want_h)
    want_back = extended_a(ext, want_y)
    ext_plan = forward.ExtendedPlan(ext)
    for _ in range(2):
        h = extended_a(ext, y, plan=ext_plan)
        assert np.array_equal(_bits(h), _bits(want_h))
        got = extended_astar(ext, h, plan=ext_plan)
        assert np.array_equal(_bits(got), _bits(want_y))
        # A~ of A~*'s result, which is the plan's y
        assert np.array_equal(_bits(extended_a(ext, got, plan=ext_plan)), _bits(want_back))
    assert np.array_equal(_bits(y), _bits(y_in))


@pytest.mark.parametrize("call, match", [
    # extended_astar takes a lift, not the ntilde coordinates it lifts
    (lambda op, ext: extended_astar(ext, np.zeros(ext.ntilde, complex)), "extended_astar"),
    (lambda op, ext: extended_a(ext, np.zeros(op.N - 1, complex)), "extended_a"),
    (lambda op, ext: make_operator(VARIANT_MULTI, op.shape, patterns=1), "2 patterns"),
    (lambda op, ext: synthesize_data(op, np.ones(op.n), nsr=-0.1), "nsr"),
    (lambda op, ext: synthesize_data(op, np.ones(op.n), nsr=np.nan), "nsr"),
], ids=["extended-astar-length", "extended-a-length", "multi-one-pattern", "negative-nsr",
        "nan-nsr"])
def test_argument_errors(call, match):
    op = _op(VARIANT_ONE_AND_HALF, GridShape((2, 2)))
    with pytest.raises(ValueError, match=match):
        call(op, extend_op(op, op.n + 1))


@pytest.mark.parametrize("name, build", [
    ("apply_a", lambda op: make_operator(op.variant, op.shape)),
    ("extended_a", lambda op: extend_op(op, op.n + 1)),
], ids=["isometry", "extension"])
def test_construction_check_catches_a_broken_map(name, build, monkeypatch):
    op = _op(VARIANT_ONE_AND_HALF, GridShape((2, 2)))
    original = getattr(forward, name)
    monkeypatch.setattr(forward, name, lambda *args, **kwargs: 2 * original(*args, **kwargs))
    with pytest.raises(RuntimeError):
        build(op)


def test_construction_check_catches_a_normalization_off_by_a_millionth():
    # c off by 1e-6 puts AA* off the identity by 2e-6, far above roundoff.
    op = make_operator(VARIANT_ONE_AND_HALF, GridShape((4, 4)))
    op.__dict__["c"] = op.c * (1 + 1e-6)  # the cached property's value
    with pytest.raises(RuntimeError, match="normalization"):
        forward._verify_isometry(op)
