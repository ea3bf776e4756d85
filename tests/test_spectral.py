"""Tests for the linearization and singular-structure machinery."""

import tracemalloc

import numpy as np
import pytest

import phasedr.spectral as spectral
from phasedr.forward import OperatorPlan, apply_astar, make_operator
from phasedr.grids import GridShape, realify, unrealify
from phasedr.images import ImageSpec, gen_image
from phasedr.solvers import fdr_step
from phasedr.spectral import (
    apply_Sloc,
    apply_realB,
    apply_realB_T,
    check_gap_condition,
    dense_B,
    lambda2_power,
    linearize_at_solution,
    svd_oracle,
)

from blas_probe import outputs_under_blas_threads
from oracles import dense_astar, fd_jacobian_residual, random_complex


def _instance(dims=(3, 3), variant="one-and-half", mask_seed=5, img_seed=3, margin=1):
    shape = GridShape(dims)
    img = gen_image(ImageSpec(kind="rpp", shape=shape, margin=margin, seed=img_seed))
    x0 = img.ravel()
    x0 = x0 / np.linalg.norm(x0)
    op = make_operator(variant, shape, seed=mask_seed)
    return op, x0, linearize_at_solution(op, x0)


def _B(pt, op, v):
    """B v for a complex v from the real form: B is complex-linear."""
    return unrealify(apply_realB(pt, op, v.real)) + 1j * unrealify(apply_realB(pt, op, v.imag))


def _Bstar(pt, op, u):
    """B* u from the transpose of the real form: its real part is
    B_r^T G(u) and its imaginary part B_r^T G(-i u)."""
    return apply_realB_T(pt, op, realify(u)) + 1j * apply_realB_T(pt, op, realify(-1j * u))


class TestBOperator:
    def test_Bstar_of_solution_is_data(self):
        op, x0, pt = _instance()
        out = _Bstar(pt, op, x0)
        assert np.abs(out.imag).max() < 1e-12
        assert np.all(out.real >= -1e-12)
        assert np.allclose(out.real, pt.b, atol=1e-12)

    def test_BBstar_identity(self):
        op, _, pt = _instance()
        rng = np.random.default_rng(2)
        u = random_complex(rng, op.n)
        assert np.linalg.norm(_B(pt, op, _Bstar(pt, op, u)) - u) < 1e-10

    def test_matches_dense_B(self):
        op, _, pt = _instance()
        dense = dense_astar(op).conj().T * pt.omega[None, :]
        rng = np.random.default_rng(3)
        v = random_complex(rng, op.N)
        u = random_complex(rng, op.n)
        assert np.linalg.norm(_B(pt, op, v) - dense @ v) < 1e-10
        assert np.linalg.norm(_Bstar(pt, op, u) - dense.conj().T @ u) < 1e-10

    def test_dense_B_helper_agrees(self):
        op, _, pt = _instance()
        expected = dense_astar(op).conj().T * pt.omega[None, :]
        assert np.abs(dense_B(pt, op) - expected).max() < 1e-10

    def test_dense_B_rows_are_one_shot_adjoint_columns(self):
        # Row j of B = A diag(omega) is conj(A* e_j) . omega, bit for bit,
        # though dense_B applies A* through one plan for all n columns.
        op, _, pt = _instance()
        B = dense_B(pt, op)
        for j, e in enumerate(np.eye(op.n, dtype=complex)):
            assert np.array_equal(B[j], np.conj(apply_astar(op, e)) * pt.omega)


class TestRealForm:
    def test_realB_T_on_object(self):
        op, x0, pt = _instance()
        out = apply_realB_T(pt, op, realify(x0))
        assert np.allclose(out, pt.b, atol=1e-10)

    def test_realB_T_annihilates_rotated_object(self):
        op, x0, pt = _instance()
        out = apply_realB_T(pt, op, realify(-1j * x0))
        assert np.linalg.norm(out) < 1e-10

    def test_matches_dense_real_form(self):
        op, _, pt = _instance()
        B = dense_B(pt, op)
        realB = np.vstack([B.real, B.imag])
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2 * op.n)
        r = rng.standard_normal(op.N)
        assert np.linalg.norm(apply_realB_T(pt, op, u) - realB.T @ u) < 1e-10
        assert np.linalg.norm(apply_realB(pt, op, r) - realB @ r) < 1e-10

    def test_one_plan_gives_the_one_shot_bits(self):
        # lambda2_power hands one OperatorPlan to every B and B^T it applies,
        # and its Gram matvec hands apply_realB the plan's own buffer.
        op, _, pt = _instance(dims=(4, 5))
        plan = OperatorPlan(op)
        rng = np.random.default_rng(8)
        u, r = rng.standard_normal(2 * op.n), rng.standard_normal(op.N)
        for _ in range(2):
            for fn, v in ((apply_realB, r), (apply_realB_T, u)):
                got, want = fn(pt, op, v, plan=plan), fn(pt, op, v)
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
            got = apply_realB(pt, op, apply_realB_T(pt, op, u, plan), plan)
            want = apply_realB(pt, op, apply_realB_T(pt, op, u).copy())
            assert np.array_equal(got.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("fn", [apply_realB, apply_realB_T])
    @pytest.mark.parametrize("dims, mask_seed", [((4, 4), 2), ((3, 3), 1)],
                             ids=["other-masks", "other-shape"])
    def test_foreign_plan_is_refused_before_it_is_written(self, fn, dims, mask_seed):
        # A plan made for another operator raises an error naming the plan,
        # and its buffer keeps what it held.
        op = make_operator("one-and-half", GridShape((4, 4)), seed=1)
        pt = linearize_at_solution(op, random_complex(np.random.default_rng(4), op.n))
        plan = OperatorPlan(make_operator("one-and-half", GridShape(dims), seed=mask_seed))
        plan.flat[:] = random_complex(np.random.default_rng(5), plan.flat.size)
        held = plan.flat.copy()
        v = np.ones(op.N if fn is apply_realB else 2 * op.n)
        with pytest.raises(ValueError, match="plan: a OperatorPlan made for other arguments"):
            fn(pt, op, v, plan)
        assert np.array_equal(plan.flat, held)

    @pytest.mark.parametrize("side", [16, 64])
    def test_held_plan_gram_matvec_copies_no_N_vector(self, side):
        # A steady apply_realB(apply_realB_T(u)) on one plan allocates less
        # than one complex N-length vector: A* and the products stay in the
        # plan's flat, and A reads it in place.
        op = make_operator("one-and-half", GridShape((side, side)), seed=2)
        pt = linearize_at_solution(op, random_complex(np.random.default_rng(4), op.n))
        plan, u = OperatorPlan(op), np.random.default_rng(5).standard_normal(2 * op.n)
        for _ in range(2):
            apply_realB(pt, op, apply_realB_T(pt, op, u, plan), plan)
        tracemalloc.start()
        try:
            apply_realB(pt, op, apply_realB_T(pt, op, u, plan), plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * op.N

    def test_key_norm_identity(self):
        # |G(w)|^2 = |B^T G(w)|^2 + |B^T G(-iw)|^2 for every w
        op, _, pt = _instance()
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = random_complex(rng, op.n)
            total = np.linalg.norm(realify(w)) ** 2
            a = np.linalg.norm(apply_realB_T(pt, op, realify(w))) ** 2
            b = np.linalg.norm(apply_realB_T(pt, op, realify(-1j * w))) ** 2
            assert abs(total - (a + b)) < 1e-10


class TestSloc:
    def test_data_vector_relations(self):
        # S v1 = 0 and S(i v1) = i v1 for v1 = |y0|
        op, _, pt = _instance()
        v1 = pt.b.astype(complex)
        assert np.linalg.norm(apply_Sloc(pt, op, v1)) < 1e-10
        out = apply_Sloc(pt, op, 1j * v1)
        assert np.linalg.norm(out - 1j * v1) < 1e-10

    def test_B_compression(self):
        # B S v = i B Im(v)
        op, _, pt = _instance()
        B = dense_B(pt, op)
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = random_complex(rng, op.N)
            lhs = B @ apply_Sloc(pt, op, v)
            rhs = 1j * (B @ v.imag)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("variant,margin", [("one-and-half", 1), ("multi", 1),
                                                ("one-mask", 0)])
    def test_one_pass_form_matches_split_form(self, variant, margin):
        # Re(v) - B*B conj(v) is (I - B*B) Re(v) + i B*B Im(v) up to roundoff.
        op, _, pt = _instance(dims=(4, 4), variant=variant, margin=margin)
        B = dense_B(pt, op)
        gram = B.conj().T @ B
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = random_complex(rng, op.N)
            want = v.real - gram @ v.real + 1j * (gram @ v.imag)
            assert np.linalg.norm(apply_Sloc(pt, op, v) - want) <= 1e-14 * np.linalg.norm(v)

    def test_one_A_and_one_Astar_per_call(self, monkeypatch):
        op, x0, pt = _instance()
        calls = []
        for name in ("apply_a", "apply_astar"):
            def counted(*args, _real=getattr(spectral, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        apply_Sloc(pt, op, random_complex(np.random.default_rng(1), op.N))
        assert sorted(calls) == ["apply_a", "apply_astar"]
        calls.clear()
        check_gap_condition(pt, op, x0)
        assert calls == ["apply_astar"]

    def test_null_vectors_fixed_and_rotated_null_annihilated(self):
        op, _, pt = _instance()
        system = svd_oracle(pt, op)
        rng = np.random.default_rng(8)
        live = system.right[:, system.values > 1e-10]
        r = rng.standard_normal(op.N)
        v_null = r - live @ (live.T @ r)
        assert np.linalg.norm(apply_realB(pt, op, v_null)) < 1e-8
        v = v_null.astype(complex)
        assert np.linalg.norm(apply_Sloc(pt, op, v) - v_null) < 1e-8
        assert np.linalg.norm(apply_Sloc(pt, op, 1j * v)) < 1e-8

    def test_real_linear_not_complex_linear(self):
        op, _, pt = _instance()
        rng = np.random.default_rng(10)
        v = random_complex(rng, op.N)
        lhs = apply_Sloc(pt, op, 1j * v)
        rhs = 1j * apply_Sloc(pt, op, v)
        assert np.linalg.norm(lhs - rhs) > 1e-6

    def test_finite_difference_at_solution(self):
        op, x0, pt = _instance(dims=(4, 4))
        b = pt.b
        rng = np.random.default_rng(11)
        v = random_complex(rng, op.N)
        v /= np.linalg.norm(v)
        jac = pt.omega * apply_Sloc(pt, op, v)
        step = lambda y: fdr_step(y, op, b)
        resid = {
            eps: fd_jacobian_residual(step, pt.y, pt.omega * v, jac, eps)
            for eps in (1e-4, 1e-5, 1e-6)
        }
        # first-order decay: residual scales roughly linearly in eps
        assert resid[1e-5] <= resid[1e-4]
        assert resid[1e-6] <= resid[1e-4]
        assert resid[1e-4] < 1e-2


class TestSvdOracle:
    def test_extreme_singular_values(self):
        op, _, pt = _instance(dims=(4, 4))
        system = svd_oracle(pt, op)
        assert abs(system.values[0] - 1.0) < 1e-8
        assert system.values[-1] < 1e-8

    def test_pairing_identity(self):
        op, _, pt = _instance(dims=(4, 4))
        system = svd_oracle(pt, op)
        assert system.pairing_defect() < 1e-8

    def test_top_right_vector_is_data(self):
        op, _, pt = _instance(dims=(4, 4))
        system = svd_oracle(pt, op)
        v1 = system.right[:, 0]
        ref = pt.b / np.linalg.norm(pt.b)
        assert min(np.linalg.norm(v1 - ref), np.linalg.norm(v1 + ref)) < 1e-8

    def test_left_vector_rotation_symmetry(self):
        op, _, pt = _instance(dims=(4, 4))
        system = svd_oracle(pt, op)
        s = system.values
        for k in range(2 * op.n):
            mate = 2 * op.n - 1 - k
            if k >= mate:
                break
            gaps = [abs(s[k] - s[j]) for j in (k - 1, k + 1) if 0 <= j < 2 * op.n]
            if min(gaps) < 1e-6:
                continue  # identifiability: only simple singular values
            u_k = unrealify(system.left[:, k])
            expected = realify(-1j * u_k)
            got = system.left[:, mate]
            assert min(np.linalg.norm(got - expected), np.linalg.norm(got + expected)) < 1e-6

    def test_rotation_blocks(self):
        op, _, pt = _instance(dims=(4, 4))
        system = svd_oracle(pt, op)
        s = system.values
        two_n = 2 * op.n
        for k in range(two_n):
            mate = two_n - 1 - k
            if k >= mate:
                break
            neighbor_gap = min(
                abs(s[k] - s[j]) for j in (k - 1, k + 1) if 0 <= j < two_n
            )
            if neighbor_gap < 1e-6:
                continue
            lam, lam_mate = s[k], s[mate]
            # Fix the SVD sign ambiguity: orient the mate pair so that
            # u_mate = G(-i G^{-1}(u_k)) with a + sign.
            expected_mate = realify(-1j * unrealify(system.left[:, k]))
            sign = 1.0 if expected_mate @ system.left[:, mate] >= 0 else -1.0
            e1 = system.right[:, k].astype(complex)
            e2 = 1j * (sign * system.right[:, mate])
            s_e1 = apply_Sloc(pt, op, e1)
            s_e2 = apply_Sloc(pt, op, e2)
            # matrix entries in the real inner product on the basis {e1, e2}
            m = np.array([
                [np.real(np.vdot(e1, s_e1)), np.real(np.vdot(e1, s_e2))],
                [np.real(np.vdot(e2, s_e1)), np.real(np.vdot(e2, s_e2))],
            ])
            theta = np.arctan2(lam, lam_mate)
            rot = lam_mate * np.array(
                [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            )
            assert np.abs(m - rot).max() < 1e-6
            # eigenvalue magnitudes of the block equal lam_mate
            eig = np.linalg.eigvals(m)
            assert np.abs(np.abs(eig) - lam_mate).max() < 1e-6

    def test_size_guard(self):
        op, _, pt = _instance(dims=(4, 4))
        old = spectral.DENSE_GUARD
        spectral.DENSE_GUARD = 10
        try:
            with pytest.raises(ValueError):
                svd_oracle(pt, op)
        finally:
            spectral.DENSE_GUARD = old


LAYOUTS = [
    pytest.param("one-mask", 0, id="one-mask"),
    pytest.param("one-and-half", 1, id="one-and-half"),
    pytest.param("two-mask", 1, id="two-mask"),
    pytest.param("multi", 1, id="multi3"),
]


class TestLambda2Power:
    @pytest.mark.parametrize("dims", [(4, 4), (6, 6)], ids=["4x4", "6x6"])
    @pytest.mark.parametrize("variant,margin", LAYOUTS)
    def test_matches_svd(self, variant, margin, dims):
        # one-mask needs tight support for a gap (see the tests below)
        op, _, pt = _instance(dims=dims, variant=variant, margin=margin)
        system = svd_oracle(pt, op)
        report = lambda2_power(pt, op, tol=1e-10)
        assert report.converged and report.power_iters < 50_000
        assert abs(report.lambda2 - system.values[1]) < 1e-6
        assert report.residual <= 1e-8
        assert report.lambda1 == pytest.approx(1.0, abs=1e-8)
        assert report.lambda2n < 1e-8
        assert report.pairing_defect < 1e-10
        # interlacing: the next Ritz value never exceeds sigma_3
        assert report.next_ritz <= system.values[2] + 1e-12
        assert report.restarts == 0

    def test_counts_one_realB_per_matvec(self, monkeypatch):
        op, _, pt = _instance(dims=(6, 6))
        calls = []
        real = spectral.apply_realB

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(spectral, "apply_realB", counted)
        report = lambda2_power(pt, op)
        assert report.power_iters == len(calls) > 0

    def test_equal_seeds_give_identical_reports(self):
        op, _, pt = _instance(dims=(6, 6))
        first = lambda2_power(pt, op, seed=4)
        assert lambda2_power(pt, op, seed=4) == first
        assert lambda2_power(pt, op, seed=5).residual != first.residual

    @pytest.mark.parametrize("variant", ["one-and-half", "multi"])
    def test_restart_still_matches_svd(self, variant, monkeypatch):
        op, _, pt = _instance(dims=(6, 6), variant=variant)
        monkeypatch.setattr(spectral, "LANCZOS_BASIS", 8)
        report = lambda2_power(pt, op, tol=1e-10)
        system = svd_oracle(pt, op)
        assert report.converged
        assert report.restarts > 0
        assert abs(report.lambda2 - system.values[1]) < 1e-6
        assert report.next_ritz <= system.values[2] + 1e-12

    def test_restart_with_basis_off_the_ritz_cadence(self, monkeypatch):
        # 13 is not a multiple of RITZ_EVERY: a full basis forms its Ritz
        # pair off the cadence, and the restart vector is that pair's.
        op, _, pt = _instance(dims=(6, 6))
        monkeypatch.setattr(spectral, "LANCZOS_BASIS", 13)
        report = lambda2_power(pt, op, tol=1e-10)
        system = svd_oracle(pt, op)
        assert report.converged and report.restarts > 0
        assert abs(report.lambda2 - system.values[1]) < 1e-6
        assert report.next_ritz <= system.values[2] + 1e-12

    @pytest.mark.parametrize("dims", [(6, 6), (8, 8)], ids=["6x6", "8x8"])
    def test_ritz_cadence_moves_only_the_stop(self, dims, monkeypatch):
        # Forming the Ritz pair every step or every eighth changes only
        # where the explicit check first runs: at most 7 matvecs later.
        op, _, pt = _instance(dims=dims)
        reports = {}
        for every in (1, 8):
            monkeypatch.setattr(spectral, "RITZ_EVERY", every)
            reports[every] = lambda2_power(pt, op)
        assert reports[1].converged and reports[8].converged
        assert abs(reports[1].lambda2 - reports[8].lambda2) < 1e-12
        assert abs(reports[1].power_iters - reports[8].power_iters) < 8
        assert max(r.residual for r in reports.values()) <= 1e-9

    def test_top_eigenvector_of_tridiagonal(self):
        rng = np.random.default_rng(12)
        for k in (1, 2, 7, 60):
            diag, off = rng.standard_normal(k), rng.uniform(0.1, 1.0, k - 1)
            T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            values, vectors = np.linalg.eigh(T)
            s = spectral._top_eigenvector(T, values[-1])
            assert abs(np.linalg.norm(s) - 1.0) < 1e-14
            assert abs(abs(s @ vectors[:, -1]) - 1.0) < 1e-10

    def test_start_of_pure_roundoff_is_drawn_again(self):
        # x0 is the complex Gaussian of default_rng(0), so realify(x0), the
        # top left singular vector, is the seed-0 draw: deflating the top
        # pair leaves only roundoff, and the start is drawn again.
        op = make_operator("one-mask", GridShape((8, 8)), seed=1)
        pt = linearize_at_solution(op, random_complex(np.random.default_rng(0), op.n))
        report = lambda2_power(pt, op, seed=0)
        assert report.converged and report.restarts == 1
        assert abs(report.lambda2 - svd_oracle(pt, op).values[1]) < 1e-10

    def test_max_iters_exhausted(self):
        op, _, pt = _instance(dims=(6, 6))
        report = lambda2_power(pt, op, max_iters=5)
        assert not report.converged
        assert report.power_iters == 5
        assert report.residual > 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_gap_below_one_coded_oversampled(self, seed):
        op, _, pt = _instance(dims=(4, 4), mask_seed=seed, img_seed=seed + 10)
        report = lambda2_power(pt, op, tol=1e-10)
        assert report.lambda2 < 1.0 - 1e-6

    def test_one_mask_tight_support_has_gap(self):
        # With tight support the coded pattern's correlation constraints pin
        # everything but the global rotation, so lambda2 < 1 even for one mask.
        op, _, pt = _instance(dims=(4, 4), variant="one-mask", margin=0)
        report = lambda2_power(pt, op, tol=1e-10)
        system = svd_oracle(pt, op)
        assert report.lambda2 < 1.0 - 1e-6
        assert abs(report.lambda2 - system.values[1]) < 1e-6

    def test_one_mask_loose_support_degenerates(self):
        # Loose support shifts the masked object's z-transform by a monomial
        # (a conjugate-symmetric factor), so the single-pattern gap collapses.
        op, _, pt = _instance(dims=(4, 4), variant="one-mask", margin=1)
        system = svd_oracle(pt, op)
        assert system.values[1] > 1.0 - 1e-10


# lambda2_power on three one-and-half instances of experiments.make_instance:
# 32x32 base seed 30000, whose lambda2 read ...643 under one BLAS thread and
# ...644 under two while the Lanczos inner products and norms ran on BLAS;
# 16x16 base seed 0, whose tridiagonals of 104 rows and more a threaded
# LAPACK solve factorizes; and 64x64 base seed 30000, whose projections onto
# up to 200 basis vectors of 8192 floats a threaded gemv splits.  Prints
# each report's repr.
_LANCZOS_PROBE = """
from phasedr.experiments import ExperimentConfig, make_instance
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.spectral import lambda2_power, linearize_at_solution
for side, base_seed in ((16, 0), (32, 30000), (64, 30000)):
    cfg = ExperimentConfig(experiment="spectral-cert", base_seed=base_seed,
                           image=ImageSpec(kind="rpp", shape=GridShape((side, side))))
    x0, op = make_instance(cfg, 0)
    print(repr(lambda2_power(linearize_at_solution(op, x0), op)))
"""


def test_lambda2_does_not_depend_on_blas_threads():
    outputs = outputs_under_blas_threads(_LANCZOS_PROBE)
    reports = outputs[0].splitlines()
    assert len(reports) == 3 and all("converged=True" in r for r in reports)
    assert outputs[0] == outputs[1]


class TestGapCondition:
    def test_rotated_solution_saturates(self):
        op, x0, pt = _instance(dims=(4, 4))
        diag = check_gap_condition(pt, op, 1j * x0 / np.linalg.norm(x0))
        assert abs(diag.im_norm - 1.0) < 1e-10
        assert np.abs(diag.defects).max() < 1e-10

    def test_solution_direction_vanishes(self):
        op, x0, pt = _instance(dims=(4, 4))
        diag = check_gap_condition(pt, op, x0 / np.linalg.norm(x0))
        assert diag.im_norm < 1e-10

    def test_random_directions_bounded_by_lambda2(self):
        op, x0, pt = _instance(dims=(4, 4))
        lam2 = svd_oracle(pt, op).values[1]
        rng = np.random.default_rng(21)
        for _ in range(100):
            u = random_complex(rng, op.n)
            # drop the real-inner-product component along i*x0
            u = u - np.imag(np.vdot(x0, u)) / (np.linalg.norm(x0) ** 2) * 1j * x0
            u /= np.linalg.norm(u)
            diag = check_gap_condition(pt, op, u)
            assert diag.im_norm <= lam2 + 1e-8


@pytest.mark.parametrize("call, match", [
    (lambda op, pt: svd_oracle(pt, op), "N >= 2n"),
    (lambda op, pt: lambda2_power(linearize_at_solution(op, np.zeros(op.n)), op), "A y = 0"),
    (lambda op, pt: apply_realB_T(pt, op, np.zeros(2 * op.n + 2)), "apply_realB_T"),
    (lambda op, pt: apply_Sloc(pt, op, np.zeros(op.N - 1)), "apply_Sloc"),
    (lambda op, pt: apply_realB(pt, op, np.zeros(op.N + 1)), "apply_realB:"),
    (lambda op, pt: check_gap_condition(pt, op, np.zeros(op.n - 1)), "check_gap_condition"),
], ids=["svd-needs-N-at-least-2n", "lambda2-at-Ay-zero", "realB_T-length", "Sloc-length",
        "realB-length", "gap-length"])
def test_argument_errors(call, match):
    # One coded pattern on a 3-point axis: N = 5 < 2n = 6.
    op = make_operator("one-mask", GridShape((3,)), seed=1)
    pt = linearize_at_solution(op, np.ones(op.n, complex))
    assert op.N < 2 * op.n
    with pytest.raises(ValueError, match=match):
        call(op, pt)
