"""Tests for projections, DR steps, phase alignment and the solver driver."""

import numpy as np
import pytest

from phasedr.forward import (
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_operator,
    synthesize_data,
)
from phasedr.grids import GridShape, embed, phase_factor
from phasedr.solvers import (
    NO_SECTOR,
    InitSpec,
    SectorSpec,
    SolverConfig,
    align_phase,
    fdr_step,
    odr_step,
    proj_p1,
    proj_p2,
    project_object_set,
    run_solver,
    sector_project,
)

from oracles import dense_astar, dense_extended_astar, random_complex


def _instance(variant="one-and-half", dims=(3, 3), mask_seed=5, x_seed=9):
    shape = GridShape(dims)
    op = make_operator(variant, shape, seed=mask_seed)
    rng = np.random.default_rng(x_seed)
    x0 = random_complex(rng, op.n)
    b = np.abs(apply_astar(op, x0))
    return op, x0, b


class TestSectorProject:
    def test_positivity_branches(self):
        pos = SectorSpec(0.0, 0.0)
        assert sector_project(np.array([1 + 1j]), pos)[0] == pytest.approx(1.0)
        assert sector_project(np.array([-1 + 1j]), pos)[0] == 0.0

    def test_inside_unchanged(self):
        s = SectorSpec(0.0, 0.5)
        x = np.array([np.exp(0.4j * np.pi)])
        assert sector_project(x, s)[0] == x[0]

    def test_upper_half_plane_sector(self):
        s = SectorSpec(0.0, 1.0)
        # angle -3pi/4: quarter turn below the pi edge -> projects onto that ray
        x = np.array([np.exp(-0.75j * np.pi)])
        got = sector_project(x, s)[0]
        expected = np.real(x[0] * np.exp(-1j * np.pi)) * np.exp(1j * np.pi)
        assert got == pytest.approx(expected)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for s in [SectorSpec(0.0, 0.5), SectorSpec(0.25, 0.5), SectorSpec(0.0, 1.0)]:
            x = random_complex(rng, 64)
            once = sector_project(x, s)
            assert np.linalg.norm(sector_project(once, s) - once) < 1e-12

    def test_matches_grid_search_oracle(self):
        from oracles import sector_nearest_point

        rng = np.random.default_rng(11)
        for s in [SectorSpec(0.0, 0.5), SectorSpec(0.3, 0.6)]:
            for z in random_complex(rng, 12):
                got = sector_project(np.array([z]), s)[0]
                ref = sector_nearest_point(z, s.alpha, s.beta)
                assert abs(got - ref) < 1e-4

    def test_inactive_sector_identity(self):
        rng = np.random.default_rng(4)
        x = random_complex(rng, 10)
        assert np.array_equal(sector_project(x, NO_SECTOR), x)

    def test_padded_components_map_to_zero(self):
        rng = np.random.default_rng(5)
        x = random_complex(rng, 8)
        out = project_object_set(x, 5, SectorSpec(0.0, 0.5))
        assert np.all(out[5:] == 0)
        out = project_object_set(x, 5, NO_SECTOR)
        assert np.array_equal(out[:5], x[:5])
        assert np.all(out[5:] == 0)

    def test_sector_validation(self):
        with pytest.raises(ValueError):
            SectorSpec(1.0, 1.0, active=True)
        with pytest.raises(ValueError):
            SectorSpec(-0.1, 0.5)


class TestProjections:
    def test_p1_fixed_point(self):
        op, x0, b = _instance()
        y = apply_astar(op, x0)
        assert np.linalg.norm(proj_p1(y, op) - y) < 1e-10

    def test_p1_idempotent(self):
        op, _, _ = _instance()
        rng = np.random.default_rng(8)
        y = random_complex(rng, op.N)
        for sector in [NO_SECTOR, SectorSpec(0.0, 0.5)]:
            p = proj_p1(y, op, sector)
            assert np.linalg.norm(proj_p1(p, op, sector) - p) < 1e-10

    def test_p1_matches_dense(self):
        op, _, _ = _instance()
        dense = dense_astar(op)
        rng = np.random.default_rng(9)
        y = random_complex(rng, op.N)
        assert np.linalg.norm(proj_p1(y, op) - dense @ (dense.conj().T @ y)) < 1e-10

    def test_p2_radial(self):
        rng = np.random.default_rng(10)
        b = np.abs(rng.standard_normal(12))
        omega = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        assert np.linalg.norm(proj_p2(2.0 * b * omega, b) - b * omega) < 1e-14

    def test_p2_zero_convention(self):
        b = np.array([2.0, 3.0])
        y = np.array([0.0, 1j])
        out = proj_p2(y, b)
        assert out[0] == 2.0
        assert out[1] == pytest.approx(3j)

    def test_p2_magnitudes_exact(self):
        rng = np.random.default_rng(12)
        b = np.abs(rng.standard_normal(40))
        y = random_complex(rng, 40)
        p = proj_p2(y, b)
        assert np.allclose(np.abs(proj_p2(p, b)), np.abs(p), rtol=1e-15, atol=0)
        assert np.allclose(np.abs(p), b, rtol=1e-15, atol=0)


class TestFdrStep:
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half", "two-mask", "multi"])
    def test_solution_is_fixed_point(self, variant):
        op, x0, b = _instance(variant)
        y0 = apply_astar(op, x0)
        assert np.linalg.norm(fdr_step(y0, op, b) - y0) < 1e-10

    def test_matches_projection_composition(self):
        op, _, b = _instance()
        rng = np.random.default_rng(14)
        y = random_complex(rng, op.N)
        for sector in [NO_SECTOR, SectorSpec(0.0, 0.5)]:
            composed = y + proj_p1(2.0 * proj_p2(y, b) - y, op, sector) - proj_p2(y, b)
            assert np.linalg.norm(fdr_step(y, op, b, sector) - composed) < 1e-12

    def test_matches_dense_evaluation(self):
        op, _, b = _instance()
        dense = dense_astar(op)
        rng = np.random.default_rng(15)
        y = random_complex(rng, op.N)
        w = b * phase_factor(y)
        expected = y + dense @ (dense.conj().T @ (2.0 * w - y)) - w
        assert np.linalg.norm(fdr_step(y, op, b) - expected) < 1e-10

    def test_nonfinite_rejected(self):
        op, _, b = _instance()
        y = np.full(op.N, np.nan, dtype=complex)
        with pytest.raises(FloatingPointError):
            fdr_step(y, op, b)


class TestOdrStep:
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half"])
    def test_conjugacy_at_full_padding(self, variant):
        # ntilde = N: A~* S(A~ y) = S_f(y)
        op, _, b = _instance(variant)
        ext = extend_op(op, op.N, seed=3)
        rng = np.random.default_rng(16)
        for _ in range(5):
            y = random_complex(rng, op.N)
            lhs = extended_astar(ext, odr_step(extended_a(ext, y), ext, b))
            assert np.linalg.norm(lhs - fdr_step(y, op, b)) < 1e-10

    def test_solution_embedding_is_fixed_point(self):
        op, x0, b = _instance()
        for ntilde in [op.n, op.n + 5, op.N]:
            ext = extend_op(op, ntilde, seed=4)
            x = embed(x0, ntilde)  # equals A~ (A* x0)
            assert np.linalg.norm(odr_step(x, ext, b) - x) < 1e-10

    def test_matches_dense_evaluation(self):
        op, _, b = _instance()
        ext = extend_op(op, op.n + 7, seed=5)
        dense = dense_extended_astar(ext)
        rng = np.random.default_rng(17)
        x = random_complex(rng, ext.ntilde)
        w = b * phase_factor(dense @ x)
        z = dense.conj().T @ w
        inner = 2.0 * z - x
        trunc = np.zeros_like(x)
        trunc[: op.n] = inner[: op.n]
        expected = x + trunc - z
        assert np.linalg.norm(odr_step(x, ext, b) - expected) < 1e-10

    def test_fdr_independent_of_extension(self):
        # Evaluating the DR update through A~ gives the same map for every ntilde.
        op, _, b = _instance()
        rng = np.random.default_rng(18)
        y = random_complex(rng, op.N)
        reference = fdr_step(y, op, b)
        for ntilde in [op.n, op.n + 3, (op.n + op.N) // 2, op.N]:
            ext = extend_op(op, ntilde, seed=6)
            w = b * phase_factor(y)
            via_ext = y + extended_astar(
                ext, project_object_set(extended_a(ext, 2.0 * w - y), op.n, NO_SECTOR)
            ) - w
            assert np.linalg.norm(via_ext - reference) < 1e-10


class TestAlignPhase:
    def test_exact_phase_recovery(self):
        rng = np.random.default_rng(19)
        x0 = random_complex(rng, 20)
        alpha, err = align_phase(1j * x0, x0)
        assert abs(alpha + 1j) < 1e-14
        assert err < 1e-14
        alpha, err = align_phase(x0, x0)
        assert alpha == 1.0
        assert err == 0.0

    def test_zero_inner_product_convention(self):
        alpha, err = align_phase(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert alpha == 1.0
        assert err == pytest.approx(np.sqrt(2.0))

    def test_optimal_over_sampled_phases(self):
        rng = np.random.default_rng(20)
        x = random_complex(rng, 15)
        x0 = random_complex(rng, 15)
        _, err = align_phase(x, x0)
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            assert err <= np.linalg.norm(np.exp(1j * theta) * x - x0) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            align_phase(np.ones(3), np.ones(4))


class TestRunSolver:
    def test_near_solution_converges_geometrically(self):
        op, x0, _ = _instance("one-and-half", dims=(4, 4), mask_seed=2, x_seed=3)
        x0 = x0 / np.linalg.norm(x0)
        b = np.abs(apply_astar(op, x0))
        cfg = SolverConfig(
            algorithm="fdr", max_iters=500, tol=1e-12,
            init=InitSpec(kind="near", seed=1, delta=1e-3),
        )
        res = run_solver(cfg, op, b, x0)
        assert res.aligned_error <= 1e-10
        assert res.iterations <= 500
        errs = [h[1] for h in res.history]
        assert errs[-1] < errs[0]
        assert res.rate_estimate < 1.0

    def test_max_iters_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    def test_single_iteration_returns_initial_metrics(self):
        op, x0, b = _instance()
        cfg = SolverConfig(max_iters=1, init=InitSpec(kind="ci"))
        res = run_solver(cfg, op, b, x0)
        assert res.iterations == 1
        assert len(res.history) == 1
        alpha, err = align_phase(apply_a(op, apply_astar(op, np.ones(op.n, complex))), x0)
        assert res.history[0][1] == pytest.approx(err / np.linalg.norm(x0))

    def test_determinism(self):
        op, x0, b = _instance()
        cfg = SolverConfig(max_iters=50, init=InitSpec(kind="ri", seed=7))
        a = run_solver(cfg, op, b, x0)
        b_ = run_solver(cfg, op, b, x0)
        assert np.array_equal(a.x_hat, b_.x_hat)
        assert np.array_equal(
            np.array(a.history), np.array(b_.history)
        ) or np.allclose(np.array(a.history), np.array(b_.history), equal_nan=True, rtol=0, atol=0)

    def test_near_requires_ground_truth(self):
        op, _, b = _instance()
        cfg = SolverConfig(init=InitSpec(kind="near"))
        with pytest.raises(ValueError):
            run_solver(cfg, op, b)

    def test_recovered_magnitudes_match_data(self):
        op, x0, _ = _instance("one-and-half", dims=(4, 4), mask_seed=6, x_seed=7)
        x0 = x0 / np.linalg.norm(x0)
        data = synthesize_data(op, x0)
        cfg = SolverConfig(
            algorithm="fdr", max_iters=400, tol=1e-11,
            init=InitSpec(kind="near", seed=2, delta=1e-3),
        )
        res = run_solver(cfg, op, data.b, x0)
        assert res.relative_error <= 1e-9
        assert np.linalg.norm(np.abs(apply_astar(op, res.x_hat)) - data.b) < 1e-8

    @pytest.mark.parametrize("sector", [NO_SECTOR, SectorSpec(0.0, 0.5)])
    def test_tracked_estimate_matches_fresh_adjoint(self, sector):
        # run_solver updates A y through fdr_step instead of applying A anew;
        # the result must match A y of the same steps taken by hand.
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        cfg = SolverConfig(max_iters=60, tol=1e-300, sector=sector,
                           init=InitSpec(kind="ri", seed=4))
        res = run_solver(cfg, op, b, x0)
        assert res.iterations == 60
        rng = np.random.default_rng(4)
        y = apply_astar(op, rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n))
        for _ in range(res.iterations - 1):
            y = fdr_step(y, op, b, sector)
        fresh = apply_a(op, y)
        if sector.active:
            fresh = sector_project(fresh, sector)
        assert np.abs(res.x_hat - fresh).max() < 1e-13
        assert res.history[-1][1] == res.relative_error

    def test_odr_solver_runs(self):
        op, x0, b = _instance("one-and-half", dims=(3, 3))
        x0 = x0 / np.linalg.norm(x0)
        b = np.abs(apply_astar(op, x0))
        cfg = SolverConfig(
            algorithm="odr", ntilde=op.N, max_iters=400, tol=1e-11,
            init=InitSpec(kind="near", seed=3, delta=1e-3),
        )
        res = run_solver(cfg, op, b, x0)
        assert res.relative_error <= 1e-9
