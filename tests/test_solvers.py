"""Tests for projections, DR steps, phase alignment and the solver driver."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phasedr import grids, solvers
from phasedr.forward import (
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_operator,
    synthesize_data,
)
from phasedr.grids import GridShape, _norm, phase_factor
from phasedr.solvers import (
    NO_SECTOR,
    STOP_ERROR_TOL,
    STOP_MAX_ITERS,
    STOP_NON_FINITE,
    STOP_STEP_TOL,
    InitSpec,
    SectorSpec,
    SolverConfig,
    StepPlan,
    _initial_iterate,
    align_phase,
    estimate_rate,
    fdr_step,
    odr_step,
    run_solver,
    sector_project,
)

from blas_probe import outputs_under_blas_threads
from oracles import (
    dense_astar,
    dense_extended_astar,
    per_pattern_a,
    per_pattern_astar,
    per_pattern_block_odr_step,
    per_pattern_lift,
    per_pattern_odr_step,
    per_pattern_unlift,
    proj_p1,
    proj_p2,
    project_object_set,
    random_complex,
)


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
        for s in [SectorSpec(0.0, 0.5), SectorSpec(0.25, 0.5), SectorSpec(0.0, 1.0),
                  SectorSpec(0.9, 0.9)]:
            x = random_complex(rng, 64)
            once = sector_project(x, s)
            assert np.linalg.norm(sector_project(once, s) - once) < 1e-12

    def test_matches_grid_search_oracle(self):
        from oracles import sector_nearest_point

        rng = np.random.default_rng(11)
        # The last three are not convex (alpha + beta > 1): there a point
        # within a quarter turn past one edge can be nearer the other.  Eight
        # unit points spread over the arc outside each sector test the edge
        # choice wherever it is made.
        for s in [SectorSpec(0.0, 0.5), SectorSpec(0.3, 0.6), SectorSpec(0.6, 0.6),
                  SectorSpec(0.9, 0.9), SectorSpec(1.0, 0.5)]:
            past = (2.0 - s.alpha - s.beta) * (np.arange(8) + 0.5) / 8
            outside = np.exp(1j * np.pi * (s.beta + past))
            for z in np.concatenate([random_complex(rng, 12), outside]):
                got = sector_project(np.array([z]), s)[0]
                ref = sector_nearest_point(z, s.alpha, s.beta)
                assert abs(got - ref) < 1e-4

    @pytest.mark.parametrize("edge", [-0.25, 0.5], ids=["lower", "upper"])
    def test_point_just_past_an_edge_is_moved(self, edge):
        # The inside test allows 1e-15 rad past the upper edge, not 1e-12.
        s = SectorSpec(0.25, 0.5)
        t = edge * np.pi + np.sign(edge) * 1e-12
        got = sector_project(np.array([np.exp(1j * t)]), s)[0]
        assert np.angle(got) == pytest.approx(edge * np.pi, abs=1e-15)
        assert abs(got) == pytest.approx(1.0)

    def test_inactive_sector_identity(self):
        rng = np.random.default_rng(4)
        x = random_complex(rng, 10)
        assert sector_project(x, NO_SECTOR) is x

    def test_padded_components_map_to_zero(self):
        rng = np.random.default_rng(5)
        x = random_complex(rng, 8)
        out = project_object_set(x, 5, SectorSpec(0.0, 0.5))
        assert np.all(out[5:] == 0)
        out = project_object_set(x, 5, NO_SECTOR)
        assert np.array_equal(out[:5], x[:5])
        assert np.all(out[5:] == 0)

    def test_sector_validation(self):
        assert not SectorSpec(1.0, 1.0).active
        with pytest.raises(ValueError):
            SectorSpec(-0.1, 0.5)


def _p1(y, op, sector=NO_SECTOR):
    """P1 as fdr_step evaluates it: A* of the sector-projected A y."""
    return apply_astar(op, sector_project(apply_a(op, y), sector))


def _p2(y, b):
    """P2 as fdr_step and odr_step evaluate it."""
    return b * phase_factor(y)


class TestProjections:
    # The library's P1 and P2 live inside the DR steps; these check them,
    # and the dense reference map in oracles.py, directly.
    def test_p1_fixed_point(self):
        op, x0, b = _instance()
        y = apply_astar(op, x0)
        assert np.linalg.norm(_p1(y, op) - y) < 1e-10
        assert np.linalg.norm(proj_p1(y, op) - y) < 1e-10

    def test_p1_idempotent(self):
        op, _, _ = _instance()
        rng = np.random.default_rng(8)
        y = random_complex(rng, op.N)
        for sector in [NO_SECTOR, SectorSpec(0.0, 0.5)]:
            p = _p1(y, op, sector)
            assert np.linalg.norm(_p1(p, op, sector) - p) < 1e-10

    def test_p1_matches_dense(self):
        op, _, _ = _instance()
        dense = dense_astar(op)
        rng = np.random.default_rng(9)
        y = random_complex(rng, op.N)
        assert np.linalg.norm(_p1(y, op) - dense @ (dense.conj().T @ y)) < 1e-10
        for sector in [NO_SECTOR, SectorSpec(0.0, 0.5)]:
            assert np.linalg.norm(_p1(y, op, sector) - proj_p1(y, op, sector)) < 1e-10

    def test_p2_radial(self):
        rng = np.random.default_rng(10)
        b = np.abs(rng.standard_normal(12))
        omega = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        assert np.linalg.norm(_p2(2.0 * b * omega, b) - b * omega) < 1e-14
        assert np.linalg.norm(proj_p2(2.0 * b * omega, b) - b * omega) < 1e-14

    def test_p2_zero_convention(self):
        b = np.array([2.0, 3.0])
        y = np.array([0.0, 1j])
        for out in (_p2(y, b), proj_p2(y, b)):
            assert out[0] == 2.0
            assert out[1] == pytest.approx(3j)

    def test_p2_magnitudes_exact(self):
        rng = np.random.default_rng(12)
        b = np.abs(rng.standard_normal(40))
        y = random_complex(rng, 40)
        p = _p2(y, b)
        assert np.allclose(np.abs(_p2(p, b)), np.abs(p), rtol=1e-15, atol=0)
        assert np.allclose(np.abs(p), b, rtol=1e-15, atol=0)
        assert np.allclose(p, proj_p2(y, b), rtol=1e-15, atol=0)


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


def _bits(v):
    return np.ascontiguousarray(v).view(np.float64)


def _oracle_fdr_step(y, op, b, sector, estimate):
    """fdr_step's arithmetic written out on the per-pattern operator loops."""
    w = b * phase_factor(y)
    z = per_pattern_a(op, 2.0 * w - y)
    x = sector_project(z, sector)
    return y + per_pattern_astar(op, x) - w, x + 0.5 * (estimate - z)


class TestFdrStepBits:
    # The step runs its pointwise work in the transforms' hooks, per pattern
    # on the pool or once over all patterns; both give the oracle's bits.
    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("sector", [NO_SECTOR, SectorSpec(0.25, 0.5)], ids=["free", "sector"])
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half", "two-mask", "multi"])
    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 4)], ids=str)
    def test_matches_per_pattern_oracle(self, dims, variant, sector, threaded, monkeypatch):
        if threaded:
            monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
        op, _, b = _instance(variant, dims=dims, mask_seed=8, x_seed=4)
        rng = np.random.default_rng(17)
        y = random_complex(rng, op.N)
        y[::7] = 0.0  # w = 1 where |y| = 0
        u = random_complex(rng, op.n)
        want_y, want_u = _oracle_fdr_step(y, op, b, sector, u)
        plan = StepPlan(op, b, y)
        plan.iterates[1].fill(np.nan)  # so an entry the step leaves unwritten fails
        plan.estimate = u
        got_y = fdr_step(y, op, b, sector, plan=plan)
        assert got_y is plan.iterates[1]
        assert np.array_equal(_bits(got_y), _bits(want_y))
        assert np.array_equal(_bits(plan.estimate), _bits(want_u))
        assert np.array_equal(_bits(fdr_step(y, op, b, sector)), _bits(want_y))

    def test_nonfinite_raises_on_the_pool_and_the_pool_recovers(self, monkeypatch):
        monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
        op, _, b = _instance("two-mask", dims=(4, 4))
        y = random_complex(np.random.default_rng(18), op.N)
        for bad in (0, op.grid.n):  # in the first and in the last pattern's task
            z = y.copy()
            z[bad + 3] = np.inf
            with pytest.raises(FloatingPointError):
                fdr_step(z, op, b)
            assert np.array_equal(_bits(fdr_step(y, op, b)),
                                  _bits(_oracle_fdr_step(y, op, b, NO_SECTOR, 0.0)[0]))

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    def test_finite_iterate_with_overflowing_magnitude_does_not_raise(self, threaded,
                                                                      monkeypatch):
        # The finiteness test reads max |y|; an |y| that overflows while y is
        # finite takes the full test, passes it, and the step is the oracle's.
        # On a 3-pixel line at the plain pattern's first pixel, no later sum
        # of the step overflows.
        if threaded:
            monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
        op, _, b = _instance("one-and-half", dims=(3,))
        rng = np.random.default_rng(21)
        y = random_complex(rng, op.N)
        y[op.grid.n] = 1.5e308 * (1 + 1j)
        assert np.isinf(np.abs(y[op.grid.n]))
        u = random_complex(rng, op.n)
        want_y, want_u = _oracle_fdr_step(y, op, b, NO_SECTOR, u)
        plan = StepPlan(op, b, y)
        plan.estimate = u
        got_y = fdr_step(y, op, b, plan=plan)
        assert np.array_equal(_bits(got_y), _bits(want_y))
        assert np.array_equal(_bits(plan.estimate), _bits(want_u))


class TestOdrStepBits:
    # The step iterates the lifted block h = U x.  It restricts A~'s block
    # in its after hook (per pattern on the pool, or once over all
    # patterns), projects the pixels whose m block is cut (n + 7 and L n - 1
    # cut some) through their reflectors and writes into the plan's other
    # iterate; all give the per-pattern block oracle's bits.  Mapped back by U^-1 it is the
    # x-domain step to roundoff: the two sum in different coordinates.
    # (17, 16) and (17, 2, 3) have 33-point oversampled axes, so FFT passes.
    PADDED = pytest.mark.parametrize("dims", [(4, 4), (2, 3, 4), (17, 16), (17, 2, 3)], ids=str)
    VARIANT = pytest.mark.parametrize("variant",
                                      ["one-mask", "one-and-half", "two-mask", "multi"])
    SECTOR = pytest.mark.parametrize("sector", [NO_SECTOR, SectorSpec(0.25, 0.5)],
                                     ids=["free", "sector"])

    @staticmethod
    def _cases(dims, variant):
        op, _, b = _instance(variant, dims=dims, mask_seed=8, x_seed=4)
        n, N, L = op.n, op.N, len(op.masks)
        rng = np.random.default_rng(19)
        for ntilde in sorted({min(max(t, n), N)
                              for t in (n, n + 7, L * n - 1, L * n, 4 * n, N - 1)}):
            ext = extend_op(op, ntilde)
            x = random_complex(rng, ntilde)
            x[::5] = 0.0
            yield ext, b, x

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    @SECTOR
    @VARIANT
    @PADDED
    def test_matches_per_pattern_block_oracle(self, dims, variant, sector, threaded,
                                              monkeypatch):
        if threaded:
            monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
        for ext, b, x in self._cases(dims, variant):
            h = per_pattern_lift(ext, x)
            want = per_pattern_block_odr_step(h, ext, b, sector)
            assert np.array_equal(_bits(odr_step(h, ext, b, sector)), _bits(want)), ext.ntilde
            plan = StepPlan(ext, b, h)
            plan.iterates[1].fill(np.nan)  # so an entry the step leaves unwritten fails
            assert odr_step(h, ext, b, sector, plan=plan) is plan.iterates[1]
            assert np.array_equal(_bits(plan.iterates[1]), _bits(want)), ext.ntilde

    @SECTOR
    @VARIANT
    @PADDED
    def test_is_the_lifted_x_domain_step(self, dims, variant, sector):
        for ext, b, x in self._cases(dims, variant):
            got = per_pattern_unlift(ext, odr_step(per_pattern_lift(ext, x), ext, b, sector))
            want = per_pattern_odr_step(x, ext, b, sector)
            assert _norm(got - want) <= 1e-12 * _norm(want), ext.ntilde

    @SECTOR
    @VARIANT
    @PADDED
    def test_estimate_is_the_x_part_of_the_unlifted_step(self, dims, variant, sector):
        # With plan.estimate set, the step replaces it with a new array, the
        # x coordinates of U^-1 h+, and leaves the old one as it was.
        op, _, b = _instance(variant, dims=dims, mask_seed=8, x_seed=4)
        n, N, L = op.n, op.N, len(op.masks)
        rng = np.random.default_rng(25)
        for ntilde in sorted({max(t, n) for t in (n + 7, L * n - 1, min(4 * n, N))}):
            ext = extend_op(op, ntilde)
            h = per_pattern_lift(ext, random_complex(rng, ntilde))
            plan = StepPlan(ext, b, h)
            plan.estimate = old = np.zeros(n, dtype=complex)
            h = odr_step(h, ext, b, sector, plan=plan)
            want = per_pattern_unlift(ext, h)[:n]
            assert plan.estimate is not old and not old.any()
            assert _norm(plan.estimate - want) <= 1e-12 * _norm(want), ntilde


def _step_case(algorithm, variant="one-and-half", dims=(4, 4)):
    """A step function, its data, its operator or extension and a first iterate."""
    op, _, b = _instance(variant, dims=dims, mask_seed=8, x_seed=4)
    rng = np.random.default_rng(23)
    if algorithm == "fdr":
        return fdr_step, op, b, random_complex(rng, op.N)
    ext = extend_op(op, {"odr": min(4 * op.n, op.N), "odr-N-1": op.N - 1}[algorithm])
    return odr_step, ext, b, per_pattern_lift(ext, random_complex(rng, ext.ntilde))


class TestStepBuffers:
    # A plan is made for a solve's first iterate and a second buffer of its
    # own; a step from one of the two writes the other and returns it.
    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_step_from_one_iterate_writes_the_other(self, algorithm):
        step, target, b, v = _step_case(algorithm)
        plan = StepPlan(target, b, v)
        assert plan.iterates[0] is v
        for i in (0, 1, 0):
            before = plan.iterates[i].copy()
            assert step(plan.iterates[i], target, b, plan=plan) is plan.iterates[1 - i]
            assert np.array_equal(_bits(plan.iterates[i]), _bits(before))

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_foreign_iterate_raises(self, algorithm):
        step, target, b, v = _step_case(algorithm)
        plan = StepPlan(target, b, v)
        for foreign in (v.copy(), v[:], list(v)):
            with pytest.raises(ValueError, match=f"{step.__name__}: the plan is made for other"):
                step(foreign, target, b, plan=plan)

    # 4x4 one-and-half: N = 98 on two 7x7 pattern images, and ODR's lift at
    # 4n is a (2, 36) block, flat 72.
    @pytest.mark.parametrize("algorithm, case", [
        ("fdr", "one-more"), ("odr", "one-more"), ("odr", "2-d"), ("fdr", "2-d")])
    def test_misshapen_iterate_raises(self, algorithm, case):
        step, target, b, v = _step_case(algorithm)
        assert (target.N, v.size) == (98, 98 if algorithm == "fdr" else 72)
        bad = np.append(v, 0.0) if case == "one-more" else v.reshape(2, -1)
        named = rf"{step.__name__}: the iterate .* shape \({v.size},\)"
        with pytest.raises(ValueError, match=named):
            step(bad, target, b)
        with pytest.raises(ValueError, match=named):
            StepPlan(target, b, bad)

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_plan_of_another_operator_raises(self, algorithm):
        step, target, b, v = _step_case(algorithm)
        other = _step_case(algorithm)[1]  # equal, but made anew
        with pytest.raises(ValueError, match="plan"):
            step(v, target, b, plan=StepPlan(other, b, v))
        with pytest.raises(ValueError, match="plan"):
            step(v, target, b, plan=StepPlan(target, b.copy(), v))


class TestPlanReuse:
    # One plan serves every step of a solve: a chain of planned steps, each
    # written into the plan's other iterate, equals a chain of steps with a
    # fresh plan each, bit for bit, in the iterates and in the object
    # estimates the steps leave in their plans.
    STEPS = 30

    def _chains(self, algorithm, variant, dims, sector):
        step, target, b, v = _step_case(algorithm, variant, dims)
        plan = StepPlan(target, b, v.copy())
        planned, oneshot = plan.iterates[0], v
        plan.estimate = u = random_complex(np.random.default_rng(24), target.n)
        for _ in range(self.STEPS):
            planned = step(planned, target, b, sector, plan=plan)
            fresh = StepPlan(target, b, oneshot)
            fresh.estimate = u
            oneshot, u = step(oneshot, target, b, sector, plan=fresh), fresh.estimate
            assert np.array_equal(_bits(plan.estimate), _bits(u))
            assert np.array_equal(_bits(planned), _bits(oneshot))

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("sector", [NO_SECTOR, SectorSpec(0.25, 0.5)], ids=["free", "sector"])
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half", "two-mask", "multi"])
    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 4)], ids=str)
    @pytest.mark.parametrize("algorithm", ["fdr", "odr", "odr-N-1"])
    def test_planned_steps_equal_one_shot_steps(self, algorithm, dims, variant, sector, threaded,
                                                monkeypatch):
        if threaded:
            monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", 1)
        self._chains(algorithm, variant, dims, sector)

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_pooled_planned_steps_equal_one_shot_steps(self, algorithm):
        # 64x64 runs on a 127x127 grid, which reaches the pool unpatched.
        assert (2 * 64 - 1) ** 2 >= grids.PARALLEL_MIN_POINTS
        self._chains(algorithm, "one-and-half", (64, 64), NO_SECTOR)

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_steady_step_allocates_no_iterate_length_buffer(self, algorithm):
        # After warm-up a planned step works in its plan's buffers, its
        # other iterate among them; what it allocates on the way (numpy's
        # casting buffers, object-length vectors) stays below one N-length
        # complex buffer, 16 N bytes.
        step, target, b, v = _step_case(algorithm, dims=(64, 64))
        N = b.size
        plan = StepPlan(target, b, v)
        plan.estimate = random_complex(np.random.default_rng(24), target.n)
        for _ in range(3):
            v = step(v, target, b, plan=plan)
        assert v is plan.iterates[1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            v = step(v, target, b, plan=plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * N, f"a steady {algorithm} step peaked at {peak} bytes, N = {N}"
        # The step went back to the first iterate: no buffer is new.
        assert v is plan.iterates[0]


class TestStepResidual:
    # A planned step leaves x+ - x in the plan's scratch, and run_solver's
    # step residual is the flat sum _norm(x+ - x) / _norm(x), whether its
    # two norms run side by side on the pool (FDR at 64x64, on a 127x127
    # grid) or one after the other (4x4, and ODR).  Its error column is
    # the public align_phase's error on each estimate over _norm(x0): the
    # alignment the solver sets up once per solve sums as that one does.
    @pytest.mark.parametrize("dims", [(4, 4), (64, 64)], ids=str)
    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_history_is_the_flat_sum_of_chained_steps(self, algorithm, dims):
        op, x0, b = _instance("one-and-half", dims=dims, mask_seed=2, x_seed=6)
        cfg = SolverConfig(algorithm=algorithm, max_iters=12, tol=1e-300,
                           init=InitSpec(kind="near", seed=3, delta=1e-2))
        res = run_solver(cfg, op, b, x0)
        assert res.iterations == 12
        ext = extend_op(op, res.ntilde) if algorithm == "odr" else None
        y = _initial_iterate(cfg.init, op, x0)
        if ext is None:
            step, target = fdr_step, op
        else:
            step, target, y = odr_step, ext, extended_a(ext, y)
        plan = StepPlan(target, b, y)
        assert plan.pooled == (algorithm == "fdr" and dims == (64, 64))
        if ext is None:
            plan.estimate = first = apply_a(op, y)
        else:  # ODR reads each estimate off h+, so it never reads this one
            plan.estimate = np.zeros(op.n, dtype=complex)
            first = plan.ops.object_part(plan.ops.objects(y)).reshape(op.n)
        assert res.history[0][1] == align_phase(first, x0)[1] / _norm(x0)
        for _, rel, step_res in res.history[1:]:
            nxt = step(y, target, b, plan=plan)
            change = nxt - y
            assert np.array_equal(_bits(plan.scratch), _bits(change))
            assert step_res == _norm(change) / _norm(y)
            assert rel == align_phase(plan.estimate, x0)[1] / _norm(x0)
            y = nxt
        # No sector: the result's x_hat is the last step's estimate.
        assert np.array_equal(_bits(plan.estimate), _bits(res.x_hat))


class TestOdrStep:
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half"])
    def test_conjugacy_at_full_padding(self, variant):
        # ntilde = N: A~* S(A~ y) = S_f(y)
        op, _, b = _instance(variant)
        ext = extend_op(op, op.N)
        rng = np.random.default_rng(16)
        for _ in range(5):
            y = random_complex(rng, op.N)
            lhs = extended_astar(ext, odr_step(extended_a(ext, y), ext, b))
            assert np.linalg.norm(lhs - fdr_step(y, op, b)) < 1e-10

    def test_solution_embedding_is_fixed_point(self):
        op, x0, b = _instance()
        for ntilde in [op.n, op.n + 5, op.N]:
            ext = extend_op(op, ntilde)
            h = extended_a(ext, apply_astar(op, x0))  # U A~ (A* x0)
            assert np.linalg.norm(odr_step(h, ext, b) - h) < 1e-10

    def test_nonfinite_rejected(self):
        op, _, b = _instance()
        ext = extend_op(op, 4 * op.n)
        h = per_pattern_lift(ext, random_complex(np.random.default_rng(15), ext.ntilde))
        for bad in (np.nan, np.inf):
            h[3] = bad
            with pytest.raises(FloatingPointError):
                odr_step(h, ext, b)

    def test_matches_dense_evaluation(self):
        op, _, b = _instance()
        ext = extend_op(op, op.n + 7)
        dense = dense_extended_astar(ext)
        rng = np.random.default_rng(17)
        x = random_complex(rng, ext.ntilde)
        w = b * phase_factor(dense @ x)
        z = dense.conj().T @ w
        inner = 2.0 * z - x
        trunc = np.zeros_like(x)
        trunc[: op.n] = inner[: op.n]
        expected = x + trunc - z
        got = per_pattern_unlift(ext, odr_step(per_pattern_lift(ext, x), ext, b))
        assert np.linalg.norm(got - expected) < 1e-10

    def test_fdr_independent_of_extension(self):
        # Evaluating the DR update through A~ gives the same map for every ntilde.
        op, _, b = _instance()
        rng = np.random.default_rng(18)
        y = random_complex(rng, op.N)
        reference = fdr_step(y, op, b)
        for ntilde in [op.n, op.n + 3, (op.n + op.N) // 2, op.N]:
            ext = extend_op(op, ntilde)
            w = b * phase_factor(y)
            z = per_pattern_unlift(ext, extended_a(ext, 2.0 * w - y))
            via_ext = y + extended_astar(
                ext, per_pattern_lift(ext, project_object_set(z, op.n, NO_SECTOR))) - w
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

    @pytest.mark.parametrize("x, x0", [
        (np.ones(3), np.ones(4)), (np.ones((3, 3)), np.ones((3, 3))),
    ], ids=["lengths", "2d-pair"])
    def test_length_mismatch(self, x, x0):
        with pytest.raises(ValueError, match="align_phase"):
            align_phase(x, x0)


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
        assert res.relative_error <= 1e-10  # ||x0|| = 1
        assert res.iterations <= 500
        errs = [h[1] for h in res.history]
        assert errs[-1] < errs[0]
        assert res.rate_estimate < 1.0

    def test_rate_reads_the_last_window_of_errors(self):
        # 21 errors: the first ratio is 0.1, the last 19 are 0.5.  The
        # window of RATE_WINDOW = 20 ratios takes in the first one.
        errors = [1.0, 0.1] + [0.1 * 0.5**k for k in range(1, 20)]
        assert estimate_rate(errors) == pytest.approx((0.1 * 0.5**19) ** (1 / 20))
        assert estimate_rate(errors[1:]) == pytest.approx(0.5)

    def test_max_iters_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @pytest.mark.parametrize("make, match", [
        (lambda: SolverConfig(algorithm="hio"), "unknown algorithm"),
        (lambda: SolverConfig(tol=0.0), "tol"),
        (lambda: SolverConfig(tol=-1e-9), "tol"),
        (lambda: SolverConfig(tol=np.nan), "tol"),
        (lambda: SolverConfig(tol=np.inf), "tol"),
        (lambda: InitSpec(kind="random"), "unknown init kind"),
        (lambda: InitSpec(kind="near", delta=np.nan), "delta"),
        (lambda: InitSpec(kind="near", delta=np.inf), "delta"),
        (lambda: InitSpec(kind="near", delta=-1e-3), "delta"),
    ], ids=["unknown-algorithm", "zero-tol", "negative-tol", "nan-tol", "infinite-tol",
            "unknown-init", "nan-delta", "infinite-delta", "negative-delta"])
    def test_config_validation(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

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

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_zero_ground_truth_raises(self, algorithm):
        op, _, b = _instance()
        cfg = SolverConfig(algorithm=algorithm, max_iters=5)
        with pytest.raises(ValueError, match="x0 must be nonzero"):
            run_solver(cfg, op, b, np.zeros(op.n))

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    @pytest.mark.parametrize("case", ["short-x0", "2d-x0", "short-b", "long-b", "2d-b",
                                      "complex-b"])
    def test_misshapen_input_raises(self, algorithm, case):
        # x0 must be a length-n vector and b a real length-N vector, also
        # when a step is called directly; the error names the argument.
        op, x0, b = _instance()
        x0, b, name = {"short-x0": (x0[:-1], b, "x0"), "2d-x0": (x0.reshape(3, 3), b, "x0"),
                       "short-b": (x0, b[:-1], "b"), "long-b": (x0, np.append(b, 1.0), "b"),
                       "2d-b": (x0, b.reshape(1, -1), "b"), "complex-b": (x0, b * 1j, "b")}[case]
        cfg = SolverConfig(algorithm=algorithm, max_iters=5)
        with pytest.raises(ValueError, match=rf"\b{name} must"):
            run_solver(cfg, op, b, x0)
        if name == "b":
            step, target, _, v = _step_case(algorithm, dims=(3, 3))
            with pytest.raises(ValueError, match=r"\bb must"):
                step(v, target, b)

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
            algorithm="odr", ntilde=op.N - 1, max_iters=400, tol=1e-11,
            init=InitSpec(kind="near", seed=3, delta=1e-3),
        )
        res = run_solver(cfg, op, b, x0)
        assert res.relative_error <= 1e-9

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_non_finite_iterate_ends_the_run(self, algorithm):
        # One nan magnitude makes every coordinate of the second iterate nan.
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        b = b.copy()
        b[3] = np.nan
        cfg = SolverConfig(algorithm=algorithm, max_iters=50, init=InitSpec(kind="ri", seed=2))
        res = run_solver(cfg, op, b, x0)
        assert res.stop == STOP_NON_FINITE
        assert res.iterations == 2
        assert len(res.history) == res.iterations - 1
        assert res.x_hat.shape == (op.n,) and np.all(np.isnan(res.x_hat))
        assert np.isnan(res.relative_error)
        assert not res.converged

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_overflowing_step_change_is_not_non_finite(self, algorithm):
        # At magnitudes near 1e160 the step-change norm overflows while every
        # iterate stays finite; the run goes on to max_iters.
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        cfg = SolverConfig(algorithm=algorithm, max_iters=10, init=InitSpec(kind="ri", seed=2))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_solver(cfg, op, 1e160 * b, 1e160 * x0)
        assert res.stop == STOP_MAX_ITERS and res.iterations == 10
        assert not res.converged
        assert np.all(np.isfinite(res.x_hat))

    # One 4x4 one-and-half solve per algorithm and stop reason, at tol 1e-9.
    # ODR pads to N - 1 = 97 for its error-tol run and to 3n = 48 for its
    # step-tol run; both step-tol runs end with their error above tol.
    @pytest.mark.parametrize("algorithm,stop,ntilde,init,max_iters", [
        ("fdr", STOP_ERROR_TOL, None, InitSpec(kind="near", seed=0), 6000),
        ("fdr", STOP_STEP_TOL, None, InitSpec(kind="ri", seed=2), 6000),
        ("fdr", STOP_MAX_ITERS, None, InitSpec(kind="ri", seed=2), 30),
        ("fdr", STOP_NON_FINITE, None, InitSpec(kind="ri", seed=2), 30),
        ("odr", STOP_ERROR_TOL, 97, InitSpec(kind="near", seed=0), 6000),
        ("odr", STOP_STEP_TOL, 48, InitSpec(kind="near", seed=0), 6000),
        ("odr", STOP_MAX_ITERS, None, InitSpec(kind="ri", seed=2), 30),
        ("odr", STOP_NON_FINITE, None, InitSpec(kind="ri", seed=2), 30),
    ])
    def test_stop_names_the_test_that_ended_the_run(self, algorithm, stop, ntilde, init,
                                                     max_iters):
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        if stop == STOP_NON_FINITE:
            b = b.copy()
            b[3] = np.nan
        tol = 1e-9
        cfg = SolverConfig(algorithm=algorithm, ntilde=ntilde, max_iters=max_iters, tol=tol,
                           init=init)
        res = run_solver(cfg, op, b, x0)
        assert res.stop == stop
        assert res.converged == (stop in (STOP_ERROR_TOL, STOP_STEP_TOL))
        k, error, step = res.history[-1]
        if stop == STOP_ERROR_TOL:
            assert error == res.relative_error <= tol < step
        elif stop == STOP_STEP_TOL:
            assert step <= tol < error == res.relative_error
        elif stop == STOP_MAX_ITERS:
            assert k == res.iterations == max_iters
            assert min(error, step) > tol
        else:
            assert k == 1 and res.iterations == 2 and np.isnan(res.relative_error)

    @pytest.mark.parametrize("algorithm", ["fdr", "odr"])
    def test_estimate_does_not_depend_on_ground_truth(self, algorithm):
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        cfg = SolverConfig(algorithm=algorithm, max_iters=40, tol=1e-300,
                           sector=SectorSpec(0.0, 0.5), init=InitSpec(kind="ri", seed=8))
        blind = run_solver(cfg, op, b)
        tracked = run_solver(cfg, op, b, x0)
        assert blind.iterations == tracked.iterations == 40
        assert np.array_equal(blind.x_hat, tracked.x_hat)
        assert np.isnan(blind.relative_error) and tracked.relative_error > 0


def test_pattern_parallel_solve_matches_serial_bitwise(monkeypatch):
    # 64x64 runs on a 127x127 grid, which reaches the pool unpatched.
    op, x0, b = _instance("one-and-half", dims=(64, 64), mask_seed=2, x_seed=6)
    assert op.grid.n >= grids.PARALLEL_MIN_POINTS
    cfg = SolverConfig(max_iters=30, tol=1e-300, init=InitSpec(kind="near", seed=3, delta=1e-2))
    pooled = run_solver(cfg, op, b, x0)
    monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", op.grid.n + 1)
    serial = run_solver(cfg, op, b, x0)
    assert pooled.iterations == serial.iterations == 30
    assert pooled.x_hat.tobytes() == serial.x_hat.tobytes()
    assert repr(pooled.history) == repr(serial.history)


def test_odr_pattern_parallel_solve_matches_serial_bitwise(monkeypatch):
    # ODR at 64x64 pads on a 127x127 grid, which reaches the pool unpatched.
    op, x0, b = _instance("one-and-half", dims=(64, 64), mask_seed=2, x_seed=6)
    assert op.grid.n >= grids.PARALLEL_MIN_POINTS
    cfg = SolverConfig(algorithm="odr", max_iters=30, tol=1e-300,
                       init=InitSpec(kind="near", seed=3, delta=1e-2))
    pooled = run_solver(cfg, op, b, x0)
    monkeypatch.setattr(grids, "PARALLEL_MIN_POINTS", op.grid.n + 1)
    serial = run_solver(cfg, op, b, x0)
    assert pooled.iterations == serial.iterations == 30
    assert pooled.x_hat.tobytes() == serial.x_hat.tobytes()
    assert repr(pooled.history) == repr(serial.history)


def _same_run(a, b):
    return (np.array_equal(np.array(a.history), np.array(b.history), equal_nan=True)
            and np.array_equal(a.x_hat, b.x_hat) and a.iterations == b.iterations)


class TestIterationChoice:
    # run_solver owns the FDR/ODR choice and the ODR padding default.
    @pytest.mark.parametrize("sector", [NO_SECTOR, SectorSpec(0.0, 0.5)])
    @pytest.mark.parametrize("kind", ["ri", "ci", "near"])
    def test_odr_at_full_padding_is_fdr_bitwise(self, sector, kind):
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        cfg = SolverConfig(max_iters=40, tol=1e-300, sector=sector,
                           init=InitSpec(kind=kind, seed=6, delta=1e-2))
        fdr = run_solver(cfg, op, b, x0)
        odr = run_solver(replace(cfg, algorithm="odr", ntilde=op.N), op, b, x0)
        assert fdr.iterations == 40
        assert _same_run(odr, fdr)

    @pytest.mark.parametrize("kind", ["ri", "ci", "near"])
    @pytest.mark.parametrize("variant", ["one-mask", "one-and-half", "two-mask", "multi"])
    def test_odr_and_fdr_start_from_one_point(self, variant, kind):
        # ODR starts at A~ y0 for FDR's start y0, so the first object
        # estimates agree to roundoff at every padding.
        op, x0, b = _instance(variant, dims=(4, 4))
        n, N = op.n, op.N
        cfg = SolverConfig(max_iters=1, init=InitSpec(kind=kind, seed=6, delta=1e-2))
        want = run_solver(cfg, op, b, x0).x_hat
        for ntilde in sorted({n + 3, (n + N) // 2 + 1, N - 1, N}):
            got = run_solver(replace(cfg, algorithm="odr", ntilde=ntilde), op, b, x0).x_hat
            assert _norm(got - want) <= 1e-12 * _norm(want), ntilde

    def test_fdr_ignores_ntilde(self):
        op, x0, b = _instance()
        cfg = SolverConfig(max_iters=30, init=InitSpec(kind="ri", seed=2))
        assert _same_run(run_solver(replace(cfg, ntilde=op.n + 1), op, b, x0),
                         run_solver(cfg, op, b, x0))

    @pytest.mark.parametrize("variant", ["one-and-half", "multi"])
    def test_odr_default_padding(self, variant):
        # min(4n, N): below N for one-and-half, N itself for multi with 3 patterns
        op, x0, b = _instance(variant, dims=(4, 4))
        cfg = SolverConfig(algorithm="odr", max_iters=30, tol=1e-300,
                           init=InitSpec(kind="near", seed=1, delta=1e-2))
        explicit = run_solver(replace(cfg, ntilde=min(4 * op.n, op.N)), op, b, x0)
        assert _same_run(run_solver(cfg, op, b, x0), explicit)

    def test_odr_padding_out_of_range(self):
        op, x0, b = _instance()
        for ntilde in (op.n - 1, op.N + 1):
            with pytest.raises(ValueError):
                run_solver(SolverConfig(algorithm="odr", ntilde=ntilde), op, b, x0)

    # A wrapper set on phasedr.solvers.fdr_step or odr_step, as a tracer
    # sets one, sees every step of a solve: run_solver looks its step up
    # per call, binding it neither at import nor as a default argument.
    @pytest.mark.parametrize("algorithm, full, called", [
        ("fdr", False, "fdr_step"), ("odr", False, "odr_step"), ("odr", True, "fdr_step")],
        ids=["fdr", "odr", "odr-at-N"])
    def test_run_solver_calls_the_module_step(self, algorithm, full, called, monkeypatch):
        op, x0, b = _instance("one-and-half", dims=(4, 4))
        calls = {"fdr_step": 0, "odr_step": 0}

        def counting(name, step):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
        cfg = SolverConfig(algorithm=algorithm, ntilde=op.N if full else None, max_iters=15,
                           tol=1e-300, init=InitSpec(kind="ri", seed=2))
        res = run_solver(cfg, op, b, x0)
        assert res.iterations == 15 and res.ntilde == (op.N if called == "fdr_step" else 4 * op.n)
        assert calls == {"fdr_step": 0, "odr_step": 0, called: res.iterations - 1}


# A 64x64 one-and-half solve from a random start; prints repr(history) and
# the bytes of x_hat.  Its iterates (N = 32258) are longer than the vectors
# whose dot products OpenBLAS keeps on one thread.
_BLAS_PROBE = """
import numpy as np
from phasedr.forward import make_operator, synthesize_data
from phasedr.grids import GridShape
from phasedr.solvers import InitSpec, SolverConfig, run_solver
shape = GridShape((64, 64))
rng = np.random.default_rng(3)
x0 = rng.uniform(0.0, 1.0, shape.n) * np.exp(2j * np.pi * rng.uniform(size=shape.n))
op = make_operator("one-and-half", shape, seed=4)
b = synthesize_data(op, x0).b
res = run_solver(SolverConfig(max_iters=31, tol=1e-300, init=InitSpec(kind="ri", seed=5)),
                 op, b, x0)
print(repr(res.history))
print(res.x_hat.tobytes().hex())
"""


def test_diagnostics_do_not_depend_on_blas_threads():
    # The DR loop's norms and phase alignment avoid BLAS, whose threaded
    # reductions sum in a thread-count-dependent order.
    outputs = outputs_under_blas_threads(_BLAS_PROBE)
    history, x_hat = outputs[0].splitlines()
    assert history.count("(") == 31 and len(x_hat) == 2 * 16 * 4096
    assert outputs[0] == outputs[1]


# 16x16 and 16x16x16 FDR and ODR solves, whose transforms run as dense
# DFT-matrix products (BLAS gemm) on 31-point axes, and an 8x8
# lambda2_power; prints each solve's repr(history) and x_hat bytes, then
# repr(lambda2).  The 3-D grid (31**3 points) runs its patterns on the pool,
# and its first-axis gemms are the largest a dense pass makes.
_GEMM_PROBE = """
import numpy as np
from phasedr.forward import make_operator, synthesize_data
from phasedr.grids import GridShape
from phasedr.solvers import InitSpec, SolverConfig, run_solver
from phasedr.spectral import lambda2_power, linearize_at_solution
for dims, algorithm, iters in (((16, 16), "fdr", 40), ((16, 16), "odr", 40),
                               ((16, 16, 16), "fdr", 16), ((16, 16, 16), "odr", 16),
                               ((8, 8), None, 0)):
    shape = GridShape(dims)
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0.0, 1.0, shape.n) * np.exp(2j * np.pi * rng.uniform(size=shape.n))
    op = make_operator("one-and-half", shape, seed=4)
    if algorithm is None:
        print(repr(lambda2_power(linearize_at_solution(op, x0), op).lambda2))
        continue
    res = run_solver(SolverConfig(algorithm=algorithm, max_iters=iters, tol=1e-300,
                                  init=InitSpec(kind="ri", seed=5)),
                     op, synthesize_data(op, x0).b, x0)
    print(repr(res.history))
    print(res.x_hat.tobytes().hex())
"""


def test_dense_transforms_do_not_depend_on_blas_threads():
    # Each dense pass is far below the size at which OpenBLAS threads a
    # gemm, and numpy calls gemm once per row of a stack.
    outputs = outputs_under_blas_threads(_GEMM_PROBE)
    lines = outputs[0].splitlines()
    assert len(lines) == 9
    assert [h.count("(") for h in lines[0:8:2]] == [40, 40, 16, 16]
    assert [len(x) for x in lines[1:8:2]] == [2 * 16 * 256] * 2 + [2 * 16 * 4096] * 2
    assert 0.0 < float(lines[8]) < 1.0
    assert outputs[0] == outputs[1]
