"""Tests for the experiment runners (small, fast desk-scale configurations)."""

from dataclasses import replace

import numpy as np
import pytest

from phasedr.experiments import (
    ROLE_INIT,
    ROLE_NOISE,
    ExperimentConfig,
    make_instance,
    prob_lower_bound,
    rank_correlation,
    ratio_to_ntilde,
    role_seed,
    run_global,
    run_local_rate,
    run_noise_sweep,
    run_padding_sweep,
)
from phasedr.forward import synthesize_data
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.io import read_csv
from phasedr.solvers import InitSpec, SectorSpec, SolverConfig, run_solver

from blas_probe import outputs_under_blas_threads


def _cfg(experiment, dims=(6, 6), trials=2, **kw):
    defaults = dict(
        image=ImageSpec(kind="rpp", shape=GridShape(dims), margin=1),
        variant="one-and-half",
        trials=trials,
        base_seed=5,
        solver=SolverConfig(algorithm="fdr", max_iters=300, tol=1e-11,
                            init=InitSpec(kind="ri", delta=1e-3)),
    )
    defaults.update(kw)
    return ExperimentConfig(experiment=experiment, **defaults)


class TestProbLowerBound:
    def test_positivity_sector_is_certain(self):
        assert prob_lower_bound(1000, 2, 0.0, 0.0) == 1.0
        assert prob_lower_bound(7, 64, 0.0, 0.0) == 1.0

    def test_paper_scale_substitution(self):
        got = prob_lower_bound(256**2, 1000, 0.0, 1.0)
        assert got == 1.0 - 65536 * 0.5**500

    def test_sparsity_edge(self):
        assert prob_lower_bound(100, 0, 0.3, 0.7) == 1.0 - 100
        assert prob_lower_bound(100, 1, 0.3, 0.7) == 1.0 - 100

    def test_validation(self):
        with pytest.raises(ValueError):
            prob_lower_bound(10, -1, 0.0, 0.0)
        with pytest.raises(ValueError):
            prob_lower_bound(10, 2, 0.0, 1.5)


def test_role_seed_distinct():
    seeds = {role_seed(3, t, r) for t in range(50) for r in range(1, 6)}
    assert len(seeds) == 250


def test_ratio_to_ntilde_clamps():
    assert ratio_to_ntilde(4.0, 10, 100) == 40
    assert ratio_to_ntilde(0.5, 10, 100) == 10
    assert ratio_to_ntilde(20.0, 10, 100) == 100


def test_rank_correlation_monotone():
    assert rank_correlation([1, 2, 3, 4], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)
    assert rank_correlation([1, 2, 3, 4], [0.9, 0.5, 0.2, 0.1]) == pytest.approx(-1.0)


def test_comment_records_every_setting():
    # Changing any one of these settings changes the CSV configuration comment.
    base = _cfg("padding-sweep")
    solver = base.solver
    changed = [
        replace(base, nsr_grid=(0.0, 0.3)),
        replace(base, ntilde_ratios=(4.0, 6.0)),
        replace(base, solver=replace(solver, sector=SectorSpec(alpha=0.0, beta=0.5))),
        replace(base, solver=replace(solver, sector=SectorSpec(alpha=0.0, beta=0.25))),
        replace(base, solver=replace(solver, init=replace(solver.init, delta=1e-2))),
    ]
    comments = {cfg.comment() for cfg in [base] + changed}
    assert len(comments) == 1 + len(changed)


@pytest.mark.parametrize("experiment, runner, forced", [
    ("local-rate", run_local_rate, "init=near "),
    ("padding-sweep", run_padding_sweep, "algo=odr "),
    ("global", run_global, "init=ri,ci "),
    ("local-rate", run_local_rate, "algo=fdr,odr "),
])
def test_comment_records_forced_settings(tmp_path, experiment, runner, forced):
    # The runner forces these settings on every solve, or runs each of the
    # listed ones, whatever the config says.
    cfg = _cfg(experiment, dims=(4, 4), trials=1, ntilde_ratios=(4.0,),
               out=str(tmp_path / "out.csv"),
               solver=SolverConfig(algorithm="fdr", max_iters=5, init=InitSpec(kind="ci")))
    _, _, comment = read_csv(runner(cfg).csv_path)
    assert forced in comment
    if experiment == "padding-sweep":
        assert "init=ri " in comment


class TestLocalRate:
    def test_rows_and_rate(self, tmp_path):
        cfg = _cfg("local-rate", out=str(tmp_path / "rate.csv"),
                   solver=SolverConfig(algorithm="fdr", max_iters=400, tol=1e-12,
                                       init=InitSpec(kind="near", delta=1e-3)))
        res = run_local_rate(cfg)
        assert len(res.trials) == 2
        for entry in res.trials:
            assert entry["lambda2"] < 1.0
            assert entry["fdr_geometric"]
            assert entry["fdr_rate"] <= entry["lambda2"] + 0.05
        algos = {row[1] for row in res.rows}
        assert algos == {"fdr", "odr"}
        header, body, comment = read_csv(res.csv_path)
        assert header == ["trial", "algo", "k", "error", "lambda2_ref"]
        assert "local-rate" in comment
        assert len(body) == len(res.rows)

    def test_bit_reproducible(self):
        cfg = _cfg("local-rate",
                   solver=SolverConfig(algorithm="fdr", max_iters=150, tol=1e-12,
                                       init=InitSpec(kind="near", delta=1e-3)))
        a = run_local_rate(cfg)
        b = run_local_rate(cfg)
        assert a.rows == b.rows

    @pytest.mark.parametrize("variant", ["multi", "one-and-half"])
    def test_odr_padding_recorded(self, variant):
        # multi:3 at 5x5 has N = 75 < 4n = 100, so ODR pads to N and its rows
        # are the FDR rows; one-and-half pads to 4n < N.
        cfg = _cfg("local-rate", dims=(5, 5), trials=1, variant=variant, patterns=3,
                   solver=SolverConfig(max_iters=30, tol=1e-12))
        res = run_local_rate(cfg)
        _, op = make_instance(cfg, 0)
        (entry,) = res.trials
        fdr = [row[2:] for row in res.rows if row[1] == "fdr"]
        odr = [row[2:] for row in res.rows if row[1] == "odr"]
        if variant == "multi":
            assert entry["odr_ntilde"] == op.N
            assert odr == fdr
        else:
            assert entry["odr_ntilde"] == 4 * op.n < op.N
            assert odr != fdr


class TestGlobal:
    def test_success_rates_and_rows(self, tmp_path):
        cfg = _cfg("global", dims=(8, 8), trials=3, out=str(tmp_path / "glob.csv"),
                   solver=SolverConfig(algorithm="fdr", max_iters=1500, tol=1e-9))
        res = run_global(cfg)
        assert set(res.success) == {("ri", 1e-4), ("ri", 1e-8), ("ci", 1e-4), ("ci", 1e-8)}
        assert res.success[("ri", 1e-4)] >= res.success[("ri", 1e-8)]
        assert len(res.iters_to_visual["ri"]) == 3
        header, body, _ = read_csv(res.csv_path)
        assert header == ["trial", "init", "k", "relative_error"]

    def test_bit_reproducible(self):
        cfg = _cfg("global", trials=2,
                   solver=SolverConfig(algorithm="fdr", max_iters=100, tol=1e-9))
        assert run_global(cfg).rows == run_global(cfg).rows


class TestNoiseSweep:
    def test_budgets_medians_slope(self, tmp_path):
        cfg = _cfg("noise-sweep", dims=(8, 8), trials=2,
                   nsr_grid=(0.0, 0.05, 0.1, 0.2),
                   out=str(tmp_path / "noise.csv"),
                   solver=SolverConfig(algorithm="fdr", max_iters=800, tol=1e-9))
        res = run_noise_sweep(cfg)
        assert res.budgets == (800, 1600)
        assert set(res.slopes) == {800, 1600}
        assert np.isfinite(res.slopes[1600])
        # noiseless runs hit the numerical floor; noisy errors scale with NSR
        assert res.medians[(0.0, 1600)] < 1e-6
        assert res.medians[(0.2, 1600)] > res.medians[(0.05, 1600)]
        header, body, _ = read_csv(res.csv_path)
        assert header == ["nsr", "trial", "max_iters", "relative_error"]
        assert len(body) == 2 * 2 * 4

    def test_single_run_matches_one_run_per_budget(self):
        # Reference: a separate solve at each budget.
        cfg = _cfg("noise-sweep", dims=(8, 8), trials=2, nsr_grid=(0.0, 0.05), base_seed=2,
                   solver=SolverConfig(algorithm="fdr", max_iters=380, tol=1e-9))
        rows, iters = [], []
        for t in range(cfg.trials):
            x0, op = make_instance(cfg, t)
            for nsr in cfg.nsr_grid:
                data = synthesize_data(op, x0, nsr=nsr,
                                       noise_seed=role_seed(cfg.base_seed, t, ROLE_NOISE))
                for budget in (380, 760):
                    scfg = SolverConfig(algorithm="fdr", max_iters=budget, tol=1e-9,
                                        init=InitSpec(seed=role_seed(cfg.base_seed, t, ROLE_INIT)))
                    res = run_solver(scfg, op, data.b, x0)
                    rows.append((nsr, t, budget, res.relative_error))
                    iters.append(res.iterations)
        # the sweep reads the short budget both ways: off a longer run's
        # history (noisy runs) and from a run that stopped before it (noiseless)
        assert max(iters) > 380 and min(iters) < 380
        assert run_noise_sweep(cfg).rows == rows

    def test_nsr_grid_validated(self):
        cfg = _cfg("noise-sweep", nsr_grid=(0.0, 0.9))
        with pytest.raises(ValueError):
            run_noise_sweep(cfg)

    def test_budget_doubling_stability(self):
        # Full-scale runs show essentially no budget dependence for NSR <= 20%;
        # at desk scale the median change across the grid stays within 25%.
        cfg = _cfg("noise-sweep", dims=(8, 8), trials=4,
                   nsr_grid=(0.05, 0.1, 0.2),
                   solver=SolverConfig(algorithm="fdr", max_iters=1500, tol=1e-10))
        res = run_noise_sweep(cfg)
        b1, b2 = res.budgets
        changes = [
            abs(res.medians[(n, b2)] - res.medians[(n, b1)]) / res.medians[(n, b1)]
            for n in cfg.nsr_grid
        ]
        assert float(np.median(changes)) <= 0.25


class TestPaddingSweep:
    def test_endpoint_matches_global_fdr_bitwise(self, tmp_path):
        # ntilde = N is executed through the FDR recursion: identical floats
        # to a run_global FDR trajectory under the same seeds.
        solver = SolverConfig(algorithm="fdr", max_iters=120, tol=1e-9)
        pad = _cfg("padding-sweep", dims=(6, 6), trials=2,
                   ntilde_ratios=(4.0, 8.0), solver=solver,
                   out=str(tmp_path / "pad.csv"))
        res = run_padding_sweep(pad)
        glob = run_global(_cfg("global", dims=(6, 6), trials=2, solver=solver),
                          inits=("ri",))
        glob_final = {}
        for trial, init, k, rel in glob.rows:
            glob_final[trial] = rel  # last row per trial wins
        for ratio, ntilde, trial, final, best, iters in res.rows:
            if ratio == 8.0:
                assert final == glob_final[trial]
        header, body, _ = read_csv(res.csv_path)
        assert header == ["ratio", "ntilde", "trial", "final_error", "min_error", "iters"]

    def test_summaries_present(self):
        cfg = _cfg("padding-sweep", dims=(6, 6), trials=2, ntilde_ratios=(4.0, 6.0, 8.0),
                   solver=SolverConfig(algorithm="fdr", max_iters=80, tol=1e-9))
        res = run_padding_sweep(cfg)
        assert set(res.mean_error) == {4.0, 6.0, 8.0}
        assert set(res.success_rate) == {4.0, 6.0, 8.0}
        assert np.isfinite(res.trend_correlation)

    def test_bit_reproducible(self):
        cfg = _cfg("padding-sweep", dims=(6, 6), trials=2, ntilde_ratios=(4.0,),
                   solver=SolverConfig(algorithm="fdr", max_iters=60, tol=1e-9))
        assert run_padding_sweep(cfg).rows == run_padding_sweep(cfg).rows


# A 128x128 instance (n = 16384, longer than the vectors whose dot products
# OpenBLAS keeps on one thread) and its near start; prints their bytes.
_SETUP_PROBE = """
from phasedr.experiments import ExperimentConfig, make_instance
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.solvers import InitSpec, _initial_iterate
cfg = ExperimentConfig(experiment="global",
                       image=ImageSpec(kind="rpp", shape=GridShape((128, 128))))
x0, op = make_instance(cfg, 0)
start = _initial_iterate(InitSpec(kind="near", seed=1), op, None, x0)
print(x0.tobytes().hex())
print(start.tobytes().hex())
"""


def test_instance_and_near_start_do_not_depend_on_blas_threads():
    outputs = outputs_under_blas_threads(_SETUP_PROBE)
    x0, start = outputs[0].splitlines()
    assert len(x0) == 2 * 16 * 128 * 128 and len(start) == 2 * 16 * 2 * 255 * 255
    assert outputs[0] == outputs[1]
