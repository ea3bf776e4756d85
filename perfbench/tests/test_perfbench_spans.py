"""Span recording, self times, and the counts the benchmark reconciles.

Run with: python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import phasedr
from phasedr.experiments import ExperimentConfig, make_instance
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.solvers import InitSpec, SolverConfig

from perfbench import spans

SELF_SLACK_S = 1e-9   # float rounding when a child covers nearly all of its parent
SUM_SLACK_S = 1e-6    # self times of all spans under a root vs the root's duration


def _instance(size, seed=3):
    cfg = ExperimentConfig(experiment="t", image=ImageSpec(kind="rpp", shape=GridShape((size, size))),
                           trials=1, base_seed=seed)
    x0, op = make_instance(cfg, 0)
    return x0, op, phasedr.forward.synthesize_data(op, x0).b


@pytest.fixture(scope="module")
def traced():
    """One traced run: FDR and ODR solves at 8x8 and a lambda2 estimate at 4x4."""
    x0, op, b = _instance(8)
    x4, op4, _ = _instance(4)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        root = tracer.open(spans.BENCH_ROOT)
        results = [
            phasedr.solvers.run_solver(
                SolverConfig(max_iters=40, init=InitSpec(kind="ri", seed=1)), op, b, x0),
            phasedr.solvers.run_solver(
                SolverConfig(algorithm="odr", ntilde=4 * op.n, max_iters=30,
                             init=InitSpec(kind="near", seed=2)), op, b, x0),
        ]
        tracer.run_id = 1
        report = phasedr.spectral.lambda2_power(
            phasedr.spectral.linearize_at_solution(op4, x4), op4, tol=1e-6)
        tracer.close(root)
    finally:
        spans.uninstall(undo)
    return tracer, tracer.frame(), results, report


def test_install_wraps_every_binding_and_uninstall_restores():
    orig = {name: getattr(phasedr.forward, name) for name in ("apply_a", "apply_astar")}
    orig_fft = phasedr.grids.dft_oversampled
    undo = spans.install(spans.Tracer())
    try:
        wrapped = phasedr.forward.apply_a
        assert wrapped is not orig["apply_a"]
        assert phasedr.solvers.apply_a is wrapped
        assert phasedr.spectral.apply_a is wrapped
        assert phasedr.apply_a is wrapped
        assert phasedr.forward.dft_oversampled is not orig_fft
        assert phasedr.forward.dft_oversampled is phasedr.grids.dft_oversampled
        with pytest.raises(RuntimeError):
            spans.install(spans.Tracer())
    finally:
        spans.uninstall(undo)
    assert phasedr.solvers.apply_a is orig["apply_a"]
    assert phasedr.experiments.run_solver is phasedr.solvers.run_solver
    assert phasedr.forward.dft_oversampled is orig_fft


def test_spans_nest_through_parent_ids(traced):
    _, f, _, _ = traced
    child = np.flatnonzero(f.parent >= 0)
    assert child.size == len(f) - 1  # one root
    par = f.parent[child]
    assert np.all(par < child)
    assert np.all(f.start[par] <= f.start[child])
    assert np.all(f.end[child] <= f.end[par])
    # siblings never overlap: each child starts after its previous sibling ended
    for p in np.unique(par)[:50]:
        kids = child[par == p]
        assert np.all(f.start[kids[1:]] >= f.end[kids[:-1]])
    assert set(np.unique(f.run)) == {0, 1}


def test_self_times_nonnegative_and_sum_to_wall(traced):
    _, f, _, _ = traced
    assert f.self_time.min() >= -SELF_SLACK_S
    wall = f.total(spans.BENCH_ROOT)
    assert abs(f.self_time.sum() - wall) <= SUM_SLACK_S


def test_dr_steps_equal_step_calls(traced):
    tracer, f, results, _ = traced
    steps = sum(r.iterations - 1 for r in results)
    assert steps == f.calls(*spans.STEP_NAMES)
    assert f.calls("solvers.fdr_step") == results[0].iterations - 1
    assert f.calls("solvers.odr_step") == results[1].iterations - 1
    assert spans.layer_metrics(f, tracer.observed)["solvers.steps"] == steps


def test_ffts_per_step_and_per_gram_matvec(traced):
    tracer, f, _, report = traced
    fdr = f.ffts_per_interval(("solvers.fdr_step",), "solvers.run_solver")
    odr = f.ffts_per_interval(("solvers.odr_step",), "solvers.run_solver")
    gram = f.ffts_per_interval(("spectral.apply_realB",), "spectral.lambda2_power")
    assert fdr.size and set(fdr.tolist()) == {6}  # step 4, ground-truth error 2
    assert odr.size and set(odr.tolist()) == {4}
    assert gram.size and set(gram.tolist()) == {4}
    m = spans.layer_metrics(f, tracer.observed)
    assert (m["grids.fft.per_fdr_step"], m["grids.fft.per_odr_step"],
            m["grids.fft.per_gram_matvec"]) == (6, 4, 4)
    assert m["spectral.gram_matvecs"] == report.power_iters
    assert set(m) | {"grids.fft_ms.127x127", "grids.fft_ms.128x128",
                     "trace_overhead_frac"} == set(spans.LAYER_UNITS)


def test_save_round_trips(traced, tmp_path):
    tracer, f, _, _ = traced
    data = np.load(tracer.save(tmp_path / "spans.npz"))
    assert list(data["names"]) == f.names
    for col in ("name", "start", "end", "parent", "run"):
        assert np.array_equal(data[col], getattr(f, col))
