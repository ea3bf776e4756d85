"""Tests for the roundoff-band helper."""

import numpy as np

from phasedr import experiments, forward
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.solvers import SolverConfig

from roundoff import band, nudged_data, nudged_instances


def _config():
    return experiments.ExperimentConfig(
        experiment="padding-sweep", image=ImageSpec(kind="rpp", shape=GridShape((4, 4))),
        trials=2, ntilde_ratios=(3.0,), solver=SolverConfig(max_iters=40, tol=1e-300))


def test_band_at_k0_is_the_unperturbed_value():
    cfg = _config()

    def statistic():
        return experiments.run_padding_sweep(cfg).mean_error[3.0]

    value = statistic()
    assert band(statistic, 0) == (value, value, value)
    # A rerun sees b moved one ulp up on half its entries, through the
    # runner's own binding, and the original binding is back afterwards.
    x0, op = experiments.make_instance(cfg, 0)
    b = forward.synthesize_data(op, x0).b
    with nudged_data(1):
        nudged = experiments.synthesize_data(op, x0).b
    assert experiments.synthesize_data is forward.synthesize_data
    moved = nudged != b
    assert moved.sum() == b.size // 2
    assert np.array_equal(nudged[moved], np.nextafter(b[moved], np.inf))


def test_instance_nudge_moves_half_the_float_parts_of_x0():
    # A rerun sees x0 moved one ulp up on half its real and imaginary parts
    # and the same operator; the original binding is back afterwards.
    cfg = _config()
    original = experiments.make_instance
    x0, op = experiments.make_instance(cfg, 0)
    with nudged_instances(1):
        nudged, nudged_op = experiments.make_instance(cfg, 0)
    assert experiments.make_instance is original
    assert nudged.dtype == x0.dtype and nudged.shape == x0.shape
    assert np.array_equal(nudged_op.masks[0].phases, op.masks[0].phases)
    parts, nudged_parts = x0.view(np.float64), nudged.view(np.float64)
    moved = nudged_parts != parts
    assert moved.sum() == x0.size
    assert np.array_equal(nudged_parts[moved], np.nextafter(parts[moved], np.inf))


def test_band_of_a_statistic_that_reads_no_data_can_move():
    # The spectral certificate reads only x0 and the operator, so only the
    # x0 nudge reaches it.
    cfg = experiments.ExperimentConfig(
        experiment="spectral-cert", variant="one-mask", trials=1,
        image=ImageSpec(kind="rpp", shape=GridShape((4, 4)), margin=1))
    low, _, high = band(lambda: experiments.run_spectral_cert(cfg).max_lambda2, 3)
    assert low < high
