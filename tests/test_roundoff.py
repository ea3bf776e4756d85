"""Tests for the roundoff-band helper."""

import numpy as np

from phasedr import experiments, forward
from phasedr.grids import GridShape
from phasedr.images import ImageSpec
from phasedr.solvers import SolverConfig

from roundoff import band, nudged_data


def test_band_at_k0_is_the_unperturbed_value():
    cfg = experiments.ExperimentConfig(
        experiment="padding-sweep", image=ImageSpec(kind="rpp", shape=GridShape((4, 4))),
        trials=2, ntilde_ratios=(3.0,), solver=SolverConfig(max_iters=40, tol=1e-300))

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
