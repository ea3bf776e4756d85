"""The roundoff band of a statistic: its spread under 1-ulp changes of the data.

Some outcomes are decided by roundoff: a mean error over a few trials that
end far from convergence, a slope fitted through noisy runs.  Any change
that moves bits moves them, so a moved value says little unless it is set
against how far such a statistic moves on its own.  band(statistic, K)
reruns a statistic K times, rerun k with every data vector b that
forward.synthesize_data returns moved one ulp up on a random half of its
entries (seeded by seed + k), and reports the minimum, median and maximum
over the unperturbed run and the K reruns.  The nudge works the same on
dense and FFT grids, and needs no library option.

For instance, from the repository root with PYTHONPATH=src:tests,

    from phasedr import experiments
    from roundoff import band
    band(lambda: experiments.run_padding_sweep(cfg).mean_error[4.0], 12)

gives the band of a padding sweep's ratio-4 mean for an ExperimentConfig cfg.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from phasedr import forward


def nudge(b, rng) -> np.ndarray:
    """A copy of b moved one ulp up on a random half of its entries."""
    b = np.array(b, dtype=np.float64)
    pick = rng.permutation(b.size)[: b.size // 2]
    b.flat[pick] = np.nextafter(b.flat[pick], np.inf)
    return b


@contextmanager
def nudged_data(seed: int):
    """Within the block, every phasedr binding of synthesize_data returns its
    data with b nudged (see :func:`nudge`), one draw of a generator seeded
    with seed per call."""
    original, rng = forward.synthesize_data, np.random.default_rng(seed)

    def synthesize(*args, **kwargs):
        data = original(*args, **kwargs)
        b = nudge(data.b, rng)
        b.setflags(write=False)
        return replace(data, b=b)

    bindings = [m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "phasedr" and getattr(m, "synthesize_data", None) is original]
    for module in bindings:
        module.synthesize_data = synthesize
    try:
        yield
    finally:
        for module in bindings:
            module.synthesize_data = original


def band(statistic, K: int, seed: int = 0) -> tuple[float, float, float]:
    """(min, median, max) of statistic() over the unperturbed run and K
    reruns on nudged data, rerun k seeded with seed + k."""
    values = [float(statistic())]
    for k in range(K):
        with nudged_data(seed + k):
            values.append(float(statistic()))
    return min(values), float(np.median(values)), max(values)
