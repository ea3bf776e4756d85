"""The roundoff band of a statistic: its spread under 1-ulp changes of the data.

Some outcomes are decided by roundoff: a mean error over a few trials that
end far from convergence, a slope fitted through noisy runs, a verdict on
an l_2 that is 1 in exact arithmetic.  Any change that moves bits moves
them, so a moved value says little unless it is set against how far such
a statistic moves on its own.  band(statistic, K) reruns a statistic K
times and reports the minimum, median and maximum over the unperturbed run
and the K reruns.  Rerun k nudges two things, each with a generator seeded
by seed + k: every data vector b that forward.synthesize_data returns, and
every object x0 that experiments.make_instance returns, each moved one ulp
up on a random half of its float parts.  The x0 nudge reaches statistics
that read no synthesized data, such as the spectral certificate.  The
nudges work the same on dense and FFT grids, and need no library option.

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

from phasedr import experiments, forward


def nudge(v, rng) -> np.ndarray:
    """A copy of the float or complex v moved one ulp up on a random half
    of its float parts (for complex v, of its real and imaginary parts)."""
    v = np.array(v, dtype=np.result_type(v, np.float64))
    f = v.reshape(-1).view(np.float64)
    pick = rng.permutation(f.size)[: f.size // 2]
    f[pick] = np.nextafter(f[pick], np.inf)
    return v


@contextmanager
def _patched(module, name: str, nudged):
    """Within the block, every phasedr binding of module.name is the
    function nudged(original) returns."""
    original = getattr(module, name)
    replacement = nudged(original)
    bindings = [m for key, m in list(sys.modules.items())
                if key.split(".")[0] == "phasedr" and getattr(m, name, None) is original]
    for m in bindings:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m in bindings:
            setattr(m, name, original)


def nudged_data(seed: int):
    """Within the block, every phasedr binding of synthesize_data returns its
    data with b nudged (see :func:`nudge`), one draw of a generator seeded
    with seed per call."""
    rng = np.random.default_rng(seed)

    def nudged(original):
        def synthesize(*args, **kwargs):
            data = original(*args, **kwargs)
            b = nudge(data.b, rng)
            b.setflags(write=False)
            return replace(data, b=b)
        return synthesize

    return _patched(forward, "synthesize_data", nudged)


def nudged_instances(seed: int):
    """Within the block, every phasedr binding of make_instance returns its
    object x0 nudged (see :func:`nudge`), one draw of a generator seeded
    with seed per call."""
    rng = np.random.default_rng(seed)

    def nudged(original):
        def make_instance(*args, **kwargs):
            x0, op = original(*args, **kwargs)
            return nudge(x0, rng), op
        return make_instance

    return _patched(experiments, "make_instance", nudged)


def band(statistic, K: int, seed: int = 0) -> tuple[float, float, float]:
    """(min, median, max) of statistic() over the unperturbed run and K
    reruns on nudged data and objects, rerun k seeded with seed + k."""
    values = [float(statistic())]
    for k in range(K):
        with nudged_data(seed + k), nudged_instances(seed + k):
            values.append(float(statistic()))
    return min(values), float(np.median(values)), max(values)
