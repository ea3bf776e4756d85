"""Fourier phase retrieval from masked diffraction data via Douglas-Rachford
iterations, with spectral-gap convergence diagnostics."""

from .forward import (
    MaskSpec,
    MeasuredData,
    PropagationOp,
    apply_a,
    apply_astar,
    make_mask,
    make_operator,
    synthesize_data,
)
from .grids import (
    GridShape,
    realify,
    unrealify,
)
from .images import ImageSpec, gen_image, support_rank
from .solvers import (
    NO_SECTOR,
    InitSpec,
    RecoveryResult,
    SectorSpec,
    SolverConfig,
    fdr_step,
    run_solver,
)
from .spectral import (
    GapDiagnostic,
    LinearizationPoint,
    SpectralReport,
    apply_Sloc,
    apply_realB_T,
    check_gap_condition,
    lambda2_power,
    linearize_at_solution,
    svd_oracle,
)
from .experiments import (
    ExperimentConfig,
    prob_lower_bound,
    run_global,
    run_local_rate,
    run_noise_sweep,
    run_padding_sweep,
    run_spectral_cert,
)

__version__ = "0.1.0"
