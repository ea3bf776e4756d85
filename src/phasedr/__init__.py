"""Fourier phase retrieval from masked diffraction data via Douglas-Rachford
iterations, with spectral-gap convergence diagnostics."""

from .forward import (
    ExtendedOp,
    MaskSpec,
    MeasuredData,
    PropagationOp,
    apply_a,
    apply_astar,
    extend_op,
    extended_a,
    extended_astar,
    make_mask,
    make_operator,
    synthesize_data,
)
from .grids import (
    GridShape,
    dft_oversampled,
    dft_plain,
    idft_oversampled,
    idft_plain,
    phase_factor,
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
    align_phase,
    fdr_step,
    odr_step,
    run_solver,
)
from .spectral import (
    GapDiagnostic,
    LinearizationPoint,
    SpectralReport,
    apply_Sloc,
    apply_realB,
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
