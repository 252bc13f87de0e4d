"""Exact few-boson Lieb-Liniger states and their Fisher information.

Solves the Bethe equations for N repulsive bosons on a ring or in a box,
evaluates the eigenfunctions and Gaudin-determinant norms, computes the
quantum and classical Fisher information of the interaction strength,
and models a finite-resolution absorption-imaging measurement of the
atom positions.
"""

from .bethe import (
    BetheSolution,
    BoundaryCondition,
    DegenerateStateError,
    ModelParams,
    SolverError,
    StateSpec,
    bethe_residual,
    gaudin_matrix,
    ground_state,
    momentum_of,
    solve_bethe,
    type1_excitation,
    type2_excitation,
)
from .fisher import (
    BracketError,
    FisherReport,
    SweepResult,
    cfi,
    fisher_report,
    lmax,
    qfi_analytic,
    sweep,
)
from .imaging import (
    ImageDistribution,
    PixelGrid,
    enumerate_images,
    image_distribution,
    imaging_cfi,
    load_shots,
    mle_estimate,
    multiplicity,
    sample_images,
    save_shots,
    uniform_grid,
)
from .integrals import (
    NumericalHealthError,
    ResourceLimitError,
    simplex_exp_integral,
)
from .wavefunction import (
    AmplitudeTable,
    PhaseClass,
    amplitudes,
    global_phase_class,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTable",
    "BetheSolution",
    "BoundaryCondition",
    "BracketError",
    "DegenerateStateError",
    "FisherReport",
    "ImageDistribution",
    "ModelParams",
    "NumericalHealthError",
    "PhaseClass",
    "PixelGrid",
    "ResourceLimitError",
    "SolverError",
    "StateSpec",
    "SweepResult",
    "amplitudes",
    "bethe_residual",
    "cfi",
    "enumerate_images",
    "fisher_report",
    "gaudin_matrix",
    "global_phase_class",
    "ground_state",
    "image_distribution",
    "imaging_cfi",
    "lmax",
    "load_shots",
    "mle_estimate",
    "momentum_of",
    "multiplicity",
    "qfi_analytic",
    "sample_images",
    "save_shots",
    "simplex_exp_integral",
    "solve_bethe",
    "sweep",
    "type1_excitation",
    "type2_excitation",
    "uniform_grid",
    "__version__",
]
