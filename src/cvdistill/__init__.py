"""Continuous-variable entanglement distillation with coherent photon
addition/subtraction under thermal loss."""

from .chi_core import (
    ChannelParams,
    CoherentOp,
    GaussianKernel,
    MomentEngine,
    PolyGaussianChi,
    SingularKernelError,
    ZeroStateError,
    apply_coherent_op,
    apply_thermal_channel,
    evaluate_chi,
    normalize,
    tmsv_chi,
)
from .entanglement import (
    CovarianceMatrix,
    InvalidCovarianceError,
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    partial_transpose,
    separation_eta,
    separation_time,
    teleportation_fidelity,
    thermal_occupation,
)
from .fock_recon import (
    PrecisionError,
    displacement_fock_poly,
    fock_matrices,
    fock_matrix,
)
from .scenarios import (
    OptimizeResult,
    ScenarioConfig,
    Strategy,
    SweepRecord,
    default_eta_grid,
    evaluate_point,
    optimize_t,
    run_strategy,
    sweep_eta,
)

__version__ = "0.1.0"
