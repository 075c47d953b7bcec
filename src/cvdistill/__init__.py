"""Continuous-variable entanglement distillation with coherent photon
addition/subtraction under thermal loss."""

from .chi_core import (
    ChannelParams,
    CoherentOp,
    PolyGaussianChi,
    SingularKernelError,
    apply_thermal_channel,
    gaussian_kernel,
    moment_table,
    tmsv_chi,
)
from .entanglement import (
    InvalidCovarianceError,
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    partial_transpose,
    separation_eta,
    separation_time,
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
    evaluate_point,
    optimize_t,
    sweep,
)

__version__ = "0.1.0"
