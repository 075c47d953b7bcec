"""Continuous-variable entanglement distillation with coherent photon
addition/subtraction under thermal loss."""

from .chi_core import (
    ChannelParams,
    SingularKernelError,
    apply_thermal_channel,
    gaussian_kernel,
    tmsv_chi,
)
from .entanglement import (
    InvalidCovarianceError,
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    origin_coefficients,
    separation_eta,
    thermal_occupation,
)
from .fock_recon import (
    PrecisionError,
    certify,
    fock_matrices,
    partial_transpose,
)
from .scenarios import (
    ScenarioConfig,
    Strategy,
    SweepRecord,
    evaluate_point,
    sweep,
)

__version__ = "0.1.0"
