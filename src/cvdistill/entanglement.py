"""Entanglement and teleportation measures for two-mode states.

Two independent routes to the logarithmic negativity are kept deliberately
separate: the Fock route diagonalizes the partially transposed truncated
density matrix, the Gaussian route uses only the covariance matrix (exact for
Gaussian states, an approximation once photon operations make the state
non-Gaussian).  Their disagreement is itself a signal of non-Gaussianity, so
neither is ever expressed through the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _SPEED_OF_LIGHT
from scipy.constants import h as _PLANCK
from scipy.constants import k as _BOLTZMANN

from .chi_core import GaussianKernel, MomentEngine, check_normalized

PT_DISCRIMINANT_TOL = 1e-12
COV_IMAG_TOL = 1e-10


class InvalidCovarianceError(ValueError):
    """Covariance matrix violates a physicality bound beyond tolerance."""


def partial_transpose(rho):
    """Partial transpose on the first mode: (rho^T1)_{ij,kl} = rho_{kj,il}."""
    d = math.isqrt(len(rho))
    return rho.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)


def log_negativity(rho):
    """Logarithmic negativity E = log2 ||rho^T1||_1 of a (d^2, d^2)
    Fock-basis state, clamped at zero (a negative truncated trace-norm log is
    noise, not physics).

    The partial transpose is diagonalized by LAPACK (numpy.linalg.eigvalsh),
    which raises numpy.linalg.LinAlgError if it does not converge.  The tests
    check it against a self-contained cyclic Jacobi solver.
    """
    w = np.linalg.eigvalsh(partial_transpose(rho))
    return max(0.0, math.log2(float(np.sum(np.abs(w)))))


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 symmetrized covariance of (x1, p1, x2, p2).

    Convention: vacuum covariance is identity/2.
    """

    mat: np.ndarray

    @property
    def block_a(self):
        return self.mat[:2, :2]

    @property
    def block_b(self):
        return self.mat[2:, 2:]

    @property
    def block_c(self):
        return self.mat[:2, 2:]

    def symplectic_eigenvalues(self):
        """(nu_minus, nu_plus) of the two-mode covariance."""
        delta = (float(np.linalg.det(self.block_a))
                 + float(np.linalg.det(self.block_b))
                 + 2.0 * float(np.linalg.det(self.block_c)))
        det = float(np.linalg.det(self.mat))
        disc = max(delta * delta - 4.0 * det, 0.0)
        lo = (delta - math.sqrt(disc)) / 2.0
        hi = (delta + math.sqrt(disc)) / 2.0
        return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))


# Quadratures x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)) from the
# derivative variables w = (d/dxi_i acting as a^dag, -a):
_L_MODE = np.array([[1.0, -1.0], [1j, 1j]]) / math.sqrt(2.0)


def covariance_from_chi(state):
    """Quadrature covariance of a normalized state, from exact derivatives of
    its characteristic function at the origin.

    For chi = P(v) exp(-v^T K v / 2) with P(0) = 1 the symmetrized moments of
    (a1^dag, -a1, a2^dag, -a2) read off as S_ij = d_i d_j P(0) - K_ij and the
    first moments as m_i = d_i P(0); no numerical differentiation is involved.
    """
    check_normalized(state)
    poly = state.poly
    kq = state.kernel.quad
    s = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            coeff = poly.get(tuple(e), 0.0)
            s[i, j] = (2.0 if i == j else 1.0) * coeff - kq[i, j]
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    m = np.array([poly.get(e, 0.0) for e in basis], dtype=complex)
    l_full = np.zeros((4, 4), dtype=complex)
    l_full[:2, :2] = _L_MODE
    l_full[2:, 2:] = _L_MODE
    sigma = l_full @ (s - np.outer(m, m)) @ l_full.T
    if float(np.max(np.abs(sigma.imag))) > COV_IMAG_TOL:
        raise InvalidCovarianceError("covariance has a non-real part")
    out = 0.5 * (sigma.real + sigma.real.T)
    out.flags.writeable = False
    return CovarianceMatrix(out)


def gaussian_log_negativity(cov):
    """Logarithmic negativity of the Gaussian state with this covariance.

    Partial transposition flips the sign of det C, so with
    Dt = det A + det B - 2 det C the smallest symplectic eigenvalue of the
    transposed state is dt = sqrt((Dt - sqrt(Dt^2 - 4 det sigma))/2) and
    E = max(0, -log2(2 dt)).
    """
    det_a = float(np.linalg.det(cov.block_a))
    det_b = float(np.linalg.det(cov.block_b))
    det_c = float(np.linalg.det(cov.block_c))
    det_s = float(np.linalg.det(cov.mat))
    delta = det_a + det_b - 2.0 * det_c
    disc = delta * delta - 4.0 * det_s
    if disc < -PT_DISCRIMINANT_TOL:
        raise InvalidCovarianceError(f"negative discriminant {disc}")
    inner = (delta - math.sqrt(max(disc, 0.0))) / 2.0
    if inner < PT_DISCRIMINANT_TOL ** 2:
        raise InvalidCovarianceError(f"degenerate symplectic eigenvalue ({inner})")
    return max(0.0, -math.log2(2.0 * math.sqrt(inner)))


def fidelity_integral(state):
    """(1/pi) Int d^2xi chi(xi*, xi) exp(-|xi|^2) of any state, normalized or
    not.

    The two-mode characteristic function on the diagonal against a Gaussian
    weight is again a polynomial-times-Gaussian moment problem, now in one
    complex variable.  The integral is linear in chi, so the value of a
    weighted sum of states is the weighted sum of their values.
    """
    reduced = {}
    for (a0, a1, a2, a3), coeff in state.poly.items():
        key = (a1 + a2, a0 + a3)
        reduced[key] = reduced.get(key, 0j) + coeff
    # substitution (xi1, xi1*, xi2, xi2*) = (xi*, xi, xi, xi*)
    r = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    kq = r.T @ state.kernel.quad @ r
    kq[0, 1] += 1.0
    kq[1, 0] += 1.0
    return complex(MomentEngine(GaussianKernel(kq)).integrate(reduced))


def teleportation_fidelity(state):
    """Average fidelity of coherent-state teleportation with the state as the
    shared resource: the fidelity_integral of a normalized state, which must
    come out real.
    """
    check_normalized(state)
    val = fidelity_integral(state)
    if abs(val.imag) > 1e-9:
        raise ValueError(f"fidelity came out non-real: {val}")
    return float(val.real)


def separation_eta(s, n_th):
    """Transmissivity at which the thermal-loss channel output of a two-mode
    squeezed vacuum stops being entangled.

    eta_sep = 2 n_th / (2 n_th + 1 - e^(-2s)); for pure loss (n_th = 0) the
    entanglement survives all the way down, so the threshold is 0.
    """
    if s <= 0:
        raise ValueError("squeezing must be positive")
    if n_th < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if n_th == 0:
        return 0.0
    return 2.0 * n_th / (2.0 * n_th + 1.0 - math.exp(-2.0 * s))


def separation_time(s, n_th, gamma=1.0):
    """Interaction time at which eta(t) = e^(-gamma t) crosses the separation
    threshold; infinite for pure loss."""
    if gamma <= 0:
        raise ValueError("decay rate must be positive")
    eta = separation_eta(s, n_th)
    if eta == 0.0:
        return math.inf
    return -math.log(eta) / gamma


def thermal_occupation(wavelength, temperature):
    """Planck occupation 1/(e^(hc/(lambda kB T)) - 1) of an optical mode.

    wavelength in meters, temperature in kelvin; T = 0 returns 0 exactly.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0:
        return 0.0
    x = _PLANCK * _SPEED_OF_LIGHT / (wavelength * _BOLTZMANN * temperature)
    return 1.0 / math.expm1(x)
