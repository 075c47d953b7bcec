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

import numpy as np

from .chi_core import check_normalized, gaussian_kernel, moment_table

PT_DISCRIMINANT_TOL = 1e-12
COV_IMAG_TOL = 1e-10

# SI defining constants, exact since 2019
_PLANCK = 6.62607015e-34
_SPEED_OF_LIGHT = 299792458.0
_BOLTZMANN = 1.380649e-23


class InvalidCovarianceError(ValueError):
    """Covariance matrix violates a physicality bound beyond tolerance."""


def partial_transpose(rho):
    """Partial transpose on the first mode: (rho^T1)_{ij,kl} = rho_{kj,il}."""
    d = math.isqrt(len(rho))
    return rho.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)


def log_negativity(rho):
    """Logarithmic negativity E = log2 ||rho^T1||_1 of a (d^2, d^2)
    Fock-basis state, clamped at zero: a truncated trace norm at most 1 (a
    zero matrix included) is noise, not physics, and reads 0.

    The partial transpose is diagonalized by LAPACK (numpy.linalg.eigvalsh),
    which raises numpy.linalg.LinAlgError if it does not converge.  The tests
    check it against a self-contained cyclic Jacobi solver.
    """
    w = np.linalg.eigvalsh(partial_transpose(rho))
    norm = float(np.sum(np.abs(w)))
    return math.log2(norm) if norm > 1.0 else 0.0


# Quadratures x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)) from the
# derivative variables w = (d/dxi_i acting as a^dag, -a), mode by mode:
_L = np.zeros((4, 4), dtype=complex)
_L[:2, :2] = _L[2:, 2:] = np.array([[1.0, -1.0], [1j, 1j]]) / math.sqrt(2.0)


def covariance_from_chi(kernel, poly):
    """Quadrature covariance of the normalized state P(v) exp(-v^T K v / 2),
    K the kernel and P the cube poly, from exact derivatives of its
    characteristic function at the origin: a read-only (4, 4) array over
    (x1, p1, x2, p2), with vacuum covariance identity/2.

    With P(0) = 1 the symmetrized moments of (a1^dag, -a1, a2^dag, -a2) read
    off as S_ij = d_i d_j P(0) - K_ij and the first moments as m_i = d_i P(0);
    no numerical differentiation is involved.
    """
    check_normalized(poly)
    poly = np.pad(poly, [(0, max(0, 3 - len(poly)))] * 4)
    e = np.eye(4, dtype=int)
    second = poly[tuple(np.moveaxis(e[:, None] + e[None, :], -1, 0))]
    s = (1.0 + np.eye(4)) * second - kernel
    m = poly[tuple(e)]
    sigma = _L @ (s - np.outer(m, m)) @ _L.T
    if float(np.max(np.abs(sigma.imag))) > COV_IMAG_TOL:
        raise InvalidCovarianceError("covariance has a non-real part")
    out = 0.5 * (sigma.real + sigma.real.T)
    out.flags.writeable = False
    return out


def gaussian_log_negativity(sigma):
    """Logarithmic negativity of the Gaussian state with (4, 4) covariance
    sigma = [[A, C], [C^T, B]].

    Partial transposition flips the sign of det C, so with
    Dt = det A + det B - 2 det C the smallest symplectic eigenvalue of the
    transposed state is dt = sqrt((Dt - sqrt(Dt^2 - 4 det sigma))/2) and
    E = max(0, -log2(2 dt)).
    """
    det_a = float(np.linalg.det(sigma[:2, :2]))
    det_b = float(np.linalg.det(sigma[2:, 2:]))
    det_c = float(np.linalg.det(sigma[:2, 2:]))
    det_s = float(np.linalg.det(sigma))
    delta = det_a + det_b - 2.0 * det_c
    disc = delta * delta - 4.0 * det_s
    if disc < -PT_DISCRIMINANT_TOL:
        raise InvalidCovarianceError(f"negative discriminant {disc}")
    inner = (delta - math.sqrt(max(disc, 0.0))) / 2.0
    if inner < PT_DISCRIMINANT_TOL ** 2:
        raise InvalidCovarianceError(f"degenerate symplectic eigenvalue ({inner})")
    return max(0.0, -math.log2(2.0 * math.sqrt(inner)))


def fidelity_integrals(kernel, polys):
    """(1/pi) Int d^2xi chi(xi*, xi) exp(-|xi|^2) of the state
    P(v) exp(-v^T K v / 2) for each polynomial P of polys over one kernel K,
    normalized or not, as a complex array.  polys is a stack of coefficient
    cubes of one shape (see PolyGaussianChi).

    The two-mode characteristic function on the diagonal against a Gaussian
    weight is again a polynomial-times-Gaussian moment problem, now in one
    complex variable.  One moment table covers the union of the reduced
    supports; each value is its own sum over its own polynomial's nonzero
    monomials, so it is the same, bit for bit, as a one-polynomial call.  The
    integral is linear in chi, so the value of a weighted sum of states is
    the weighted sum of their values.
    """
    polys = np.asarray(polys)
    support = np.argwhere(np.any(polys != 0, axis=0))
    # substitution (xi1, xi1*, xi2, xi2*) = (xi*, xi, xi, xi*)
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    reduced = support @ r
    kq = r.T @ kernel @ r
    kq[0, 1] += 1.0
    kq[1, 0] += 1.0
    table = moment_table(gaussian_kernel(kq), reduced.max(axis=0, initial=0) + 1)
    values = table[tuple(reduced.T)]
    return np.array([np.sum(c[c != 0] * values[c != 0])
                     for c in polys[(slice(None), *support.T)]], dtype=complex)


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
    """Planck occupation 1/(e^x - 1), x = hc/(lambda kB T), of an optical
    mode, computed as e^(-x)/(1 - e^(-x)) so that a large x gives 0 rather
    than an overflow.

    wavelength in meters, temperature in kelvin; T = 0, or a product
    lambda kB T that underflows to 0, returns 0 exactly.  An occupation beyond
    the float range raises FloatingPointError.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    denom = wavelength * _BOLTZMANN * temperature
    x = _PLANCK * _SPEED_OF_LIGHT / denom if denom else math.inf
    n = math.exp(-x) / -math.expm1(-x) if x > 0 else math.inf
    if n == math.inf:
        raise FloatingPointError("thermal occupation overflows the float range")
    return n
