"""Entanglement and teleportation measures for two-mode states.

Two independent routes to the logarithmic negativity are kept deliberately
separate: the Fock route diagonalizes the partially transposed truncated
density matrix, the Gaussian route uses only the covariance matrix (exact for
Gaussian states, an approximation once photon operations make the state
non-Gaussian).  Their disagreement is itself a signal of non-Gaussianity, so
neither is ever expressed through the other.  The Fock format, its partial
transpose and its parity-block eigensolve live in fock_recon.
"""

from __future__ import annotations

import math

import numpy as np

from .chi_core import SingularKernelError, _first_alone, gaussian_kernel, two_mode_stack
from .fock_recon import _spectra

COV_IMAG_TOL = 1e-10
TRACE_ONE_TOL = 1e-6

# SI defining constants, exact since 2019
_PLANCK = 6.62607015e-34
_SPEED_OF_LIGHT = 299792458.0
_BOLTZMANN = 1.380649e-23


class InvalidCovarianceError(ValueError):
    """Covariance matrix violates a physicality bound beyond tolerance."""


def log_negativity(rho):
    """Logarithmic negativity E = log2 ||rho^T1||_1 of a (d^2, d^2)
    Fock-basis state, or of each state of a (..., d^2, d^2) stack, clamped
    at zero: a truncated trace norm at most 1 (a zero matrix included) is
    noise, not physics, and reads 0; a NaN norm (from a NaN entry) gives
    NaN, so a broken state never reads as separable.  One matrix gives a
    float, a stack an array of its values; any other shape raises ValueError.

    rho^T1 is diagonalized by LAPACK (numpy.linalg.eigvalsh), which raises
    numpy.linalg.LinAlgError if it does not converge.  The solve is in
    rho's dtype: real for the float64 matrices of fock_matrices, complex
    for a complex input.  The eigenvalues are fock_recon._spectra's: per
    photon-number-parity block of rho^T1, gathered straight from rho, when
    no state of rho couples the parities, as no strategy's state does, and
    whole otherwise; so each value of a stack is, bit for bit, that of a
    call on its state alone whenever the states share the structure.
    """
    w = np.concatenate(_spectra(np.asarray(rho), True), axis=-1)
    norms = np.sum(np.abs(w), axis=-1)
    values = [0.0 if n <= 1.0 else math.log2(n) for n in norms.flat]
    return values[0] if norms.ndim == 0 else np.reshape(values, norms.shape)


# Quadratures x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)) from the
# derivative variables w = (d/dxi_i acting as a^dag, -a), mode by mode, are
# _L w / sqrt(2); _L's entries are +-1 and +-i, so it carries no rounding
_L = np.zeros((4, 4), dtype=complex)
_L[:2, :2] = _L[2:, 2:] = np.array([[1.0, -1.0], [1j, 1j]])
# the symplectic form over (x1, p1, x2, p2)
_OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
# the exponents e_a + e_b of the origin coefficients, e_0 = 0 and e_1..e_4
# the unit exponents, as index arrays over a cube's four axes
_E = np.vstack([np.zeros(4, dtype=int), np.eye(4, dtype=int)])
_ORIGIN = tuple(np.moveaxis(_E[:, None] + _E[None, :], -1, 0))


def origin_coefficients(polys):
    """The coefficients of v^(e_a + e_b) of each cube of polys, a
    (..., D, D, D, D) array, as a (..., 5, 5) array c, with e_0 = 0 and
    e_1..e_4 the unit exponents: c[..., 0, 0] is the trace P(0),
    c[..., 0, i] = d_i P(0) the first derivatives at the origin and
    c[..., i, j] the second, d_i d_j P(0) = (1 + delta_ij) c[..., i, j]
    (i, j >= 1).  A cube with D < 3 reads 0 where it has no entry.  They
    are linear in P, so a weighted sum of per-term blocks is the block of
    the weighted sum."""
    polys = np.asarray(polys)
    pad = max(0, 3 - polys.shape[-1])
    if pad:
        polys = np.pad(polys, [(0, 0)] * (polys.ndim - 4) + [(0, pad)] * 4)
    return polys[(..., *_ORIGIN)]


def covariance_from_chi(kernel, origin):
    """Quadrature covariance of the normalized state P(v) exp(-v^T K v / 2),
    K the kernel, from the exact derivatives of its characteristic function
    at the origin: origin is the (5, 5) block origin_coefficients of P (or
    a weighted sum of per-term blocks over their weighted trace).  Returns
    a read-only (4, 4) array over (x1, p1, x2, p2), with vacuum covariance
    identity/2.  Kernels (..., 4, 4) and blocks (..., 5, 5) with the same
    leading axes give the (..., 4, 4) covariances of each state, each with
    the bits it gets alone.

    With P(0) = 1 the symmetrized moments of (a1^dag, -a1, a2^dag, -a2) read
    off as S_ij = d_i d_j P(0) - K_ij and the first moments as m_i = d_i P(0);
    no numerical differentiation is involved.  The map to quadratures,
    _L / sqrt(2), is complex: sigma = _L (S - m m^T) _L^T / 2, with the 1/2
    applied once, so the vacuum's sigma is identity/2 exactly.  Its x-p
    entries are i times differences of coefficients that a Hermitian state
    has equal, so their imaginary parts are rounding noise, and one beyond
    COV_IMAG_TOL raises InvalidCovarianceError.  Each kernel must be 4x4,
    each origin a real 5x5 block and its trace origin[0, 0] 1 to
    TRACE_ONE_TOL (ValueError otherwise).  The states are checked in
    order, each as alone, so the first that fails raises its error.
    """
    kernel, origin = np.asarray(kernel), np.asarray(origin)
    if kernel.shape != origin.shape[:-2] + (4, 4) or origin.shape[-2:] != (5, 5):
        raise ValueError("a two-mode covariance takes a 4x4 kernel and a 5x5 "
                         "block of origin coefficients, or stacks of them with "
                         f"the same leading axes; got kernel shape "
                         f"{kernel.shape} and block shape {origin.shape}")
    kernels, origins = kernel.reshape(-1, 4, 4), origin.reshape(-1, 5, 5)
    if origins.imag.any() or np.any(abs(origins.real[:, 0, 0] - 1.0) > TRACE_ONE_TOL):
        _, last = _first_alone(covariance_from_chi, kernels, origins)
        if last.imag.any():
            raise ValueError("origin coefficients must be real")
        raise ValueError(f"state trace {last.real[0, 0]} is not 1")
    origins = origins.real
    m = origins[:, 0, 1:]
    s = (1.0 + np.eye(4)) * origins[:, 1:, 1:] - kernels
    sigma = 0.5 * (_L @ (s - m[:, :, None] * m[:, None, :]) @ _L.T)
    if np.any(np.abs(sigma.imag) > COV_IMAG_TOL):
        _first_alone(covariance_from_chi, kernels, origins)
        raise InvalidCovarianceError("covariance has a non-real part")
    out = (0.5 * (sigma.real + sigma.real.swapaxes(1, 2))).reshape(kernel.shape)
    out.flags.writeable = False
    return out


def gaussian_log_negativity(sigma):
    """Logarithmic negativity of the Gaussian state with (4, 4) covariance
    sigma over (x1, p1, x2, p2): E = max(0, -log2(2 nu)), nu the smallest
    symplectic eigenvalue of the partial transpose (p2 -> -p2) of sigma.
    A (..., 4, 4) stack gives an array of each state's value, bit for bit
    the float of a call on that state alone.

    With R the Cholesky factor of the transposed sigma, the symplectic
    eigenvalues are the positive eigenvalues of the Hermitian matrix
    i R^T Omega R, so nu is read off directly, with no cancellation
    between invariants near 1/4 when the state is weakly entangled.  A
    sigma that is not positive definite, or a nu <= 0, raises
    InvalidCovarianceError; on a stack the first state that fails raises.
    """
    sigma = np.asarray(sigma)
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    try:
        r = np.linalg.cholesky(flip[:, None] * sigma * flip)
    except np.linalg.LinAlgError as exc:
        _first_alone(gaussian_log_negativity, sigma.reshape(-1, 4, 4))
        raise InvalidCovarianceError("covariance is not positive definite") from exc
    nu = np.linalg.eigvalsh(1j * (r.swapaxes(-1, -2) @ _OMEGA @ r))[..., 2]
    values = []
    for x in nu.reshape(-1).tolist():
        if not x > 0.0:
            raise InvalidCovarianceError(f"symplectic eigenvalue {x} is not positive")
        values.append(max(0.0, -math.log2(2.0 * x)))
    return values[0] if nu.ndim == 0 else np.reshape(values, nu.shape)


def fidelity_integrals(kernel, polys):
    """(1/pi) Int d^2xi chi(xi*, xi) exp(-|xi|^2) of the state
    P(v) exp(-v^T K v / 2) for each polynomial P of polys over one kernel K,
    normalized or not, as a float64 array.  kernel and polys are a
    two-mode state in the pipeline's format, a float64 stack of
    coefficient cubes of one shape over one kernel, or a chunk of such
    states with leading axes on both (see chi_core.two_mode_stack); the
    result has the stack's shape less the cube axes.

    K must pass chi_core.gaussian_kernel (a ValueError otherwise).  Under
    (xi1, xi1*, xi2, xi2*) = (xi*, xi, xi, xi*) K becomes a real 2x2 kq
    over (xi, xi*), and K's phase charge makes kq's diagonal exactly 0.
    So the integrand's Gaussian is exp(-kappa |xi|^2), kappa = kq[0, 1] + 1
    per kernel, and each value is the sum of c_(a,a) a!/kappa^(a+1) over
    its own polynomial's nonzero monomials (the moment of xi^a xi*^b is 0
    for a != b): bit for bit a one-polynomial, one-kernel call.  A
    kappa <= 0, or moments of a state's own monomials out of the float
    range, raise SingularKernelError.
    """
    kernel = gaussian_kernel(kernel)
    polys = two_mode_stack(kernel, polys)
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])  # v = r (xi, xi*)
    kappa = (r.T @ kernel @ r)[..., 0, 1] + 1.0
    own = np.any(polys != 0, axis=kernel.ndim - 2)  # each state's monomials
    support = np.argwhere(np.any(own, axis=tuple(range(kernel.ndim - 2))))
    a, b = (support @ r).T
    support, a = support[a == b], a[a == b]
    with np.errstate(all="ignore"):
        moments = (np.array([math.factorial(n) for n in a], float)
                   / kappa[..., None] ** (a + 1))
    used = own[(..., *support.T)]
    fine = (kappa > 0.0) & np.all(~used | ((0.0 < moments) & (moments < math.inf)),
                                  axis=-1)
    if not fine.all():
        raise SingularKernelError(f"fidelity kappa {kappa[~fine].flat[0]} "
                                  "is out of range")
    coeffs = polys[(..., *support.T)]
    rows = (math.prod(coeffs.shape[:-1]), len(a))
    moments = np.broadcast_to(moments[..., None, :], coeffs.shape).reshape(rows)
    sums = [np.sum(c[c != 0] * m[c != 0])
            for c, m in zip(coeffs.reshape(rows), moments)]
    return np.array(sums, float).reshape(coeffs.shape[:-1])


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


def breaking_eta(n_th):
    """Transmissivity at and below which the thermal-loss channel of bath
    occupation n_th is entanglement breaking: eta_eb = n_th / (n_th + 1).

    Such a channel on one mode leaves every two-mode input separable.  In
    shot-noise units it maps the quadratures by sqrt(eta) and adds noise
    (1 - eta)(2 n_th + 1), and a phase-insensitive Gaussian channel is
    entanglement breaking exactly when its noise is at least 1 + eta
    (A. S. Holevo, Probl. Inf. Transm. 44, 171 (2008)).  For pure loss the
    threshold is 0.  It lies below separation_eta(s, n_th) for every s.
    """
    if n_th < 0:
        raise ValueError("thermal occupation must be nonnegative")
    return n_th / (n_th + 1.0)


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
