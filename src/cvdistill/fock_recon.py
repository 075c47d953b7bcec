"""Fock-basis reconstruction of two-mode states from characteristic functions.

A density matrix element on the truncated Fock space is the overlap integral

    rho_{ij,kl} = (1/pi^2) Int d^2xi1 d^2xi2
                  <i|D^dag(xi1)|k> <j|D^dag(xi2)|l> chi(xi1, xi2),

and every displacement matrix element is a finite polynomial times the
Gaussian exp(-|xi|^2/2).  For polynomial-times-Gaussian characteristic
functions the whole integrand therefore lives in one augmented Gaussian
kernel, and the exact moment engine evaluates it term by term.

Truncation note: dropping Fock components above n_trunc can only lower the
measured entanglement (the truncation is a local projection), so in exact
arithmetic the negativity computed from these matrices is a lower bound that
grows toward the true value as n_trunc increases.  In float64 that holds only
while the reconstruction is accurate (the likely cause of failure is
cancellation between the alternating Laguerre-monomial expansion and moments
that grow factorially), so certify() refuses a matrix whose trace exceeds 1
or whose smallest eigenvalue is negative beyond CERTIFY_TOL.  For the
two-mode squeezed vacuum at s = 1 that happens at n_trunc = 16 (trace
1.00017, smallest eigenvalue -4.5e-6); at n_trunc = 20 the trace is 1.397.

The independent cross-checks of this reconstruction (a scalar per-element
route and a brute-force Gauss-Legendre integration) live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chi_core import GaussianKernel, MomentEngine

TRACE_ONE_TOL = 1e-6
CERTIFY_TOL = 1e-6


class PrecisionError(Exception):
    """A reconstructed Fock matrix is not a state to within CERTIFY_TOL."""


def _laguerre_coeffs(n, alpha):
    """Ascending coefficients of the generalized Laguerre polynomial
    L_n^(alpha), (-1)^k C(n + alpha, n - k) / k!, each rounded once from
    the exact integer ratio."""
    return [(-1) ** k * math.comb(n + alpha, n - k) / math.factorial(k)
            for k in range(n + 1)]


def _sqrt_factorial_ratio(n, m):
    """sqrt(n!/m!) for m >= n, accumulated as a ratio to avoid overflow."""
    r = 1.0
    for j in range(n + 1, m + 1):
        r /= math.sqrt(j)
    return r


def displacement_fock_poly(m, n):
    """Polynomial part of the displacement matrix element <m|D(xi)|n>.

    <m|D(xi)|n> = P(xi, xi*) exp(-|xi|^2/2) with, for m >= n,
    P = sqrt(n!/m!) xi^(m-n) L_n^(m-n)(xi xi*) expanded into min(m, n) + 1
    monomials of total degree up to m + n; m < n follows from
    <m|D(xi)|n> = conj(<n|D(-xi)|m>).  Returned as {(a, b): coeff} with a the
    power of xi and b the power of xi*.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be nonnegative")
    if m >= n:
        lag = _laguerre_coeffs(n, m - n)
        pref = _sqrt_factorial_ratio(n, m)
        return {(m - n + k, k): pref * lag[k] for k in range(n + 1)}
    lag = _laguerre_coeffs(m, n - m)
    pref = _sqrt_factorial_ratio(m, n) * (-1.0) ** (n - m)
    return {(k, n - m + k): pref * lag[k] for k in range(m + 1)}


def _dagger_poly(m, n):
    """Polynomial part of <m|D^dag(xi)|n> = <m|D(-xi)|n>."""
    return {(a, b): c * (-1.0) ** (a + b)
            for (a, b), c in displacement_fock_poly(m, n).items()}


@dataclass
class FockDensityMatrix:
    """Two-mode density matrix on Fock levels 0..n_trunc per mode.

    Row-major composite index: row = i * (n_trunc + 1) + j for |i, j>.
    """

    n_trunc: int
    elems: np.ndarray

    @property
    def dim(self):
        return self.n_trunc + 1

    @property
    def trace(self):
        return float(np.trace(self.elems).real)

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.elems - self.elems.conj().T)))


def _augmented_kernel(kernel):
    """State kernel plus the exp(-|xi_i|^2/2) factors of the displacement
    matrix elements."""
    k = np.array(kernel.quad)
    for p in (0, 2):
        k[p, p + 1] += 0.5
        k[p + 1, p] += 0.5
    return GaussianKernel(k)


class FockMatrixBuilder:
    """Reusable reconstruction context for one kernel and truncation.

    The coherent operation and the optimizer change only the polynomial part
    of the state, never the kernel, so the expensive objects (moment table and
    the per-element weight matrix over a fixed monomial support) are built
    once and reused by every matrix() call.
    """

    def __init__(self, kernel, n_trunc, alpha_support):
        if n_trunc < 0:
            raise ValueError("n_trunc must be nonnegative")
        self.n_trunc = n_trunc
        d = n_trunc + 1
        support = sorted({tuple(int(x) for x in a) for a in alpha_support})
        if not support:
            raise ValueError("empty polynomial support")
        self._alpha_index = {a: i for i, a in enumerate(support)}
        engine = MomentEngine(_augmented_kernel(kernel))

        dag = {}
        for mm in range(d):
            for nn in range(d):
                terms = _dagger_poly(mm, nn)
                offs = np.array([t for t in terms], dtype=np.intp).reshape(-1, 2)
                cofs = np.array([terms[t] for t in terms])
                dag[(mm, nn)] = (offs, cofs)

        amax = np.max(np.array(support), axis=0)
        shape = tuple(int(x) for x in amax + n_trunc + 1)
        table = engine.moment_table(shape).reshape(-1)
        strides = np.array([int(np.prod(shape[i + 1:])) for i in range(4)], dtype=np.intp)

        alpha_arr = np.array(support, dtype=np.intp)
        alpha_lin = alpha_arr @ strides
        rows = []
        cols = []
        weights = np.empty((len(support), d * d * (d * d + 1) // 2), dtype=complex)
        for row in range(d * d):
            i, j = divmod(row, d)
            for col in range(row, d * d):
                k, l = divmod(col, d)
                o1, c1 = dag[(i, k)]
                o2, c2 = dag[(j, l)]
                lin1 = o1[:, 0] * strides[0] + o1[:, 1] * strides[1]
                lin2 = o2[:, 0] * strides[2] + o2[:, 1] * strides[3]
                lin = (alpha_lin[:, None, None] + lin1[None, :, None]
                       + lin2[None, None, :])
                vals = table[lin.reshape(-1)].reshape(lin.shape)
                rows.append(row)
                cols.append(col)
                weights[:, len(rows) - 1] = np.einsum("abc,b,c->a", vals, c1, c2)
        self._rows = np.array(rows)
        self._cols = np.array(cols)
        self._weights = weights

    def matrix(self, poly):
        """Assemble the truncated density matrix for a polynomial over the
        builder's support (upper triangle integrated, rest by Hermitian
        symmetry of the state)."""
        coeff = np.zeros(len(self._alpha_index), dtype=complex)
        for a, c in poly.items():
            idx = self._alpha_index.get(tuple(a))
            if idx is None:
                raise ValueError(f"monomial {a!r} outside the builder support")
            coeff[idx] = c
        upper = coeff @ self._weights
        d = self.n_trunc + 1
        elems = np.zeros((d * d, d * d), dtype=complex)
        elems[self._rows, self._cols] = upper
        lower = np.conj(upper)
        elems[self._cols, self._rows] = lower
        diag = self._rows == self._cols
        elems[self._rows[diag], self._cols[diag]] = upper[diag].real
        return FockDensityMatrix(self.n_trunc, elems)


def _check_normalized(state):
    tr = state.trace
    if abs(tr - 1.0) > TRACE_ONE_TOL:
        raise ValueError(f"state trace {tr} is not 1; normalize first")


def certify(rho):
    """Return rho if it is a state to within CERTIFY_TOL: trace at most 1
    (truncation only loses weight) and no eigenvalue below -CERTIFY_TOL."""
    lam = float(np.linalg.eigvalsh(rho.elems)[0])
    if rho.trace > 1.0 + CERTIFY_TOL or lam < -CERTIFY_TOL:
        raise PrecisionError(f"n_trunc = {rho.n_trunc} gives no state: trace "
                             f"{rho.trace}, smallest eigenvalue {lam}")
    return rho


def fock_matrix(state, n_trunc):
    """Certified truncated two-mode density matrix of a normalized state."""
    _check_normalized(state)
    builder = FockMatrixBuilder(state.kernel, n_trunc, state.poly.keys())
    return certify(builder.matrix(state.poly))

