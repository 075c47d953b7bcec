"""Fock-basis reconstruction of two-mode states from characteristic functions.

A density matrix element on the truncated Fock space is the overlap integral

    rho_{ij,kl} = (1/pi^2) Int d^2xi1 d^2xi2
                  <i|D^dag(xi1)|k> <j|D^dag(xi2)|l> chi(xi1, xi2),

and every displacement matrix element is a finite polynomial times the
Gaussian exp(-|xi|^2/2).  For polynomial-times-Gaussian characteristic
functions the whole integrand therefore lives in one augmented Gaussian
kernel, and the exact moment engine evaluates it term by term.  A density
matrix is a plain (d^2, d^2) complex array, d = n_trunc + 1.

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

import numpy as np

from .chi_core import GaussianKernel, MomentEngine, check_normalized

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


def _augmented_kernel(kernel):
    """State kernel plus the exp(-|xi_i|^2/2) factors of the displacement
    matrix elements."""
    k = np.array(kernel.quad)
    for p in (0, 2):
        k[p, p + 1] += 0.5
        k[p + 1, p] += 0.5
    return GaussianKernel(k)


def fock_matrices(kernel, n_trunc, polys):
    """Truncated two-mode density matrices of polynomials over one kernel.

    Returns a complex array of shape (len(polys), d^2, d^2), d = n_trunc + 1,
    with the row-major composite index i * d + j for |i, j>.  The moment
    table and the per-element weight matrix are built once over the union of
    the polynomials' monomials; each matrix is its own coefficient vector
    times the weights (upper triangle integrated, the rest by Hermitian
    symmetry of a state).  The polynomials need not be normalized, so a
    weighted sum of their matrices is the matrix of the weighted sum.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    support = sorted(set().union(*polys))
    if not support:
        raise ValueError("empty polynomial support")
    d = n_trunc + 1
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

    alpha_lin = np.array(support, dtype=np.intp) @ strides
    rows, cols = np.triu_indices(d * d)
    weights = np.empty((len(support), len(rows)), dtype=complex)
    for n, (row, col) in enumerate(zip(rows.tolist(), cols.tolist())):
        i, j = divmod(row, d)
        k, l = divmod(col, d)
        o1, c1 = dag[(i, k)]
        o2, c2 = dag[(j, l)]
        lin1 = o1[:, 0] * strides[0] + o1[:, 1] * strides[1]
        lin2 = o2[:, 0] * strides[2] + o2[:, 1] * strides[3]
        lin = (alpha_lin[:, None, None] + lin1[None, :, None]
               + lin2[None, None, :])
        vals = table[lin.reshape(-1)].reshape(lin.shape)
        weights[:, n] = np.einsum("abc,b,c->a", vals, c1, c2)

    index = {a: n for n, a in enumerate(support)}
    diag = rows == cols
    out = np.zeros((len(polys), d * d, d * d), dtype=complex)
    for rho, poly in zip(out, polys):
        coeff = np.zeros(len(support), dtype=complex)
        for a, c in poly.items():
            coeff[index[a]] = c
        upper = coeff @ weights
        rho[rows, cols] = upper
        rho[cols, rows] = np.conj(upper)
        rho[rows[diag], cols[diag]] = upper[diag].real
    return out


def certify(rho):
    """Return the (d^2, d^2) matrix rho if it is a state to within
    CERTIFY_TOL: trace at most 1 (truncation only loses weight) and no
    eigenvalue below -CERTIFY_TOL."""
    lam = float(np.linalg.eigvalsh(rho)[0])
    trace = float(np.trace(rho).real)
    if trace > 1.0 + CERTIFY_TOL or lam < -CERTIFY_TOL:
        raise PrecisionError(f"n_trunc = {math.isqrt(len(rho)) - 1} gives no "
                             f"state: trace {trace}, smallest eigenvalue {lam}")
    return rho


def fock_matrix(state, n_trunc):
    """Certified truncated density matrix of a normalized two-mode state,
    as a (d^2, d^2) array with d = n_trunc + 1."""
    check_normalized(state)
    return certify(fock_matrices(state.kernel, n_trunc, [state.poly])[0])
