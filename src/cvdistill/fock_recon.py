"""Fock-basis reconstruction of two-mode states from characteristic functions.

A density matrix element on the truncated Fock space is the overlap integral

    rho_{ij,kl} = (1/pi^2) Int d^2xi1 d^2xi2
                  <i|D^dag(xi1)|k> <j|D^dag(xi2)|l> chi(xi1, xi2),

and every displacement matrix element is a finite polynomial times the
Gaussian exp(-|xi|^2/2).  For polynomial-times-Gaussian characteristic
functions the whole integrand therefore lives in one augmented Gaussian
kernel, and the exact moment table evaluates it term by term.  A density
matrix is a plain (d^2, d^2) complex array, d = n_trunc + 1.  When the
kernel conserves the phase charge of chi_core.phase_charges, as every
strategy's kernel does, only the moments and weights of charge zero are
computed; the others are exactly +0 either way.

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

import functools
import math

import numpy as np

from .chi_core import (_moment_covariance, _pair_square, _read_only,
                       check_normalized, moment_table, phase_charges)

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


@functools.lru_cache(maxsize=None)
def _dagger_table(d):
    """The terms of every <m|D^dag|n>, m, n < d, padded to d: exponent
    offsets (a, b) of (xi, xi*) as a read-only (d, d, d, 2) array and
    coefficients as a read-only (d, d, d) array."""
    offs = np.zeros((d, d, d, 2), dtype=np.intp)
    cof = np.zeros((d, d, d))
    for mm in range(d):
        for nn in range(d):
            terms = _dagger_poly(mm, nn)
            offs[mm, nn, :len(terms)] = list(terms)
            cof[mm, nn, :len(terms)] = list(terms.values())
    offs.flags.writeable = cof.flags.writeable = False
    return offs, cof


def _augmented_kernel(kernel):
    """State kernel plus the exp(-|xi_i|^2/2) factors of the displacement
    matrix elements, as a read-only complex array.  The input must be
    exactly symmetric, as gaussian_kernel leaves it; the 0.5 goes to both
    entries of each pair, so the result is too and is not checked again."""
    k = _pair_square(kernel)
    if not np.array_equal(k, k.T):
        raise ValueError("kernel must be symmetric")
    for p in (0, 2):
        k[p, p + 1] += 0.5
        k[p + 1, p] += 0.5
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=8)
def _fock_plan(d, support, charge):
    """The index bookkeeping of fock_matrices for one cutoff d, one support
    (a tuple of exponent 4-tuples) and one charge vector, as (shape, rows,
    cols, classes): the moment table's shape, the upper triangle of a
    (d^2, d^2) matrix, and per (p, q) class of entries that has pairs of
    charge zero, (a, e, o1, o2, c1, c2) over those pairs: the support and
    triangle index of each pair, the flat table offsets of its p mode-1
    terms plus its monomial, (p, pairs), and of its q mode-2 terms,
    (q, pairs), and the coefficients of those terms, in the same shapes.
    Tuples of read-only arrays, since every caller shares them.  The
    offsets of the two modes are kept apart and summed to (p, q, pairs) on
    each call, which keeps the plan at 1.5 MiB rather than 2.1 MiB at
    n_trunc 8."""
    support = np.array(support, dtype=np.intp).reshape(-1, 4)
    shape = tuple(int(x) for x in np.max(support, axis=0) + d)
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(4)], dtype=np.intp)

    # the terms of <m|D^dag|n>: their flat table offsets in the two axes of
    # mode 1 (lin[0]) and of mode 2 (lin[1]), and coefficients
    offs, cof = _dagger_table(d)
    lin = offs @ strides[:2], offs @ strides[2:]

    alpha_lin = support @ strides
    rows, cols = np.triu_indices(d * d)
    i, j = np.divmod(rows, d)
    k, l = np.divmod(cols, d)
    p_of, q_of = np.minimum(i, k) + 1, np.minimum(j, l) + 1
    # a pair of an entry and a support monomial reads moments of one charge:
    # entry_charge + alpha_charge
    entry_charge = charge[0] * (i - k) + charge[2] * (j - l)
    alpha_charge = support @ np.array(charge, dtype=np.intp)
    classes = []
    for p in range(1, d + 1):
        for q in range(1, d + 1):
            e = np.flatnonzero((p_of == p) & (q_of == q))
            a, n = np.nonzero(alpha_charge[:, None] + entry_charge[e] == 0)
            if not len(a):
                continue
            e = e[n]
            classes.append(tuple(_read_only(x) for x in (
                a, e, lin[0][i[e], k[e], :p].T + alpha_lin[a],
                lin[1][j[e], l[e], :q].T, cof[i[e], k[e], :p].T,
                cof[j[e], l[e], :q].T)))
    return shape, _read_only(rows), _read_only(cols), tuple(classes)


def fock_matrices(kernel, n_trunc, polys):
    """Truncated two-mode density matrices of polynomials over one kernel.

    polys is a stack of coefficient cubes of one shape (see PolyGaussianChi).
    Returns a complex array of shape (len(polys), d^2, d^2), d = n_trunc + 1,
    with the row-major composite index i * d + j for |i, j>.  The moment
    table and the per-element weight matrix are built once over the union of
    the polynomials' nonzero monomials; each matrix is its own coefficient
    vector times the weights (upper triangle integrated, the rest by
    Hermitian symmetry of a state).  The polynomials need not be normalized,
    so a weighted sum of their matrices is the matrix of the weighted sum.

    The weight of rho_{ij,kl} at a support monomial sums the p * q products
    of the p = min(i, k) + 1 terms of <i|D^dag|k> and the q = min(j, l) + 1
    terms of <j|D^dag|l>.  Entries with the same (p, q) are handled together,
    one (p * q, pairs) array per class over its (entry, support) pairs: each
    moment is scaled by the mode-1 coefficient, then by the mode-2
    coefficient, and the terms are added one after another, mode-1 term
    major, starting from +0.  That is the order of the per-entry einsum it
    replaced (tests/oracles.fock_matrices_by_entry), kept bit for bit on
    purpose: the n_trunc-8 benchmark references hold this route's own
    float64 error, and a reordering of the same sums moves outputs past
    their 1e-10 gate (ROADMAP item 1).

    Only the pairs the phase symmetry allows are gathered.  Every term of
    <i|D^dag|k> has a power of xi1 that exceeds the power of xi1* by i - k,
    so with q = phase_charges of the augmented kernel every moment a pair
    reads has the charge q_0 (i - k) + q_2 (j - l) + q . alpha.  Where that
    is nonzero the moments are +0 (see moment_table), the products +-0, and
    the sum plus 0.0 is +0, so those weights keep the +0 of np.zeros.

    Which pairs each class gathers, their table offsets and their term
    coefficients depend only on d, the support and q, so they are planned
    once per (d, support, q) and cached (_fock_plan); q is looked up afresh
    on every call.  A call gathers the moments, scales and sums them in the
    order above, so the plan moves no bit.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    polys = np.asarray(polys)
    support = np.argwhere(np.any(polys != 0, axis=0))
    if not len(support):
        raise ValueError("empty polynomial support")
    d = n_trunc + 1

    aug = _augmented_kernel(kernel)
    charge = tuple(phase_charges(_moment_covariance(aug)[0]).tolist())
    shape, rows, cols, classes = _fock_plan(d, tuple(map(tuple, support.tolist())), charge)
    table = moment_table(aug, shape).reshape(-1)
    weights = np.zeros((len(support), len(rows)), dtype=complex)
    for a, e, o1, o2, c1, c2 in classes:
        vals = table[o1[:, None] + o2[None]]
        vals *= c1[:, None]
        vals *= c2[None]
        vals = vals.reshape(-1, len(e))
        # + 0.0 turns a sum of -0 terms into +0, as a sum from +0 does
        weights[a, e] = np.add.accumulate(vals, out=vals)[-1] + 0.0

    diag = rows == cols
    out = np.zeros((len(polys), d * d, d * d), dtype=complex)
    for rho, coeff in zip(out, polys[(slice(None), *support.T)]):
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
    check_normalized(state.poly)
    return certify(fock_matrices(state.kernel, n_trunc, [state.poly])[0])
