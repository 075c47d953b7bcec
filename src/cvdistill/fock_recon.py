"""Fock-basis reconstruction of two-mode states from characteristic functions.

A density matrix element on the truncated Fock space is the overlap integral

    rho_{ij,kl} = (1/pi^2) Int d^2xi1 d^2xi2
                  <i|D^dag(xi1)|k> <j|D^dag(xi2)|l> chi(xi1, xi2),

and every displacement matrix element is a finite polynomial times the
Gaussian exp(-|xi|^2/2), so for polynomial-times-Gaussian characteristic
functions the whole integrand lives in one augmented Gaussian kernel and
the exact float64 moment table evaluates it term by term.  A density
matrix is a plain (d^2, d^2) float64 array, d = n_trunc + 1.  Every
kernel conserves the phase charge, so only the moments and weights of
charge zero are computed; the others are exactly +0.  This module is the
one home of that format: its shape check (_fock_side), its partial
transpose and its photon-number-parity blocks (_blocks), which the
eigensolves of certify, entanglement.log_negativity and the optimizer share.

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
import itertools
import math
import operator

import numpy as np

from .chi_core import (_charges, _read_only, gaussian_kernel, moment_table,
                       two_mode_stack)

CERTIFY_TOL = 1e-6


class PrecisionError(Exception):
    """certify refused a Fock matrix: not a state to within CERTIFY_TOL."""


@functools.lru_cache(maxsize=None)
def _dagger_table(d):
    """The terms of every <m|D^dag(xi)|n> = <m|D(-xi)|n>, m, n < d, padded
    to d: exponent offsets (a, b) of (xi, xi*) as a read-only (d, d, d, 2)
    array and coefficients as a read-only (d, d, d) array.

    For m >= n, <m|D(xi)|n> = sqrt(n!/m!) xi^(m-n) L_n^(m-n)(xi xi*)
    exp(-|xi|^2/2), and m < n follows from <m|D(xi)|n> = conj(<n|D(-xi)|m>).
    With lo, hi = min(m, n), max(m, n), term k <= lo of <m|D^dag|n> is
    xi^(m-lo+k) xi*^(n-lo+k) times (-1)^(m-lo+k) sqrt(lo!/hi!) C(hi, lo-k)/k!:
    the Laguerre coefficient rounded once from the exact integer ratio, the
    square-root ratio accumulated one factor at a time (no factorial
    overflows), and the signs exact.  tests/oracles.py holds the same terms
    as {(a, b): coeff} dicts, which this table equals bit for bit.
    """
    offs = np.zeros((d, d, d, 2), dtype=np.intp)
    cof = np.zeros((d, d, d))
    for m in range(d):
        for n in range(d):
            lo, hi = min(m, n), max(m, n)
            ratio = 1.0
            for j in range(lo + 1, hi + 1):
                ratio /= math.sqrt(j)
            for k in range(lo + 1):
                offs[m, n, k] = m - lo + k, n - lo + k
                cof[m, n, k] = (-1) ** (m - lo + k) * (
                    ratio * (math.comb(hi, lo - k) / math.factorial(k)))
    offs.flags.writeable = cof.flags.writeable = False
    return offs, cof


def _augmented_kernel(kernel):
    """State kernel, or each kernel of a stack (..., 4, 4), plus the
    exp(-|xi_i|^2/2) factors of the displacement matrix elements, as a
    read-only float64 array.  The input is a kernel that gaussian_kernel
    has already returned (it is not checked again); the real 0.5 goes to
    both entries of each conjugate pair, so the result keeps that
    contract."""
    k = np.array(kernel)
    k[..., [0, 1, 2, 3], [1, 0, 3, 2]] += 0.5
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=8)
def _fock_plan(d, support):
    """The index bookkeeping of fock_matrices for one cutoff d and one
    support (a tuple of exponent 4-tuples), as (shape, rows, cols,
    classes): the moment table's shape, the upper triangle of a (d^2, d^2)
    matrix, and per (p, q) class of entries that has pairs of charge zero,
    (a, e, o1, o2, c1, c2) over those pairs: the support and triangle index
    of each pair, the flat table offsets of its p mode-1 terms plus its
    monomial, (p, pairs), and of its q mode-2 terms, (q, pairs), and the
    coefficients of those terms, in the same shapes.  Tuples of read-only
    arrays, since every caller shares them.  The offsets of the two modes
    are kept apart and summed to (p, q, pairs) on each call, which keeps
    the plan at 1.5 MiB rather than 2.1 MiB at n_trunc 8."""
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
    charge = _charges(4)
    entry_charge = charge[0] * (i - k) + charge[2] * (j - l)
    alpha_charge = support @ charge
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


def _cutoff(n_trunc):
    """n_trunc as an int, or ValueError unless it is a nonnegative integer
    (an int or numpy integer, not a float or a string)."""
    try:
        n = operator.index(n_trunc)
    except TypeError:
        raise ValueError(f"n_trunc must be an integer, got {n_trunc!r}") from None
    if n < 0:
        raise ValueError("n_trunc must be nonnegative")
    return n


def _fock_side(rho):
    """d of a Fock matrix rho in the (..., d^2, d^2) format, d >= 1: one
    two-mode density matrix over |i, j>, i, j < d, or a stack of them.
    Any other shape raises ValueError."""
    shape = np.shape(rho)
    d = math.isqrt(shape[-1]) if len(shape) > 1 else 0
    if not d or shape[-2:] != (d * d, d * d):
        raise ValueError("a Fock matrix is a (..., d^2, d^2) array with "
                         f"d >= 1; got shape {shape}")
    return d


def fock_matrices(kernel, n_trunc, polys, *more, out=None):
    """Truncated two-mode density matrices of polynomials over one kernel,
    or over each kernel of a stack.

    kernel and polys are a two-mode state in the pipeline's format (see
    chi_core.two_mode_stack), or a chunk of them with leading axes, n_trunc
    a nonnegative integer and more further stacks over the same kernels.
    Returns the stacks' matrices in order along the term axis, shape
    (..., total number of cubes, d^2, d^2), d = n_trunc + 1, row
    i * d + j for |i, j>, float64 as the stacks and the moment table are.
    With out, a sequence of one writable array per stack shaped like its
    matrices, (..., n, d^2, d^2), each stack's matrices are written there
    instead (every entry) and out is returned.

    One moment table per kernel, all of them from one moment_table call
    over the stack, and per kernel one weight matrix over the union of
    every kernel's and stack's nonzero monomials: a weight reads only its
    own monomial's moments, so it does not depend on the union.  Each
    matrix is its own coefficient vector times the weight rows of its own
    monomials (upper triangle integrated, the rest by Hermitian symmetry),
    so a stack over a kernel gets the bits it gets alone: zeros for the
    other monomials would move the rounding.  The polynomials need not be
    normalized, so a weighted sum of their matrices is the matrix of the
    weighted sum; certify(fock_matrices(kernel, n, stack)[0]) is the
    checked matrix of a normalized single state.

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
    their 1e-10 gate (ROADMAP item 1).  The classes run one kernel at a
    time, and each kernel's weights are contracted before the next
    kernel's are built, so a call holds one weight matrix.

    The kernel must pass chi_core.gaussian_kernel, and only the pairs its
    phase symmetry allows are gathered.  Every term of <i|D^dag|k> has a
    power of xi1 that exceeds the power of xi1* by i - k, so with q the
    phase charges every moment a pair reads has the charge
    q_0 (i - k) + q_2 (j - l) + q . alpha.  Where that is nonzero the
    moments are +0 (see moment_table), so those weights keep the +0 of
    np.zeros, as the sum of their +-0 products plus 0.0 would be.

    Which pairs each class gathers, their table offsets and their term
    coefficients depend only on d and the support, so they are planned
    once per (d, support) and cached (_fock_plan); a call only gathers,
    scales and sums, in the order above, into out or an array it allocates
    before any weights.
    """
    n_trunc = _cutoff(n_trunc)
    kernel = gaussian_kernel(kernel)
    stacks = [two_mode_stack(kernel, p) for p in (polys, *more)]
    lead = kernel.shape[:-2]
    d = n_trunc + 1
    # one kernel axis: kernel k's cubes and supports; at is its index in lead
    kernels = kernel.reshape(-1, 4, 4)
    stacks = [p.reshape((len(kernels),) + p.shape[len(lead):]) for p in stacks]
    supports = [[np.argwhere(np.any(p != 0, axis=0)) for p in stack] for stack in stacks]
    if not all(len(own) for per_stack in supports for own in per_stack):
        raise ValueError("empty polynomial support")
    # the union in argwhere's (lexicographic) order
    monomials = tuple(sorted({m for per_stack in supports for own in per_stack
                              for m in map(tuple, own.tolist())}))

    shape, rows, cols, classes = _fock_plan(d, monomials)
    tables = moment_table(_augmented_kernel(kernels), shape).reshape(len(kernels), -1)
    full = None
    if out is None:
        ends = [0, *itertools.accumulate(p.shape[1] for p in stacks)]
        full = np.zeros(lead + (ends[-1], d * d, d * d))
        out = [full[..., a:b, :, :] for a, b in zip(ends, ends[1:])]
    for k, (at, table) in enumerate(zip(np.ndindex(lead), tables)):
        weights = np.zeros((len(monomials), len(rows)))
        for a, e, o1, o2, c1, c2 in classes:
            vals = table[o1[:, None] + o2[None]]
            vals *= c1[:, None]
            vals *= c2[None]
            vals = vals.reshape(-1, len(e))
            # + 0.0 turns a sum of -0 terms into +0, as a sum from +0 does
            weights[a, e] = np.add.accumulate(vals, out=vals)[-1] + 0.0
        for stack, per_stack, target in zip(stacks, supports, out):
            own = per_stack[k]
            w = weights
            if len(own) < len(monomials):
                w = weights[[monomials.index(m) for m in map(tuple, own.tolist())]]
            for rho, coeff in zip(target[at], stack[k][(slice(None), *own.T)]):
                upper = coeff @ w
                rho[rows, cols] = rho[cols, rows] = upper
    return out if full is None else full


def partial_transpose(rho):
    """Partial transpose on the first mode, (rho^T1)_{ij,kl} = rho_{kj,il},
    of a (d^2, d^2) matrix or of each matrix of a (..., d^2, d^2) stack
    (ValueError for any other shape)."""
    d = _fock_side(rho)
    return (rho.reshape(*rho.shape[:-2], d, d, d, d).swapaxes(-4, -2)
            .reshape(rho.shape))


@functools.lru_cache(maxsize=None)
def _parity_gathers(d, transposed):
    """For one cutoff d = n_trunc + 1: read-only flat indices into a
    (d^2, d^2) matrix rho, (blocks, coupling).  blocks gather the blocks
    of rho, or of rho^T1 when transposed (partial_transpose of the index
    matrix), over the states |i, j> of even and of odd i + j (no odd block
    at d = 1); coupling indexes the entries of rho that couple the two
    parities, which are those of rho^T1 too (i + j + k + l is the same).
    Every strategy's state is 0 there: its phase charge allows only
    i - k = j - l."""
    index = np.arange(d ** 4).reshape(d * d, d * d)
    if transposed:
        index = partial_transpose(index)
    i, j = np.divmod(np.arange(d * d), d)
    parity = (i + j) % 2
    blocks = tuple(_read_only(index[np.ix_(p, p)]) for p in (parity == 0, parity == 1)
                   if p.any())
    return blocks, _read_only(np.flatnonzero(parity[:, None] != parity[None, :]))


def _blocks(rho, transposed):
    """The parity blocks of each matrix of rho, a (..., d^2, d^2) array, or
    of its rho^T1 when transposed, gathered straight from rho: one
    (..., n, n) array per parity of _parity_gathers, or None when some
    matrix couples the parities (a NaN counts as coupling), so the caller
    solves whole matrices.  Any other shape raises ValueError."""
    blocks, coupling = _parity_gathers(_fock_side(rho), transposed)
    flat = rho.reshape(rho.shape[:-2] + (-1,))
    if np.any(flat[..., coupling]):
        return None
    return [flat[..., b] for b in blocks]


def _spectra(rho, transposed):
    """Eigenvalues of each matrix of rho, or of its rho^T1 when transposed:
    one ascending (..., n) array per block of _blocks, or one of the whole
    matrices.  One rule for the stack, so a matrix gets the bits it gets
    alone whenever the stack shares its structure."""
    blocks = _blocks(rho, transposed)
    if blocks is None:
        return [np.linalg.eigvalsh(partial_transpose(rho) if transposed else rho)]
    return [np.linalg.eigvalsh(b) for b in blocks]


def certify(rho):
    """Return rho, one (d^2, d^2) matrix or a (..., d^2, d^2) stack, if
    each of its matrices is a state to within CERTIFY_TOL: trace at most 1
    (truncation only loses weight) and no eigenvalue below -CERTIFY_TOL.
    A NaN trace or eigenvalue is refused; on a stack the first matrix that
    fails raises, and the message gives its index.  Any other shape raises
    ValueError.

    The eigenvalues are _spectra's: per photon-number-parity block when
    no matrix couples the parities, otherwise of each whole matrix."""
    m = np.asarray(rho)
    lam = functools.reduce(np.minimum, [w[..., 0] for w in _spectra(m, False)])
    trace = np.trace(m, axis1=-2, axis2=-1).real
    fine = (trace <= 1.0 + CERTIFY_TOL) & (lam >= -CERTIFY_TOL)
    if not fine.all():
        bad = tuple(map(int, np.unravel_index(np.argmin(fine), fine.shape)))
        where = f" at index {bad[0] if len(bad) == 1 else bad}" if bad else ""
        raise PrecisionError(f"n_trunc = {math.isqrt(m.shape[-1]) - 1} gives no "
                             f"state{where}: trace {float(trace[bad])}, "
                             f"smallest eigenvalue {float(lam[bad])}")
    return rho
