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
charge zero are computed; the others are exactly +0.  The weights are
summed term by term over every charge-zero (entry, monomial) pair and
every kernel of a call at once, at most d^2 numpy passes.  This module is the
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
import math
import operator

import numpy as np

from .chi_core import (_charges, _read_only, gaussian_kernel, moment_table,
                       two_mode_stack)

CERTIFY_TOL = 1e-6


class PrecisionError(Exception):
    """certify refused a Fock matrix: not a state to within CERTIFY_TOL."""


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
    support (a tuple of exponent 4-tuples), as (shape, rows, cols, a, e,
    terms): the moment table's shape, the upper triangle of a (d^2, d^2)
    matrix, the support and triangle index of each (entry, support) pair
    of charge zero, and per term index k the pairs' term k as (offsets,
    c1, c2): its flat table offset, int32, and its mode-1 and mode-2
    coefficients.  A pair has p * q terms (see fock_matrices), and term k
    is (t1, t2) = divmod(k, q), mode-1 major.  The pairs are sorted by
    p * q, longest first (a stable sort), so the pairs that have a term k
    are a prefix of a and e, as long as term k's arrays.  Read-only
    arrays, since every caller shares them.

    Each product takes 20 bytes (a 4-byte offset and two coefficients), and
    no padded (terms, pairs) array is ever built.  For the 46 monomials of
    a coherent operation's support the whole plan holds 0.50 MiB at
    n_trunc 5, 3.43 MiB at 8 and 20.1 MiB at 12 (23,415, 168,368 and
    1,013,152 products).  An offset past int32 needs a table of 2^31
    entries, so d > 200, whose plan would need terabytes first."""
    support = np.array(support, dtype=np.intp).reshape(-1, 4)
    shape = tuple(int(x) for x in np.max(support, axis=0) + d)
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(4)], dtype=np.intp)

    # the terms of <m|D^dag|n>, flat: their table offsets in the two axes of
    # mode 1 (lin1) and of mode 2 (lin2), and coefficients
    offs, cof = _dagger_table(d)
    lin1, lin2, cof = (offs @ strides[:2]).ravel(), (offs @ strides[2:]).ravel(), cof.ravel()

    rows, cols = np.triu_indices(d * d)
    i, j = np.divmod(rows, d)
    k, l = np.divmod(cols, d)
    # a pair of an entry and a support monomial reads moments of one charge:
    # entry_charge + alpha_charge
    charge = _charges(4)
    entry_charge = charge[0] * (i - k) + charge[2] * (j - l)
    a, e = np.nonzero((support @ charge)[:, None] + entry_charge == 0)
    p, q = np.minimum(i[e], k[e]) + 1, np.minimum(j[e], l[e]) + 1
    order = np.argsort(-(p * q), kind="stable")
    a, e, q, pq = a[order], e[order], q[order], (p * q)[order]
    # each pair's term 0 of <i|D^dag|k> and of <j|D^dag|l> in the flat tables
    m1, m2 = (i[e] * d + k[e]) * d, (j[e] * d + l[e]) * d
    base = (support @ strides)[a]
    terms = []
    for t in range(pq.max(initial=0)):
        n = np.count_nonzero(pq > t)
        t1, t2 = np.divmod(t, q[:n])
        t1 += m1[:n]
        t2 += m2[:n]
        terms.append(tuple(_read_only(x) for x in (
            (lin1[t1] + base[:n] + lin2[t2]).astype(np.int32), cof[t1], cof[t2])))
    return (shape, _read_only(rows), _read_only(cols), _read_only(a), _read_only(e),
            tuple(terms))


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


def fock_matrices(kernel, n_trunc, polys, *more):
    """Truncated two-mode density matrices of polynomials over one kernel,
    or over each kernel of a stack.

    kernel and polys are a two-mode state in the pipeline's format (see
    chi_core.two_mode_stack), or a chunk of them with leading axes, n_trunc
    a nonnegative integer and more further stacks over the same kernels.
    Returns the stacks' matrices in order along the term axis, shape
    (..., total number of cubes, d^2, d^2), d = n_trunc + 1, row
    i * d + j for |i, j>, float64 as the stacks and the moment table are.
    A cutoff whose matrices numpy cannot allocate or index raises
    MemoryError("n_trunc = N: ...") before anything else is built.

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
    terms of <j|D^dag|l>: each moment is scaled by the mode-1 coefficient,
    then by the mode-2 coefficient, and the terms are added one after
    another, mode-1 term major, starting from +0.  That is the order of the
    per-entry einsum this route replaced (tests/oracles.fock_matrices_by_entry),
    kept bit for bit on purpose: the n_trunc-8 benchmark references hold
    this route's own float64 error, and a reordering of the same sums moves
    outputs past their 1e-10 gate (ROADMAP item 1).  The sums run term by
    term over every (entry, support) pair and every kernel at once: pass k
    gathers term k of each pair that has one (a prefix of the plan's
    pairs), scales it and adds it to that pair's running sum, so a call
    makes at most d^2 passes whatever its kernel count.  Each kernel's sums
    are then scattered into one weight matrix, reused from kernel to
    kernel, and contracted before the next kernel's are scattered.

    The kernel must pass chi_core.gaussian_kernel, and only the pairs its
    phase symmetry allows are gathered.  Every term of <i|D^dag|k> has a
    power of xi1 that exceeds the power of xi1* by i - k, so with q the
    phase charges every moment a pair reads has the charge
    q_0 (i - k) + q_2 (j - l) + q . alpha.  Where that is nonzero the
    moments are +0 (see moment_table), so those weights keep the +0 of
    np.zeros, as a sum of their +-0 products from +0 would be.

    Which pairs there are, their table offsets and their term coefficients
    depend only on d and the support, so they are planned once per
    (d, support) and cached (_fock_plan); a call only gathers, scales and
    sums, in the order above.
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

    try:  # numpy refuses a size it cannot allocate or index before allocating
        out = np.zeros(lead + (sum(p.shape[1] for p in stacks), d * d, d * d))
    except (MemoryError, ValueError) as exc:
        raise MemoryError(f"n_trunc = {n_trunc}: {exc}") from None
    shape, rows, cols, a, e, terms = _fock_plan(d, monomials)
    tables = moment_table(_augmented_kernel(kernels), shape).reshape(len(kernels), -1)
    sums = np.zeros((len(kernels), len(a)))
    for off, c1, c2 in terms:
        vals = tables[:, off]
        vals *= c1
        vals *= c2
        sums[:, :len(off)] += vals
    weights = np.zeros((len(monomials), len(rows)))
    for k, at in enumerate(np.ndindex(lead)):
        weights[a, e] = sums[k]
        rhos = iter(out[at])  # the stacks' matrices in order along the term axis
        for stack, per_stack in zip(stacks, supports):
            own = per_stack[k]
            w = weights
            if len(own) < len(monomials):
                w = weights[[monomials.index(m) for m in map(tuple, own.tolist())]]
            for coeff in stack[k][(slice(None), *own.T)]:
                rho = next(rhos)
                rho[rows, cols] = rho[cols, rows] = coeff @ w
    return out


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
    Every strategy's state is 0 there: its phase charge (i - k) - (j - l)
    is 0 (no operation, subtraction) or 0, +-2 or +-4 (the coherent
    operation), even in every case, and so is i + j + k + l."""
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
