"""Independent reference routes used to pin expected values in the tests.

Almost everything here recomputes its target through a different
mathematical path than the package (Fock-space series, scipy
special-function evaluation, brute-force real-space quadrature, closed-form
Schmidt sums, a cyclic Jacobi eigensolver, exact rational Laguerre
coefficients, first-order operators over {multi-index: coefficient} dicts).
None of that touches the package's moment recursion or its polynomial
algebra; kraus_state builds every strategy's unnormalized state from
Kraus operators on the Schmidt vector, with no characteristic function at
all, kraus_rho its normalized Fock matrix and kraus_columns its success
probability, teleportation fidelity and Gaussian negativity.  The
single-state helpers (the State record, tmsv_state, fock_matrix,
channel_state, the CoherentOp weights and their term_weights,
apply_coherent_op, combine_terms, normalize, evaluate_chi,
teleportation_fidelity) and Row are not references: they apply the
package's own operations to one state or row at one weight, or evaluate
one, for tests that follow a single state; nor are the state checks degree,
hermiticity_defect and is_hermitian, nor the bit comparison same_bits.
displacement_fock_poly and _dagger_poly give each displacement matrix
element's polynomial as a {(a, b): coefficient} dict; dagger_table packs
them into the arrays that fock_recon._dagger_table builds directly, with
the same float operations, so it pins that table bit for bit, while
displacement_element checks the values.  The package's functions take only
kernels that pass gaussian_kernel's contract; RecursiveMoments and
numeric_gaussian_monomials take any integrable kernel.  Five of the
references share low-level pieces with the package: kraus_columns hands
its Fock-space covariance to the package's gaussian_log_negativity, so it
checks the covariance, not that formula; RecursiveMoments evaluates
moments one at a time by the memoized scalar Wick/Stein recursion, from the moment covariance and normalization
that moment_table uses, so it checks the vectorized moment table, not the
covariance; it computes every entry, those of nonzero phase charge that
moment_table leaves at +0 included, and takes the xi2*-coupled kernels
that gaussian_kernel refuses; fidelity_integrals_by_moments integrates the
fidelity kernel with the package's moment table rather than in closed
form, so it checks fidelity_integrals' closed moments, not the
substitution they share; fock_element shares the moment table and the
displacement coefficients with fock_matrices, so it only checks that
function's assembly (weight matrix, Hermitian fill), not the integrals; and
fock_matrices_by_entry is fock_matrices with one einsum per matrix entry,
so it pins that function's summation order bit for bit, not its accuracy.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from cvdistill.chi_core import (
    ChannelParams,
    _moment_covariance,
    _real_form,
    apply_thermal_channel,
    coherent_op_terms,
    gaussian_kernel,
    moment_table,
    tmsv_chi,
)
from cvdistill.entanglement import (TRACE_ONE_TOL, fidelity_integrals,
                                    gaussian_log_negativity)
from cvdistill.fock_recon import _augmented_kernel, certify, fock_matrices
from cvdistill.scenarios import (ZERO_TRACE_TOL, Strategy, _fold, _objectives,
                                 _pipelines, _raw_terms, _weight_rows)

# the multi-index of a cube's constant coefficient, the trace chi(0, 0)
ZERO_INDEX = (0, 0, 0, 0)


def displacement_element(m, n, alpha):
    """<m|D(alpha)|n> evaluated directly with scipy's Laguerre functions
    (vectorized over alpha)."""
    x = np.abs(alpha) ** 2
    if m >= n:
        pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
        return (pref * alpha ** (m - n) * eval_genlaguerre(n, m - n, x)
                * np.exp(-x / 2))
    pref = math.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
    return (pref * (-np.conj(alpha)) ** (n - m) * eval_genlaguerre(m, n - m, x)
            * np.exp(-x / 2))


def tmsv_chi_series(s, xi1, xi2, n_max=70):
    """chi of the two-mode squeezed vacuum by direct Schmidt-sum evaluation:
    Tr[rho D(xi1) D(xi2)] over the |n,n><m,m| expansion."""
    lam = math.tanh(s)
    total = 0j
    for n in range(n_max):
        for m in range(n_max):
            total += lam ** (n + m) * displacement_element(n, m, xi1) \
                * displacement_element(n, m, xi2)
    return total / math.cosh(s) ** 2


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


def dagger_table(d):
    """fock_recon._dagger_table(d) built from the dicts of _dagger_poly:
    offsets (d, d, d, 2) and coefficients (d, d, d), padded with zeros."""
    offs = np.zeros((d, d, d, 2), dtype=np.intp)
    cof = np.zeros((d, d, d))
    for mm in range(d):
        for nn in range(d):
            terms = _dagger_poly(mm, nn)
            offs[mm, nn, :len(terms)] = list(terms)
            cof[mm, nn, :len(terms)] = list(terms.values())
    return offs, cof


def laguerre_coeffs_recurrence(n, alpha):
    """Ascending coefficients of the generalized Laguerre polynomial
    L_n^(alpha), exact rationals via the three-term recurrence."""
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [Fraction(1 + alpha), Fraction(-1)]
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i] += (2 * k + 1 + alpha) * c
            nxt[i + 1] -= c
        for i, c in enumerate(prev):
            nxt[i] -= (k + alpha) * c
        prev, cur = cur, [c / (k + 1) for c in nxt]
    return cur


# --- the pipeline at one weight, operation by operation --------------------

def cube_items(poly):
    """{multi-index: coefficient} dict of the nonzero monomials of a cube."""
    return {tuple(int(k) for k in a): poly[tuple(a)] for a in np.argwhere(poly)}


def dict_to_cube(poly, side):
    """Coefficient cube of the given side of a {multi-index: coefficient} dict."""
    cube = np.zeros((side,) * 4, dtype=complex)
    for a, c in poly.items():
        cube[a] = c
    return cube


def _first_order_direct(poly, kq, dcoef, mcoef):
    """Apply sum_j dcoef[j] d/dv_j + sum_j mcoef[j] v_j to P * exp(-0.5 v^T K v),
    P a {multi-index: coefficient} dict: d/dv_j lowers a_j with the factor
    a_j and pulls -(K v)_j down from the Gaussian, v_j raises a_j."""
    out = {}

    def add(alpha, var, step, c):
        b = tuple(a + step * (i == var) for i, a in enumerate(alpha))
        out[b] = out.get(b, 0j) + c

    for a, c in poly.items():
        for j, dc in dcoef.items():
            if a[j]:
                add(a, j, -1, dc * a[j] * c)
            for k in range(len(a)):
                add(a, k, 1, -dc * kq[j, k] * c)
        for j, mc in mcoef.items():
            add(a, j, 1, mc * c)
    return out


def apply_coherent_op_direct(state, mode, op):
    """(t a + r a^dag) rho (t a^dag + r a) on one mode with t and r mixed
    into the first-order operators themselves, not into a (t, r) basis."""
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    kq = state.kernel
    t, r = op.t, op.r
    inner = _first_order_direct(cube_items(state.poly), kq,
                                {p: t, q: -r}, {p: r / 2, q: t / 2})
    outer = _first_order_direct(inner, kq, {p: r, q: -t}, {p: -t / 2, q: -r / 2})
    return State(dict_to_cube(outer, len(state.poly) + 2), state.kernel)


def sequential_pipeline(cfg, t):
    """Unnormalized output of one strategy at weight t, one operation after
    another."""
    state = tmsv_state(cfg.s)
    if cfg.strategy.has_operation:
        op = CoherentOp.from_t(t)
        if cfg.strategy.operation_first:
            state = apply_coherent_op_direct(state, 1, op)
            state = apply_coherent_op_direct(state, 2, op)
            state = channel_state(state, 1, cfg.channel)
            state = channel_state(state, 2, cfg.channel)
        else:
            state = channel_state(state, 1, cfg.channel)
            state = channel_state(state, 2, cfg.channel)
            state = apply_coherent_op_direct(state, 1, op)
            state = apply_coherent_op_direct(state, 2, op)
    else:
        state = channel_state(state, 1, cfg.channel)
        state = channel_state(state, 2, cfg.channel)
    return state


# --- properties of a state -------------------------------------------------

HERMITICITY_TOL = 1e-12
_CONJ_SWAP = [1, 0, 3, 2]  # exchanges xi_i and xi_i* in every mode


def same_bits(a, b):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def degree(state):
    """Total degree of a state's polynomial."""
    return int(np.argwhere(state.poly).sum(axis=1).max(initial=0))


def hermiticity_defect(state):
    """Max deviation of chi from conj(chi(-v)), over coefficients and
    kernel; the kernel's part is its swap-conjugation defect."""
    k, p = state.kernel, state.poly
    defect = np.max(np.abs(k[np.ix_(_CONJ_SWAP, _CONJ_SWAP)] - np.conj(k)))
    sign = (-1.0) ** np.indices(p.shape).sum(axis=0)
    want = sign * np.conj(p.transpose(_CONJ_SWAP))
    return float(max(defect, np.max(np.abs(p - want))))


def is_hermitian(state, tol=HERMITICITY_TOL):
    scale = max(1.0, float(np.max(np.abs(state.poly))))
    return hermiticity_defect(state) <= tol * scale


# --- single states through the package's operations ------------------------

@dataclass(frozen=True)
class CoherentOp:
    """Weights of the superposition t*a + r*a^dag, real with t^2 + r^2 = 1."""

    t: float
    r: float

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.r <= 1.0):
            raise ValueError("t and r must lie in [0, 1]")
        if abs(self.t ** 2 + self.r ** 2 - 1.0) > 1e-12:
            raise ValueError("t^2 + r^2 must equal 1")

    @classmethod
    def from_t(cls, t):
        return cls(t, math.sqrt(max(0.0, 1.0 - t * t)))


def term_weights(n_terms, t, r):
    """Weights t^(n-k) r^k of the terms of a degree-n form, n = n_terms - 1."""
    return [t ** (n_terms - 1 - k) * r ** k for k in range(n_terms)]


@dataclass(frozen=True, eq=False)
class State:
    """One two-mode state chi = P(v) exp(-0.5 v^T K v) for tests that follow
    a single state: the cube poly of P (kept as a read-only array of its
    input's dtype) over the kernel K.  In the package's format it is
    (kernel, poly[None])."""

    poly: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        poly = np.array(self.poly)
        poly.flags.writeable = False
        object.__setattr__(self, "poly", poly)


def tmsv_state(s):
    """The package's two-mode squeezed vacuum as a single State."""
    kernel, stack = tmsv_chi(s)
    return State(stack[0], kernel)


def raw_terms(cfg):
    """The unnormalized pipeline output (kernel, polys) of one row's
    setting: scenarios._raw_terms on a chunk of one channel."""
    kind = (cfg.strategy.has_operation, cfg.strategy.operation_first)
    ((kernels, stacks),) = _raw_terms(cfg.s, [cfg.channel], [kind]).values()
    return kernels[0], stacks[0]


def mixed_chunk(rng, n_settings=5):
    """Kernels (S, 4, 4) and the no-operation, operation-before and
    operation-after stacks over them of S settings that mix s = 0, whose
    kernels have no cross-mode entries, with s > 0, in a seeded order:
    a kernel stack that no sweep chunk makes, as it shares s."""
    kinds = [(False, False), (True, True), (True, False)]
    kernels, stacks = [], []
    for i in range(n_settings):
        s = 0.0 if i % 2 == 0 else float(rng.uniform(0.01, 0.6))
        channel = ChannelParams(float(rng.uniform(0.01, 1.0)),
                                float(rng.choice([0.0, rng.uniform(0.0, 0.3)])))
        runs = _raw_terms(s, [channel], kinds)
        kernels.append(runs[kinds[0]][0][0])
        stacks.append([runs[kind][1][0] for kind in kinds])
    order = rng.permutation(n_settings)
    return (np.stack([kernels[i] for i in order]),
            [np.stack([stacks[i][k] for i in order]) for k in range(len(kinds))])


class Row:
    """One row's arrays at chosen weights, for tests that follow a row: the
    one-pipeline chunk scenarios._pipelines([cfg]), its per-term arrays
    (kernel, traces, matrices, fidelity_terms, origins) less the pipeline
    axis, and what the package reads off weight rows w of it, each by
    scenarios._fold over that one pipeline, as the optimizer's grid does."""

    def __init__(self, cfg):
        self.cfg = cfg
        _, self.arrays = _pipelines([cfg])
        (self.kernel, self.traces, self.matrices, self.fidelity_terms,
         self.origins) = (a[0] for a in self.arrays)

    def weights(self, ts):
        return _weight_rows(ts, len(self.traces) - 1)

    def probabilities(self, w):
        """Success probabilities, clamped at 0."""
        return np.maximum(_fold(w, self.arrays[1], 0), 0.0)

    def rhos(self, w):
        """Fock matrices of the normalized states."""
        return _fold(w / _fold(w, self.arrays[1], 0)[:, None], self.arrays[2], 0)

    def fidelities(self, w):
        return _fold(w, self.arrays[3], 0) / _fold(w, self.arrays[1], 0)

    def origin(self, w_row):
        """The origin block (covariance_from_chi) of one weight row's
        normalized state."""
        w = w_row[None]
        return (_fold(w, self.arrays[4], 0) / _fold(w, self.arrays[1], 0)[:, None, None])[0]

    def objectives(self, w):
        return _objectives(self.arrays, w, 0, self.cfg.objective == "fidelity")


def check_normalized(poly):
    """Raise ValueError unless the trace poly[0, 0, 0, 0] is 1 to TRACE_ONE_TOL."""
    tr = poly[ZERO_INDEX]
    if abs(tr - 1.0) > TRACE_ONE_TOL:
        raise ValueError(f"state trace {tr} is not 1")


def fock_matrix(state, n_trunc):
    """The package's certified truncated density matrix of a normalized
    single state, as a (d^2, d^2) array with d = n_trunc + 1."""
    check_normalized(state.poly)
    return certify(fock_matrices(state.kernel, n_trunc, [state.poly])[0])


TRACE_IMAG_TOL = 1e-10


class ZeroStateError(Exception):
    """A state of vanishing trace cannot be normalized."""


def channel_state(state, mode, channel):
    """The package's thermal channel on one mode of a single state."""
    kernel, stack = apply_thermal_channel(state.kernel, state.poly[None], mode,
                                          channel)
    return State(stack[0], kernel)


def combine_terms(kernel, polys, t, r):
    """The state sum_k t^(n-k) r^k polys[k] over the kernel at one weight."""
    weights = term_weights(len(polys), t, r)
    return State(sum(w * poly for w, poly in zip(weights, polys)),
                           kernel)


def apply_coherent_op(state, mode, op):
    """The package's coherent operation on one mode of a single state, at
    the single weight op."""
    terms = coherent_op_terms(state.kernel, state.poly[None], mode)
    return combine_terms(state.kernel, terms, op.t, op.r)


def normalize(state):
    """Scale a state to unit trace.

    Returns (normalized_state, trace); the trace of a pipeline output is the
    heralding rate of the non-deterministic operations applied so far.  It is
    not bounded by 1, because t a + r a^dag is not a trace-nonincreasing map.
    A trace below ZERO_TRACE_TOL, negative float noise included, raises
    ZeroStateError; a trace with a non-negligible imaginary part raises
    ValueError.
    """
    tr = complex(state.poly[ZERO_INDEX])
    if abs(tr.imag) > TRACE_IMAG_TOL * max(1.0, abs(tr.real)):
        raise ValueError(f"trace has non-negligible imaginary part: {tr}")
    t = tr.real
    if t < ZERO_TRACE_TOL:
        raise ZeroStateError("state has vanishing trace")
    return State(state.poly / t, state.kernel), t


def evaluate_chi(state, xi1, xi2):
    """Evaluate chi at a phase-space point (xi_i* is the complex conjugate)."""
    v = np.array([xi1, np.conj(xi1), xi2, np.conj(xi2)], dtype=complex)
    powers = v[:, None] ** np.arange(len(state.poly))
    val = np.einsum("abcd,a,b,c,d->", state.poly, *powers)
    return val * np.exp(-0.5 * (v @ state.kernel @ v))


def teleportation_fidelity(state):
    """Average fidelity of coherent-state teleportation with a normalized
    state as the shared resource: its fidelity integral, which must come out
    real."""
    check_normalized(state.poly)
    val = fidelity_integrals(state.kernel, [state.poly])[0]
    if abs(val.imag) > 1e-9:
        raise ValueError(f"fidelity came out non-real: {val}")
    return float(val.real)


# --- closed forms for the two-mode squeezed vacuum -------------------------

def tmsv_log_negativity(s):
    return 2.0 * s / math.log(2.0)


def tmsv_fidelity(s):
    return 1.0 / (1.0 + math.exp(-2.0 * s))


def tmsv_fock_diag(s, n):
    """<n,n|rho|n,n> of the TMSV."""
    return math.tanh(s) ** (2 * n) / math.cosh(s) ** 2


def subtract_both_probability(s):
    """Tr[a1 a2 rho a2^dag a1^dag] for the TMSV: sech^2 s sum n^2 tanh^(2n) s."""
    x = math.tanh(s) ** 2
    return x * (1.0 + x) / (1.0 - x) ** 3 / math.cosh(s) ** 2


def subtracted_tmsv_schmidt(s, n_max):
    """Normalized Schmidt coefficients of a1 a2 |TMSV|: c_k ~ (k+1) lam^(k+1)."""
    lam = math.tanh(s)
    c = np.array([(k + 1) * lam ** (k + 1) for k in range(n_max + 1)])
    c /= math.cosh(s)
    return c / math.sqrt(subtract_both_probability(s))


def truncated_tmsv_log_negativity(s, n_trunc):
    """E_N of the projected (unnormalized) TMSV: the partial transpose of a
    pure Schmidt-form state has trace norm (sum of coefficients)^2."""
    lam = math.tanh(s)
    total = sum(lam ** n for n in range(n_trunc + 1)) / math.cosh(s)
    return math.log2(total ** 2)


def separation_eta_closed(s, n_th):
    return 2.0 * n_th / (2.0 * n_th + 1.0 - math.exp(-2.0 * s))


# --- Fock space by Kraus operators -----------------------------------------

def _thermal_kraus(eta, n_th, size, dtype):
    """Kraus operators [k, out, in] on size levels of the thermal attenuator
    (eta, n_th) as a pure loss of transmissivity tau = eta / G followed by a
    quantum-limited amplifier of gain G = 1 + (1 - eta) n_th; the
    covariances compose to eta V + (1 - eta)(n_th + 1/2).  Caruso,
    Giovannetti & Holevo, New J. Phys. 8, 310 (2006); Ivan, Sabapathy &
    Simon, PRA 84, 042311 (2011)."""
    one = dtype(1)
    gain = one + (one - dtype(eta)) * dtype(n_th)
    tau = dtype(eta) / gain
    binom = np.zeros((2 * size, size), dtype)  # C(n, k) by Pascal's rule
    binom[:, 0] = one
    for n in range(1, 2 * size):
        binom[n, 1:] = binom[n - 1, 1:] + binom[n - 1, :-1]
    loss = np.zeros((size, size, size), dtype)
    amp = np.zeros((size, size, size), dtype)
    for k in range(size):
        m = np.arange(size - k)
        root = np.sqrt(binom[m + k, k])
        # <m|A_k|m+k> = sqrt(C(m+k, k)) tau^(m/2) (1 - tau)^(k/2)
        loss[k, m, m + k] = root * np.sqrt(tau) ** m * np.sqrt(one - tau) ** k
        # <m+k|B_k|m> = sqrt(C(m+k, k)) G^(-(m+1)/2) (1 - 1/G)^(k/2)
        amp[k, m + k, m] = (root / np.sqrt(gain) ** (m + 1)
                            * np.sqrt(one - one / gain) ** k)
    return loss, amp


def _kraus_on_mode(rho, kraus, mode):
    """sum_k A_k rho A_k^dag on one mode of a two-mode rho[m1, m2, n1, n2].
    A loss or an amplifier keeps the photon-number difference m_i - n_i,
    so each diagonal of fixed difference maps onto itself by one small
    matrix, t[a, b] = sum_k A_k[rows[a], rows[b]] A_k[cols[a], cols[b]]*."""
    size = len(rho)
    r = np.moveaxis(rho, (mode - 1, mode + 1), (0, 1))
    out = np.zeros_like(r)
    for diff in range(1 - size, size):
        i = np.arange(size - abs(diff))
        rows, cols = i + max(diff, 0), i + max(-diff, 0)
        t = np.einsum("kab,kab->ab", kraus[:, rows[:, None], rows],
                      kraus[:, cols[:, None], cols].conj())
        out[rows, cols] = np.tensordot(t, r[rows, cols], axes=1)
    return np.moveaxis(out, (0, 1), (mode - 1, mode + 1))


def kraus_state(strategy, s, eta, n_th, t, M, dtype=np.float64):
    """The unnormalized two-mode state rho[m1, m2, n1, n2] = <m1 m2|rho|n1 n2>
    on M levels a mode of a strategy's pipeline at weight t, by a route
    that shares nothing with the chi picture: its trace is the success
    probability of the operation.

    The two-mode squeezed vacuum is its Schmidt vector cut at M levels a
    mode; the operation t a + r a^dag, r = sqrt(1 - t^2), is an M x M
    matrix, applied to the pure state before the channel or to both sides
    of rho after it; each mode's thermal channel is the Kraus pair of
    _thermal_kraus.  Every strategy with an operation takes it at weight
    t, as a row's Fock matrices do (subtraction is t = 1).  Only the
    input cut approximates: the amplifier raises photon numbers and the
    loss lowers them, so the output below M reads only input below M, and
    the error is the Schmidt tail, of weight about tanh(s)^(2M), plus what
    the amplifier and a^dag carry above M.  All the arithmetic runs in
    dtype, so np.longdouble gives references beyond float64.
    """
    strategy = Strategy(strategy)
    s, t = dtype(s), dtype(t)
    n = np.arange(M)
    psi = np.diag(np.tanh(s) ** n / np.cosh(s))
    op = np.zeros((M, M), dtype)
    op[n[:-1], n[1:]] = t * np.sqrt(n[1:].astype(dtype))  # t a
    op[n[1:], n[:-1]] = np.sqrt(1 - t * t) * np.sqrt(n[1:].astype(dtype))  # r a^dag
    if strategy.has_operation and strategy.operation_first:
        psi = op @ psi @ op.T
    rho = np.einsum("ab,cd->abcd", psi, psi.conj())
    for kraus in _thermal_kraus(eta, n_th, M, dtype):
        for mode in (1, 2):
            rho = _kraus_on_mode(rho, kraus, mode)
    if strategy.has_operation and not strategy.operation_first:
        for axis in range(4):
            mat = op if axis < 2 else op.conj()
            rho = np.moveaxis(np.tensordot(mat, rho, axes=(1, axis)), 0, axis)
    return rho


def kraus_rho(strategy, s, eta, n_th, t, n_trunc, M, dtype=np.float64):
    """The normalized (d^2, d^2) Fock matrix over |i, j>, d = n_trunc + 1,
    of kraus_state: normalized by its trace over M levels, then cut to d."""
    rho = kraus_state(strategy, s, eta, n_th, t, M, dtype)
    d = n_trunc + 1
    return (rho[:d, :d, :d, :d] / np.einsum("abab->", rho)).reshape(d * d, d * d)


@functools.lru_cache(maxsize=2)
def _displacement_grid(M, nodes):
    """The Gauss-Hermite weights of a nodes x nodes rule over (Re xi, Im xi)
    and the matrices <m|D(xi*)|n> and <m|D(xi)|n>, m, n < M, at its nodes,
    as (M, M, nodes^2) arrays."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    xi = (x[:, None] + 1j * x[None, :]).ravel()
    disp = [np.array([[displacement_element(m, n, alpha) for n in range(M)]
                      for m in range(M)]) for alpha in (np.conj(xi), xi)]
    return np.outer(w, w).ravel(), disp


def kraus_columns(strategy, s, eta, n_th, t, M, nodes=60):
    """(p_success, fidelity, E_N_gauss) of a row at weight t, from
    kraus_state on M levels, with no characteristic function at all.

    p_success is the state's trace.  The fidelity of coherent-state
    teleportation, (1/pi) Int d^2xi tr[rho D(xi*) (x) D(xi)] exp(-|xi|^2),
    takes a Gauss-Hermite rule of nodes x nodes points in Re xi and Im xi
    and displacement_element at each node.  E_N_gauss is
    gaussian_log_negativity of the quadrature covariance
    <{q_i, q_j}>/2 - <q_i><q_j>, q = (x1, p1, x2, p2), x = (a + a^dag)/sqrt(2)
    and p = (a - a^dag)/(i sqrt(2)): its products are taken on M levels and
    read on the M - 1 levels where a a^dag is exact.
    """
    rho = kraus_state(strategy, s, eta, n_th, t, M)
    p_success = float(np.einsum("abab->", rho))
    rho = rho / p_success

    weights, disp = _displacement_grid(M, nodes)
    # tr[rho A (x) B] = sum rho[m1, m2, n1, n2] A[n1, m1] B[n2, m2]
    values = np.einsum("abcd,cai,dbi->i", rho, *disp, optimize=True)
    fidelity = float((weights @ values).real / math.pi)

    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    one = np.eye(M)
    quads = [((a + a.T) / math.sqrt(2.0), one),
             ((a - a.T) / (1j * math.sqrt(2.0)), one)]
    quads += [(b, q) for q, b in quads]
    cut = rho[:M - 1, :M - 1, :M - 1, :M - 1]

    def mean(op1, op2):
        return np.einsum("abcd,ca,db->", cut, op1[:M - 1, :M - 1],
                         op2[:M - 1, :M - 1]).real

    first = [mean(*q) for q in quads]
    sigma = np.array([[(mean(qi[0] @ qj[0], qi[1] @ qj[1])
                        + mean(qj[0] @ qi[0], qj[1] @ qi[1])) / 2 - fi * fj
                       for qj, fj in zip(quads, first)]
                      for qi, fi in zip(quads, first)])
    return p_success, fidelity, gaussian_log_negativity(sigma)


# --- brute-force quadrature ------------------------------------------------

def numeric_gaussian_monomials(kernels, alphas, half_width=7.0, points=48):
    """Int (d^2xi1/pi)(d^2xi2/pi) v^alpha exp(-v^T K v / 2) for each kernel K
    and each alpha, on a dense tensor Gauss-Legendre grid over the four real
    dimensions.  Returns one {alpha: value} dict per kernel.

    Deliberately naive: each kernel's weighted Gaussian factor is evaluated
    pointwise on the full 4-D grid.  The grid is built once for all kernels,
    and each monomial is evaluated once on it, as the outer product of its
    two one-mode factors, then summed against every kernel's factor.
    """
    nodes, wts = np.polynomial.legendre.leggauss(points)
    x = half_width * nodes
    w = half_width * wts
    xi = x[:, None] + 1j * x[None, :]  # one mode's plane, (re, im) axes
    w2 = np.outer(w, w)
    xi1 = xi[:, :, None, None]
    xi2 = xi[None, None, :, :]
    v = [xi1, np.conj(xi1), xi2, np.conj(xi2)]
    wg = w2[:, :, None, None] * w2[None, None, :, :]
    bases = np.empty((len(kernels), points ** 4), dtype=complex)
    for base, k in zip(bases, kernels):
        quad = sum(k[i, j] * v[i] * v[j] for i in range(4) for j in range(4))
        base[:] = (wg * np.exp(-0.5 * quad)).reshape(-1)
    out = [{} for _ in kernels]
    for alpha in alphas:
        a = tuple(alpha)
        f1 = xi ** a[0] * np.conj(xi) ** a[1]
        f2 = xi ** a[2] * np.conj(xi) ** a[3]
        vals = bases @ np.multiply.outer(f1, f2).reshape(-1)
        for table, val in zip(out, vals):
            table[a] = complex(val) / math.pi ** 2
    return out


def numeric_fidelity(chi_callable, half_width=8.0, points=160):
    """(1/pi) Int d^2xi chi(xi*, xi) e^(-|xi|^2) on a 2-D grid; chi_callable
    takes (xi1, xi2) complex arguments."""
    nodes, wts = np.polynomial.legendre.leggauss(points)
    x = half_width * nodes
    w = half_width * wts
    re, im = np.meshgrid(x, x, indexing="ij")
    xi = re + 1j * im
    vals = np.empty_like(xi)
    flat = xi.ravel()
    out = np.array([chi_callable(np.conj(z), z) for z in flat])
    vals = out.reshape(xi.shape)
    integrand = vals * np.exp(-np.abs(xi) ** 2)
    return complex(np.einsum("i,j,ij->", w, w, integrand)) / math.pi


# --- moments one at a time --------------------------------------------------

class RecursiveMoments:
    """moment_table(kernel, ...)[alpha], memoized over multi-indices:

        E[v_j v^beta] = sum_k C_jk beta_k E[v^(beta - e_k)],

    with j the first nonzero exponent of alpha = beta + e_j.
    """

    def __init__(self, kernel):
        self.n_vars = len(kernel)
        self._cov, self._norm = _moment_covariance(kernel)
        self._memo = {(0,) * self.n_vars: 1.0 + 0j}

    def moment(self, alpha):
        return self._norm * self._ev(tuple(int(a) for a in alpha))

    def _ev(self, alpha):
        val = self._memo.get(alpha)
        if val is not None:
            return val
        j = next(i for i, a in enumerate(alpha) if a)
        beta = list(alpha)
        beta[j] -= 1
        acc = 0j
        for k in range(self.n_vars):
            bk = beta[k]
            if bk:
                cjk = self._cov[j, k]
                if cjk != 0.0:
                    beta[k] -= 1
                    acc += cjk * bk * self._ev(tuple(beta))
                    beta[k] += 1
        self._memo[alpha] = acc
        return acc


def fidelity_integrals_by_moments(kernel, polys):
    """fidelity_integrals through the general moment table: the substituted
    one-mode kernel kq (plus the weight's 1 off the diagonal) is integrated
    by the Wick/Stein recursion over the union of the reduced supports, and
    each value is its own sum over its own polynomial's nonzero monomials."""
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


# --- Hermitian eigenvalues without LAPACK ----------------------------------

class EigenConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the off-diagonal tolerance."""


def jacobi_eigvalsh(mat, tol=1e-12, max_sweeps=100):
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Each rotation phases the pivot entry real and then annihilates it with a
    real plane rotation; sweeps repeat until the off-diagonal Frobenius norm
    drops below tol times the matrix norm.  Self-contained on purpose: used to
    cross-check the LAPACK eigensolver, so it must not call it.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if float(np.linalg.norm(off)) <= tol * scale:
            return np.sort(np.diag(a).real)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                h = abs(apq)
                if h <= tol * scale / (10.0 * n * n):
                    continue
                phi = np.conj(apq) / h
                tau = (a[q, q].real - a[p, p].real) / (2.0 * h)
                if tau >= 0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                cth = 1.0 / math.hypot(1.0, t)
                sth = t * cth
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cth * col_p - phi * sth * col_q
                a[:, q] = sth * col_p + phi * cth * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = cth * row_p - np.conj(phi) * sth * row_q
                a[q, :] = sth * row_p + np.conj(phi) * cth * row_q
    raise EigenConvergenceError(
        f"off-diagonal norm still above {tol} after {max_sweeps} sweeps")


# --- Fock matrix elements one at a time ------------------------------------

def fock_element(state, i, j, k, l):
    """Single density matrix element rho_{ij,kl} of a normalized state."""
    check_normalized(state.poly)
    merged = {}
    d1 = _dagger_poly(i, k)
    d2 = _dagger_poly(j, l)
    for a, c in cube_items(state.poly).items():
        for (a1, b1), c1 in d1.items():
            for (a2, b2), c2 in d2.items():
                key = (a[0] + a1, a[1] + b1, a[2] + a2, a[3] + b2)
                merged[key] = merged.get(key, 0j) + c * c1 * c2
    table = moment_table(_augmented_kernel(state.kernel),
                         np.max(list(merged), axis=0) + 1)
    return sum(c * table[a] for a, c in merged.items())


def fock_matrices_by_entry(kernel, n_trunc, polys):
    """fock_matrices with one einsum per upper-triangle entry: its weights
    sum the entry's p * q displacement terms over every support monomial in
    the order that fock_matrices keeps, so the two agree bit for bit."""
    polys = np.asarray(polys)
    support = np.argwhere(np.any(polys != 0, axis=0))
    d = n_trunc + 1

    dag = {}
    for mm in range(d):
        for nn in range(d):
            terms = _dagger_poly(mm, nn)
            offs = np.array([t for t in terms], dtype=np.intp).reshape(-1, 2)
            cofs = np.array([terms[t] for t in terms])
            dag[(mm, nn)] = (offs, cofs)

    amax = np.max(support, axis=0)
    shape = tuple(int(x) for x in amax + n_trunc + 1)
    # the einsum below runs complex, as it did on the complex table, so
    # its sums keep their order and bits
    table = moment_table(_augmented_kernel(kernel), shape).reshape(-1).astype(complex)
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(4)], dtype=np.intp)

    alpha_lin = support @ strides
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
    # contracted real, as fock_matrices does; matmul sums a strided view of
    # the real parts in another order
    weights = np.ascontiguousarray(weights.real)

    diag = rows == cols
    out = np.zeros((len(polys), d * d, d * d), np.result_type(weights, polys))
    for rho, coeff in zip(out, polys[(slice(None), *support.T)]):
        upper = coeff @ weights
        rho[rows, cols] = upper
        rho[cols, rows] = np.conj(upper)
        rho[rows[diag], cols[diag]] = upper[diag].real
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product Gauss-Legendre grid for the reconstruction oracle.

    half_width = None picks the box automatically: 6 standard deviations of
    the widest direction of the augmented kernel at degree zero, stretched
    with the polynomial degree of the integrand (a degree-d monomial against
    exp(-r^2/(2 sigma^2)) peaks at sigma sqrt(d), so the half-width grows like
    sigma sqrt(36 + 3.2 d) to keep the discarded tail negligible).
    """

    half_width: float | None = None
    points: int = 64


def _auto_half_width(state, degree):
    m = _real_form(_augmented_kernel(state.kernel))
    sigma_max = 1.0 / math.sqrt(float(np.min(np.linalg.eigvalsh(m))))
    return sigma_max * math.sqrt(36.0 + 3.2 * degree)


def quadrature_fock_elements(state, indices, grid=QuadratureGrid()):
    """Brute-force quadrature of rho_{ij,kl} for a batch of index tuples.

    Evaluates the defining integral on a tensor Gauss-Legendre grid, with the
    displacement elements computed pointwise; shares nothing with the moment
    recursion.  Returns {(i, j, k, l): value}.
    """
    check_normalized(state.poly)
    indices = [tuple(int(x) for x in q) for q in indices]
    if not indices:
        return {}
    dmax = degree(state) + max(i + k for i, _, k, _ in indices) \
        + max(j + l for _, j, _, l in indices)
    half = grid.half_width if grid.half_width is not None \
        else _auto_half_width(state, dmax)
    n = grid.points
    nodes, wts = np.polynomial.legendre.leggauss(n)
    x = half * nodes
    w = half * wts
    xi = (x[:, None] + 1j * x[None, :]).reshape(-1)
    w2 = np.outer(w, w).reshape(-1)

    kq = state.kernel
    q1 = np.exp(-0.5 * (kq[0, 0] * xi ** 2 + 2 * kq[0, 1] * np.abs(xi) ** 2
                        + kq[1, 1] * np.conj(xi) ** 2))
    q2 = np.exp(-0.5 * (kq[2, 2] * xi ** 2 + 2 * kq[2, 3] * np.abs(xi) ** 2
                        + kq[3, 3] * np.conj(xi) ** 2))
    c1 = -(kq[0, 2] * xi + kq[0, 3] * np.conj(xi))
    c2 = -(kq[1, 2] * xi + kq[1, 3] * np.conj(xi))

    pairs1 = sorted({(i, k) for i, _, k, _ in indices})
    pairs2 = sorted({(j, l) for _, j, _, l in indices})
    poly = cube_items(state.poly)
    mono1 = sorted({(a[0], a[1]) for a in poly})
    mono2 = sorted({(a[2], a[3]) for a in poly})
    p1_idx = {p: i for i, p in enumerate(pairs1)}
    p2_idx = {p: i for i, p in enumerate(pairs2)}
    m1_idx = {m: i for i, m in enumerate(mono1)}
    m2_idx = {m: i for i, m in enumerate(mono2)}

    def _side(pairs, monos, qfac):
        base = np.empty((len(pairs), xi.size), dtype=complex)
        for r, (mm, nn) in enumerate(pairs):
            base[r] = w2 * displacement_element(mm, nn, -xi) * qfac
        mono_vals = np.empty((len(monos), xi.size), dtype=complex)
        for r, (a, b) in enumerate(monos):
            mono_vals[r] = xi ** a * np.conj(xi) ** b
        return (base[:, None, :] * mono_vals[None, :, :]).reshape(-1, xi.size)

    a_side = _side(pairs1, mono1, q1)
    b_side = _side(pairs2, mono2, q2)

    g = np.zeros((a_side.shape[0], b_side.shape[0]), dtype=complex)
    chunk = 512
    for lo in range(0, xi.size, chunk):
        hi = min(lo + chunk, xi.size)
        cross = np.exp(xi[lo:hi, None] * c1[None, :]
                       + np.conj(xi[lo:hi, None]) * c2[None, :])
        g += a_side[:, lo:hi] @ (cross @ b_side.T)

    g = g.reshape(len(pairs1), len(mono1), len(pairs2), len(mono2))
    out = {}
    for i, j, k, l in indices:
        val = 0j
        for a, c in poly.items():
            val += c * g[p1_idx[(i, k)], m1_idx[(a[0], a[1])],
                         p2_idx[(j, l)], m2_idx[(a[2], a[3])]]
        out[(i, j, k, l)] = val / math.pi ** 2
    return out


def quadrature_fock_element(state, i, j, k, l, grid=QuadratureGrid()):
    """Single-element version of the quadrature oracle."""
    return quadrature_fock_elements(state, [(i, j, k, l)], grid)[(i, j, k, l)]
