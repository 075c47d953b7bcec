"""Two-mode characteristic functions of polynomial-times-Gaussian form.

Every state handled here is represented through its symmetrically ordered
characteristic function

    chi(xi1, xi2) = P(v) * exp(-0.5 * v^T K v),
    v = (xi1, xi1*, xi2, xi2*),

with P a polynomial, stored as a dense coefficient cube (poly[alpha] is the
coefficient of v^alpha), and K a symmetric 4x4 kernel matrix.  The
representation is closed under the three operations the distillation
pipelines need: preparation of a two-mode squeezed vacuum, the coherent
superposition operation t*a + r*a^dag applied to one mode, and the
beamsplitter model of a thermal-noise channel.  Phase-space integrals of
monomials against the Gaussian factor are evaluated exactly by a Wick/Stein
moment recursion; Fock-basis reconstruction and the teleportation-fidelity
integral are built on top of it.

Conventions: the formal variables are ordered (xi1, xi1*, xi2, xi2*), mode
arguments are 1-based, and every phase-space integral carries one factor of
1/pi per mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

N_VARS = 4
ZERO_INDEX = (0, 0, 0, 0)

PRUNE_REL_TOL = 1e-16
TRACE_IMAG_TOL = 1e-10
TRACE_ONE_TOL = 1e-6
ZERO_TRACE_TOL = 1e-30


class SingularKernelError(Exception):
    """Kernel is not positive definite, or its determinant under- or overflows."""


# ---------------------------------------------------------------------------
# polynomial helpers (stacks of coefficient cubes)

def _prune(stack):
    """Zero, in each polynomial of a stack, the coefficients at most
    PRUNE_REL_TOL times its largest."""
    mag = np.abs(stack)
    cap = PRUNE_REL_TOL * mag.max(axis=tuple(range(1, stack.ndim)), keepdims=True)
    return np.where(mag > cap, stack, 0.0)


def _complexification(n_modes):
    """Matrix T with v = T u, u = (x, y) per mode, xi = x + i y."""
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for m in range(n_modes):
        t[2 * m, 2 * m] = 1.0
        t[2 * m, 2 * m + 1] = 1j
        t[2 * m + 1, 2 * m] = 1.0
        t[2 * m + 1, 2 * m + 1] = -1j
    return t


# ---------------------------------------------------------------------------
# parameter containers

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


@dataclass(frozen=True)
class ChannelParams:
    """Thermal channel parameters: transmissivity eta = exp(-Gamma*t) and
    bath occupation n_th of the beamsplitter model."""

    eta: float
    n_th: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 <= self.n_th < math.inf:
            raise ValueError("n_th must be nonnegative and finite")


def gaussian_kernel(quad):
    """Symmetric kernel matrix K of the factor exp(-0.5 v^T K v), as a
    read-only complex array.

    Rows/columns interleave each mode's (xi, xi*).  Physical kernels obey the
    swap-conjugation symmetry P K P = conj(K), with P the permutation that
    exchanges xi_i and xi_i* in every mode; this makes the quadratic form real
    whenever xi_i* is the complex conjugate of xi_i.
    """
    quad = _pair_square(quad)
    if not np.allclose(quad, quad.T, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(quad)))):
        raise ValueError("kernel must be symmetric")
    quad = 0.5 * (quad + quad.T)
    quad.flags.writeable = False
    return quad


def _pair_square(quad):
    """quad as a complex array, checked to be square over (xi, xi*) pairs."""
    quad = np.array(quad, dtype=complex)
    if quad.ndim != 2 or quad.shape[0] != quad.shape[1] or quad.shape[0] % 2:
        raise ValueError("kernel must be square over (xi, xi*) pairs")
    return quad


def _real_form(kernel):
    """Real matrix M with v^T K v = u^T M u over u = (x, y) per mode."""
    t = _complexification(len(kernel) // 2)
    mc = t.T @ kernel @ t
    scale = max(1.0, float(np.max(np.abs(mc.real))))
    if np.max(np.abs(mc.imag)) > 1e-10 * scale:
        raise ValueError("kernel does not define a real quadratic form")
    m = mc.real
    return 0.5 * (m + m.T)


class PolyGaussianChi:
    """Unnormalized two-mode state chi(v) = P(v) * exp(-0.5 v^T K v).

    poly is a read-only complex array of shape (D, D, D, D) with poly[alpha]
    the coefficient of v^alpha, so each exponent runs below D.  The trace of
    the underlying operator is chi(0, 0), i.e. the constant coefficient
    poly[ZERO_INDEX].  The pipeline operations act on a kernel and a stack of
    such cubes; a single state is what tmsv_chi returns and fock_matrix takes.
    """

    def __init__(self, poly, kernel):
        if kernel.shape != (4, 4):
            raise ValueError("states are two-mode; kernel must be 4x4")
        poly = np.asarray(poly)
        if poly.ndim != N_VARS or len(set(poly.shape)) > 1 or not poly.size:
            raise ValueError("polynomial must be a nonempty (D, D, D, D) cube")
        self.poly = poly.astype(complex)
        self.poly.flags.writeable = False
        self.kernel = kernel


# ---------------------------------------------------------------------------
# state preparation and pipeline operations

def tmsv_chi(s):
    """Characteristic function of the two-mode squeezed vacuum.

    The Schmidt form sech(s) * sum_n tanh(s)^n |n,n> has the pure Gaussian
    characteristic function

        chi = exp[ -(|xi1|^2 + |xi2|^2) cosh(2s)/2
                   + (xi1 xi2 + xi1* xi2*) sinh(2s)/2 ],

    so the kernel carries cosh(2s)/2 on the conjugate pairs of each mode and
    -sinh(2s)/2 on the cross-mode entries.  s = 0 gives the two-mode vacuum.
    """
    if s < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    ch = math.cosh(2 * s) / 2
    sh = math.sinh(2 * s) / 2
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = ch
    k[2, 3] = k[3, 2] = ch
    k[0, 2] = k[2, 0] = -sh
    k[1, 3] = k[3, 1] = -sh
    return PolyGaussianChi(np.ones((1,) * N_VARS), gaussian_kernel(k))


def _shift(stack, var, step):
    """Every cube of a stack shifted by step = +-1 along v_var: the flat
    stack copied step strides of v_var over into zeros, exact while what
    crosses a cube's edge is zero."""
    n = step * stack.shape[1] ** (N_VARS - 1 - var)
    flat = stack.reshape(-1)
    out = np.zeros_like(flat)
    if n > 0:
        out[n:] = flat[:-n]
    else:
        out[:n] = flat[-n:]
    return out.reshape(stack.shape)


def _first_order(stack, raised, kq, j, c, m, h):
    """Apply c d/dv_j + h v_m to P * exp(-0.5 v^T K v) for every cube P of a
    stack (axis 0 runs over the cubes), given raised[var] = v_var P.

    Differentiating the Gaussian factor pulls down -(K v)_j, so the result
    stays in the same kernel class and only the polynomial changes.  The
    derivative is k P shifted by -1 along v_j; what crosses an edge has k = 0.
    """
    k = np.arange(stack.shape[1]).reshape((-1,) + (1,) * (N_VARS - 1 - j))
    out = c * _shift(k * stack, j, -1)
    for var in range(N_VARS):
        if kq[j, var] != 0.0:
            out += -c * kq[j, var] * raised[var]
    return out + h * raised[m]


def coherent_op_terms(kernel, stack, mode):
    """Apply (t a + r a^dag) rho (t a^dag + r a) to one mode, for every (t, r).

    stack[k] is the coefficient cube of t^(n-k) r^k in a degree-n form in
    (t, r) over the kernel; the result is the stack of the degree-(n+2)
    form, two cubes longer.  Under the characteristic-function correspondence

        a rho     -> (-d/dxi* - xi/2) chi      rho a     -> (-d/dxi* + xi/2) chi
        a^dag rho -> ( d/dxi  - xi*/2) chi     rho a^dag -> ( d/dxi  + xi*/2) chi

    the sandwich is right multiplication by t a^dag + r a, then left
    multiplication by t a + r a^dag: four fixed first-order operators mixed
    bilinearly by (t, r).  The kernel is untouched, the polynomial degree
    grows by at most two, and the weighted trace of the unnormalized output
    carries the success probability of the operation.  The cubes grow by two
    on every axis, so no shift moves a nonzero coefficient across an edge.
    An overflow or invalid value in the arithmetic raises FloatingPointError
    rather than leaving inf or NaN coefficients.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    right = ((p, 1.0, q, 0.5), (q, -1.0, p, 0.5))  # t: rho a^dag, r: rho a
    left = ((q, -1.0, p, -0.5), (p, 1.0, q, -0.5))  # t: a rho, r: a^dag rho
    n = len(stack)
    with np.errstate(over="raise", invalid="raise"):
        stack = np.pad(stack, [(0, 0)] + [(0, 2)] * N_VARS)
        raised = [_shift(stack, var, 1) for var in range(N_VARS)]
        out = np.zeros((n + 2,) + stack.shape[1:], dtype=complex)
        for i, op_right in enumerate(right):
            inner = _first_order(stack, raised, kernel, *op_right)
            inner_raised = [_shift(inner, var, 1) for var in range(N_VARS)]
            for j, op_left in enumerate(left):
                out[i + j:i + j + n] += _first_order(inner, inner_raised, kernel,
                                                     *op_left)
        return _prune(out)


def term_weights(n_terms, t, r):
    """Weights t^(n-k) r^k of the terms of a degree-n form, n = n_terms - 1."""
    return [t ** (n_terms - 1 - k) * r ** k for k in range(n_terms)]


def apply_thermal_channel(kernel, stack, mode, channel):
    """Mix one mode of every cube of a stack over one kernel with a thermal
    bath on a beamsplitter of transmissivity eta; returns (kernel, stack).

    chi'(..., xi_i, ...) = chi(..., sqrt(eta) xi_i, ...)
                           * exp(-0.5 (2 n_th + 1)(1 - eta) |xi_i|^2)

    Monomial coefficients pick up eta^(mode degree / 2); the kernel rows and
    columns of the mode are scaled by sqrt(eta) and the conjugate-pair entry
    gains the thermal term.  The trace chi(0, 0) is preserved exactly.

    The input kernel must be square over (xi, xi*) pairs and exactly
    symmetric, as gaussian_kernel leaves it (a kernel symmetric only to
    rounding is rejected, not symmetrized); the scaling and the added
    entries keep it so, bit for bit, so the output kernel (complex,
    read-only) is not checked again.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    k = _pair_square(kernel)
    if not np.array_equal(k, k.T):
        raise ValueError("kernel must be symmetric")
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    root = math.sqrt(channel.eta)
    a = np.indices(stack.shape[1:])
    stack = stack * root ** (a[p] + a[q])
    k[[p, q], :] *= root
    k[:, [p, q]] *= root
    add = 0.5 * (2 * channel.n_th + 1) * (1 - channel.eta)
    k[p, q] += add
    k[q, p] += add
    k.flags.writeable = False
    return k, stack


def check_normalized(poly):
    """Raise ValueError unless the trace poly[0, 0, 0, 0] is 1 to TRACE_ONE_TOL."""
    tr = poly[ZERO_INDEX]
    if abs(tr - 1.0) > TRACE_ONE_TOL:
        raise ValueError(f"state trace {tr} is not 1")


# ---------------------------------------------------------------------------
# Gaussian moments

def _moment_covariance(kernel):
    """Moment covariance C and normalization of the Gaussian of a kernel.

    The kernel is converted to its real quadratic form M over (x, y) pairs;
    the moment covariance of the real Gaussian is Sigma = M^{-1}, pulled back
    to the complex variables as C = T Sigma T^T, and the Gaussian integrates
    to 2^n / sqrt(det M) over n modes.  A det M that leaves the float range
    raises SingularKernelError rather than scaling every moment to 0 or inf.
    """
    m = _real_form(kernel)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError("kernel is not positive definite") from exc
    with np.errstate(over="ignore"):
        det = float(np.prod(np.diag(chol)) ** 2)
    if not 0.0 < det < math.inf:
        raise SingularKernelError(f"kernel determinant {det} is out of range")
    n_modes = len(kernel) // 2
    t = _complexification(n_modes)
    sigma = np.linalg.inv(m)
    return t @ sigma @ t.T, 2.0 ** n_modes / math.sqrt(det)


def phase_charges(cov):
    """Charges q of the variables under xi1 -> e^{i phi} xi1,
    xi2 -> e^{-i phi} xi2: +1 for xi1 and xi2*, -1 for xi1* and xi2, and
    each further mode with the opposite signs of the one before it (one
    mode: (+1, -1)).  They are returned only if every moment covariance
    C_jk with q_j + q_k != 0 is exactly 0, so that the Gaussian conserves
    the charge and every moment of v^alpha with q . alpha != 0 vanishes;
    otherwise all zeros, which mark every moment as allowed.

    A two-mode squeezed vacuum through phase-insensitive channels, and the
    augmented and fidelity kernels built from it, conserve the charge.
    """
    q = np.array([(-1) ** m * s for m in range(len(cov) // 2) for s in (1, -1)])
    if np.any(cov[q[:, None] + q[None, :] != 0]):
        return np.zeros_like(q)
    return q


def _read_only(a):
    """a as a contiguous array that cannot be written to."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _moment_plan(shape, charges):
    """The index bookkeeping of moment_table for one table shape and one
    charge vector: per shell and first nonzero variable j, in the order the
    recursion runs them, (j, target, terms) with target the flat indices of
    the entries it computes and terms the (k, beta_k, source) of the k with
    some beta_k != 0, source the flat indices of beta - e_k.  Tuples of
    read-only arrays, since every caller shares them."""
    n_vars = len(shape)
    idx = np.indices(shape).reshape(n_vars, -1).T
    idx = idx[idx @ np.array(charges) == 0]
    totals = idx.sum(axis=1)
    plan = []
    for d in range(2, int(totals.max()) + 1, 2):
        shell = idx[totals == d]
        first = (shell > 0).argmax(axis=1)
        for j in range(n_vars):
            sub = shell[first == j]
            if not len(sub):
                continue
            beta = sub.copy()
            beta[:, j] -= 1
            terms = []
            for k in range(n_vars):
                bk = beta[:, k]
                if not bk.any():
                    continue
                gam = beta.copy()
                gam[:, k] -= 1
                np.clip(gam, 0, None, out=gam)  # rows with bk == 0 are zeroed by bk
                terms.append((k, _read_only(bk),
                              _read_only(np.ravel_multi_index(gam.T, shape))))
            plan.append((j, _read_only(np.ravel_multi_index(sub.T, shape)),
                         tuple(terms)))
    return tuple(plan)


def moment_table(kernel, shape):
    """Exact phase-space moments against one Gaussian kernel, as a dense
    array over every alpha with alpha_i < shape_i:

        table[alpha] = Int prod_i (d^2 xi_i / pi) v^alpha exp(-0.5 v^T K v)

    Moments follow the Wick/Stein recursion

        E[v_j v^beta] = sum_k C_jk beta_k E[v^(beta - e_k)],

    with C from _moment_covariance, run vectorized over shells of equal total
    degree, each alpha reduced along its first nonzero exponent; odd shells
    vanish and are skipped.  An entry reads only entries below it, so it does
    not depend on the table's shape.

    Only the alpha with q . alpha = 0, q = phase_charges(C), are computed;
    the rest keep the +0 of np.zeros.  That is also what the recursion gives
    them, bit for bit: a term with C_jk != 0 has q_j + q_k = 0, so it reads
    an entry of the same nonzero charge, +0 by induction (or a finite one
    multiplied by beta_k = 0), and a sum that starts from +0 and adds only
    +-0 stays +0.  The computed entries read the same values in the same
    order as without the skip, so they keep their bits too.

    Which entries a shell computes and which ones each of its terms reads
    depend only on the shape and on q, so that index bookkeeping is planned
    once per (shape, q) and cached (_moment_plan); a call looks q up afresh
    and runs only the arithmetic.  It adds the same products in the same
    order, skipping a term where C_jk is exactly 0 as before, so no bit
    moves.
    """
    cov, norm = _moment_covariance(kernel)
    shape = tuple(int(s) for s in shape)
    if len(shape) != len(kernel):
        raise ValueError("shape rank must match the number of variables")
    table = np.zeros(shape, dtype=complex)
    flat = table.reshape(-1)
    flat[0] = 1.0
    for j, target, terms in _moment_plan(shape, tuple(phase_charges(cov).tolist())):
        acc = np.zeros(len(target), dtype=complex)
        for k, bk, source in terms:
            cjk = cov[j, k]
            if cjk != 0.0:
                acc += cjk * bk * flat[source]
        flat[target] = acc
    return norm * table
