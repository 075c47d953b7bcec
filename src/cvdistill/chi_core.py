"""Two-mode characteristic functions of polynomial-times-Gaussian form.

Every state handled here is represented through its symmetrically ordered
characteristic function

    chi(xi1, xi2) = P(v) * exp(-0.5 * v^T K v),
    v = (xi1, xi1*, xi2, xi2*),

with P a polynomial (multi-index -> coefficient map) and K a symmetric 4x4
kernel matrix.  The representation is closed under the three operations the
distillation pipelines need: preparation of a two-mode squeezed vacuum, the
coherent superposition operation t*a + r*a^dag applied to one mode, and the
beamsplitter model of a thermal-noise channel.  Phase-space integrals of
monomials against the Gaussian factor are evaluated exactly by a Wick/Stein
moment recursion; Fock-basis reconstruction and the teleportation-fidelity
integral are built on top of it.

Conventions: the formal variables are ordered (xi1, xi1*, xi2, xi2*), mode
arguments are 1-based, and every phase-space integral carries one factor of
1/pi per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_VARS = 4
ZERO_INDEX = (0, 0, 0, 0)

PRUNE_REL_TOL = 1e-16
HERMITICITY_TOL = 1e-12
TRACE_IMAG_TOL = 1e-10
TRACE_ONE_TOL = 1e-6
ZERO_TRACE_TOL = 1e-30


class ZeroStateError(Exception):
    """A state of vanishing trace cannot be normalized."""


class SingularKernelError(Exception):
    """Gaussian kernel is not positive definite; the integral diverges."""


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient maps over exponent tuples)

def _prune(poly):
    if not poly:
        return {}
    cap = PRUNE_REL_TOL * max(abs(c) for c in poly.values())
    return {a: c for a, c in poly.items() if abs(c) > cap}


def _poly_add(dst, src, scale):
    for a, c in src.items():
        dst[a] = dst.get(a, 0.0) + scale * c


def _poly_shift(poly, var):
    """Multiply the polynomial by the formal variable v_var."""
    out = {}
    for a, c in poly.items():
        b = list(a)
        b[var] += 1
        out[tuple(b)] = c
    return out


def _poly_diff(poly, var):
    out = {}
    for a, c in poly.items():
        k = a[var]
        if k:
            b = list(a)
            b[var] -= 1
            out[tuple(b)] = k * c
    return out


def _conj_swap(alpha):
    """Exchange xi and xi* exponents in every mode."""
    return (alpha[1], alpha[0], alpha[3], alpha[2])


def _complexification(n_modes):
    """Matrix T with v = T u, u = (x, y) per mode, xi = x + i y."""
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for m in range(n_modes):
        t[2 * m, 2 * m] = 1.0
        t[2 * m, 2 * m + 1] = 1j
        t[2 * m + 1, 2 * m] = 1.0
        t[2 * m + 1, 2 * m + 1] = -1j
    return t


def _pair_swap(n_modes):
    p = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        p[2 * m, 2 * m + 1] = 1.0
        p[2 * m + 1, 2 * m] = 1.0
    return p


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


class GaussianKernel:
    """Symmetric kernel matrix K of the factor exp(-0.5 v^T K v).

    Rows/columns interleave each mode's (xi, xi*).  Physical kernels obey the
    swap-conjugation symmetry P K P = conj(K), with P the permutation that
    exchanges xi_i and xi_i* in every mode; this makes the quadratic form real
    whenever xi_i* is the complex conjugate of xi_i.
    """

    def __init__(self, quad):
        quad = np.array(quad, dtype=complex)
        if quad.ndim != 2 or quad.shape[0] != quad.shape[1] or quad.shape[0] % 2:
            raise ValueError("kernel must be square over (xi, xi*) pairs")
        if not np.allclose(quad, quad.T, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(quad)))):
            raise ValueError("kernel must be symmetric")
        quad = 0.5 * (quad + quad.T)
        quad.flags.writeable = False
        self.quad = quad

    @property
    def n_modes(self):
        return self.quad.shape[0] // 2

    def swap_conjugation_defect(self):
        p = _pair_swap(self.n_modes)
        return float(np.max(np.abs(p @ self.quad @ p - np.conj(self.quad))))

    def real_form(self):
        """Real matrix M with v^T K v = u^T M u over u = (x, y) per mode."""
        t = _complexification(self.n_modes)
        mc = t.T @ self.quad @ t
        scale = max(1.0, float(np.max(np.abs(mc.real))))
        if np.max(np.abs(mc.imag)) > 1e-10 * scale:
            raise ValueError("kernel does not define a real quadratic form")
        m = mc.real
        return 0.5 * (m + m.T)


class PolyGaussianChi:
    """Unnormalized two-mode state chi(v) = P(v) * exp(-0.5 v^T K v).

    The trace of the underlying operator is chi(0, 0), i.e. the constant
    coefficient of P.  Instances are treated as immutable; operations return
    new objects.
    """

    def __init__(self, poly, kernel):
        if kernel.n_modes != 2:
            raise ValueError("states are two-mode; kernel must be 4x4")
        clean = {}
        for a, c in poly.items():
            a = tuple(int(k) for k in a)
            if len(a) != N_VARS or min(a) < 0:
                raise ValueError(f"bad multi-index {a!r}")
            clean[a] = complex(c)
        self.poly = clean
        self.kernel = kernel

    @property
    def trace(self):
        return self.poly.get(ZERO_INDEX, 0j)

    @property
    def degree(self):
        return max((sum(a) for a in self.poly), default=0)

    def evaluate(self, xi1, xi2):
        return evaluate_chi(self, xi1, xi2)

    def hermiticity_defect(self):
        """Max deviation of chi from conj(chi(-v)), over coefficients and kernel."""
        defect = self.kernel.swap_conjugation_defect()
        keys = set(self.poly) | {_conj_swap(a) for a in self.poly}
        for a in keys:
            want = np.conj(self.poly.get(_conj_swap(a), 0j)) * (-1) ** sum(a)
            defect = max(defect, abs(self.poly.get(a, 0j) - want))
        return defect

    def is_hermitian(self, tol=HERMITICITY_TOL):
        scale = max([1.0] + [abs(c) for c in self.poly.values()])
        return self.hermiticity_defect() <= tol * scale


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
    return PolyGaussianChi({ZERO_INDEX: 1.0}, GaussianKernel(k))


def _first_order(poly, kq, j, c, m, h):
    """Apply c d/dv_j + h v_m to P * exp(-0.5 v^T K v).

    Differentiating the Gaussian factor pulls down -(K v)_j, so the result
    stays in the same kernel class and only the polynomial changes.
    """
    out = {}
    _poly_add(out, _poly_diff(poly, j), c)
    for k in range(N_VARS):
        if kq[j, k] != 0.0:
            _poly_add(out, _poly_shift(poly, k), -c * kq[j, k])
    _poly_add(out, _poly_shift(poly, m), h)
    return out


def coherent_op_terms(terms, mode):
    """Apply (t a + r a^dag) rho (t a^dag + r a) to one mode, for every (t, r).

    terms[k] is the coefficient state of t^(n-k) r^k in a degree-n form in
    (t, r); the result is the degree-(n+2) form, two terms longer.  Under the
    characteristic-function correspondence

        a rho     -> (-d/dxi* - xi/2) chi      rho a     -> (-d/dxi* + xi/2) chi
        a^dag rho -> ( d/dxi  - xi*/2) chi     rho a^dag -> ( d/dxi  + xi*/2) chi

    the sandwich is right multiplication by t a^dag + r a, then left
    multiplication by t a + r a^dag: four fixed first-order operators mixed
    bilinearly by (t, r).  The kernel is untouched, the polynomial degree
    grows by at most two, and the weighted trace of the unnormalized output
    carries the success probability of the operation.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    kq = terms[0].kernel.quad
    right = ((p, 1.0, q, 0.5), (q, -1.0, p, 0.5))  # t: rho a^dag, r: rho a
    left = ((q, -1.0, p, -0.5), (p, 1.0, q, -0.5))  # t: a rho, r: a^dag rho
    out = [{} for _ in range(len(terms) + 2)]
    for k, term in enumerate(terms):
        for i, op_right in enumerate(right):
            inner = _first_order(term.poly, kq, *op_right)
            for j, op_left in enumerate(left):
                _poly_add(out[k + i + j], _first_order(inner, kq, *op_left), 1.0)
    return [PolyGaussianChi(_prune(poly), terms[0].kernel) for poly in out]


def term_weights(n_terms, t, r):
    """Weights t^(n-k) r^k of the terms of a degree-n form, n = n_terms - 1."""
    return [t ** (n_terms - 1 - k) * r ** k for k in range(n_terms)]


def combine_terms(terms, t, r):
    """The state sum_k t^(n-k) r^k terms[k] at one weight (t, r)."""
    poly = {}
    for w, term in zip(term_weights(len(terms), t, r), terms):
        if w:
            _poly_add(poly, term.poly, w)
    return PolyGaussianChi(poly, terms[0].kernel)


def apply_coherent_op(state, mode, op):
    """coherent_op_terms at the single weight op."""
    return combine_terms(coherent_op_terms([state], mode), op.t, op.r)


def apply_thermal_channel(state, mode, channel):
    """Mix one mode with a thermal bath on a beamsplitter of transmissivity eta.

    chi'(..., xi_i, ...) = chi(..., sqrt(eta) xi_i, ...)
                           * exp(-0.5 (2 n_th + 1)(1 - eta) |xi_i|^2)

    Monomial coefficients pick up eta^(mode degree / 2); the kernel rows and
    columns of the mode are scaled by sqrt(eta) and the conjugate-pair entry
    gains the thermal term.  The trace chi(0, 0) is preserved exactly.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    root = math.sqrt(channel.eta)
    poly = {a: c * root ** (a[p] + a[q]) for a, c in state.poly.items()}
    k = np.array(state.kernel.quad)
    k[[p, q], :] *= root
    k[:, [p, q]] *= root
    add = 0.5 * (2 * channel.n_th + 1) * (1 - channel.eta)
    k[p, q] += add
    k[q, p] += add
    return PolyGaussianChi(poly, GaussianKernel(k))


def evaluate_chi(state, xi1, xi2):
    """Evaluate chi at a phase-space point (xi_i* is the complex conjugate)."""
    v = np.array([xi1, np.conj(xi1), xi2, np.conj(xi2)], dtype=complex)
    val = 0j
    for a, c in state.poly.items():
        val += c * v[0] ** a[0] * v[1] ** a[1] * v[2] ** a[2] * v[3] ** a[3]
    return val * np.exp(-0.5 * (v @ state.kernel.quad @ v))


def normalize(state):
    """Scale a state to unit trace.

    Returns (normalized_state, trace); the trace of a pipeline output is the
    heralding rate of the non-deterministic operations applied so far.  It is
    not bounded by 1, because t a + r a^dag is not a trace-nonincreasing map:
    the trace is a rate relative to an unstated gain and exceeds 1 where the
    a^dag part dominates (coherent_before at s = 0.286, eta = 0.8911,
    n_th = 0.1107, t = 0.0741 gives 1.256).  A trace below ZERO_TRACE_TOL,
    negative float noise included, raises ZeroStateError.
    """
    tr = state.trace
    if abs(tr.imag) > TRACE_IMAG_TOL * max(1.0, abs(tr.real)):
        raise ValueError(f"trace has non-negligible imaginary part: {tr}")
    t = tr.real
    if t < ZERO_TRACE_TOL:
        raise ZeroStateError("state has vanishing trace")
    poly = {a: c / t for a, c in state.poly.items()}
    return PolyGaussianChi(poly, state.kernel), t


def check_normalized(state):
    """Raise ValueError unless the state's trace is 1 within TRACE_ONE_TOL."""
    tr = state.trace
    if abs(tr - 1.0) > TRACE_ONE_TOL:
        raise ValueError(f"state trace {tr} is not 1; normalize first")


# ---------------------------------------------------------------------------
# Gaussian moment engine

class MomentEngine:
    """Exact phase-space moments against one Gaussian kernel.

        moment(alpha) = Int prod_i (d^2 xi_i / pi) v^alpha exp(-0.5 v^T K v)

    The kernel is converted to its real quadratic form M over (x, y) pairs;
    the moment covariance of the real Gaussian is Sigma = M^{-1}, pulled back
    to the complex variables as C = T Sigma T^T.  Moments then follow the
    Wick/Stein recursion

        E[v_j v^beta] = sum_k C_jk beta_k E[v^(beta - e_k)],

    evaluated once, as a dense table (moment_table); moment() and integrate()
    read their values from it.
    """

    def __init__(self, kernel):
        self.n_vars = 2 * kernel.n_modes
        m = kernel.real_form()
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise SingularKernelError("kernel is not positive definite") from exc
        det = float(np.prod(np.diag(chol))) ** 2
        t = _complexification(kernel.n_modes)
        sigma = np.linalg.inv(m)
        self._cov = t @ sigma @ t.T
        self._norm = 2.0 ** kernel.n_modes / math.sqrt(det)

    def moment(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n_vars or min(alpha) < 0:
            raise ValueError(f"bad multi-index {alpha!r}")
        return self.moment_table([a + 1 for a in alpha])[alpha]

    def integrate(self, poly):
        """Integrate a polynomial (coefficient map) against the kernel; the
        empty polynomial integrates to 0."""
        if not poly:
            return 0
        table = self.moment_table(np.max(list(poly), axis=0) + 1)
        return sum(c * table[a] for a, c in poly.items())

    def moment_table(self, shape):
        """Dense array of moment(alpha) for every alpha with alpha_i < shape_i.

        The recursion runs vectorized over shells of equal total degree, each
        alpha reduced along its first nonzero exponent; odd shells vanish and
        are skipped.
        """
        shape = tuple(int(s) for s in shape)
        if len(shape) != self.n_vars:
            raise ValueError("shape rank must match the number of variables")
        table = np.zeros(shape, dtype=complex)
        flat = table.reshape(-1)
        flat[0] = 1.0
        idx = np.indices(shape).reshape(self.n_vars, -1).T
        totals = idx.sum(axis=1)
        for d in range(2, int(totals.max()) + 1, 2):
            shell = idx[totals == d]
            first = (shell > 0).argmax(axis=1)
            for j in range(self.n_vars):
                sub = shell[first == j]
                if not len(sub):
                    continue
                beta = sub.copy()
                beta[:, j] -= 1
                acc = np.zeros(len(sub), dtype=complex)
                for k in range(self.n_vars):
                    cjk = self._cov[j, k]
                    bk = beta[:, k]
                    if cjk == 0.0 or not bk.any():
                        continue
                    gam = beta.copy()
                    gam[:, k] -= 1
                    np.clip(gam, 0, None, out=gam)  # rows with bk == 0 are zeroed by bk
                    acc += cjk * bk * flat[np.ravel_multi_index(gam.T, shape)]
                flat[np.ravel_multi_index(sub.T, shape)] = acc
        return self._norm * table
