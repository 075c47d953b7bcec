"""Two-mode characteristic functions of polynomial-times-Gaussian form.

Every state handled here is represented through its symmetrically ordered
characteristic function

    chi(xi1, xi2) = P(v) * exp(-0.5 * v^T K v),
    v = (xi1, xi1*, xi2, xi2*),

with P a polynomial, stored as a dense coefficient cube (poly[alpha] is the
coefficient of v^alpha), and K a real 4x4 kernel that passes
gaussian_kernel.  A state is one kernel and a stack of such cubes of shape
(n, D, D, D, D) (two_mode_stack checks the shapes): the polynomials over
one kernel that a (t, r)-basis pipeline carries, or a single state's one
cube.  The representation is closed under the three operations the
distillation pipelines need: preparation of a two-mode squeezed vacuum,
the coherent superposition operation t*a + r*a^dag applied to one mode,
and the beamsplitter model of a thermal-noise channel.  Phase-space
integrals of monomials against the Gaussian factor are evaluated exactly
by a Wick/Stein moment recursion, the Fock-basis reconstruction's engine;
the teleportation-fidelity integral has a closed form (entanglement).
Every kernel, cube and moment is float64: the squeezed vacuum, the real
weights of the operation and a phase-insensitive channel keep every
coefficient real, and gaussian_kernel and two_mode_stack refuse an
imaginary part.

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


class SingularKernelError(Exception):
    """Kernel not positive definite, a quantity derived from it out of float
    range, or a moment covariance with an imaginary part."""


# ---------------------------------------------------------------------------
# channel parameters and the two-mode state format

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
    """quad as the kernel matrix K of the factor exp(-0.5 v^T K v), or as
    a stack of kernels over leading axes (one per state of a chunk): a
    read-only float64 copy, checked in quad's own dtype (a real input is
    never copied to complex) against the one kernel contract.

    Rows/columns interleave each mode's (xi, xi*).  K must be square over
    those pairs, finite, exactly symmetric, conserve the phase charges q of
    _charges exactly (every K_jk with q_j + q_k != 0 is 0), be exactly
    swap symmetric, P K P = K with P exchanging xi_i and xi_i* in every
    mode, and be real.  A two-mode squeezed vacuum through
    phase-insensitive channels, and every kernel the pipelines build from
    it, has this structure bit for bit.  Anything else raises ValueError,
    in that order of checks, each over every kernel of a stack; nothing is
    symmetrized.
    """
    k = np.array(quad)
    if k.ndim < 2 or k.shape[-1] != k.shape[-2] or k.shape[-1] % 2:
        raise ValueError("kernel must be square over (xi, xi*) pairs")
    if not np.isfinite(k).all():
        raise ValueError("kernel entries must be finite")
    if not (k == k.swapaxes(-1, -2)).all():
        raise ValueError("kernel must be exactly symmetric")
    if k[..., _charge_breaking(k.shape[-1])].any():
        raise ValueError("kernel breaks the phase charge")
    m = k.shape[-1] // 2  # P K P: xi and xi* swapped in every row and column pair
    pairs = k.reshape(k.shape[:-2] + (m, 2, m, 2))
    if not (pairs[..., ::-1, :, ::-1].reshape(k.shape) == k).all():
        raise ValueError("kernel breaks the swap symmetry P K P = K")
    if k.imag.any():
        raise ValueError("kernel must be real")
    return _read_only(k.real.astype(float, copy=False))


def two_mode_stack(kernel, polys):
    """polys as a float64 array, checked against the two-mode state format:
    a 4x4 kernel and a stack of nonempty (D, D, D, D) coefficient cubes,
    polys[n] the cube of the n-th polynomial over that kernel, real by
    gaussian_kernel's rule (a complex stack gives its real part if every
    imaginary part is 0; ValueError otherwise).  A chunk of states has the
    same leading axes on both, kernels (S, 4, 4) and stacks
    (S, n, D, D, D, D).  The kernel's entries are gaussian_kernel's to
    check.
    """
    polys = np.asarray(polys)
    lead = np.shape(kernel)[:-2]
    if (np.shape(kernel)[-2:] != (N_VARS, N_VARS)
            or polys.ndim != len(lead) + N_VARS + 1
            or polys.shape[:len(lead)] != lead
            or len(set(polys.shape[-N_VARS:])) > 1 or not polys.shape[-1]):
        raise ValueError("a two-mode state is a 4x4 kernel and a stack of "
                         "(D, D, D, D) cubes, with the same leading axes in a "
                         f"chunk; got kernel shape {np.shape(kernel)} and "
                         f"stack shape {polys.shape}")
    if polys.imag.any():
        raise ValueError("a stack must be real")
    return polys.real.astype(float, copy=False)


def _charges(n_vars):
    """Charges q of the variables under xi1 -> e^{i phi} xi1,
    xi2 -> e^{-i phi} xi2: +1 for xi1 and xi2*, -1 for xi1* and xi2, and
    each further mode with the opposite signs of the one before it (one
    mode: (+1, -1)).  Under gaussian_kernel's contract every moment of
    v^alpha with q . alpha != 0 vanishes."""
    return np.array([(-1) ** m * s for m in range(n_vars // 2) for s in (1, -1)])


@functools.lru_cache(maxsize=None)
def _charge_breaking(n_vars):
    """Read-only mask of the kernel entries K_jk with q_j + q_k != 0."""
    q = _charges(n_vars)
    return _read_only(q[:, None] + q[None, :] != 0)


def _complexification(n_modes):
    """Matrix T with v = T u, u = (x, y) per mode, xi = x + i y."""
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for m in range(0, 2 * n_modes, 2):
        t[m:m + 2, m:m + 2] = [[1.0, 1j], [1.0, -1j]]
    return t


def _real_form(kernel):
    """Real matrix M with v^T K v = u^T M u over u = (x, y) per mode, for a
    kernel or each kernel of a stack (..., n, n); the swap-conjugation
    symmetry of the kernel makes it real."""
    t = _complexification(kernel.shape[-1] // 2)
    m = (t.T @ kernel @ t).real
    return 0.5 * (m + m.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# state preparation and pipeline operations

def tmsv_chi(s):
    """Characteristic function of the two-mode squeezed vacuum.

    The Schmidt form sech(s) * sum_n tanh(s)^n |n,n> has the pure Gaussian
    characteristic function

        chi = exp[ -(|xi1|^2 + |xi2|^2) cosh(2s)/2
                   + (xi1 xi2 + xi1* xi2*) sinh(2s)/2 ],

    so the kernel carries cosh(2s)/2 on the conjugate pairs of each mode and
    -sinh(2s)/2 on the cross-mode entries.  s = 0 gives the two-mode vacuum;
    s must be nonnegative and finite, as ScenarioConfig requires.  Returns
    (kernel, stack), the format of every pipeline operation: the stack is
    one float64 (1, 1, 1, 1) cube of ones, P = 1.
    """
    if not 0 <= s < math.inf:
        raise ValueError("squeezing parameter must be nonnegative and finite")
    ch = math.cosh(2 * s) / 2
    sh = math.sinh(2 * s) / 2
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = ch
    k[2, 3] = k[3, 2] = ch
    k[0, 2] = k[2, 0] = -sh
    k[1, 3] = k[3, 1] = -sh
    return gaussian_kernel(k), np.ones((1,) * (N_VARS + 1))


def _shift(stack, var, step):
    """Every cube of a stack shifted by step = +-1 along v_var into zeros:
    an axis slice, which drops what crosses a cube's edge."""
    tail = (slice(None),) * (N_VARS - 1 - var)
    src, dst = (slice(None, -1), slice(1, None))[::step]
    out = np.zeros_like(stack)
    out[(..., dst) + tail] = stack[(..., src) + tail]
    return out


def _first_order(stack, raised, kq, j, c, m, h):
    """Apply c d/dv_j + h v_m to P * exp(-0.5 v^T K v) for every cube P of a
    stack over the kernels kq (the stack's leading axes are kq's, then the
    cubes), given raised[var] = v_var P.

    Differentiating the Gaussian factor pulls down -(K v)_j, so the result
    stays in the same kernel class and only the polynomial changes.  The
    derivative is k P shifted by -1 along v_j; what crosses an edge has k = 0.
    A term K_j,var that is exactly 0 in every kernel is skipped.  In a state
    of a chunk whose own K_j,var is 0 the term adds +-0: that moves no
    nonzero coefficient, only the sign of a zero, and coherent_op_terms sums
    every result into +0, so the state keeps the bytes it gets alone.
    """
    k = np.arange(stack.shape[-1]).reshape((-1,) + (1,) * (N_VARS - 1 - j))
    out = c * _shift(k * stack, j, -1)
    axes = kq.shape[:-2] + (1,) * (N_VARS + 1)
    for var in range(N_VARS):
        if kq[..., j, var].any():
            out += (-c * kq[..., j, var]).reshape(axes) * raised[var]
    return out + h * raised[m]


def coherent_op_terms(kernel, stack, mode):
    """Apply (t a + r a^dag) rho (t a^dag + r a) to one mode, for every (t, r).

    kernel and stack are a two-mode state, or a chunk of them with leading
    axes (two_mode_stack checks the shapes), stack[..., k, :, :, :, :] the
    cube of t^(n-k) r^k in a degree-n form in (t, r); the result is the
    stack of the degree-(n+2) form, two cubes longer.
    Under the characteristic-function correspondence

        a rho     -> (-d/dxi* - xi/2) chi      rho a     -> (-d/dxi* + xi/2) chi
        a^dag rho -> ( d/dxi  - xi*/2) chi     rho a^dag -> ( d/dxi  + xi*/2) chi

    the sandwich is right multiplication by t a^dag + r a, then left
    multiplication by t a + r a^dag: four fixed first-order operators mixed
    bilinearly by (t, r).  The kernel is untouched, the weighted trace of
    the output carries the operation's success probability, and the cubes
    grow by two on every axis, so no shift moves a nonzero coefficient
    across an edge.  Every state of a chunk gets the bits it gets alone
    (_first_order): the output starts as +0 and takes every term by
    addition, so it holds no -0.
    The result is float64, as two_mode_stack makes the stack.  An overflow
    or invalid value in the arithmetic raises FloatingPointError rather
    than leaving inf or NaN coefficients.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    kernel = np.asarray(kernel)
    stack = two_mode_stack(kernel, stack)
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    right = ((p, 1.0, q, 0.5), (q, -1.0, p, 0.5))  # t: rho a^dag, r: rho a
    left = ((q, -1.0, p, -0.5), (p, 1.0, q, -0.5))  # t: a rho, r: a^dag rho
    lead = stack.ndim - N_VARS - 1
    n = stack.shape[lead]
    with np.errstate(over="raise", invalid="raise"):
        stack = np.pad(stack, [(0, 0)] * (lead + 1) + [(0, 2)] * N_VARS)
        raised = [_shift(stack, var, 1) for var in range(N_VARS)]
        out = np.zeros(stack.shape[:lead] + (n + 2,) + stack.shape[lead + 1:])
        for i, op_right in enumerate(right):
            inner = _first_order(stack, raised, kernel, *op_right)
            inner_raised = [_shift(inner, var, 1) for var in range(N_VARS)]
            for j, op_left in enumerate(left):
                out[..., i + j:i + j + n, :, :, :, :] += _first_order(
                    inner, inner_raised, kernel, *op_left)
        return out


def apply_thermal_channel(kernel, stack, mode, channel):
    """Mix one mode of every cube of a stack over one kernel with a thermal
    bath on a beamsplitter of transmissivity eta; returns (kernel, stack).
    A chunk of states takes one ChannelParams per state: channel is then
    an array-like of them in the kernels' leading shape (a list of S for
    kernels (S, 4, 4)).

    chi'(..., xi_i, ...) = chi(..., sqrt(eta) xi_i, ...)
                           * exp(-0.5 (2 n_th + 1)(1 - eta) |xi_i|^2)

    Monomial coefficients pick up eta^(mode degree / 2); the kernel rows and
    columns of the mode are scaled by sqrt(eta) and the conjugate-pair entry
    gains the thermal term.  The trace chi(0, 0) is preserved exactly.

    The kernel must pass gaussian_kernel and the stack two_mode_stack; the
    real scaling of a conjugate pair and the real term added to both its
    entries keep the kernel contract bit for bit, so the output kernel
    (float64, read-only) is not checked again.  A thermal term beyond the
    float range raises SingularKernelError.  sqrt(eta) and the thermal term
    are each state's own Python floats, so a state gets the bits it gets
    alone.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    channels = np.array(channel, dtype=object)
    root = np.reshape([math.sqrt(c.eta) for c in channels.flat], channels.shape)
    add = np.reshape([0.5 * (2 * c.n_th + 1) * (1 - c.eta) for c in channels.flat],
                     channels.shape)
    if not np.isfinite(add).all():
        raise SingularKernelError("channel thermal term "
                                  f"{add[~np.isfinite(add)].flat[0]} is out of range")
    k = np.array(gaussian_kernel(kernel))
    stack = two_mode_stack(k, stack)
    if channels.shape != k.shape[:-2]:
        raise ValueError(f"one ChannelParams per state: {channels.shape} "
                         f"channels for kernels of shape {k.shape}")
    p, q = 2 * (mode - 1), 2 * (mode - 1) + 1
    a = np.indices(stack.shape[-N_VARS:])
    stack = stack * root.reshape(root.shape + (1,) * (N_VARS + 1)) ** (a[p] + a[q])
    k[..., [p, q], :] *= root[..., None, None]
    k[..., :, [p, q]] *= root[..., None, None]
    k[..., p, q] += add
    k[..., q, p] += add
    k.flags.writeable = False
    return k, stack


# ---------------------------------------------------------------------------
# Gaussian moments

def _moment_covariance(kernel):
    """Moment covariance C (..., n, n) and float64 normalizations (...) of
    the Gaussian of each kernel of a stack (..., n, n), of any leading
    shape (none for one kernel: C (n, n) and a 0-d normalization).

    The kernel is converted to its real quadratic form M over (x, y) pairs;
    the moment covariance of the real Gaussian is Sigma = M^{-1}, pulled back
    to the complex variables as C = T Sigma T^T (complex, as T is; real for
    every kernel gaussian_kernel accepts), and the Gaussian integrates to
    2^n / sqrt(det M) over n modes.  A stack is factored by one stacked
    cholesky and one stacked inv, which give each kernel the bits it gets
    alone.  A kernel that is not positive definite, or whose det M leaves
    the float range (rather than scaling every moment to 0 or inf), raises
    SingularKernelError; in a stack the first such kernel raises its own
    error, as it would alone.
    """
    m = _real_form(kernel)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        _raise_first_singular(kernel)
        raise SingularKernelError("kernel is not positive definite") from exc
    with np.errstate(over="ignore"):
        det = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1) ** 2
    if not ((0.0 < det) & (det < math.inf)).all():
        _raise_first_singular(kernel)
        raise SingularKernelError(f"kernel determinant {float(det)} is out of range")
    n_modes = kernel.shape[-1] // 2
    t = _complexification(n_modes)
    return t @ np.linalg.inv(m) @ t.T, 2.0 ** n_modes / np.sqrt(det)


def _raise_first_singular(kernel):
    """For a stack of kernels, the error of its first kernel that
    _moment_covariance refuses alone; nothing for one kernel."""
    if kernel.ndim > 2:
        for one in kernel.reshape((-1,) + kernel.shape[-2:]):
            _moment_covariance(one)


def _read_only(a):
    """a as a contiguous array that cannot be written to."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _moment_plan(shape, n_kernels):
    """The index bookkeeping of moment_table for n_kernels tables of one
    shape, end to end in one flat array: per shell and first nonzero
    variable j, in the order the recursion runs them, (j, target, terms)
    with target the flat indices of the entries of charge zero it computes
    and terms the (k, beta_k, source) of the k with some beta_k != 0,
    source the flat indices of beta - e_k; row i of target and source is
    table i's, offset by its start.  Read-only, as every caller shares it."""
    n_vars = len(shape)
    offsets = math.prod(shape) * np.arange(n_kernels)[:, None]
    idx = np.indices(shape).reshape(n_vars, -1).T
    idx = idx[idx @ _charges(n_vars) == 0]
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
                              _read_only(np.ravel_multi_index(gam.T, shape) + offsets)))
            plan.append((j, _read_only(np.ravel_multi_index(sub.T, shape) + offsets),
                         tuple(terms)))
    return tuple(plan)


def moment_table(kernel, shape):
    """Exact phase-space moments against one Gaussian kernel, as a dense
    float64 array over every alpha with alpha_i < shape_i:

        table[alpha] = Int prod_i (d^2 xi_i / pi) v^alpha exp(-0.5 v^T K v)

    or against each kernel of a stack (..., n, n), as an array of shape
    (...) + shape whose table of each kernel has the bits it gets alone.

    Moments follow the Wick/Stein recursion

        E[v_j v^beta] = sum_k C_jk beta_k E[v^(beta - e_k)],

    with C from _moment_covariance, run vectorized over shells of equal total
    degree, each alpha reduced along its first nonzero exponent; odd shells
    vanish and are skipped.  An entry reads only entries below it, so it does
    not depend on the table's shape.  C is real for every kernel that
    gaussian_kernel accepts, so the recursion runs on C.real in float64; a C
    with a nonzero imaginary part raises SingularKernelError.

    The kernel must pass gaussian_kernel, so it conserves the phase charges
    q of _charges.  Only the alpha with q . alpha = 0 are computed; the
    rest keep the +0 of np.zeros, which the recursion gives them too, bit
    for bit, wherever C's charge-violating entries are exactly 0 (tested
    on every strategy's kernels): a term with C_jk != 0 has q_j + q_k = 0,
    so it reads an entry of the same nonzero charge, +0 by induction (or a
    finite one times beta_k = 0), and a sum from +0 of +-0 stays +0.

    Which entries a shell computes and which ones each of its terms reads
    depend only on the shape, so a call of S kernels (one included) runs
    the recursion once, on one flat array of the S tables end to end,
    through the cached plan of (shape, S) (_moment_plan), and only the
    arithmetic, in the plain recursion's order: each entry of each kernel
    is (C_jk beta_k) E[...], added from +0 in the plan's order, skipping a
    term where C_jk is exactly 0.  A term that is 0 in some kernels only is
    added to the others, never computed as 0 times an entry that may be inf.
    """
    kernel = gaussian_kernel(kernel)
    shape = tuple(int(s) for s in shape)
    if kernel.shape[-2:] != (len(shape),) * 2:
        raise ValueError("shape rank must match the number of variables")
    lead = kernel.shape[:-2]
    cov, norm = _moment_covariance(kernel)
    if cov.imag.any():
        raise SingularKernelError("moment covariance has an imaginary part")
    cov = cov.real.reshape((-1,) + kernel.shape[-2:])
    n_kernels = len(cov)
    columns = cov.transpose(1, 2, 0)[..., None]
    nonzero = cov != 0.0
    every, some = nonzero.all(axis=0).tolist(), nonzero.any(axis=0).tolist()
    size = math.prod(shape)
    flat = np.zeros(n_kernels * size)
    flat[::size] = 1.0
    for j, target, terms in _moment_plan(shape, n_kernels):
        acc = np.zeros(target.shape)
        for k, bk, source in terms:
            if every[j][k]:
                acc += columns[j, k] * bk * flat[source]
            elif some[j][k]:
                on = nonzero[:, j, k]
                acc[on] += columns[j, k][on] * bk * flat[source[on]]
        flat[target] = acc
    return (flat.reshape(n_kernels, -1) * np.reshape(norm, (-1, 1))).reshape(lead + shape)
