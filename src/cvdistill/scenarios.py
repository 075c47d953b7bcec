"""Distillation strategies and parameter sweeps.

Five preparations of a two-mode squeezed vacuum sent through a symmetric
thermal-loss channel: leave it alone, subtract a photon from each mode before
or after the channel, or apply the tunable coherent superposition
t a + sqrt(1 - t^2) a^dag to each mode before or after the channel.  The
weight t of the coherent strategies is optimized per channel setting; photon
subtraction is the fixed point t = 1 of the same pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .chi_core import (
    TRACE_IMAG_TOL,
    ZERO_TRACE_TOL,
    ChannelParams,
    CoherentOp,
    apply_thermal_channel,
    coherent_op_terms,
    term_weights,
    tmsv_chi,
)
from .entanglement import (
    covariance_from_chi,
    exact_real,
    fidelity_integrals,
    gaussian_log_negativity,
    log_negativity,
)
from .fock_recon import certify, fock_matrices

GRID_STEP = 0.01
REFINE_TOL = 1e-4


class Strategy(Enum):
    NOOP = "noop"
    SUBTRACT_BEFORE = "subtract_before"
    SUBTRACT_AFTER = "subtract_after"
    COHERENT_BEFORE = "coherent_before"
    COHERENT_AFTER = "coherent_after"

    @property
    def has_operation(self):
        return self is not Strategy.NOOP

    @property
    def operation_first(self):
        return self in (Strategy.SUBTRACT_BEFORE, Strategy.COHERENT_BEFORE)

    @property
    def optimizes_t(self):
        return self in (Strategy.COHERENT_BEFORE, Strategy.COHERENT_AFTER)


@dataclass(frozen=True)
class ScenarioConfig:
    """One strategy at one squeezing and channel setting.

    objective picks what the coherent-weight optimizer maximizes
    ("negativity" or "fidelity"); t_override pins t instead of optimizing.
    With ChannelParams this is the one place that checks input ranges; the
    point and sweep commands both build these.
    """

    strategy: Strategy
    s: float
    channel: ChannelParams
    n_trunc: int = 5
    objective: str = "negativity"
    t_override: float | None = None

    def __post_init__(self):
        if not 0 <= self.s < math.inf:
            raise ValueError("s must be nonnegative and finite")
        if self.n_trunc < 0:
            raise ValueError("n_trunc must be nonnegative")
        if self.objective not in ("negativity", "fidelity"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.t_override is not None and not 0.0 <= self.t_override <= 1.0:
            raise ValueError("t must lie in [0, 1]")


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row worth of results."""

    strategy: Strategy
    s: float
    n_th: float
    eta: float
    t_opt: float
    e_n_fock: float
    e_n_gauss: float
    fidelity: float
    p_success: float
    flags: str = ""


@dataclass(frozen=True)
class OptimizeResult:
    t_opt: float
    value: float
    flag: str = ""


def _raw_terms(cfg):
    """Unnormalized pipeline output for every weight, as (kernel, polys):
    polys[k] is the coefficient cube of t^(n-k) r^k over the one kernel
    (n = 4 with the operation, else 0)."""
    tmsv = tmsv_chi(cfg.s)
    kernel, polys = tmsv.kernel, tmsv.poly[None]
    if cfg.strategy.operation_first:
        polys = coherent_op_terms(kernel, coherent_op_terms(kernel, polys, 1), 2)
    for mode in (1, 2):
        kernel, polys = apply_thermal_channel(kernel, polys, mode, cfg.channel)
    if cfg.strategy.has_operation and not cfg.strategy.operation_first:
        polys = coherent_op_terms(kernel, coherent_op_terms(kernel, polys, 1), 2)
    return kernel, polys


class _PointEvaluator:
    """Shared context for repeated evaluations at one channel setting.

    The pipeline runs once, as a stack of (t, r)-basis cubes over one
    kernel; every per-weight trace, Fock matrix and fidelity integral is a
    weighted sum of per-term ones, and the covariance is read off the
    weighted sum of the cubes.  The per-term matrices and fidelities are
    built on first use, so only the configured objective pays for its own;
    the matrices are kept real when their imaginary parts are exactly 0, as
    they are for every strategy.  A row reads all its columns from here, so
    it prints what it scores.

    objectives scores an array of weights at once: one weight matrix, one
    stack of Fock matrices and one log_negativity call.  A weight's sums
    are its own dot products and matrix-vector product, never a
    matrix-matrix product, whose rounding depends on the stack, so it gets
    the same bits in an array as alone (objective, rho, probability,
    fidelity).
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.kernel, self.polys = _raw_terms(cfg)
        self.traces = _real_parts(self.polys[:, 0, 0, 0, 0], "trace")

    @cached_property
    def matrices(self):
        return exact_real(fock_matrices(self.kernel, self.cfg.n_trunc, self.polys))

    @cached_property
    def fidelities(self):
        return _real_parts(fidelity_integrals(self.kernel, self.polys), "fidelity")

    def _weights(self, ts):
        """(len(ts), n_terms) weights t^(n-k) r^k of the operations
        CoherentOp.from_t(t).

        Each row comes from term_weights in Python floats: numpy's
        vectorized power need not round like the C library's pow, and a
        last-bit change in a weight can move a printed p_success."""
        n = len(self.polys)
        return np.array([term_weights(n, op.t, op.r) for op in
                         map(CoherentOp.from_t, np.asarray(ts, float).tolist())])

    def probabilities(self, ts):
        """Success probabilities at the weights ts, clamped at 0."""
        return np.maximum(_dots(self._weights(ts), self.traces), 0.0)

    def probability(self, t):
        return float(self.probabilities([t])[0])

    def _rhos(self, w):
        """Fock matrices of the normalized states of the weight rows w."""
        c = w / _dots(w, self.traces)[:, None]
        m = self.matrices
        return (c[:, None] @ m.reshape(len(m), -1)).reshape(len(w), *m.shape[1:])

    def rho(self, t):
        """Fock matrix of the normalized state at weight t."""
        return self._rhos(self._weights([t]))[0]

    def _fidelities(self, w):
        """Teleportation fidelities of the normalized states of the weight
        rows w."""
        return _dots(w, self.fidelities) / _dots(w, self.traces)

    def fidelity(self, t):
        """Teleportation fidelity of the normalized state at weight t."""
        return float(self._fidelities(self._weights([t]))[0])

    def covariance(self, t):
        """Quadrature covariance of the normalized state at weight t."""
        w = self._weights([t])[0]
        poly = np.tensordot(w, self.polys, axes=1) / (w @ self.traces)
        return covariance_from_chi(self.kernel, poly)

    def objectives(self, ts):
        """Objective values at the weights ts, -inf where the state vanishes
        (success probability below ZERO_TRACE_TOL)."""
        w = self._weights(ts)
        live = _dots(w, self.traces) >= ZERO_TRACE_TOL
        values = np.full(len(w), -math.inf)
        if self.cfg.objective == "fidelity":
            values[live] = self._fidelities(w[live])
        elif live.any():
            values[live] = log_negativity(self._rhos(w[live]))
        return values

    def objective(self, t):
        """Objective value at weight t, or None when the state vanishes."""
        value = float(self.objectives([t])[0])
        return None if value == -math.inf else value


def _dots(w, x):
    """Dot product of each row of w with the vector x.  matmul takes each
    row as a vector-vector product, so a row gets the bits it gets alone."""
    return (w[:, None] @ x)[:, 0]


def _real_parts(values, name):
    """Real parts of per-term values whose imaginary parts must be noise."""
    if np.any(np.abs(values.imag)
              > TRACE_IMAG_TOL * np.maximum(1.0, np.abs(values.real))):
        raise ValueError(f"{name} has non-negligible imaginary part: {values}")
    return values.real


def _golden_max(f, lo, hi, tol):
    """Golden-section maximum of a unimodal f on [lo, hi]; ties and plateaus
    resolve toward the left so optimal weights are reported with the smallest
    t that attains them."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best_t, best_v = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            if fc > best_v or (fc == best_v and c < best_t):
                best_t, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            if fd > best_v or (fd == best_v and d < best_t):
                best_t, best_v = d, fd
    return best_t, best_v


def optimize_t(ev):
    """Best coherent weight t in [0, 1] for the configured objective.

    Coarse scan at step 0.01, then golden-section refinement to 1e-4 around
    the best grid point; exact ties break toward smaller t.  The 101 grid
    weights are scored in one stacked call (ev.objectives), the golden
    steps one at a time (ev.objective), each with the same bits as the
    other would give.  Weights where the preparation has zero success
    probability are skipped; if the objective vanishes everywhere the
    returned weight maximizes the success probability over the grid instead
    (one stacked call too) and the result is flagged "zero_objective".
    """
    grid = np.round(np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP), 10)
    values = ev.objectives(grid)
    # argmax takes the first of equal values, so ties go to the smallest t
    if values.max() <= 0.0:
        best = int(np.argmax(ev.probabilities(grid)))
        return OptimizeResult(float(grid[best]), 0.0, "zero_objective")
    best = int(np.argmax(values))
    best_t, best_v = float(grid[best]), float(values[best])
    lo = max(0.0, best_t - GRID_STEP)
    hi = min(1.0, best_t + GRID_STEP)

    def safe(t):
        v = ev.objective(t)
        return -math.inf if v is None else v

    t_ref, v_ref = _golden_max(safe, lo, hi, REFINE_TOL)
    if v_ref > best_v or (v_ref == best_v and t_ref < best_t):
        best_t, best_v = t_ref, v_ref
    return OptimizeResult(float(best_t), float(best_v))


def evaluate_point(cfg):
    """Full record for one strategy at one channel setting.

    Coherent strategies optimize t (unless pinned by t_override); subtraction
    runs at t = 1; the baseline records t_opt = 1 by convention.  E_N,
    E_N_gauss, fidelity and p_success are the evaluator's values at that t.  A
    preparation that cannot succeed (the objective's own vanishing-trace
    rule) yields a zeroed row flagged "zero_state" rather than an exception,
    so sweeps keep going.
    """
    ev = _PointEvaluator(cfg)
    t = cfg.t_override if cfg.strategy.optimizes_t else 1.0
    flag = ""
    if t is None:
        opt = optimize_t(ev)
        t, flag = opt.t_opt, opt.flag
    p = ev.probability(t)
    if p < ZERO_TRACE_TOL:
        return SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th,
                           cfg.channel.eta, t, 0.0, 0.0, 0.0, 0.0,
                           _join_flags(flag, "zero_state"))
    return SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th, cfg.channel.eta,
                       t, log_negativity(certify(ev.rho(t))),
                       gaussian_log_negativity(ev.covariance(t)),
                       ev.fidelity(t), p, flag)


def _join_flags(*flags):
    return ";".join(f for f in flags if f)


def sweep(configs):
    """Records for a list of settings, in order.

    Each row is evaluated on its own, with the coherent weight re-optimized
    and nothing carried over, so each row is independently reproducible.
    The loop calls evaluate_point by its module-global name, so a wrapper
    installed as scenarios.evaluate_point (the benchmark's row probes) sees
    every row.
    """
    return [evaluate_point(cfg) for cfg in configs]
