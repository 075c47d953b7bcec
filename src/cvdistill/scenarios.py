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
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .chi_core import (
    TRACE_IMAG_TOL,
    ZERO_TRACE_TOL,
    ChannelParams,
    CoherentOp,
    ZeroStateError,
    apply_thermal_channel,
    coherent_op_terms,
    combine_terms,
    normalize,
    term_weights,
    tmsv_chi,
)
from .entanglement import (
    covariance_from_chi,
    fidelity_integral,
    gaussian_log_negativity,
    log_negativity,
    teleportation_fidelity,
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
    """

    strategy: Strategy
    s: float
    channel: ChannelParams
    n_trunc: int = 5
    objective: str = "negativity"
    t_override: float | None = None

    def __post_init__(self):
        if not 0 <= self.s < math.inf:
            raise ValueError("squeezing must be nonnegative and finite")
        if self.n_trunc < 0:
            raise ValueError("n_trunc must be nonnegative")
        if self.objective not in ("negativity", "fidelity"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.t_override is not None and not 0.0 <= self.t_override <= 1.0:
            raise ValueError("t_override must lie in [0, 1]")


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
    """Unnormalized pipeline output for every weight: terms[k] is the
    coefficient state of t^(n-k) r^k (n = 4 with the operation, else 0)."""
    terms = [tmsv_chi(cfg.s)]
    if cfg.strategy.operation_first:
        terms = coherent_op_terms(coherent_op_terms(terms, 1), 2)
    terms = [apply_thermal_channel(apply_thermal_channel(term, 1, cfg.channel),
                                   2, cfg.channel) for term in terms]
    if cfg.strategy.has_operation and not cfg.strategy.operation_first:
        terms = coherent_op_terms(coherent_op_terms(terms, 1), 2)
    return terms


def run_strategy(cfg, t=None):
    """Normalized output state and success probability of one pipeline.

    t defaults to 1 for the subtraction strategies and to cfg.t_override for
    the coherent ones; the unconditional baseline ignores it.  Raises
    ZeroStateError when the preparation never succeeds (e.g. subtraction from
    vacuum).
    """
    op = CoherentOp.from_t(_resolve_t(cfg, t))
    return normalize(combine_terms(_raw_terms(cfg), op.t, op.r))


def _resolve_t(cfg, t):
    if not cfg.strategy.has_operation:
        return 1.0
    if t is None:
        if cfg.strategy.optimizes_t:
            if cfg.t_override is None:
                raise ValueError("coherent strategies need a weight t")
            return cfg.t_override
        return 1.0
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return t


class _PointEvaluator:
    """Shared context for repeated evaluations at one channel setting.

    The pipeline runs once, as (t, r)-basis terms over one kernel; every
    per-weight trace, Fock matrix and fidelity integral is a weighted sum of
    per-term ones.  The per-term matrices and fidelities are built on first
    use, so only the configured objective pays for its own, and a row's
    Fock matrix is the one its objective scores.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.terms = _raw_terms(cfg)
        self.traces = _real_parts([term.trace for term in self.terms], "trace")

    @cached_property
    def matrices(self):
        return fock_matrices(self.terms[0].kernel, self.cfg.n_trunc,
                             [term.poly for term in self.terms])

    @cached_property
    def fidelities(self):
        return _real_parts([fidelity_integral(term) for term in self.terms],
                           "fidelity")

    def _weights(self, t):
        op = CoherentOp.from_t(t)
        return np.array(term_weights(len(self.terms), op.t, op.r))

    def probability(self, t):
        return max(float(self._weights(t) @ self.traces), 0.0)

    def state(self, t):
        op = CoherentOp.from_t(t)
        return normalize(combine_terms(self.terms, op.t, op.r))

    def rho(self, t):
        """Fock matrix of the normalized state at weight t."""
        w = self._weights(t)
        return np.tensordot(w / (w @ self.traces), self.matrices, axes=1)

    def objective(self, t):
        """Objective value at weight t, or None when the state vanishes."""
        w = self._weights(t)
        tr = w @ self.traces
        if tr < ZERO_TRACE_TOL:
            return None
        if self.cfg.objective == "fidelity":
            return w @ self.fidelities / tr
        return log_negativity(self.rho(t))


def _real_parts(values, name):
    """Real parts of per-term integrals whose imaginary parts must be noise."""
    values = np.array(values)
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


def optimize_t(cfg, evaluator=None):
    """Best coherent weight t in [0, 1] for the configured objective.

    Coarse scan at step 0.01, then golden-section refinement to 1e-4 around
    the best grid point; exact ties break toward smaller t.  Weights where
    the preparation has zero success probability are skipped; if the
    objective vanishes everywhere the returned weight maximizes the success
    probability instead and the result is flagged "zero_objective".
    """
    ev = evaluator if evaluator is not None else _PointEvaluator(cfg)
    grid = np.round(np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP), 10)
    values = [ev.objective(t) for t in grid]
    usable = [(t, v) for t, v in zip(grid, values) if v is not None]
    if not usable or max(v for _, v in usable) <= 0.0:
        probs = [(float(t), ev.probability(t)) for t in grid]
        best_t, _ = max(probs, key=lambda tv: (tv[1], -tv[0]))
        return OptimizeResult(best_t, 0.0, "zero_objective")
    best_t, best_v = max(usable, key=lambda tv: (tv[1], -tv[0]))
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
    runs at t = 1; the baseline records t_opt = 1 by convention.  A
    preparation that cannot succeed yields a zeroed row flagged
    "zero_state" rather than an exception, so sweeps keep going.
    """
    ev = _PointEvaluator(cfg)
    flag = ""
    if cfg.strategy.optimizes_t and cfg.t_override is None:
        opt = optimize_t(cfg, evaluator=ev)
        t, flag = opt.t_opt, opt.flag
    else:
        t = _resolve_t(cfg, None)
    try:
        state, p = ev.state(t)
    except ZeroStateError:
        return SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th,
                           cfg.channel.eta, t, 0.0, 0.0, 0.0, 0.0,
                           _join_flags(flag, "zero_state"))
    return SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th, cfg.channel.eta,
                       t, log_negativity(certify(ev.rho(t))),
                       gaussian_log_negativity(covariance_from_chi(state)),
                       teleportation_fidelity(state), p, flag)


def _join_flags(*flags):
    return ";".join(f for f in flags if f)


def default_eta_grid(points=101, eta_min=0.01, eta_max=1.0):
    return np.linspace(eta_min, eta_max, points)


def sweep_eta(cfg, eta_grid=None):
    """Records for one strategy across a transmissivity grid, in grid order.

    The coherent weight is re-optimized at every grid point; nothing is
    carried over between points, so each row is independently reproducible.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid()
    records = []
    for eta in eta_grid:
        channel = ChannelParams(eta=float(eta), n_th=cfg.channel.n_th)
        records.append(evaluate_point(replace(cfg, channel=channel)))
    return records
