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

import numpy as np

from .chi_core import (
    ChannelParams,
    CoherentOp,
    ZeroStateError,
    apply_coherent_op,
    apply_thermal_channel,
    normalize,
    tmsv_chi,
)
from .entanglement import (
    MeasureRecord,
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    success_probability,
    teleportation_fidelity,
)
from .fock_recon import FockMatrixBuilder

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
        if self.s < 0:
            raise ValueError("squeezing must be nonnegative")
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


def _raw_pipeline(cfg, t):
    """Unnormalized pipeline output for one strategy at weight t."""
    state = tmsv_chi(cfg.s)
    if cfg.strategy.has_operation:
        op = CoherentOp.from_t(t)
        if cfg.strategy.operation_first:
            state = apply_coherent_op(state, 1, op)
            state = apply_coherent_op(state, 2, op)
            state = apply_thermal_channel(state, 1, cfg.channel)
            state = apply_thermal_channel(state, 2, cfg.channel)
        else:
            state = apply_thermal_channel(state, 1, cfg.channel)
            state = apply_thermal_channel(state, 2, cfg.channel)
            state = apply_coherent_op(state, 1, op)
            state = apply_coherent_op(state, 2, op)
    else:
        state = apply_thermal_channel(state, 1, cfg.channel)
        state = apply_thermal_channel(state, 2, cfg.channel)
    return state


def run_strategy(cfg, t=None):
    """Normalized output state and success probability of one pipeline.

    t defaults to 1 for the subtraction strategies and to cfg.t_override for
    the coherent ones; the unconditional baseline ignores it.  Raises
    ZeroStateError when the preparation never succeeds (e.g. subtraction from
    vacuum).
    """
    t = _resolve_t(cfg, t)
    raw = _raw_pipeline(cfg, t)
    p = success_probability(raw)
    state, _ = normalize(raw)
    return state, p


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


# Each ladder-operator application raises the total polynomial degree by at
# most one (the Gaussian's cross terms spread it over both modes), and the
# two-mode coherent operation makes four such applications, so every pipeline
# polynomial lives on the total-degree-4 support.
_OPERATED_SUPPORT = tuple(
    (a, b, c, d)
    for a in range(5) for b in range(5 - a)
    for c in range(5 - a - b) for d in range(5 - a - b - c)
)


class _PointEvaluator:
    """Shared context for repeated evaluations at one channel setting.

    All strategies and all weights t share one Gaussian kernel (operations
    change only the polynomial part), so the Fock reconstruction builder is
    created once and reused across the whole t optimization.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        kernel = _raw_pipeline(cfg, 1.0).kernel
        support = _OPERATED_SUPPORT if cfg.strategy.has_operation \
            else ((0, 0, 0, 0),)
        self.builder = FockMatrixBuilder(kernel, cfg.n_trunc, support)

    def probability(self, t):
        return success_probability(_raw_pipeline(self.cfg, t))

    def state(self, t):
        raw = _raw_pipeline(self.cfg, t)
        p = success_probability(raw)
        state, _ = normalize(raw)
        return state, p

    def objective(self, t):
        """Objective value at weight t, or None when the state vanishes."""
        try:
            state, _ = self.state(t)
        except ZeroStateError:
            return None
        if self.cfg.objective == "negativity":
            return log_negativity(self.builder.matrix(state.poly))
        return teleportation_fidelity(state)

    def measures(self, state, p):
        rho = self.builder.matrix(state.poly)
        cov = covariance_from_chi(state)
        return MeasureRecord(
            e_n_fock=log_negativity(rho),
            e_n_gauss=gaussian_log_negativity(cov),
            fidelity=teleportation_fidelity(state),
            p_success=p,
        )


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
    meas = ev.measures(state, p)
    return SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th, cfg.channel.eta,
                       t, meas.e_n_fock, meas.e_n_gauss, meas.fidelity,
                       meas.p_success, flag)


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
