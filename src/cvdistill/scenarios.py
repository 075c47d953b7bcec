"""Distillation strategies and parameter sweeps.

Five preparations of a two-mode squeezed vacuum sent through a symmetric
thermal-loss channel: leave it alone, subtract a photon from each mode before
or after the channel, or apply the tunable coherent superposition
t a + sqrt(1 - t^2) a^dag to each mode before or after the channel.  The
weight t of the coherent strategies is optimized per channel setting; photon
subtraction is the fixed point t = 1 of the same pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chi_core import (
    ChannelParams,
    apply_thermal_channel,
    coherent_op_terms,
    tmsv_chi,
)
from .entanglement import (
    breaking_eta,
    covariance_from_chi,
    fidelity_integrals,
    gaussian_log_negativity,
    log_negativity,
    origin_coefficients,
    separation_eta,
)
from .fock_recon import _cutoff, certify, fock_matrices

GRID_STEP = 0.01
REFINE_TOL = 1e-4
ZERO_TRACE_TOL = 1e-30
# channel settings whose chi pipelines a sweep builds in one pass
CHUNK_SETTINGS = 8
# the optimizer's coarse weights 0, 0.01, ..., 1
GRID = np.round(np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP), 10)
GRID.flags.writeable = False


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
    ("negativity" or "fidelity"); t_override pins the coherent strategies'
    t instead of optimizing it (the others ignore it, see evaluate_point).
    With ChannelParams it checks every input range before any pipeline
    runs, for the point and sweep commands alike (cli.scenario_configs);
    tmsv_chi and fock_matrices apply the same rules to s and to n_trunc (a
    nonnegative integer) for callers of the pipeline functions.
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
        _cutoff(self.n_trunc)
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


def _operation(kernel, polys):
    """The coherent operation on both modes, in the (t, r) basis."""
    return coherent_op_terms(kernel, coherent_op_terms(kernel, polys, 1), 2)


def _channel(kernel, polys, channels):
    """Both modes of one state through each of the channels: a chunk of
    len(channels) states."""
    lead = (len(channels),)
    kernel = np.broadcast_to(kernel, lead + kernel.shape)
    polys = np.broadcast_to(polys, lead + polys.shape)
    for mode in (1, 2):
        kernel, polys = apply_thermal_channel(kernel, polys, mode, channels)
    return kernel, polys


def _raw_terms(s, channels, kinds):
    """Unnormalized pipeline outputs at squeezing s for each channel, as
    {kind: (kernels, stacks)} for each pipeline kind (has_operation,
    operation_first) in kinds: kernels (S, 4, 4) and stacks
    (S, n + 1, D, D, D, D) over the S channels, stacks[i, k] the
    coefficient cube of t^(n-k) r^k at channels[i] (n = 4 with the
    operation, else 0).

    The squeezed vacuum is made once and the operation before the channel
    runs once, on it; the pipeline without the operation is the input of
    the one with the operation after the channel.  Every operation keeps
    each state's bits as alone, so a setting's arrays do not depend on the
    chunk it is built in."""
    kernel, polys = tmsv_chi(s)
    runs = {}
    if (True, True) in kinds:
        runs[True, True] = _channel(kernel, _operation(kernel, polys), channels)
    if (False, False) in kinds or (True, False) in kinds:
        runs[False, False] = kernels, stacks = _channel(kernel, polys, channels)
        if (True, False) in kinds:
            runs[True, False] = kernels, _operation(kernels, stacks)
    return {kind: runs[kind] for kind in kinds}


def _pipeline_key(cfg):
    """What a row's pipeline reads: s, with its sign (tmsv_chi(-0.0) and
    tmsv_chi(0.0) differ in the sign of a zero), the channel, n_trunc and
    where the operation goes.  Rows with equal keys run one pipeline; rows
    whose keys agree in the first four entries are one channel setting."""
    return (cfg.s, math.copysign(1.0, cfg.s), cfg.channel, cfg.n_trunc,
            cfg.strategy.has_operation, cfg.strategy.operation_first)


def _pipelines(cfgs):
    """The arrays of the rows cfgs, a chunk of channel settings that share
    s (with its sign) and n_trunc: {_pipeline_key: (kernel, polys, traces,
    matrices, fidelity_terms, origins)}, one entry per distinct pipeline.

    Each pipeline kind a row needs (no operation, the operation before or
    after the channel) runs once over every channel of the chunk
    (_raw_terms), with one fidelity_integrals call; a subtraction row
    reads the coherent pipeline of its side, at t = 1.  traces, matrices,
    fidelity_terms and origins are the per-term traces, float64 Fock
    matrices, fidelity integrals and origin_coefficients (a row's
    covariance is their weighted sum).  One fock_matrices call builds the
    matrices of every pipeline of a setting: the coherent operation leaves
    the kernel alone, so they end on one kernel, bit for bit.  Every row
    prints both E_N and the fidelity, so both are built for each pipeline.
    """
    keys = list(dict.fromkeys(map(_pipeline_key, cfgs)))
    channels = list(dict.fromkeys(key[2] for key in keys))
    kinds = list(dict.fromkeys(key[4:] for key in keys))
    runs = _raw_terms(cfgs[0].s, channels, kinds)
    per_term = {kind: (fidelity_integrals(kernels, stacks),
                       origin_coefficients(stacks))
                for kind, (kernels, stacks) in runs.items()}
    out = {}
    for i, channel in enumerate(channels):
        own = [key for key in keys if key[2] == channel]
        stacks = [runs[key[4:]][1][i] for key in own]
        kernel = runs[own[0][4:]][0][i]
        matrices = fock_matrices(kernel, own[0][3], *stacks)
        blocks = np.split(matrices, np.cumsum(list(map(len, stacks)))[:-1])
        for key, polys, m in zip(own, stacks, blocks):
            fidelities, origins = per_term[key[4:]]
            out[key] = (kernel, polys, polys[:, 0, 0, 0, 0], m, fidelities[i],
                        origins[i])
    return out


class _PointEvaluator:
    """One row's view of its pipeline, for repeated evaluations.

    The pipeline is a stack of (t, r)-basis cubes over one kernel, with
    its per-term traces, Fock matrices, fidelity integrals
    (fidelity_terms) and origin coefficients (origins): the entry of
    _pipelines for cfg, which the rows of one chunk of settings share
    (built for cfg alone by default).  weights(ts) forms the weight rows w
    of the weights ts, and the other methods take such rows: each
    per-weight trace, Fock matrix, fidelity and origin block is the
    weighted sum of the per-term ones, and the covariance of a row is read
    off its origin block; the objective is always cfg's.  A row reads all
    its columns from its one weight row, so it prints what it scores.

    A weight's sums are its own dot products and matrix-vector product,
    never a matrix-matrix product, whose rounding depends on the stack, so
    a weight row gets the same bits among many as alone: the optimizer's
    grid is one objectives call (one stack of Fock matrices and one
    log_negativity call), and a golden step is one row of a round of
    _objectives over the rows of a chunk.
    """

    def __init__(self, cfg, pipeline=None):
        self.cfg = cfg
        if pipeline is None:
            (pipeline,) = _pipelines([cfg]).values()
        (self.kernel, self.polys, self.traces, self.matrices,
         self.fidelity_terms, self.origins) = pipeline

    def weights(self, ts):
        """(len(ts), n + 1) weight rows of the weights ts (_weight_rows)."""
        return _weight_rows(ts, len(self.polys) - 1)

    def probabilities(self, w):
        """Success probabilities of the weight rows w, clamped at 0."""
        return np.maximum(_dots(w, self.traces), 0.0)

    def rhos(self, w):
        """Fock matrices of the normalized states of the weight rows w."""
        c = w / _dots(w, self.traces)[:, None]
        m = self.matrices
        return (c[:, None] @ m.reshape(len(m), -1)).reshape(len(w), *m.shape[1:])

    def fidelities(self, w):
        """Teleportation fidelities of the normalized states of the weight
        rows w."""
        return _dots(w, self.fidelity_terms) / _dots(w, self.traces)

    def origin(self, w_row):
        """The origin block (covariance_from_chi) of the normalized state
        of one weight row: the weighted sum of the per-term blocks."""
        return np.tensordot(w_row, self.origins, axes=1) / (w_row @ self.traces)

    def objectives(self, w):
        """Objective values of the weight rows w (_objectives)."""
        return _objectives([self], [w])[0]


def _objectives(evs, ws):
    """Objective values of the weight rows ws[i] of each evaluator evs[i],
    a list of arrays: -inf where the state vanishes (success probability
    below ZERO_TRACE_TOL), else the fidelity or E_N of the evaluator's
    objective.  Each fidelity is its evaluator's own; the Fock matrices of
    every negativity row go through one log_negativity call, which gives
    each the bits it gets alone (the states share the parity structure)."""
    values = [np.full(len(w), -math.inf) for w in ws]
    live = [ev.probabilities(w) >= ZERO_TRACE_TOL for ev, w in zip(evs, ws)]
    negativity = []
    for ev, w, v, on in zip(evs, ws, values, live):
        if ev.cfg.objective == "fidelity":
            v[on] = ev.fidelities(w[on])
        elif on.any():
            negativity.append((v, on, ev.rhos(w[on])))
    if negativity:
        # a grid's stack goes in as it is: a copy would double its peak
        rhos = [rhos for _, _, rhos in negativity]
        e_n = log_negativity(rhos[0] if len(rhos) == 1 else np.concatenate(rhos))
        ends = np.cumsum([len(r) for r in rhos])
        for (v, on, _), part in zip(negativity, np.split(e_n, ends[:-1])):
            v[on] = part
    return values


def _weight_rows(ts, n):
    """(len(ts), n + 1) weights t^(n-k) r^k of the operations
    t a + r a^dag, r = sqrt(1 - t^2), for degree n; a t outside [0, 1]
    raises ValueError.

    Each row is computed in Python floats: numpy's vectorized power
    need not round like the C library's pow, and a last-bit change in
    a weight can move a printed p_success."""
    rows = []
    for t in np.asarray(ts, float).tolist():
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        r = math.sqrt(max(0.0, 1.0 - t * t))
        rows.append([t ** (n - k) * r ** k for k in range(n + 1)])
    return np.array(rows)


@functools.lru_cache(maxsize=None)
def _grid_weights(n):
    """_weight_rows(GRID, n), read-only and cached per degree n."""
    w = _weight_rows(GRID, n)
    w.flags.writeable = False
    return w


def _dots(w, x):
    """Dot product of each row of w with the vector x.  matmul takes each
    row as a vector-vector product, so a row gets the bits it gets alone
    for the same memory layout of x: a strided x (a row's traces are a
    view of its stack) can round otherwise than a contiguous copy of it,
    so each row's sums read its own pipeline arrays, never a stack of
    copies."""
    return (w[:, None] @ x)[:, 0]


def _golden_max(lo, hi, tol, seed):
    """Golden-section maximum of a unimodal objective on [lo, hi], as a
    generator: it yields each t it wants scored and is sent that t's value.
    It returns the (t, value) of largest key (value, -t) among seed, a
    point scored before, and every point scored here, so ties and plateaus
    resolve toward the smallest t."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    scored = [seed, (c, fc), (d, fd)]
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
            scored.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d
            scored.append((d, fd))
    return max(scored, key=lambda point: (point[1], -point[0]))


def _separable(cfg):
    """Whether cfg's state is separable at every weight t by a closed form,
    so that its E_N is 0 at every t and at every cutoff: the operation and
    the Fock truncation are local and create no entanglement.  It is, when

    - s = 0: the squeezed vacuum is the vacuum, a product state;
    - eta <= breaking_eta(n_th): the channel is entanglement breaking, on
      either side of the operation;
    - the operation follows the channel (or there is none) and
      eta < separation_eta(s, n_th): it acts on a separable Gaussian state.

    Pure loss (n_th = 0) at s > 0 meets none of them.
    """
    eta, n_th = cfg.channel.eta, cfg.channel.n_th
    if cfg.s == 0.0 or eta <= breaking_eta(n_th):
        return True
    return not cfg.strategy.operation_first and eta < separation_eta(cfg.s, n_th)


def optimize_t(ev):
    """Best coherent weight t in [0, 1] for ev's objective: _optimize of
    the one evaluator ev."""
    (result,) = _optimize([ev])
    return result


def _optimize(evs):
    """The best coherent weight t in [0, 1] of each evaluator of evs for
    its objective, as a list of OptimizeResult.

    Coarse scan over GRID (step 0.01), then golden-section refinement to
    1e-4 around the best grid point, seeded with it; exact ties break
    toward smaller t, by _golden_max's one key over every point scored.
    Each row's grid is scored in one ev.objectives call on its cached
    weight rows (_grid_weights).  The refinements run in lockstep: each
    round scores the next t of every row still refining in one _objectives
    call, and a row whose bracket is clipped at 0 or 1 finishes earlier.
    Each row scores the t sequence, and gets the bits, it gets alone.
    Weights where the preparation has zero success probability are
    skipped; if the objective vanishes everywhere the returned weight
    maximizes the success probability over the grid instead (one stacked
    call too) and the result is flagged "zero_objective".  A negativity
    objective on a state that _separable finds separable is known to
    vanish everywhere, so it goes straight to that result and scores no
    grid; the fidelity objective always scans.
    """
    results = [None] * len(evs)
    searches = {}
    for i, ev in enumerate(evs):
        w = _grid_weights(len(ev.polys) - 1)
        if ev.cfg.objective == "negativity" and _separable(ev.cfg):
            values = np.zeros(len(GRID))
        else:
            values = ev.objectives(w)
        # argmax takes the first of equal values, so ties go to the smallest t
        if values.max() <= 0.0:
            best = int(np.argmax(ev.probabilities(w)))
            results[i] = OptimizeResult(float(GRID[best]), 0.0, "zero_objective")
            continue
        best = int(np.argmax(values))
        best_t = float(GRID[best])
        searches[i] = _golden_max(max(0.0, best_t - GRID_STEP),
                                  min(1.0, best_t + GRID_STEP), REFINE_TOL,
                                  (best_t, float(values[best])))
    ts = {i: next(search) for i, search in searches.items()}
    while ts:
        rows = list(ts)
        values = _objectives([evs[i] for i in rows],
                             [evs[i].weights([ts[i]]) for i in rows])
        for i, value in zip(rows, values):
            try:
                ts[i] = searches[i].send(float(value[0]))
            except StopIteration as done:
                t, value = done.value
                results[i] = OptimizeResult(float(t), float(value))
                del ts[i]
    return results


def evaluate_point(cfg):
    """Full record for one strategy at one channel setting: evaluate_points
    of the one row cfg."""
    (record,) = evaluate_points([cfg])
    return record


def evaluate_points(cfgs):
    """Full records for the rows cfgs, in order; the rows share s (with its
    sign) and n_trunc, as a sweep's chunk does, and one _pipelines call
    over them builds the pipelines and Fock matrices they share.

    Coherent strategies optimize t (unless pinned by t_override; _optimize
    refines the free rows in lockstep); subtraction runs at t = 1; the
    baseline records t_opt = 1 by convention.  E_N, E_N_gauss, fidelity
    and p_success are each row's evaluator's values at the one weight row
    of that t.  A preparation that cannot succeed (the objective's own
    vanishing-trace rule) yields a zeroed row flagged "zero_state" rather
    than an exception, so sweeps keep going.  The Fock matrices of the
    other rows are certified and solved as one stack, and their
    covariances and Gaussian negativities are read as one stack, each row
    with the bits it gets alone; the first row that fails a check raises
    (every row's certify before any row's covariance).  p_success, the
    fidelity and the origin block are each row's own sums over its own
    pipeline arrays (_dots: a copy of a strided array into a stack moves
    their last bits).
    """
    pipelines = _pipelines(cfgs)
    evs = [_PointEvaluator(cfg, pipelines[_pipeline_key(cfg)]) for cfg in cfgs]
    ts = [cfg.t_override if cfg.strategy.optimizes_t else 1.0 for cfg in cfgs]
    flags = [""] * len(cfgs)
    free = [i for i, t in enumerate(ts) if t is None]
    for i, opt in zip(free, _optimize([evs[i] for i in free])):
        ts[i], flags[i] = opt.t_opt, opt.flag
    ws = [ev.weights([t]) for ev, t in zip(evs, ts)]
    ps = [float(ev.probabilities(w)[0]) for ev, w in zip(evs, ws)]
    live = [i for i, p in enumerate(ps) if p >= ZERO_TRACE_TOL]
    columns = [(0.0, 0.0, 0.0, 0.0, _join_flags(flag, "zero_state")) for flag in flags]
    if live:
        e_n = log_negativity(certify(np.concatenate([evs[i].rhos(ws[i]) for i in live])))
        sigma = covariance_from_chi(np.stack([evs[i].kernel for i in live]),
                                    np.stack([evs[i].origin(ws[i][0]) for i in live]))
        e_g = gaussian_log_negativity(sigma)
        for k, i in enumerate(live):
            columns[i] = (float(e_n[k]), float(e_g[k]),
                          float(evs[i].fidelities(ws[i])[0]), ps[i], flags[i])
    return [SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th, cfg.channel.eta, t, *row)
            for cfg, t, row in zip(cfgs, ts, columns)]


def _join_flags(*flags):
    return ";".join(f for f in flags if f)


def sweep(configs):
    """Records for a list of settings, in order.

    The settings that share s (with its sign) and n_trunc are built in
    chunks of up to CHUNK_SETTINGS, in order of their first rows: one
    _pipelines call runs each pipeline kind once over a chunk's channels,
    and its rows share those pipelines and each setting's Fock build.  A
    chunk's arrays are freed before the next chunk is built, so a sweep's
    memory does not grow with its eta grid.  The loop calls
    evaluate_points, which makes that call, by its module-global name once
    per chunk, on the chunk's rows (so a wrapper installed as scenarios.evaluate_points sees
    every row); each row is bit-identical to evaluate_point alone, with its
    own objective and t_override.
    """
    configs = list(configs)
    groups = {}
    for i, cfg in enumerate(configs):
        key = _pipeline_key(cfg)
        groups.setdefault(key[:2] + key[3:4], {}).setdefault(key[2], []).append(i)
    records = [None] * len(configs)
    for settings in groups.values():
        settings = list(settings.values())
        for first in range(0, len(settings), CHUNK_SETTINGS):
            rows = [i for own in settings[first:first + CHUNK_SETTINGS] for i in own]
            chunk = [configs[i] for i in rows]
            for i, record in zip(rows, evaluate_points(chunk)):
                records[i] = record
    return records
