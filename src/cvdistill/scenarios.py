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
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chi_core import (
    ChannelParams,
    _first_alone,
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
from .fock_recon import PrecisionError, _blocks, _cutoff, certify, fock_matrices

GRID_STEP = 0.01
REFINE_TOL = 1e-4
ZERO_TRACE_TOL = 1e-30
# channel settings whose chi pipelines a sweep builds in one pass
CHUNK_SETTINGS = 8
# the optimizer's coarse weights 0, 0.01, ..., 1
GRID = np.round(np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP), 10)
GRID.flags.writeable = False
# the weights whose lowest eigenvectors span a negativity grid's projection,
# and the E_N by which a projected grid may exceed the full one (_ritz_negativity)
RITZ_ANCHORS = (0.0, 0.5, 0.9, 0.99, 1.0)
RITZ_MARGIN = 1e-12


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
    t instead of optimizing it (the others ignore it, see _evaluate_chunk).
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


def _pipelines(cfgs):
    """The pipelines of the rows cfgs, a chunk that shares s and n_trunc,
    as (pipes, (kernels, traces, matrices, fidelity_terms, origins)), each
    array C-contiguous in the layout fock_matrices returns, (C, T, ...)
    over the chunk's C channels and T terms: the kernels
    (C, 4, 4), one per channel, and per term the traces (C, T), float64
    Fock matrices (C, T, d^2, d^2), fidelity integrals (C, T) and
    origin_coefficients (C, T, 5, 5) (a row's covariance is their weighted
    sum).  The term axis holds the stacks of the pipeline kinds in use, in
    order of first rows: no operation (1 term), the operation before or
    after the channel (5 each).  pipes[i] is row i's pipeline, a span of
    that axis: (channel, first term, term count).

    Each pipeline kind runs once over every channel of the chunk
    (_raw_terms); a subtraction row reads the coherent pipeline of its
    side, at t = 1.  One fock_matrices call over the chunk's kernels
    returns every kind's matrices: the coherent operation leaves the
    kernel alone, so the kinds of a channel end on one kernel, bit for
    bit, and fidelity_integrals reads it too.  Every row prints both E_N
    and the fidelity, so both are built for each pipeline.
    """
    channels = list(dict.fromkeys(cfg.channel for cfg in cfgs))
    kinds = [(cfg.strategy.has_operation, cfg.strategy.operation_first) for cfg in cfgs]
    runs = _raw_terms(cfgs[0].s, channels, list(dict.fromkeys(kinds)))
    kernels = next(iter(runs.values()))[0]
    stacks = [p for _, p in runs.values()]
    matrices = fock_matrices(kernels, cfgs[0].n_trunc, *stacks)
    parts = zip(*[(p[:, :, 0, 0, 0, 0], fidelity_integrals(kernels, p), origin_coefficients(p))
                  for p in stacks])
    # origin_coefficients' fancy index leaves its blocks in another order
    traces, fidelity_terms, origins = (np.ascontiguousarray(np.concatenate(a, axis=1))
                                       for a in parts)
    firsts = dict(zip(runs, itertools.accumulate((p.shape[1] for p in stacks), initial=0)))
    pipes = np.array([(channels.index(cfg.channel), firsts[kind], runs[kind][1].shape[1])
                      for cfg, kind in zip(cfgs, kinds)])
    return pipes, (kernels, traces, matrices, fidelity_terms, origins)


def _fold(w, x, rows):
    """The weighted sums over the term axis of the per-term arrays x of
    _pipelines, one per weight row of w: rows is the pipeline (channel c,
    first term a, term count n) of each weight row, a (len(w), 3) array, or
    one pipeline for all of them (a length-3 row, as for a grid), whose sum
    reads x[c, a:a + n] with the first n weights of its row.

    Each weight row is one vector-matrix product over its pipeline's
    contiguous (n, ...) block, read in place (not gathered), so a row gets
    the same bits among many as alone: a row prints, and a golden step
    scores, what it would in a chunk of its own."""
    if np.ndim(rows) == 1:
        c, a, n = rows
        x = x[c, a:a + n]
        return (w[:, None, :n] @ x.reshape(n, -1)).reshape((len(w),) + x.shape[1:])
    out = np.empty((len(w),) + x.shape[2:])
    flat = out.reshape(len(w), -1)
    for i, (c, a, n) in enumerate(rows.tolist()):
        np.matmul(w[i, :n], x[c, a:a + n].reshape(n, -1), out=flat[i])
    return out


def _objectives(arrays, w, rows, fidelity):
    """Objective values of the weight rows w on the pipelines rows of the
    chunk's arrays (_fold): -inf where the state vanishes (success
    probability below ZERO_TRACE_TOL), else the fidelity where fidelity
    (one bool, or one per weight row) holds, else E_N, with the Fock
    matrices of all the negativity rows in one log_negativity call."""
    _, traces, matrices, fidelity_terms, _ = arrays
    p = _fold(w, traces, rows)
    values = np.full(len(w), -math.inf)
    live = p >= ZERO_TRACE_TOL
    fid = live & fidelity
    values[fid] = _fold(w, fidelity_terms, rows)[fid] / p[fid]
    neg = live ^ fid
    if neg.any():
        at = rows[neg] if np.ndim(rows) == 2 else rows
        values[neg] = log_negativity(_fold(w[neg] / p[neg, None], matrices, at))
    return values


def _ritz_negativity(arrays, w, row):
    """Lower bounds on the E_N of the weight rows w on the pipeline row of
    the chunk's arrays (_fold), from a Rayleigh-Ritz projection of rho^T1;
    None where a weight's state vanishes (as _objectives rules) or a
    per-term matrix couples the parities.

    Per parity block of rho^T1 (fock_recon._blocks), V is an orthonormal
    basis of the two lowest eigenvectors at each weight of RITZ_ANCHORS
    (at most 10 columns, singular values below 1e-8 of the largest cut);
    the per-term blocks B are projected once, to V^T B V, so the weights
    cost one (len(w), k, k) eigvalsh per block.  By Cauchy interlacing the
    negative eigenvalues of V^T A V sum to at most those of A in size (the
    Ky Fan principle), so log2(tr rho + 2 N), with N that size and tr rho
    the trace of the truncated Fock matrix (not the chi trace, which
    exceeds it), is at most E_N in exact arithmetic.  In float64 it
    exceeded the whole grid's value by at most 2.1e-15 on 1,801 seeded
    coherent rows at n_trunc 5, 8 and 12; RITZ_MARGIN allows for that
    rounding with room to spare."""
    _, traces, matrices, _, _ = arrays
    channel, first, n = row
    terms, w = matrices[channel, first:first + n], w[:, :n]
    p = _fold(w, traces, row)
    blocks = _blocks(terms, True)
    if not np.all(p >= ZERO_TRACE_TOL) or blocks is None:
        return None
    c = w / p[:, None]
    norms = c @ np.trace(terms, axis1=1, axis2=2)
    anchors = _weight_rows(RITZ_ANCHORS, n - 1)
    for block in blocks:
        lowest = np.linalg.eigh(np.tensordot(anchors, block, 1))[1][..., :2]
        u, sv, _ = np.linalg.svd(np.concatenate(lowest, axis=1), full_matrices=False)
        v = u[:, sv > 1e-8 * sv[0]]
        lam = np.linalg.eigvalsh(np.tensordot(c, v.T @ block @ v, 1))
        norms -= 2.0 * np.minimum(lam, 0.0).sum(axis=1)
    return np.log2(np.maximum(norms, 1.0))


def _grid_max(arrays, w, row, fidelity):
    """(index, value) of the first largest objective value over the grid
    weight rows w on the pipeline row of the chunk's arrays: the np.argmax
    of _objectives(arrays, w, row, fidelity) and its value.

    A negativity row whose projected grid (_ritz_negativity) rises above
    RITZ_MARGIN climbs on exact values instead: from each local maximum of
    the projection above the margin, a climb moves to the best of its grid
    neighbours by the key (value, -t) until it is the best of them.  Each
    step scores every climb's new neighbours in one _objectives call on
    rows of w, and a weight row gets the same bits there as in the whole
    grid; the best point scored is returned.  Any other row, or a
    projection that stays within the margin, scores the whole grid."""
    ritz = None if fidelity else _ritz_negativity(arrays, w, row)
    if ritz is None or not ritz.max() > RITZ_MARGIN:
        values = _objectives(arrays, w, row, fidelity)
        best = int(np.argmax(values))
        return best, float(values[best])
    peaks = (np.r_[True, ritz[1:] > ritz[:-1]] & np.r_[ritz[:-1] >= ritz[1:], True]
             & (ritz > RITZ_MARGIN))
    exact = {}

    def key(j):
        return exact[j], -j

    at, moved = None, set(np.flatnonzero(peaks).tolist())
    while moved != at:
        at = moved
        near = [range(max(i - 1, 0), min(i + 2, len(w))) for i in at]
        new = sorted({j for r in near for j in r} - exact.keys())
        if new:
            exact.update(zip(new, _objectives(arrays, w[new], row, False).tolist()))
        moved = {max(r, key=key) for r in near}
    best = max(exact, key=key)
    return best, exact[best]


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
    - eta < 1 and eta <= breaking_eta(n_th): the channel is entanglement
      breaking, on either side of the operation;
    - the operation follows the channel (or there is none) and
      eta < separation_eta(s, n_th): it acts on a separable Gaussian state.

    Pure loss (n_th = 0) at s > 0 meets none of them, nor does eta = 1
    (breaking_eta rounds to 1.0 from n_th of about 1e16 on).
    """
    eta, n_th = cfg.channel.eta, cfg.channel.n_th
    if cfg.s == 0.0 or eta < 1.0 and eta <= breaking_eta(n_th):
        return True
    return not cfg.strategy.operation_first and eta < separation_eta(cfg.s, n_th)


def _optimize(cfgs, pipes, arrays):
    """The best coherent weight t in [0, 1] of each row cfgs[i], on the
    pipeline pipes[i] of the chunk's arrays (_pipelines), for its
    objective, as a list of (t, flag), with weight rows of the degree of
    the longest of pipes (_fold).

    Coarse scan over GRID (step 0.01), then golden-section refinement to
    1e-4 around the best grid point, seeded with it; exact ties break
    toward smaller t, by _golden_max's one key over every point scored.
    Each row's grid is one _grid_max call on the cached weight rows
    (_grid_weights), whose seed has the whole grid's bits wherever a
    negativity grid's climb finds its argmax (1,801 of 1,801 seeded rows
    at n_trunc 5 to 12).  The refinements run in lockstep: each round
    scores the next t of every row still refining in one _objectives call,
    and a row whose bracket is clipped at 0 or 1 finishes earlier.
    Weights where the preparation has zero success probability are
    skipped; if the objective vanishes everywhere the returned weight
    maximizes the success probability over the grid instead and the
    result is flagged "zero_objective".  A negativity objective on a state
    that _separable finds separable is known to vanish everywhere, so it
    goes straight to that result and scores no grid; the fidelity
    objective always scans.
    """
    degree = max(pipes[:, 2].tolist(), default=1) - 1
    w = _grid_weights(degree)
    fidelity = np.array([cfg.objective == "fidelity" for cfg in cfgs])
    results = [None] * len(cfgs)
    searches = {}
    for i, cfg in enumerate(cfgs):
        if not fidelity[i] and _separable(cfg):
            best, value = 0, 0.0
        else:
            best, value = _grid_max(arrays, w, pipes[i], fidelity[i])
        if value <= 0.0:
            # argmax takes the first of equal values, so ties go to the smallest t
            best = int(np.argmax(np.maximum(_fold(w, arrays[1], pipes[i]), 0.0)))
            results[i] = float(GRID[best]), "zero_objective"
            continue
        best_t = float(GRID[best])
        searches[i] = _golden_max(max(0.0, best_t - GRID_STEP),
                                  min(1.0, best_t + GRID_STEP), REFINE_TOL,
                                  (best_t, value))
    ts = {i: next(search) for i, search in searches.items()}
    while ts:
        rows = list(ts)
        values = _objectives(arrays, _weight_rows([ts[i] for i in rows], degree),
                             pipes[rows], fidelity[rows])
        for i, value in zip(rows, values.tolist()):
            try:
                ts[i] = searches[i].send(value)
            except StopIteration as done:
                results[i] = float(done.value[0]), ""
                del ts[i]
    return results


def evaluate_point(cfg):
    """Full record for one strategy at one channel setting: a sweep of the
    one row cfg."""
    (record,) = sweep([cfg])
    return record


def _evaluate_chunk(cfgs):
    """Full records for the rows cfgs of one of sweep's chunks, in order;
    one _pipelines call builds their arrays and pipes.

    Coherent strategies optimize t (unless pinned by t_override; _optimize
    refines the free rows in lockstep); subtraction runs at t = 1; the
    baseline records t_opt = 1 by convention.  E_N, E_N_gauss, fidelity
    and p_success are each row's values at the one weight row of that t (of
    the degree of the chunk's longest pipeline), each row's sums read in
    place off its own pipeline's per-term arrays (_fold).  A preparation
    that cannot succeed (the objective's own vanishing-trace rule) yields a
    zeroed row flagged "zero_state" rather than an exception, so sweeps
    keep going.  The Fock matrices of the other rows are certified and
    solved as one stack, and their covariances and Gaussian negativities
    are read as one stack; the first row that fails a check raises (every
    row's certify before any row's covariance), and a refused Fock matrix
    names its row (_certify_row).
    """
    pipes, arrays = _pipelines(cfgs)
    kernels, traces, matrices, fidelity_terms, origins = arrays
    ts = [cfg.t_override if cfg.strategy.optimizes_t else 1.0 for cfg in cfgs]
    flags = [""] * len(cfgs)
    free = [i for i, t in enumerate(ts) if t is None]
    for i, opt in zip(free, _optimize([cfgs[i] for i in free], pipes[free], arrays)):
        ts[i], flags[i] = opt
    w = _weight_rows(ts, max(pipes[:, 2].tolist()) - 1)
    p = _fold(w, traces, pipes)
    live = p >= ZERO_TRACE_TOL
    columns = np.zeros((len(cfgs), 4))
    if live.any():
        w, p, at = w[live], p[live], pipes[live]
        rhos = _fold(w / p[:, None], matrices, at)
        try:
            certify(rhos)
        except PrecisionError:
            _certify_row(*_first_alone(_certify_row, np.array(cfgs, object)[live], rhos))
            raise
        e_n = log_negativity(rhos)
        sigma = covariance_from_chi(kernels[at[:, 0]], _fold(w, origins, at) / p[:, None, None])
        columns[live] = np.stack([e_n, gaussian_log_negativity(sigma),
                                  _fold(w, fidelity_terms, at) / p, p], axis=1)
    return [SweepRecord(cfg.strategy, cfg.s, cfg.channel.n_th, cfg.channel.eta, t,
                        *row.tolist(), flag if on else _join_flags(flag, "zero_state"))
            for cfg, t, row, flag, on in zip(cfgs, ts, columns, flags, live)]


def _certify_row(cfg, rho):
    """certify(rho), the Fock matrix of the row cfg, whose refusal names
    the row by its strategy and eta rather than by its place in a chunk."""
    try:
        certify(rho)
    except PrecisionError as exc:
        name = f"{cfg.strategy.value} at eta = {cfg.channel.eta}"
        raise PrecisionError(f"{name}: {exc}") from None


def _join_flags(*flags):
    return ";".join(f for f in flags if f)


def sweep(configs):
    """Records for a list of settings, in order.

    The settings that share s and n_trunc are built in chunks of up to
    CHUNK_SETTINGS channels, in order of their first rows: one _pipelines
    call runs each pipeline kind once over a chunk's channels, and its rows
    share those pipelines and the chunk's one Fock build.  A chunk's arrays
    are freed before the next chunk is built, so a sweep's memory does not
    grow with its eta grid.  Each chunk is one _evaluate_chunk call, by its
    module-global name, and each row is the record it gets alone (_fold),
    with its own objective and t_override; s = -0.0 shares a chunk with
    s = 0.0, whose squeezed vacuum it has bit for bit (tmsv_chi), and
    keeps its own s in its record.
    """
    configs = list(configs)
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.s, cfg.n_trunc), {}).setdefault(cfg.channel, []).append(i)
    records = [None] * len(configs)
    for settings in groups.values():
        settings = list(settings.values())
        for first in range(0, len(settings), CHUNK_SETTINGS):
            rows = [i for own in settings[first:first + CHUNK_SETTINGS] for i in own]
            chunk = [configs[i] for i in rows]
            for i, record in zip(rows, _evaluate_chunk(chunk)):
                records[i] = record
    return records
