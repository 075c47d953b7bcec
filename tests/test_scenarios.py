"""Strategy pipelines, weight optimization, and sweep bookkeeping."""

import collections
import dataclasses
import gc
import math
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from cvdistill import chi_core, entanglement, fock_recon, scenarios
from cvdistill.chi_core import ChannelParams
from cvdistill.entanglement import (
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    origin_coefficients,
)
from cvdistill.cli import main, parse_run_config
from cvdistill.scenarios import (
    OptimizeResult,
    ScenarioConfig,
    Strategy,
    SweepRecord,
    evaluate_point,
    evaluate_points,
    optimize_t,
    sweep,
)

import oracles
from oracles import (ZERO_INDEX, CoherentOp, Row, ZeroStateError, fock_matrix,
                     raw_terms, teleportation_fidelity, tmsv_state)


def cfg_for(strategy, s=0.114, eta=0.7, n_th=0.1, **kw):
    return ScenarioConfig(Strategy(strategy), s, ChannelParams(eta, n_th), **kw)


def reference_state(cfg, t):
    """Normalized state and trace at weight t, by the one-weight reference
    path."""
    return oracles.normalize(oracles.sequential_pipeline(cfg, t))


def objective_at(ev, t):
    """ev's objective value at the one weight t, -inf where the state
    vanishes: what a golden step scores."""
    return float(ev.objectives(ev.weights([t]))[0])


# ---------------------------------------------------------------------------
# strategy enumeration and config validation

def test_strategy_round_trip():
    names = ["noop", "subtract_before", "subtract_after",
             "coherent_before", "coherent_after"]
    assert [Strategy(n).value for n in names] == names
    assert not Strategy.NOOP.has_operation
    assert Strategy.SUBTRACT_BEFORE.operation_first
    assert not Strategy.SUBTRACT_AFTER.operation_first
    assert Strategy.COHERENT_AFTER.optimizes_t
    assert not Strategy.SUBTRACT_AFTER.optimizes_t


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for("noop", s=-0.1)
    with pytest.raises(ValueError):
        cfg_for("noop", objective="purity")
    with pytest.raises(ValueError):
        cfg_for("coherent_before", t_override=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(Strategy.NOOP, 0.1, ChannelParams(0.5, 0.1), n_trunc=-1)
    # a float or string cutoff is refused where the config is built, not
    # deep inside evaluate_point
    for n_trunc in (5.5, 5.0, "5"):
        with pytest.raises(ValueError, match="n_trunc must be an integer"):
            cfg_for("noop", n_trunc=n_trunc)


def test_a_row_makes_six_kernel_checks():
    # gaussian_kernel runs where a kernel enters: tmsv_chi, the two channels,
    # fock_matrices, the moment table of the augmented kernel and
    # fidelity_integrals; _augmented_kernel and covariance_from_chi do not
    # check again
    code = chi_core.gaussian_kernel.__code__
    for strategy in Strategy:
        for objective in ("negativity", "fidelity"):
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is code:
                    calls.append(frame)
            sys.setprofile(profile)
            try:
                evaluate_point(cfg_for(strategy.value, n_trunc=3,
                                       objective=objective))
            finally:
                sys.setprofile(None)
            assert len(calls) == 6, (strategy, objective)


# ---------------------------------------------------------------------------
# pipelines

def test_noop_through_perfect_channel_is_input():
    cfg = cfg_for("noop", s=0.403, eta=1.0, n_th=0.0)
    ev = Row(cfg)
    ref = tmsv_state(0.403)
    assert ev.probabilities(ev.weights([1.0]))[0] == pytest.approx(1.0, abs=1e-14)
    _, polys = raw_terms(cfg)
    assert polys.shape == (1, 1, 1, 1, 1)
    assert polys[0, 0, 0, 0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(ev.kernel, ref.kernel, atol=1e-14)


def test_subtraction_needs_no_weight():
    cfg = cfg_for("subtract_before", s=0.403, eta=1.0, n_th=0.0)
    state, p = reference_state(cfg, 1.0)
    assert 0 < p < 1
    assert state.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-12)
    ev = Row(cfg)
    assert ev.probabilities(ev.weights([1.0]))[0] == pytest.approx(p, rel=1e-12)


def test_coherent_strategy_requires_weight():
    cfg = cfg_for("coherent_before")
    with pytest.raises(ValueError):
        Row(cfg).weights([1.2])
    state, _ = reference_state(cfg, 0.9)
    assert state.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-12)


def test_weight_override_feeds_pipeline():
    cfg = cfg_for("coherent_after", t_override=0.8)
    rec = evaluate_point(cfg)
    ev = Row(cfg)
    w = ev.weights([0.8])
    assert rec.t_opt == 0.8
    assert rec.e_n_fock == log_negativity(ev.rhos(w)[0])
    assert rec.fidelity == ev.fidelities(w)[0]
    assert rec.p_success == ev.probabilities(w)[0]


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_term_basis_matches_sequential_pipeline(strategy):
    cfg = cfg_for(strategy, s=0.403, eta=0.7, n_th=0.1)
    kernel, polys = raw_terms(cfg)
    assert len(polys) == (5 if cfg.strategy.has_operation else 1)
    ev = Row(cfg)
    # one real dtype from tmsv_chi to the row's per-term values
    assert kernel.dtype == polys.dtype == np.float64
    assert ev.traces.dtype == ev.fidelity_terms.dtype == np.float64
    for t in (0.0, 0.3, 0.7, 1.0):
        op = CoherentOp.from_t(t)
        got = oracles.combine_terms(kernel, polys, op.t, op.r)
        want = oracles.sequential_pipeline(cfg, t)
        np.testing.assert_array_equal(got.kernel, want.kernel)
        assert got.poly.shape == want.poly.shape
        scale = np.max(np.abs(want.poly))
        assert np.max(np.abs(got.poly - want.poly)) <= 1e-13 * scale, t
        ref, _ = oracles.normalize(want)
        np.testing.assert_allclose(covariance_from_chi(ev.kernel,
                                                       ev.origin(ev.weights([t])[0])),
                                   covariance_from_chi(ref.kernel,
                                                       origin_coefficients(ref.poly)),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_term_supports_are_pinned(strategy):
    # the monomials the Fock and fidelity consumers integrate, per term
    _, polys = raw_terms(cfg_for(strategy))
    union = int(np.count_nonzero(np.any(polys != 0, axis=0)))
    per_term = [int(np.count_nonzero(p)) for p in polys]
    if strategy == "noop":
        assert (union, per_term) == (1, [1])
    else:
        assert (union, per_term) == (46, [14, 22, 24, 22, 14])


def test_no_physical_input_raises():
    # seeded draws over the physical ranges; a product state's discriminant
    # (s 0, an operation after a hot channel) once rounded below an absolute
    # tolerance and was refused, in 3 of these 600 draws
    rng = random.Random(0)
    for _ in range(600):
        cfg = ScenarioConfig(rng.choice(list(Strategy)),
                             rng.choice([0.0, rng.uniform(0.0, 1.5)]),
                             ChannelParams(rng.uniform(0.001, 1.0),
                                           rng.choice([0.0, rng.uniform(0.0, 10.0)])),
                             rng.choice([3, 5]))
        try:
            evaluate_point(cfg)
        except Exception as exc:
            pytest.fail(f"{cfg} raised {exc!r}")


def test_subtraction_from_vacuum_raises():
    with pytest.raises(ZeroStateError):
        reference_state(cfg_for("subtract_before", s=0.0, eta=1.0, n_th=0.0),
                        1.0)


def test_before_strategy_probability_ignores_channel():
    # trace preservation of the channel: heralding happens upstream of it
    ev_lo = Row(cfg_for("coherent_before", eta=0.3, n_th=0.3))
    ev_hi = Row(cfg_for("coherent_before", eta=0.9, n_th=0.3))
    for t in (0.2, 0.7, 1.0):
        w = ev_lo.weights([t])
        assert ev_lo.probabilities(w)[0] == pytest.approx(ev_hi.probabilities(w)[0],
                                                          abs=1e-12)


def test_after_strategy_probability_tracks_channel():
    ev_lo = Row(cfg_for("subtract_after", eta=0.3, n_th=0.1))
    ev_hi = Row(cfg_for("subtract_after", eta=0.9, n_th=0.1))
    w = ev_lo.weights([1.0])
    assert abs(ev_lo.probabilities(w)[0] - ev_hi.probabilities(w)[0]) > 1e-3


# ---------------------------------------------------------------------------
# weight optimization

def test_optimize_t_beats_fine_grid():
    cfg = cfg_for("coherent_before", s=0.029, eta=0.9, n_th=0.1)
    ev = Row(cfg)
    opt = optimize_t(cfg)
    assert opt.flag == ""
    lo = max(0.0, opt.t_opt - 0.01)
    hi = min(1.0, opt.t_opt + 0.01)
    fine = max(objective_at(ev, t) for t in np.linspace(lo, hi, 41))
    assert opt.value >= fine - 1e-6
    assert objective_at(ev, opt.t_opt) == pytest.approx(opt.value, abs=1e-12)


def test_optimize_t_is_deterministic():
    cfg = cfg_for("coherent_after", s=0.114, eta=0.85, n_th=0.1)
    a = optimize_t(cfg)
    b = optimize_t(cfg)
    assert (a.t_opt, a.value, a.flag) == (b.t_opt, b.value, b.flag)


def test_optimize_t_zero_objective_falls_back_to_probability():
    # far below the separation threshold nothing revives the after-channel
    # state, so the optimizer reports the most probable preparation instead
    cfg = cfg_for("coherent_after", s=0.029, eta=0.3, n_th=0.1)
    ev = Row(cfg)
    opt = optimize_t(cfg)
    assert opt.flag == "zero_objective"
    assert opt.value == 0.0
    probs = ev.probabilities(ev.weights(np.linspace(0.0, 1.0, 11)))
    assert ev.probabilities(ev.weights([opt.t_opt]))[0] >= max(probs) - 1e-9
    # a separable state whose probability is the same at every weight: the
    # tie breaks toward the smallest t
    flat = optimize_t(cfg_for("noop", eta=0.05, n_th=0.5))
    assert (flat.t_opt, flat.value, flat.flag) == (0.0, 0.0, "zero_objective")


@pytest.mark.parametrize("objective", ["negativity", "fidelity"])
def test_optimize_t_is_the_t_opt_of_evaluate_point(objective):
    # optimize_t takes the row's config and optimizes it as evaluate_point
    # does: refined, clipped and zero_objective rows, bit for bit
    for strategy in ("coherent_before", "coherent_after"):
        for s, eta in ((0.029, 0.3), (0.029, 0.9), (0.114, 0.6), (0.3, 1.0), (0.0, 0.5)):
            cfg = cfg_for(strategy, s=s, eta=eta, n_trunc=3, objective=objective)
            opt, rec = optimize_t(cfg), evaluate_point(cfg)
            assert (opt.t_opt.hex(), opt.flag) == (rec.t_opt.hex(), rec.flags), cfg


def test_evaluate_points_refuses_rows_of_different_s_or_cutoff():
    # one chunk builds one squeezed vacuum and one cutoff: rows that do not
    # share them were computed at the first row's values (E_N 0.16006 for
    # an s = 0.5 row that gives 0.89759 alone)
    rule = r"share s \(with its sign\) and n_trunc"
    for other in (cfg_for("noop", s=0.5, eta=0.8),
                  cfg_for("noop", s=-0.0, eta=0.8),
                  cfg_for("noop", s=0.1, eta=0.8, n_trunc=3)):
        first = cfg_for("noop", s=0.0 if other.s == 0.0 else 0.1, eta=0.7)
        with pytest.raises(ValueError, match=rule):
            evaluate_points([first, other])
    recs = evaluate_points([cfg_for("noop", s=0.1, eta=0.7),
                            cfg_for("coherent_after", s=0.1, eta=0.8, n_trunc=5)])
    assert recs[1] == evaluate_point(cfg_for("coherent_after", s=0.1, eta=0.8))


def test_no_rows_give_no_records():
    # an empty chunk has no s or n_trunc to share: no rows, no records,
    # from evaluate_points as from sweep
    assert evaluate_points([]) == [] == sweep([])


STUB_CFG = cfg_for("coherent_before", objective="fidelity")


def _stubbed(monkeypatch, fs):
    """Stub the optimizer's inputs: _pipelines gives one pipeline per
    function of fs, of degree 1 and success probability 1, row i on
    pipeline i, and _objectives scores weight row (t, r) of pipeline i by
    fs[i](t).  Returns the per-pipeline logs of every (t, value) scored,
    grid and golden steps alike."""
    logs = [[] for _ in fs]

    def objectives(arrays, w, rows, fidelity):
        values = []
        for t, row in zip(w[:, 0].tolist(), np.broadcast_to(rows, len(w)).tolist()):
            values.append(fs[row](t))
            logs[row].append((t, values[-1]))
        return np.array(values)

    arrays = (None, np.ones((len(fs), 2)), None, None, None)
    monkeypatch.setattr(scenarios, "_pipelines",
                        lambda cfgs: (np.arange(len(cfgs)), arrays))
    monkeypatch.setattr(scenarios, "_objectives", objectives)
    return logs


def _golden_max_alone(f, lo, hi, tol, seed):
    """The golden section as a plain loop that calls f for each point, the
    form the lockstep generator replaced: every point it scores and its
    (t, value) of largest key (value, -t)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    scored = [seed, (c, fc), (d, fd)]
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            scored.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            scored.append((d, fd))
    return scored[1:], max(scored, key=lambda point: (point[1], -point[0]))


LOCKSTEP_OBJECTIVES = {
    # a peak inside the grid: the bracket is (0.43, 0.45) around 0.44
    "interior": lambda t: 1.0 - (t - 0.4372) ** 2,
    # falling from t = 0: the bracket is clipped at 0, to (0, 0.01)
    "clipped_at_0": lambda t: 1.0 - t,
    # rising to t = 1: the bracket is clipped at 1, to (0.99, 1)
    "clipped_at_1": lambda t: 0.5 + t * t,
    # a plateau from 0.4963, inside the bracket around the grid's 0.5
    "plateau": lambda t: 1.0 if t >= 0.4963 else 1.0 - (0.4963 - t),
}


def test_lockstep_refinement_scores_each_row_as_alone(monkeypatch):
    # rows of one chunk refine together, one scored weight per row a round,
    # and clipped brackets finish earlier; each row scores the t sequence
    # of the golden section run alone and returns its (t, value)
    fs = list(LOCKSTEP_OBJECTIVES.values())
    logs = _stubbed(monkeypatch, fs)
    results = scenarios._optimize([STUB_CFG] * len(fs), np.arange(len(fs)),
                                  scenarios._pipelines([])[1])
    steps = []
    for f, log, got in zip(fs, logs, results):
        (alone,) = _stubbed(monkeypatch, [f])
        assert optimize_t(STUB_CFG) == got
        assert log == alone
        grid = log[:len(GRID)]
        assert [t for t, _ in grid] == GRID.tolist()
        best_t, best = max(grid, key=lambda point: (point[1], -point[0]))
        scored, (t, value) = _golden_max_alone(
            f, max(0.0, best_t - scenarios.GRID_STEP),
            min(1.0, best_t + scenarios.GRID_STEP), scenarios.REFINE_TOL, (best_t, best))
        assert log[len(GRID):] == scored
        assert got == OptimizeResult(t, value)
        steps.append(len(scored))
    # the clipped rows drop out of the lockstep before the others
    assert steps[1] == steps[2] < steps[0] == steps[3]
    assert results[1].t_opt < 0.01 and results[2].t_opt == 1.0


@pytest.mark.parametrize("f", [
    # flat on the whole open refine bracket (0.49, 0.51) around the grid's
    # best, 0.5: golden points left of it tie with it
    lambda t: 1.0 if t > 0.49 else t,
    # a plateau from 0.4963, inside the bracket, rising into it from below
    lambda t: 1.0 if t >= 0.4963 else 1.0 - (0.4963 - t),
], ids=["flat_bracket", "plateau_inside"])
def test_optimize_t_ties_across_grid_and_golden_go_to_the_smallest_t(monkeypatch, f):
    # the grid's best and the golden steps are ranked by one key: of every
    # t scored, the smallest one that attains the best value is reported
    (scored,) = _stubbed(monkeypatch, [f])
    opt = optimize_t(STUB_CFG)
    best = max(v for _, v in scored)
    assert (opt.value, opt.flag) == (best, "") == (1.0, "")
    assert opt.t_opt == min(t for t, v in scored if v == best)
    assert 0.49 < opt.t_opt < 0.5
    assert 0.5 in [t for t, _ in scored]


def test_optimize_t_fidelity_objective():
    for strategy in ("coherent_before", "coherent_after"):
        cfg = cfg_for(strategy, s=0.114, eta=0.6, n_th=0.01,
                      objective="fidelity")
        ev = Row(cfg)
        opt = optimize_t(cfg)
        state, _ = reference_state(cfg, opt.t_opt)
        assert teleportation_fidelity(state) == pytest.approx(opt.value,
                                                              abs=1e-12)
        for probe in (0.0, 0.5, 1.0):
            assert opt.value >= objective_at(ev, probe) - 1e-12
        # the per-term objective against the one-weight reference state
        for t in (0.0, 0.3, 0.7, 1.0):
            assert objective_at(ev, t) == pytest.approx(
                teleportation_fidelity(reference_state(cfg, t)[0]), abs=1e-12)


def test_row_negativity_is_the_objective_at_t_opt():
    # a row's Fock matrix is the weighted sum of per-term matrices that the
    # optimizer scores, so the printed E_N is the objective value bit for bit
    for strategy in ("coherent_before", "coherent_after"):
        for eta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            cfg = cfg_for(strategy, s=0.114, eta=eta, n_th=0.1)
            rec = evaluate_point(cfg)
            assert rec.e_n_fock > 0.0
            assert rec.e_n_fock == objective_at(Row(cfg), rec.t_opt)


def test_row_fidelity_and_probability_are_the_evaluator_at_t_opt():
    # fidelity and p_success come from the same per-term sums and trace the
    # fidelity objective scores, so a row prints the optimizer's values
    for strategy in ("coherent_before", "coherent_after"):
        for eta in np.round(np.arange(0.1, 1.01, 0.1), 10):
            cfg = cfg_for(strategy, s=0.114, eta=float(eta), n_th=0.1,
                          objective="fidelity")
            rec = evaluate_point(cfg)
            ev = Row(cfg)
            assert rec.flags == ""
            assert rec.fidelity == objective_at(ev, rec.t_opt)
            assert rec.p_success == ev.probabilities(ev.weights([rec.t_opt]))[0]


GRID = np.round(np.arange(0.0, 1.0 + scenarios.GRID_STEP / 2,
                          scenarios.GRID_STEP), 10)


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_grid_values_are_the_objective_bit_for_bit(n_trunc):
    # the optimizer scores the grid in one stacked call; each value is the
    # one-weight objective's, -inf where the state vanishes
    rng = np.random.default_rng(300 + n_trunc)
    for strategy in Strategy:
        for objective in ("negativity", "fidelity"):
            cfg = cfg_for(strategy.value, s=float(rng.uniform(0.01, 0.8)),
                          eta=float(rng.uniform(0.05, 1.0)),
                          n_th=float(rng.uniform(0.0, 0.5)),
                          n_trunc=n_trunc, objective=objective)
            ev = Row(cfg)
            want = [objective_at(ev, t) for t in GRID]
            assert ev.objectives(ev.weights(GRID)).tolist() == want, cfg
            assert ev.probabilities(ev.weights(GRID)).tolist() == [
                ev.probabilities(ev.weights([t]))[0] for t in GRID]
        assert ev.matrices.dtype == float
    ev = Row(cfg_for("coherent_before", s=0.0, n_trunc=n_trunc))
    values = ev.objectives(ev.weights(GRID))
    assert values[-1] == -math.inf and objective_at(ev, 1.0) == -math.inf
    assert values[:-1].tolist() == [objective_at(ev, t) for t in GRID[:-1]]


def test_stacked_weights_keep_the_range_check():
    ev = Row(cfg_for("coherent_after"))
    for ts in ([0.5, 1.2], [-0.1], [0.2, math.nan]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ev.weights(ts)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            objective_at(ev, ts[-1])


def test_grid_weights_are_built_once_with_the_weight_rule(monkeypatch):
    # optimize_t scans one grid, on the grid's cached weight rows
    # themselves, one read-only object per degree with the bits of the same
    # weights computed afresh; _grid_max scores them (whole, or projected
    # and climbed)
    assert not scenarios.GRID.flags.writeable
    assert scenarios.GRID.tolist() == GRID.tolist()
    scanned = []
    grid_max = scenarios._grid_max

    def recording(arrays, w, *args):
        scanned.append(w)
        return grid_max(arrays, w, *args)

    monkeypatch.setattr(scenarios, "_grid_max", recording)
    for strategy in ("coherent_before", "coherent_after"):
        for objective in ("negativity", "fidelity"):
            cfg = cfg_for(strategy, objective=objective)
            ev = Row(cfg)
            n = len(raw_terms(cfg)[1]) - 1
            scanned.clear()
            optimize_t(cfg)
            w = scenarios._grid_weights(n)
            assert len(scanned) == 1 and scanned[0] is w
            assert w is scenarios._grid_weights(n)
            assert not w.flags.writeable
            assert w.shape == (101, n + 1)
            assert oracles.same_bits(w, scenarios._weight_rows(scenarios.GRID, n))
            assert oracles.same_bits(w, scenarios._weight_rows(GRID.tolist(), n))
            assert oracles.same_bits(w, ev.weights(GRID))


def test_a_printed_row_forms_one_weight_row():
    # p_success, rho, the covariance and the fidelity of a row are read off
    # one weight row, formed once
    code = scenarios._weight_rows.__code__
    for strategy in ("coherent_before", "coherent_after"):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame)
        sys.setprofile(profile)
        try:
            rec = evaluate_point(cfg_for(strategy, t_override=0.6))
        finally:
            sys.setprofile(None)
        assert rec.t_opt == 0.6 and rec.flags == ""
        assert len(calls) == 1, strategy


def _separable_draws(rng, n):
    """n configs of each rule that proves a row separable, as
    (strategy, s, eta, n_th): after the channel below separation_eta, an
    entanglement-breaking channel on either side, and s = 0."""
    for _ in range(n):
        s = float(rng.uniform(0.01, 0.5))
        n_th = float(rng.uniform(0.02, 2.0))
        eta_eb = entanglement.breaking_eta(n_th)
        eta_sep = min(1.0, entanglement.separation_eta(s, n_th))
        yield "coherent_after", s, float(rng.uniform(eta_eb, eta_sep)), n_th
        for strategy in ("coherent_before", "coherent_after"):
            yield strategy, s, float(rng.uniform(0.001, eta_eb)), n_th
        # s = 0 at any channel, pure loss included
        yield "coherent_before", 0.0, float(rng.uniform(0.001, 1.0)), 0.0
        yield "coherent_after", 0.0, float(rng.uniform(0.001, 1.0)), n_th


def test_separable_rows_are_ppt_by_the_kraus_oracle():
    # the rule's physics, by a route that shares nothing with the chi
    # picture: every weight of a covered row gives a truncated state whose
    # partial transpose has no negative eigenvalue (lambda_min, not E_N:
    # the oracle's own E_N of a near-vacuum state can round above 0)
    rng = np.random.default_rng(22)
    for strategy, s, eta, n_th in _separable_draws(rng, 1):
        cfg = cfg_for(strategy, s=s, eta=eta, n_th=n_th, n_trunc=8)
        assert scenarios._separable(cfg), cfg
        ev = Row(cfg)
        for t in (0.0, 0.5, 0.9, 1.0):
            if ev.probabilities(ev.weights([t]))[0] < scenarios.ZERO_TRACE_TOL:
                continue
            rho = oracles.kraus_rho(strategy, s, eta, n_th, t, 8, 30)
            # the n_trunc-5 state is the leading block of the n_trunc-8 one
            rho5 = rho.reshape(9, 9, 9, 9)[:6, :6, :6, :6].reshape(36, 36)
            for r in (rho, rho5):
                lam = np.linalg.eigvalsh(entanglement.partial_transpose(r))
                assert lam.min() > -1e-14, (cfg, t, lam.min())


def test_row_columns_match_the_kraus_oracle():
    # p_success, fidelity and E_N_gauss of every strategy's row against
    # kraus_columns, which shares nothing with the chi picture, at pinned
    # coherent weights: a lossy channel, n_th = 0 and eta = 1.  Largest
    # deviations measured at M = 24 over these 15 rows: p_success 1.1e-15,
    # fidelity 1.1e-15, E_N_gauss 5.8e-15; M = 20 leaves 5.7e-13 in the
    # fidelity at eta = 1, the oracle's input cut.
    tol = 2e-14
    for s, eta, n_th, t in ((0.3, 0.7, 0.1, 0.9), (0.2, 0.45, 0.0, 0.5),
                            (0.3, 1.0, 0.2, 0.75)):
        for strategy in Strategy:
            rec = evaluate_point(cfg_for(strategy, s=s, eta=eta, n_th=n_th,
                                         t_override=t))
            assert rec.t_opt == (t if strategy.optimizes_t else 1.0)
            want = oracles.kraus_columns(strategy, s, eta, n_th, rec.t_opt, 24)
            got = (rec.p_success, rec.fidelity, rec.e_n_gauss)
            assert np.allclose(got, want, rtol=0, atol=tol), (rec, want)


def test_separable_rows_score_no_grid(monkeypatch):
    # a grid is one _grid_max call (its whole-grid and climbing _objectives
    # calls are its own); every other _objectives call is a golden step
    calls = []
    inside = []
    objectives, grid_max = scenarios._objectives, scenarios._grid_max

    def grid(arrays, w, *args):
        calls.append((cfg, "grid" if w is scenarios._grid_weights(4) else "copy"))
        inside.append(w)
        try:
            return grid_max(arrays, w, *args)
        finally:
            inside.pop()

    def counting(arrays, w, *args):
        if not inside:
            calls.append((cfg, len(w)))
        return objectives(arrays, w, *args)

    monkeypatch.setattr(scenarios, "_objectives", counting)
    monkeypatch.setattr(scenarios, "_grid_max", grid)
    rng = np.random.default_rng(23)
    for strategy, s, eta, n_th in _separable_draws(rng, 3):
        cfg = cfg_for(strategy, s=s, eta=eta, n_th=n_th)
        ev = Row(cfg)
        opt = optimize_t(cfg)
        best = int(np.argmax(ev.probabilities(ev.weights(scenarios.GRID))))
        assert opt == OptimizeResult(float(scenarios.GRID[best]), 0.0,
                                     "zero_objective"), cfg
    # on the threshold of entanglement breaking the channel still breaks it
    cfg = cfg_for("coherent_before", eta=entanglement.breaking_eta(0.25), n_th=0.25)
    optimize_t(cfg)
    assert calls == []
    eta_sep = entanglement.separation_eta(0.029, 0.1)
    scanned = [
        # the after strategy at and above separation_eta
        cfg_for("coherent_after", s=0.029, eta=eta_sep, n_th=0.1),
        cfg_for("coherent_after", s=0.029, eta=0.9, n_th=0.1),
        # the before strategy above breaking_eta, entangled or not after
        # the channel
        cfg_for("coherent_before", s=0.029, eta=0.2, n_th=0.1),
        cfg_for("coherent_before", s=0.029, eta=0.9, n_th=0.1),
        # pure loss at s > 0
        cfg_for("coherent_after", s=0.029, eta=0.05, n_th=0.0),
        cfg_for("coherent_before", s=0.029, eta=0.05, n_th=0.0),
        # the fidelity objective, on rows the rule would cover
        cfg_for("coherent_after", s=0.029, eta=0.3, n_th=0.1,
                objective="fidelity"),
        cfg_for("coherent_before", s=0.0, eta=0.05, n_th=0.1,
                objective="fidelity"),
    ]
    for cfg in scanned:
        optimize_t(cfg)
    # one grid each, on the cached weight rows; the golden steps score one
    # weight a call
    assert [cfg for cfg, n in calls if n == "grid"] == scanned
    assert {n for _, n in calls} == {"grid", 1}


def _coherent_draws(rng, n, n_trunc):
    """n negativity rows of the two coherent strategies, drawn wide, that
    _separable does not cover."""
    while n:
        cfg = cfg_for(("coherent_before", "coherent_after")[n % 2],
                      s=float(rng.uniform(0.01, 0.7)), eta=float(rng.uniform(0.2, 1.0)),
                      n_th=float(rng.uniform(0.0, 0.4)), n_trunc=n_trunc)
        if not scenarios._separable(cfg):
            n -= 1
            yield cfg


@pytest.mark.parametrize("n_trunc, rows", [(3, 30), (5, 30), (8, 20)])
def test_projected_grid_seeds_the_whole_grid_s_argmax(monkeypatch, n_trunc, rows):
    # the projection and the exact climb seed the golden section with the
    # whole grid's np.argmax and its value, bit for bit, and leave
    # zero_objective to the rows whose whole grid is nowhere positive
    seeds = []
    golden = scenarios._golden_max

    def recording(lo, hi, tol, seed):
        seeds.append(seed)
        return golden(lo, hi, tol, seed)

    monkeypatch.setattr(scenarios, "_golden_max", recording)
    w = scenarios._grid_weights(4)
    climbed = 0
    for cfg in _coherent_draws(np.random.default_rng(40 + n_trunc), rows, n_trunc):
        _, arrays = scenarios._pipelines([cfg])
        values = scenarios._objectives(arrays, w, 0, False)
        ritz = scenarios._ritz_negativity(arrays, w, 0)
        climbed += ritz is not None and ritz.max() > scenarios.RITZ_MARGIN
        seeds.clear()
        opt = optimize_t(cfg)
        best = int(np.argmax(values))
        if values[best] > 0.0:
            want = (float(GRID[best]).hex(), float(values[best]).hex())
            assert [(t.hex(), v.hex()) for t, v in seeds] == [want], cfg
        else:
            assert seeds == [] and opt.flag == "zero_objective", cfg
    # most rows climb rather than score the whole grid
    assert climbed >= rows * 3 // 4


@pytest.mark.parametrize("n_trunc", [3, 5, 8])
def test_projected_negativity_is_a_lower_bound(n_trunc):
    # Cauchy interlacing: at every grid weight the projected E_N is at most
    # the whole solve's, up to RITZ_MARGIN's allowance for rounding
    w = scenarios._grid_weights(4)
    for cfg in _coherent_draws(np.random.default_rng(60 + n_trunc), 20, n_trunc):
        _, arrays = scenarios._pipelines([cfg])
        ritz = scenarios._ritz_negativity(arrays, w, 0)
        full = scenarios._objectives(arrays, w, 0, False)
        assert ritz is not None and ritz.shape == full.shape
        assert np.all(ritz <= full + scenarios.RITZ_MARGIN), cfg
    # a per-term matrix that couples the parities is not projected
    matrices = arrays[2].copy()
    _, coupling = fock_recon._parity_gathers(n_trunc + 1, True)
    matrices.reshape(matrices.shape[:2] + (-1,))[0, 0, coupling[0]] = 1e-3
    assert scenarios._ritz_negativity(arrays[:2] + (matrices,) + arrays[3:], w, 0) is None
    # nor is a grid where a weight's state vanishes (t = 1 at s = 0)
    _, arrays = scenarios._pipelines([cfg_for("coherent_before", s=0.0, n_trunc=n_trunc)])
    assert scenarios._ritz_negativity(arrays, w, 0) is None


def test_cutoff_zero_rows_are_unchanged(capsys):
    # at n_trunc 0 rho^T1 is 1 x 1 and has no odd block; the objective is 0
    # on the whole grid, so the coherent rows fall back to the most probable
    # weight, as they printed before the blocked solve
    for strategy in Strategy:
        cfg = cfg_for(strategy.value, s=0.3, eta=0.7, n_th=0.1, n_trunc=0)
        rec = evaluate_point(cfg)
        ev = Row(cfg)
        rho = ev.rhos(ev.weights([rec.t_opt]))[0]
        w = np.linalg.eigvalsh(entanglement.partial_transpose(rho + 0j))
        assert rec.e_n_fock == 0.0 and float(np.sum(np.abs(w))) <= 1.0
    assert main(["point", "--strategy", "coherent_before", "--s", "0.3",
                 "--eta", "0.7", "--n-th", "0.1", "--n-trunc", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[4:] == [
        "t_opt = 0.00000000000e+00",
        "E_N = 0.00000000000e+00",
        "E_N_gauss = 0.00000000000e+00",
        "fidelity = 4.59628623538e-01",
        "p_success = 1.29539650095e+00",
        "flags = zero_objective",
    ]


def test_optimal_weight_drifts_down_with_transmissivity():
    # more transmissive channels favor more addition in the superposition
    ts = []
    for eta in (0.4, 0.7, 1.0):
        cfg = cfg_for("coherent_after", s=0.029, eta=eta, n_th=1e-5)
        ts.append(optimize_t(cfg).t_opt)
    assert ts[0] > ts[1] > ts[2]


def test_coherent_beats_plain_subtraction_without_loss():
    cfg_c = cfg_for("coherent_before", s=0.029, eta=1.0, n_th=0.0)
    opt = optimize_t(cfg_c)
    ev_s = Row(cfg_for("subtract_before", s=0.029, eta=1.0, n_th=0.0))
    assert opt.value > objective_at(ev_s, 1.0) + 0.1


# ---------------------------------------------------------------------------
# point records and sweeps

def test_evaluate_point_noop_matches_direct_measures():
    cfg = cfg_for("noop", s=0.403, eta=0.8, n_th=0.1)
    rec = evaluate_point(cfg)
    state, p = reference_state(cfg, 1.0)
    assert rec.strategy is Strategy.NOOP
    assert (rec.s, rec.n_th, rec.eta, rec.t_opt) == (0.403, 0.1, 0.8, 1.0)
    assert rec.e_n_fock == log_negativity(fock_matrix(state, cfg.n_trunc))
    assert rec.e_n_gauss == gaussian_log_negativity(
        covariance_from_chi(state.kernel, origin_coefficients(state.poly)))
    assert rec.fidelity == teleportation_fidelity(state)
    assert rec.p_success == p
    assert rec.flags == ""


def test_evaluate_point_zero_state_row():
    rec = evaluate_point(cfg_for("subtract_before", s=0.0, eta=0.9, n_th=0.0))
    assert rec.flags == "zero_state"
    assert (rec.e_n_fock, rec.e_n_gauss, rec.fidelity, rec.p_success) == \
        (0.0, 0.0, 0.0, 0.0)


def test_evaluate_point_zero_objective_flag():
    rec = evaluate_point(cfg_for("coherent_after", s=0.029, eta=0.3, n_th=0.1))
    assert rec.flags == "zero_objective"
    assert rec.e_n_fock == 0.0
    assert rec.p_success > 0.0


def test_evaluate_point_respects_override():
    rec = evaluate_point(cfg_for("coherent_before", t_override=0.95))
    assert rec.t_opt == 0.95


def test_default_eta_grid(tmp_path):
    # a sweep config without eta keys runs the 101-point grid 0.01..1.0
    path = tmp_path / "run.cfg"
    path.write_text("strategies = noop\ns = 0.1\nn_th = 0.0\noutput = o.csv\n",
                    encoding="utf-8")
    grid = [cfg.channel.eta for cfg in parse_run_config(str(path))[0]]
    assert len(grid) == 101
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(1.0)


def test_sweep_eta_orders_records():
    grid = [0.3, 0.6, 0.9]
    recs = sweep([cfg_for("subtract_before", s=0.114, eta=eta, n_th=0.1)
                  for eta in grid])
    assert [r.eta for r in recs] == grid
    assert all(r.strategy is Strategy.SUBTRACT_BEFORE for r in recs)
    assert all(r.s == 0.114 and r.n_th == 0.1 for r in recs)
    assert all(r.t_opt == 1.0 for r in recs)
    # entanglement decays as the channel gets lossier
    assert recs[0].e_n_gauss <= recs[1].e_n_gauss <= recs[2].e_n_gauss


def test_sweep_eta_pins_override_everywhere():
    recs = sweep([cfg_for("coherent_after", s=0.114, eta=eta, n_th=0.05,
                          t_override=0.9) for eta in (0.5, 1.0)])
    assert [r.t_opt for r in recs] == [0.9, 0.9]


def test_sweep_calls_the_module_evaluate_points_once_per_chunk(monkeypatch):
    # a wrapper installed as scenarios.evaluate_points sees every sweep
    # row, in one call per chunk of settings
    seen = []
    original = scenarios.evaluate_points

    def counted(cfgs, *args):
        seen.append(list(cfgs))
        return original(cfgs, *args)

    monkeypatch.setattr(scenarios, "evaluate_points", counted)
    monkeypatch.setattr(scenarios, "CHUNK_SETTINGS", 2)
    cfgs = [cfg_for("noop", eta=eta) for eta in (0.5, 1.0, 0.7)]
    cfgs.append(cfg_for("noop", s=0.2, eta=0.5))
    assert [(r.s, r.eta) for r in sweep(cfgs)] == [(0.114, 0.5), (0.114, 1.0),
                                                  (0.114, 0.7), (0.2, 0.5)]
    assert seen == [cfgs[:2], cfgs[2:3], cfgs[3:]]


def _record_bits(rec):
    """A record's fields, each float as its exact hex form (signed zeros
    differ)."""
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in dataclasses.astuple(rec))


def test_sweep_rows_are_evaluate_point_alone_bit_for_bit():
    # rows of one setting share its pipelines and Fock build; each row must
    # still be the record evaluate_point gives alone, with its own objective
    # and pinned t, whatever the order of the rows; s = 0 with n_th = 0 is
    # where a contraction over the union support moved E_N (coherent_before
    # at eta 0.76, n_trunc 3: 1.1532e-14 -> 1.1853e-14)
    settings = [(0.0, 0.3, 0.0, 5), (0.029, 1.0, 0.1, 3), (0.3, 0.5, 0.05, 8),
                (0.0, 0.9, 0.0, 8), (0.029, 0.4, 0.1, 3), (0.0, 1.0, 0.0, 3),
                (0.0, 0.76, 0.0, 3)]
    cfgs = []
    for i, (s, eta, n_th, n_trunc) in enumerate(settings):
        for j, strategy in enumerate(Strategy):
            cfgs.append(cfg_for(strategy.value, s=s, eta=eta, n_th=n_th,
                                n_trunc=n_trunc,
                                objective=("negativity", "fidelity")[(i + j) % 2]))
        cfgs.append(cfg_for("coherent_before", s=s, eta=eta, n_th=n_th,
                            n_trunc=n_trunc, t_override=0.4))
        cfgs.append(cfg_for("coherent_after", s=s, eta=eta, n_th=n_th,
                            n_trunc=n_trunc, objective=("fidelity", "negativity")[i % 2]))
    random.Random(0).shuffle(cfgs)
    alone = [_record_bits(evaluate_point(cfg)) for cfg in cfgs]
    assert [_record_bits(rec) for rec in sweep(cfgs)] == alone
    assert [rec[0] for rec in alone] == [cfg.strategy for cfg in cfgs]


def test_a_chunk_of_every_row_kind_is_evaluate_point_alone_bit_for_bit():
    # one chunk per s mixes refined rows (interior and clipped brackets),
    # zero_objective, zero_state, pinned-t, subtraction and noop rows under
    # both objectives; each row is still the record evaluate_point gives
    # alone
    cfgs = [cfg_for(strategy.value, s=s, eta=eta, n_th=0.1, n_trunc=3, **kw)
            for s in (0.0, 0.029) for eta in (0.3, 0.9, 1.0) for strategy in Strategy
            for kw in ({}, {"objective": "fidelity"}, {"t_override": 1.0},
                       {"t_override": 0.6, "objective": "fidelity"})]
    records = sweep(cfgs)
    assert [_record_bits(rec) for rec in records] == [
        _record_bits(evaluate_point(cfg)) for cfg in cfgs]
    kinds = collections.Counter(
        rec.flags or ("refined" if cfg.strategy.optimizes_t and cfg.t_override is None
                      else "fixed")
        for cfg, rec in zip(cfgs, records))
    assert set(kinds) == {"refined", "fixed", "zero_objective", "zero_state"}, kinds
    refined = [rec.t_opt for cfg, rec in zip(cfgs, records)
               if cfg.strategy.optimizes_t and cfg.t_override is None and not rec.flags]
    assert 1.0 in refined and any(0.0 < t < 1.0 and t not in GRID for t in refined)


def _call_counts(fn):
    """How often fn() calls tmsv_chi, moment_table, fock_matrices and
    fidelity_integrals."""
    names = {f.__code__: f.__name__ for f in (chi_core.tmsv_chi, chi_core.moment_table,
                                              fock_recon.fock_matrices,
                                              entanglement.fidelity_integrals)}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("objective", ["negativity", "fidelity"])
def test_a_sweep_builds_each_setting_once(objective):
    # k settings x 5 strategies in one chunk: one Fock build with one
    # moment table over the chunk's k kernels, and the settings' pipelines
    # built once, however the rows are ordered; building both eagerly
    # costs no call the objective would not make anyway
    etas = (0.9, 0.3, 0.6, 1.0)
    cfgs = [cfg_for(strategy.value, eta=eta, n_trunc=3, objective=objective)
            for strategy in Strategy for eta in etas]
    random.Random(1).shuffle(cfgs)
    calls = _call_counts(lambda: sweep(cfgs))
    # the four settings are one chunk: one squeezed vacuum, one Fock build
    # and one moment table, and one set of fidelity integrals for each of
    # its three pipeline kinds
    assert dict(calls) == {"tmsv_chi": 1, "moment_table": 1, "fock_matrices": 1,
                           "fidelity_integrals": 3}
    # a point is one setting and one pipeline
    once = {"tmsv_chi": 1, "moment_table": 1, "fock_matrices": 1,
            "fidelity_integrals": 1}
    for strategy in Strategy:
        cfg = cfg_for(strategy.value, n_trunc=3, objective=objective)
        assert dict(_call_counts(lambda: evaluate_point(cfg))) == once
    calls = _call_counts(lambda: main(["point", "--strategy", "coherent_after",
                                       "--s", "0.114", "--eta", "0.7", "--n-th", "0.1",
                                       "--n-trunc", "3", "--objective", objective]))
    assert dict(calls) == once


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_setting_matrices_are_float64(s):
    # the five strategies of a setting run three pipelines: no operation,
    # the operation before and after the channel; one Fock matrix and one
    # fidelity integral per cube, all float64, and one 5x5 block of origin
    # coefficients per cube
    cfgs = [cfg_for(strategy.value, s=s, n_trunc=3) for strategy in Strategy]
    # kind-major in order of first rows: no operation, before, after
    pipes, arrays = scenarios._pipelines(cfgs)
    assert pipes.tolist() == [0, 1, 2, 1, 2]
    kernels, traces, matrices, fidelities, origins = arrays
    assert all(a.dtype == np.float64 for a in arrays)
    assert kernels.shape == (3, 4, 4)
    assert traces.shape == fidelities.shape == (3, 5)
    assert matrices.shape == (3, 5, 16, 16) and origins.shape == (3, 5, 5, 5)
    # the no-operation stack's one term is padded with zero terms
    noop = pipes[0]
    for a in arrays[1:]:
        assert oracles.same_bits(a[noop, 1:], np.zeros_like(a[noop, 1:]))


def test_a_sweep_holds_one_chunk_at_a_time(monkeypatch):
    # each chunk's arrays go before the next chunk's are built, by
    # reference counting alone (the collector is off), so a sweep's memory
    # does not grow with its eta grid: five settings in chunks of two are
    # built as 2, 2 and 1, each by one Fock build over its kernels that
    # writes straight into the chunk's matrices (no copy of its own), and
    # no array of an earlier chunk is alive when a chunk is built (probed
    # where evaluate_points' own _pipelines call is entered and returns)
    builds, arrays = [], []
    original_fock = scenarios.fock_matrices

    def tracked(kernel, n_trunc, *stacks, out=None):
        got = original_fock(kernel, n_trunc, *stacks, out=out)
        builds.append((np.shape(kernel), out, got))
        return got

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    at_build, chunks, at_chunk = [], [], []
    original_pipelines = scenarios._pipelines

    def pipelines(cfgs):
        at_build.append((len(builds), alive(arrays)))
        chunks.append(len({cfg.channel for cfg in cfgs}))
        pipes, out = original_pipelines(cfgs)
        arrays.extend(weakref.ref(a) for a in out)
        ((shape, views, got),) = builds
        builds.clear()
        matrices = out[2]
        # the build returned its out: one view of matrices per pipeline kind
        assert got is views and all(v.base is matrices.base for v in views)
        at_chunk.append((len(cfgs), shape, [v.shape[:2] for v in views],
                         len(out[0]), matrices.shape[:2]))
        return pipes, out

    monkeypatch.setattr(scenarios, "CHUNK_SETTINGS", 2)
    monkeypatch.setattr(scenarios, "fock_matrices", tracked)
    monkeypatch.setattr(scenarios, "_pipelines", pipelines)
    etas = (0.2, 0.4, 0.6, 0.8, 1.0)
    cfgs = [cfg_for(strategy.value, eta=eta, n_trunc=3)
            for strategy in Strategy for eta in etas]
    enabled = gc.isenabled()
    gc.disable()
    try:
        sweep(cfgs)
    finally:
        if enabled:
            gc.enable()
    assert at_build == [(0, 0), (0, 0), (0, 0)] and chunks == [2, 2, 1]
    assert at_chunk == [(10, (2, 4, 4), [(2, 1), (2, 5), (2, 5)], 6, (6, 5)),
                        (10, (2, 4, 4), [(2, 1), (2, 5), (2, 5)], 6, (6, 5)),
                        (5, (1, 4, 4), [(1, 1), (1, 5), (1, 5)], 3, (3, 5))]
    assert len(arrays) == 5 * len(chunks) and alive(arrays) == 0


@pytest.mark.parametrize("n_trunc", [0, 3, 8])
def test_a_chunk_builds_each_setting_as_alone_bit_for_bit(n_trunc):
    # every array of every pipeline of a chunk (kernels and stacks, traces,
    # Fock matrices, fidelity integrals and origin coefficients) has the
    # bytes of the one-setting chunk, signed zeros included: s = 0, eta = 1
    # and n_th = 0, and all three pipeline kinds
    channels = [(1.0, 0.0), (0.3, 0.1), (0.7, 0.0), (1.0, 0.2), (0.05, 0.3)]
    for s in (0.0, 0.3):
        cfgs = [cfg_for(strategy.value, s=s, eta=eta, n_th=n_th, n_trunc=n_trunc)
                for strategy in Strategy for eta, n_th in channels]
        assert _assert_chunk_arrays_are_alone(cfgs) == 3 * len(channels)


def _assert_chunk_arrays_are_alone(cfgs):
    """Assert that each row's pipeline arrays in the chunk cfgs have the
    bytes of its one-row chunk, its kernel and its leading terms; the terms
    it lacks against the chunk's longest stack are +0, and every pipeline
    is some row's.  Returns the chunk's pipeline count."""
    pipes, chunk = scenarios._pipelines(cfgs)
    assert sorted(set(pipes.tolist())) == list(range(len(chunk[0])))
    for cfg, i in zip(cfgs, pipes):
        alone_pipes, alone = scenarios._pipelines([cfg])
        assert alone_pipes.tolist() == [0]
        assert chunk[0][i].tobytes() == alone[0][0].tobytes()
        for got, want in zip(chunk[1:], alone[1:]):
            n = want.shape[1]
            assert got.shape[2:] == want.shape[2:]
            assert got[i, :n].tobytes() == want[0].tobytes()
            assert oracles.same_bits(got[i, n:], np.zeros_like(got[i, n:]))
    return len(chunk[0])


def _has_negative_zero(a):
    return bool(np.signbit(a[a == 0.0]).any())


@pytest.mark.parametrize("n_trunc", [3, 5])
def test_a_kernel_term_zero_in_some_states_of_a_chunk_only(n_trunc):
    # at s = 5e-324 the cross-mode kernel entries are -5e-324 before the
    # channel; its two sqrt(eta) scalings keep them below eta = 0.25 and
    # round them to -0 above, so the operation after the channel meets a
    # term K_j,var that is 0 in some states of one chunk only.  Each state
    # still gets the bytes it gets alone, and every row is evaluate_point's
    # alone: the operation's output holds no -0 for such a +-0 term to flip
    s, etas = 5e-324, (0.05, 0.2, 0.3, 0.9)
    cfgs = [cfg_for(strategy.value, s=s, eta=eta, n_trunc=n_trunc)
            for strategy in Strategy for eta in etas]
    kernels, stacks = scenarios._raw_terms(
        s, [cfg.channel for cfg in cfgs[:len(etas)]], [(False, False)])[False, False]
    assert [k.hex() for k in kernels[:, 0, 2].tolist()] == [
        (-0.0).hex(), (-0.0).hex(), (-5e-324).hex(), (-5e-324).hex()]
    for mode in (1, 2):
        assert not _has_negative_zero(chi_core.coherent_op_terms(kernels, stacks, mode))
    _assert_chunk_arrays_are_alone(cfgs)
    alone = [_record_bits(evaluate_point(cfg)) for cfg in cfgs]
    assert [_record_bits(rec) for rec in sweep(cfgs)] == alone


def test_chunked_sweep_rows_are_evaluate_point_alone_bit_for_bit():
    # a grid that is not a multiple of the chunk size: full chunks and a
    # short last one, each row still the record evaluate_point gives alone
    etas = np.linspace(0.05, 1.0, scenarios.CHUNK_SETTINGS + 3)
    cfgs = [cfg_for(strategy, s=0.2, eta=float(eta), n_trunc=3, **kw)
            for strategy, kw in (("subtract_after", {}),
                                 ("coherent_before", {"t_override": 0.6}),
                                 ("coherent_after", {"objective": "fidelity"}))
            for eta in etas]
    alone = [_record_bits(evaluate_point(cfg)) for cfg in cfgs]
    assert [_record_bits(rec) for rec in sweep(cfgs)] == alone


def test_readme_sweep_allocation_peak():
    # measured with numpy 2.4: the 505-row README negativity sweep (101 eta
    # in chunks of CHUNK_SETTINGS = 8) peaks at 3.27 MiB, against 2.2 MiB
    # one setting at a time, 6.3 MiB in chunks of 16 and 39 MiB with all
    # 101 settings in one chunk (3.78, 2.2, 7.4 and 46 MiB while the final
    # pass gathered its rows' Fock matrices and each setting's build was
    # copied into the chunk's); a chunk that grows, or a chunk's arrays
    # kept past the next build, raise the process's peak resident memory
    cfgs = [cfg_for(strategy.value, s=0.029, eta=float(eta), n_th=0.1)
            for strategy in Strategy for eta in np.linspace(0.01, 1.0, 101)]
    sweep(cfgs[:5])
    tracemalloc.start()
    try:
        sweep(cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2 ** 20


def test_sweep_record_and_result_shapes():
    rec = SweepRecord(Strategy.NOOP, 0.1, 0.0, 1.0, 1.0, 0.5, 0.5, 0.6, 1.0)
    assert rec.flags == ""
    res = OptimizeResult(0.5, 1.25)
    assert res.flag == ""
    assert math.isclose(res.value, 1.25)
