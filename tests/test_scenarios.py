"""Strategy pipelines, weight optimization, and sweep bookkeeping."""

import math

import numpy as np
import pytest

from cvdistill.chi_core import (
    ChannelParams,
    CoherentOp,
    ZeroStateError,
    combine_terms,
    tmsv_chi,
)
from cvdistill.entanglement import (
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    teleportation_fidelity,
)
from cvdistill.fock_recon import fock_matrix
from cvdistill.scenarios import (
    OptimizeResult,
    ScenarioConfig,
    Strategy,
    SweepRecord,
    _PointEvaluator,
    _raw_terms,
    default_eta_grid,
    evaluate_point,
    optimize_t,
    run_strategy,
    sweep_eta,
)

import oracles


def cfg_for(strategy, s=0.114, eta=0.7, n_th=0.1, **kw):
    return ScenarioConfig(Strategy(strategy), s, ChannelParams(eta, n_th), **kw)


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


# ---------------------------------------------------------------------------
# pipelines

def test_noop_through_perfect_channel_is_input():
    state, p = run_strategy(cfg_for("noop", s=0.403, eta=1.0, n_th=0.0))
    ref = tmsv_chi(0.403)
    assert p == pytest.approx(1.0, abs=1e-14)
    assert state.poly == {(0, 0, 0, 0): pytest.approx(1.0)}
    np.testing.assert_allclose(state.kernel.quad, ref.kernel.quad, atol=1e-14)


def test_subtraction_needs_no_weight():
    state, p = run_strategy(cfg_for("subtract_before", s=0.403, eta=1.0,
                                    n_th=0.0))
    assert 0 < p < 1
    assert state.trace == pytest.approx(1.0, abs=1e-12)


def test_coherent_strategy_requires_weight():
    cfg = cfg_for("coherent_before")
    with pytest.raises(ValueError):
        run_strategy(cfg)
    with pytest.raises(ValueError):
        run_strategy(cfg, t=1.2)
    state, _ = run_strategy(cfg, t=0.9)
    assert state.trace == pytest.approx(1.0, abs=1e-12)


def test_weight_override_feeds_pipeline():
    cfg = cfg_for("coherent_after", t_override=0.8)
    a, _ = run_strategy(cfg)
    b, _ = run_strategy(cfg, t=0.8)
    assert a.poly.keys() == b.poly.keys()
    for key, val in a.poly.items():
        assert val == pytest.approx(b.poly[key], rel=1e-13)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_term_basis_matches_sequential_pipeline(strategy):
    cfg = cfg_for(strategy, s=0.403, eta=0.7, n_th=0.1)
    terms = _raw_terms(cfg)
    assert len(terms) == (5 if cfg.strategy.has_operation else 1)
    for t in (0.0, 0.3, 0.7, 1.0):
        op = CoherentOp.from_t(t)
        got = combine_terms(terms, op.t, op.r)
        want = oracles.sequential_pipeline(cfg, t)
        np.testing.assert_array_equal(got.kernel.quad, want.kernel.quad)
        scale = max(abs(c) for c in want.poly.values())
        for key in got.poly.keys() | want.poly.keys():
            assert abs(got.poly.get(key, 0) - want.poly.get(key, 0)) \
                <= 1e-13 * scale, (t, key)


def test_subtraction_from_vacuum_raises():
    with pytest.raises(ZeroStateError):
        run_strategy(cfg_for("subtract_before", s=0.0, eta=1.0, n_th=0.0))


def test_before_strategy_probability_ignores_channel():
    # trace preservation of the channel: heralding happens upstream of it
    ev_lo = _PointEvaluator(cfg_for("coherent_before", eta=0.3, n_th=0.3))
    ev_hi = _PointEvaluator(cfg_for("coherent_before", eta=0.9, n_th=0.3))
    for t in (0.2, 0.7, 1.0):
        assert ev_lo.probability(t) == pytest.approx(ev_hi.probability(t),
                                                     abs=1e-12)


def test_after_strategy_probability_tracks_channel():
    ev_lo = _PointEvaluator(cfg_for("subtract_after", eta=0.3, n_th=0.1))
    ev_hi = _PointEvaluator(cfg_for("subtract_after", eta=0.9, n_th=0.1))
    assert abs(ev_lo.probability(1.0) - ev_hi.probability(1.0)) > 1e-3


# ---------------------------------------------------------------------------
# weight optimization

def test_optimize_t_beats_fine_grid():
    cfg = cfg_for("coherent_before", s=0.029, eta=0.9, n_th=0.1)
    ev = _PointEvaluator(cfg)
    opt = optimize_t(cfg, evaluator=ev)
    assert opt.flag == ""
    lo = max(0.0, opt.t_opt - 0.01)
    hi = min(1.0, opt.t_opt + 0.01)
    fine = max(ev.objective(t) for t in np.linspace(lo, hi, 41))
    assert opt.value >= fine - 1e-6
    assert ev.objective(opt.t_opt) == pytest.approx(opt.value, abs=1e-12)


def test_optimize_t_is_deterministic():
    cfg = cfg_for("coherent_after", s=0.114, eta=0.85, n_th=0.1)
    ev = _PointEvaluator(cfg)
    a = optimize_t(cfg, evaluator=ev)
    b = optimize_t(cfg, evaluator=ev)
    assert (a.t_opt, a.value, a.flag) == (b.t_opt, b.value, b.flag)


def test_optimize_t_zero_objective_falls_back_to_probability():
    # far below the separation threshold nothing revives the after-channel
    # state, so the optimizer reports the most probable preparation instead
    cfg = cfg_for("coherent_after", s=0.029, eta=0.3, n_th=0.1)
    ev = _PointEvaluator(cfg)
    opt = optimize_t(cfg, evaluator=ev)
    assert opt.flag == "zero_objective"
    assert opt.value == 0.0
    probs = [ev.probability(t) for t in np.linspace(0.0, 1.0, 11)]
    assert ev.probability(opt.t_opt) >= max(probs) - 1e-9


def test_optimize_t_fidelity_objective():
    for strategy in ("coherent_before", "coherent_after"):
        cfg = cfg_for(strategy, s=0.114, eta=0.6, n_th=0.01,
                      objective="fidelity")
        ev = _PointEvaluator(cfg)
        opt = optimize_t(cfg, evaluator=ev)
        state, _ = ev.state(opt.t_opt)
        assert teleportation_fidelity(state) == pytest.approx(opt.value,
                                                              abs=1e-12)
        for probe in (0.0, 0.5, 1.0):
            assert opt.value >= ev.objective(probe) - 1e-12
        # the per-term objective against the combined, normalized state
        for t in (0.0, 0.3, 0.7, 1.0):
            assert ev.objective(t) == pytest.approx(
                teleportation_fidelity(ev.state(t)[0]), abs=1e-12)


def test_row_negativity_is_the_objective_at_t_opt():
    # a row's Fock matrix is the weighted sum of per-term matrices that the
    # optimizer scores, so the printed E_N is the objective value bit for bit
    for strategy in ("coherent_before", "coherent_after"):
        for eta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            cfg = cfg_for(strategy, s=0.114, eta=eta, n_th=0.1)
            rec = evaluate_point(cfg)
            assert rec.e_n_fock > 0.0
            assert rec.e_n_fock == _PointEvaluator(cfg).objective(rec.t_opt)


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
    ev_s = _PointEvaluator(cfg_for("subtract_before", s=0.029, eta=1.0,
                                   n_th=0.0))
    assert opt.value > ev_s.objective(1.0) + 0.1


# ---------------------------------------------------------------------------
# point records and sweeps

def test_evaluate_point_noop_matches_direct_measures():
    cfg = cfg_for("noop", s=0.403, eta=0.8, n_th=0.1)
    rec = evaluate_point(cfg)
    state, p = run_strategy(cfg)
    assert rec.strategy is Strategy.NOOP
    assert (rec.s, rec.n_th, rec.eta, rec.t_opt) == (0.403, 0.1, 0.8, 1.0)
    assert rec.e_n_fock == log_negativity(fock_matrix(state, cfg.n_trunc))
    assert rec.e_n_gauss == gaussian_log_negativity(covariance_from_chi(state))
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


def test_default_eta_grid():
    grid = default_eta_grid()
    assert len(grid) == 101
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(1.0)


def test_sweep_eta_orders_records():
    grid = [0.3, 0.6, 0.9]
    cfg = cfg_for("subtract_before", s=0.114, n_th=0.1)
    recs = sweep_eta(cfg, eta_grid=grid)
    assert [r.eta for r in recs] == grid
    assert all(r.strategy is Strategy.SUBTRACT_BEFORE for r in recs)
    assert all(r.s == 0.114 and r.n_th == 0.1 for r in recs)
    assert all(r.t_opt == 1.0 for r in recs)
    # entanglement decays as the channel gets lossier
    assert recs[0].e_n_gauss <= recs[1].e_n_gauss <= recs[2].e_n_gauss


def test_sweep_eta_pins_override_everywhere():
    cfg = cfg_for("coherent_after", s=0.114, n_th=0.05, t_override=0.9)
    recs = sweep_eta(cfg, eta_grid=[0.5, 1.0])
    assert [r.t_opt for r in recs] == [0.9, 0.9]


def test_sweep_record_and_result_shapes():
    rec = SweepRecord(Strategy.NOOP, 0.1, 0.0, 1.0, 1.0, 0.5, 0.5, 0.6, 1.0)
    assert rec.flags == ""
    res = OptimizeResult(0.5, 1.25)
    assert res.flag == ""
    assert math.isclose(res.value, 1.25)
