"""Strategy pipelines, weight optimization, and sweep bookkeeping."""

import math

import numpy as np
import pytest

from cvdistill import entanglement, scenarios
from cvdistill.chi_core import ZERO_INDEX, ChannelParams, CoherentOp, tmsv_chi
from cvdistill.entanglement import (
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
)
from cvdistill.cli import main, parse_run_config
from cvdistill.fock_recon import fock_matrix
from cvdistill.scenarios import (
    OptimizeResult,
    ScenarioConfig,
    Strategy,
    SweepRecord,
    _PointEvaluator,
    _raw_terms,
    evaluate_point,
    optimize_t,
    sweep,
)

import oracles
from oracles import ZeroStateError, teleportation_fidelity


def cfg_for(strategy, s=0.114, eta=0.7, n_th=0.1, **kw):
    return ScenarioConfig(Strategy(strategy), s, ChannelParams(eta, n_th), **kw)


def reference_state(cfg, t):
    """Normalized state and trace at weight t, by the one-weight reference
    path."""
    return oracles.normalize(oracles.sequential_pipeline(cfg, t))


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
    ev = _PointEvaluator(cfg_for("noop", s=0.403, eta=1.0, n_th=0.0))
    ref = tmsv_chi(0.403)
    assert ev.probability(1.0) == pytest.approx(1.0, abs=1e-14)
    assert ev.polys.shape == (1, 1, 1, 1, 1)
    assert ev.polys[0, 0, 0, 0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(ev.kernel, ref.kernel, atol=1e-14)


def test_subtraction_needs_no_weight():
    cfg = cfg_for("subtract_before", s=0.403, eta=1.0, n_th=0.0)
    state, p = reference_state(cfg, 1.0)
    assert 0 < p < 1
    assert state.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-12)
    assert _PointEvaluator(cfg).probability(1.0) == pytest.approx(p, rel=1e-12)


def test_coherent_strategy_requires_weight():
    cfg = cfg_for("coherent_before")
    with pytest.raises(ValueError):
        _PointEvaluator(cfg).covariance(1.2)
    state, _ = reference_state(cfg, 0.9)
    assert state.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-12)


def test_weight_override_feeds_pipeline():
    cfg = cfg_for("coherent_after", t_override=0.8)
    rec = evaluate_point(cfg)
    ev = _PointEvaluator(cfg)
    assert rec.t_opt == 0.8
    assert rec.e_n_fock == log_negativity(ev.rho(0.8))
    assert rec.fidelity == ev.fidelity(0.8)
    assert rec.p_success == ev.probability(0.8)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_term_basis_matches_sequential_pipeline(strategy):
    cfg = cfg_for(strategy, s=0.403, eta=0.7, n_th=0.1)
    kernel, polys = _raw_terms(cfg)
    assert len(polys) == (5 if cfg.strategy.has_operation else 1)
    ev = _PointEvaluator(cfg)
    for t in (0.0, 0.3, 0.7, 1.0):
        op = CoherentOp.from_t(t)
        got = oracles.combine_terms(kernel, polys, op.t, op.r)
        want = oracles.sequential_pipeline(cfg, t)
        np.testing.assert_array_equal(got.kernel, want.kernel)
        assert got.poly.shape == want.poly.shape
        scale = np.max(np.abs(want.poly))
        assert np.max(np.abs(got.poly - want.poly)) <= 1e-13 * scale, t
        ref, _ = oracles.normalize(want)
        np.testing.assert_allclose(ev.covariance(t),
                                   covariance_from_chi(ref.kernel, ref.poly),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_term_supports_are_pinned(strategy):
    # the monomials the Fock and fidelity consumers integrate, per term
    polys = _PointEvaluator(cfg_for(strategy)).polys
    union = int(np.count_nonzero(np.any(polys != 0, axis=0)))
    per_term = [int(np.count_nonzero(p)) for p in polys]
    if strategy == "noop":
        assert (union, per_term) == (1, [1])
    else:
        assert (union, per_term) == (46, [14, 22, 24, 22, 14])


def test_subtraction_from_vacuum_raises():
    with pytest.raises(ZeroStateError):
        reference_state(cfg_for("subtract_before", s=0.0, eta=1.0, n_th=0.0),
                        1.0)


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
    opt = optimize_t(ev)
    assert opt.flag == ""
    lo = max(0.0, opt.t_opt - 0.01)
    hi = min(1.0, opt.t_opt + 0.01)
    fine = max(ev.objective(t) for t in np.linspace(lo, hi, 41))
    assert opt.value >= fine - 1e-6
    assert ev.objective(opt.t_opt) == pytest.approx(opt.value, abs=1e-12)


def test_optimize_t_is_deterministic():
    cfg = cfg_for("coherent_after", s=0.114, eta=0.85, n_th=0.1)
    ev = _PointEvaluator(cfg)
    a = optimize_t(ev)
    b = optimize_t(ev)
    assert (a.t_opt, a.value, a.flag) == (b.t_opt, b.value, b.flag)


def test_optimize_t_zero_objective_falls_back_to_probability():
    # far below the separation threshold nothing revives the after-channel
    # state, so the optimizer reports the most probable preparation instead
    cfg = cfg_for("coherent_after", s=0.029, eta=0.3, n_th=0.1)
    ev = _PointEvaluator(cfg)
    opt = optimize_t(ev)
    assert opt.flag == "zero_objective"
    assert opt.value == 0.0
    probs = [ev.probability(t) for t in np.linspace(0.0, 1.0, 11)]
    assert ev.probability(opt.t_opt) >= max(probs) - 1e-9
    # a separable state whose probability is the same at every weight: the
    # tie breaks toward the smallest t
    flat = optimize_t(_PointEvaluator(cfg_for("noop", eta=0.05, n_th=0.5)))
    assert (flat.t_opt, flat.value, flat.flag) == (0.0, 0.0, "zero_objective")


def test_optimize_t_fidelity_objective():
    for strategy in ("coherent_before", "coherent_after"):
        cfg = cfg_for(strategy, s=0.114, eta=0.6, n_th=0.01,
                      objective="fidelity")
        ev = _PointEvaluator(cfg)
        opt = optimize_t(ev)
        state, _ = reference_state(cfg, opt.t_opt)
        assert teleportation_fidelity(state) == pytest.approx(opt.value,
                                                              abs=1e-12)
        for probe in (0.0, 0.5, 1.0):
            assert opt.value >= ev.objective(probe) - 1e-12
        # the per-term objective against the one-weight reference state
        for t in (0.0, 0.3, 0.7, 1.0):
            assert ev.objective(t) == pytest.approx(
                teleportation_fidelity(reference_state(cfg, t)[0]), abs=1e-12)


def test_row_negativity_is_the_objective_at_t_opt():
    # a row's Fock matrix is the weighted sum of per-term matrices that the
    # optimizer scores, so the printed E_N is the objective value bit for bit
    for strategy in ("coherent_before", "coherent_after"):
        for eta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            cfg = cfg_for(strategy, s=0.114, eta=eta, n_th=0.1)
            rec = evaluate_point(cfg)
            assert rec.e_n_fock > 0.0
            assert rec.e_n_fock == _PointEvaluator(cfg).objective(rec.t_opt)


def test_row_fidelity_and_probability_are_the_evaluator_at_t_opt():
    # fidelity and p_success come from the same per-term sums and trace the
    # fidelity objective scores, so a row prints the optimizer's values
    for strategy in ("coherent_before", "coherent_after"):
        for eta in np.round(np.arange(0.1, 1.01, 0.1), 10):
            cfg = cfg_for(strategy, s=0.114, eta=float(eta), n_th=0.1,
                          objective="fidelity")
            rec = evaluate_point(cfg)
            ev = _PointEvaluator(cfg)
            assert rec.flags == ""
            assert rec.fidelity == ev.objective(rec.t_opt)
            assert rec.p_success == ev.probability(rec.t_opt)


GRID = np.round(np.arange(0.0, 1.0 + scenarios.GRID_STEP / 2,
                          scenarios.GRID_STEP), 10)


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_grid_values_are_the_objective_bit_for_bit(n_trunc):
    # the optimizer scores the grid in one stacked call; each value is the
    # one-weight objective's, and a vanishing state reads -inf for None
    rng = np.random.default_rng(300 + n_trunc)
    for strategy in Strategy:
        for objective in ("negativity", "fidelity"):
            cfg = cfg_for(strategy.value, s=float(rng.uniform(0.01, 0.8)),
                          eta=float(rng.uniform(0.05, 1.0)),
                          n_th=float(rng.uniform(0.0, 0.5)),
                          n_trunc=n_trunc, objective=objective)
            ev = _PointEvaluator(cfg)
            want = [ev.objective(t) for t in GRID]
            assert ev.objectives(GRID).tolist() == [
                -math.inf if v is None else v for v in want], cfg
            assert ev.probabilities(GRID).tolist() == [ev.probability(t)
                                                       for t in GRID]
        assert ev.matrices.dtype == float
    ev = _PointEvaluator(cfg_for("coherent_before", s=0.0, n_trunc=n_trunc))
    values = ev.objectives(GRID)
    assert values[-1] == -math.inf and ev.objective(1.0) is None
    assert values[:-1].tolist() == [ev.objective(t) for t in GRID[:-1]]


def test_stacked_weights_keep_the_range_check():
    ev = _PointEvaluator(cfg_for("coherent_after"))
    for ts in ([0.5, 1.2], [-0.1], [0.2, math.nan]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ev.objectives(ts)
        with pytest.raises(ValueError):
            ev.probabilities(ts)


def test_cutoff_zero_rows_are_unchanged(capsys):
    # at n_trunc 0 rho^T1 is 1 x 1 and has no odd block; the objective is 0
    # on the whole grid, so the coherent rows fall back to the most probable
    # weight, as they printed before the blocked solve
    for strategy in Strategy:
        cfg = cfg_for(strategy.value, s=0.3, eta=0.7, n_th=0.1, n_trunc=0)
        rec = evaluate_point(cfg)
        rho = _PointEvaluator(cfg).rho(rec.t_opt)
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
        ts.append(optimize_t(_PointEvaluator(cfg)).t_opt)
    assert ts[0] > ts[1] > ts[2]


def test_coherent_beats_plain_subtraction_without_loss():
    cfg_c = cfg_for("coherent_before", s=0.029, eta=1.0, n_th=0.0)
    opt = optimize_t(_PointEvaluator(cfg_c))
    ev_s = _PointEvaluator(cfg_for("subtract_before", s=0.029, eta=1.0,
                                   n_th=0.0))
    assert opt.value > ev_s.objective(1.0) + 0.1


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
        covariance_from_chi(state.kernel, state.poly))
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


def test_sweep_rows_go_through_the_module_evaluate_point(monkeypatch):
    # wrappers installed as scenarios.evaluate_point see every sweep row
    seen = []
    original = scenarios.evaluate_point

    def counted(cfg):
        seen.append(cfg)
        return original(cfg)

    monkeypatch.setattr(scenarios, "evaluate_point", counted)
    cfgs = [cfg_for("noop", eta=eta) for eta in (0.5, 1.0)]
    assert [r.eta for r in sweep(cfgs)] == [0.5, 1.0]
    assert seen == cfgs


def test_sweep_record_and_result_shapes():
    rec = SweepRecord(Strategy.NOOP, 0.1, 0.0, 1.0, 1.0, 0.5, 0.5, 0.6, 1.0)
    assert rec.flags == ""
    res = OptimizeResult(0.5, 1.25)
    assert res.flag == ""
    assert math.isclose(res.value, 1.25)
