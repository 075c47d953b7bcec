"""End-to-end acceptance gate.

One test per shipped claim, each printing a single [PASS]/[FAIL] line with
the measured numbers (visible with pytest -s; the -v test listing carries the
same verdict).  Tolerances are part of the claims and are asserted exactly as
stated; nothing here is tuned to make a test green.
"""

import itertools
import json
import math

import numpy as np

from cvdistill.chi_core import ChannelParams, moment_table
from cvdistill.cli import main
from cvdistill.entanglement import (
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    origin_coefficients,
    partial_transpose,
    thermal_occupation,
)
from cvdistill.scenarios import (
    ScenarioConfig,
    Strategy,
    evaluate_point,
    optimize_t,
    sweep,
)
from oracles import (
    ZERO_INDEX,
    CoherentOp,
    Row,
    apply_coherent_op,
    channel_state,
    fock_matrix,
    hermiticity_defect,
    normalize,
    quadrature_fock_elements,
    sequential_pipeline,
    teleportation_fidelity,
    tmsv_state,
)

FIG2B = dict(s=0.029, n_th=0.1)


def report(number, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {detail}")
    return ok


def point_json(capsys, *args):
    assert main(["point", *args, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def scenario(strategy, s, eta, n_th, **kw):
    return ScenarioConfig(Strategy(strategy), s, ChannelParams(eta, n_th), **kw)


def test_criterion_01_tmsv_negativity_closed_form(capsys):
    worst_fock = worst_gauss = 0.0
    for s in (0.029, 0.114, 0.403):
        payload = point_json(capsys, "--strategy", "noop", "--s", str(s),
                             "--eta", "1.0", "--n-th", "0.1",
                             "--n-trunc", "10")
        want = 2.0 * s * math.log2(math.e)
        worst_fock = max(worst_fock, abs(payload["E_N"] - want))
        worst_gauss = max(worst_gauss, abs(payload["E_N_gauss"] - want))
    ok = worst_fock < 1e-3 and worst_gauss < 1e-9
    report(1, ok, f"lossless E_N vs 2s*log2(e): fock off by {worst_fock:.2e} "
                  f"(tol 1e-3), gaussian off by {worst_gauss:.2e} (tol 1e-9)")
    assert ok


def test_criterion_02_separation_thresholds():
    crossings = {}
    for s, target in ((0.029, 0.780), (0.114, 0.495)):
        recs = sweep([scenario("noop", s, float(eta), 0.1, n_trunc=3)
                      for eta in np.linspace(0.01, 1.0, 101)])
        dead = [r.eta for r in recs if r.e_n_gauss == 0.0]
        live = [r.eta for r in recs if r.e_n_gauss > 0.0]
        crossing = (max(dead) + min(live)) / 2.0
        crossings[s] = crossing
        assert max(dead) < min(live)  # single transition
    ok = (abs(crossings[0.029] - 0.780) <= 0.01
          and abs(crossings[0.114] - 0.495) <= 0.01)
    report(2, ok, "gaussian negativity dies at eta = "
                  f"{crossings[0.029]:.4f} (want 0.780 +/- 0.01) and "
                  f"{crossings[0.114]:.4f} (want 0.495 +/- 0.01)")
    assert ok


def test_criterion_03_subtraction_order_equivalence():
    worst = 0.0
    for s, eta in itertools.product((0.029, 0.403), (0.2, 0.5, 0.8)):
        before = Row(scenario("subtract_before", s, eta, 0.0))
        after = Row(scenario("subtract_after", s, eta, 0.0))
        w = before.weights([1.0])
        diff = np.max(np.abs(before.rhos(w)[0] - after.rhos(w)[0]))
        worst = max(worst, float(diff))
    ok = worst < 1e-10
    report(3, ok, "subtract before/after at n_th=0 agree elementwise to "
                  f"{worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_04_truncation_lower_bound():
    # the cutoff-n matrix is the leading (n+1)^4 block of the cutoff-8 one, so
    # each point builds one certified n_trunc 8 matrix and reads the lower
    # cutoffs off it; fock_matrix at n_trunc 5 (every point) and at all six
    # cutoffs (one coherent point) must agree with those blocks
    etas = np.round(np.arange(0.1, 1.01, 0.1), 10)
    truncs = (3, 4, 5, 6, 7, 8)
    worst_step = worst_drift = worst_block = 0.0
    for strategy in Strategy:
        for eta in etas:
            cfg = scenario(strategy.value, eta=float(eta), **FIG2B)
            t = optimize_t(cfg).t_opt \
                if strategy.optimizes_t else 1.0
            state, _ = normalize(sequential_pipeline(cfg, t))
            rho8 = fock_matrix(state, 8).reshape((9,) * 4)
            blocks = [rho8[:n + 1, :n + 1, :n + 1, :n + 1]
                      .reshape((n + 1) ** 2, (n + 1) ** 2) for n in truncs]
            full_check = (strategy, eta) == (Strategy.COHERENT_AFTER, 0.5)
            for n, block in zip(truncs, blocks):
                if full_check or n == 5:
                    worst_block = max(worst_block, float(np.max(np.abs(
                        fock_matrix(state, n) - block))))
            e = [log_negativity(block) for block in blocks]
            worst_step = max(worst_step,
                             max(a - b for a, b in zip(e, e[1:])))
            worst_drift = max(worst_drift, abs(e[5] - e[2]))
    ok = worst_step <= 1e-12 and worst_drift < 1e-3 and worst_block <= 1e-13
    report(4, ok, "E_N nondecreasing in n_trunc on a 10-point eta subsample "
                  f"of all five strategies (worst dip {worst_step:.2e}); "
                  f"5->8 change at most {worst_drift:.2e} (tol 1e-3); "
                  f"cutoff blocks off by {worst_block:.2e} (tol 1e-13)")
    assert ok


def test_criterion_05_quadrature_oracle_equivalence():
    cfg = scenario("coherent_after", 0.114, 0.5, 0.1)
    state, _ = normalize(sequential_pipeline(cfg, 0.7))
    indices = [idx for idx in itertools.product(range(9), repeat=4)
               if sum(idx) <= 8]
    grid_vals = quadrature_fock_elements(state, indices)
    rho = fock_matrix(state, 8)
    worst = max(abs(grid_vals[idx]
                    - complex(rho[idx[0] * 9 + idx[1], idx[2] * 9 + idx[3]]))
                for idx in indices)
    ok = worst < 1e-6
    report(5, ok, f"analytic vs 4-D quadrature on {len(indices)} elements "
                  f"(i+j+k+l <= 8): worst |diff| {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_06_robustness_crossover():
    before_half = evaluate_point(scenario("coherent_before", eta=0.5, **FIG2B))
    after_half = evaluate_point(scenario("coherent_after", eta=0.5, **FIG2B))
    survival = {}
    for eta in (0.25, 0.275, 0.3, 0.325, 0.35):
        rec = evaluate_point(scenario("coherent_before", eta=eta, **FIG2B))
        survival[eta] = rec.e_n_fock
    ok = (before_half.e_n_fock > 0.0
          and after_half.e_n_fock == 0.0
          and survival[0.35] > 0.0
          and survival[0.25] == 0.0)
    dead = max(eta for eta, e in survival.items() if e == 0.0)
    report(6, ok, "at eta=0.5 coherent-before E_N = "
                  f"{before_half.e_n_fock:.4f} > 0 = coherent-after; "
                  f"before-strategy dies between eta={dead} and 0.35 "
                  "(want 0.3 +/- 0.05)")
    assert ok


def test_criterion_07_non_gaussian_survival():
    window = []
    for eta in (0.30, 0.3125, 0.325, 0.3375, 0.35):
        rec = evaluate_point(scenario("coherent_before", eta=eta, **FIG2B))
        window.append((eta, rec.e_n_gauss, rec.e_n_fock))
    hits = [(eta, g, f) for eta, g, f in window if g == 0.0 and f > 0.0]
    ok = bool(hits)
    detail = ", ".join(f"eta={eta}: fock {f:.4f}" for eta, _, f in hits) \
        or "no point with gaussian-blind entanglement"
    report(7, ok, "covariance route reports separable while Fock route "
                  f"detects entanglement at {detail}")
    assert ok


def test_criterion_08_fidelity_anchors_and_no_crossover():
    f_vac = teleportation_fidelity(tmsv_state(0.0))
    worst_tmsv = max(abs(teleportation_fidelity(tmsv_state(s))
                         - 1.0 / (1.0 + math.exp(-2 * s)))
                     for s in (0.029, 0.114, 0.403))
    neg_diff, fid_diff = [], []
    for eta in np.round(np.arange(0.55, 0.96, 0.05), 10):
        b = evaluate_point(scenario("coherent_before", 0.114, float(eta), 0.1))
        a = evaluate_point(scenario("coherent_after", 0.114, float(eta), 0.1))
        neg_diff.append(b.e_n_fock - a.e_n_fock)
        fid_diff.append(b.fidelity - a.fidelity)
    neg_crosses = min(neg_diff) < 0.0 < max(neg_diff)
    fid_crosses = min(fid_diff) < 0.0 < max(fid_diff)
    ok = (abs(f_vac - 0.5) < 1e-9 and worst_tmsv < 1e-6
          and neg_crosses and not fid_crosses)
    report(8, ok, f"vacuum F off by {abs(f_vac - 0.5):.1e} (tol 1e-9), "
                  f"squeezed-resource F off by {worst_tmsv:.1e} (tol 1e-6); "
                  f"negativity curves cross: {neg_crosses}, "
                  f"fidelity curves cross: {fid_crosses} (want True/False)")
    assert ok


def test_criterion_09_probability_flatness_and_occupation():
    recs = sweep([scenario("subtract_before", 0.114, float(eta), 0.1, n_trunc=3)
                  for eta in np.linspace(0.1, 1.0, 11)])
    spread = max(r.p_success for r in recs) - min(r.p_success for r in recs)
    n_opt = thermal_occupation(1064e-9, 300.0)
    rel = abs(n_opt - 2.61e-20) / 2.61e-20
    ok = spread <= 1e-12 and rel <= 0.01
    report(9, ok, "subtract-before success probability spread over eta "
                  f"{spread:.2e} (tol 1e-12); occupation at 1064nm/300K "
                  f"{n_opt:.6e} vs 2.61e-20 quoted: off by {rel:.2%} (tol 1%)")
    assert ok


def test_criterion_10_property_suite():
    rng = np.random.default_rng(12345)
    strategies = list(Strategy)
    worst_herm = worst_trace = worst_odd = worst_routes = 0.0
    pt_exact = True
    for draw in range(100):
        s = float(rng.uniform(0.01, 0.6))
        eta = float(rng.uniform(0.05, 1.0))
        n_th = float(rng.uniform(0.0, 0.5))
        t = float(rng.uniform(0.0, 1.0))
        strategy = strategies[int(rng.integers(len(strategies)))]
        channel = ChannelParams(eta, n_th)

        pre = tmsv_state(s)
        if strategy.has_operation and strategy.operation_first:
            op = CoherentOp.from_t(t)
            pre = apply_coherent_op(apply_coherent_op(pre, 1, op), 2, op)
        mid = channel_state(pre, 1, channel)
        post = channel_state(mid, 2, channel)
        worst_trace = max(worst_trace,
                          abs(post.poly[ZERO_INDEX] - pre.poly[ZERO_INDEX]))
        if strategy.has_operation and not strategy.operation_first:
            op = CoherentOp.from_t(t)
            post = apply_coherent_op(apply_coherent_op(post, 1, op), 2, op)
        worst_herm = max(worst_herm, hermiticity_defect(post))

        table = moment_table(post.kernel, (2, 4, 2, 2))
        for odd in ((1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (0, 3, 0, 0)):
            worst_odd = max(worst_odd, abs(table[odd]))

        if post.poly[ZERO_INDEX] != 0.0:
            state, _ = normalize(post)
            rho = fock_matrix(state, 2)
            back = partial_transpose(partial_transpose(rho))
            pt_exact = pt_exact and bool(
                np.array_equal(back, rho))

        if draw % 10 == 9:
            noop_state, _ = normalize(
                channel_state(channel_state(tmsv_state(s), 1, channel),
                              2, channel))
            e_f = log_negativity(fock_matrix(noop_state, 10))
            e_g = gaussian_log_negativity(
                covariance_from_chi(noop_state.kernel,
                                    origin_coefficients(noop_state.poly)))
            worst_routes = max(worst_routes, abs(e_f - e_g))

    ok = (worst_herm <= 1e-12 and worst_trace <= 1e-14 and pt_exact
          and worst_odd == 0.0 and worst_routes < 5e-3)
    report(10, ok, "100 deterministic draws: hermiticity defect <= "
                   f"{worst_herm:.1e}, channel trace drift <= "
                   f"{worst_trace:.1e}, partial transpose involutive: "
                   f"{pt_exact}, odd moments <= {worst_odd:.1e}, "
                   f"fock/gaussian negativity gap <= {worst_routes:.1e}")
    assert ok
