"""Fock-basis reconstruction against series oracles and brute quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from cvdistill import chi_core, fock_recon
from cvdistill.chi_core import (
    ChannelParams,
    CoherentOp,
    gaussian_kernel,
    moment_table,
    tmsv_chi,
)
from cvdistill.fock_recon import (
    PrecisionError,
    _augmented_kernel,
    _laguerre_coeffs,
    certify,
    displacement_fock_poly,
    fock_matrices,
    fock_matrix,
)
from cvdistill.scenarios import ScenarioConfig, Strategy, _raw_terms

import oracles
from oracles import (
    QuadratureGrid,
    apply_coherent_op,
    channel_state,
    fock_element,
    normalize,
    quadrature_fock_element,
    quadrature_fock_elements,
)


def subtracted_tmsv(s):
    op = CoherentOp(1.0, 0.0)
    st = apply_coherent_op(tmsv_chi(s), 1, op)
    st = apply_coherent_op(st, 2, op)
    return normalize(st)[0]


def channelled_tmsv(s, eta, n_th):
    ch = ChannelParams(eta, n_th)
    st = channel_state(tmsv_chi(s), 1, ch)
    return channel_state(st, 2, ch)


# ---------------------------------------------------------------------------
# displacement matrix elements

def test_displacement_poly_low_orders():
    assert displacement_fock_poly(0, 0) == {(0, 0): 1.0}
    assert displacement_fock_poly(1, 0) == {(1, 0): pytest.approx(1.0)}
    assert displacement_fock_poly(0, 1) == {(0, 1): pytest.approx(-1.0)}


def test_displacement_poly_matches_scipy():
    pts = (0.31 - 0.44j, 1.2 + 0.05j, -0.9j, 2.0)
    for m in range(7):
        for n in range(7):
            poly = displacement_fock_poly(m, n)
            for xi in pts:
                val = sum(c * xi ** a * np.conj(xi) ** b
                          for (a, b), c in poly.items())
                val *= math.exp(-abs(xi) ** 2 / 2)
                ref = oracles.displacement_element(m, n, xi)
                np.testing.assert_allclose(val, ref, atol=1e-12)


def test_displacement_poly_transpose_symmetry():
    # <m|D(xi)|n> = conj(<n|D(-xi)|m>)
    for m, n in ((0, 3), (2, 5), (4, 1)):
        xi = 0.7 - 0.2j
        a = sum(c * xi ** p * np.conj(xi) ** q
                for (p, q), c in displacement_fock_poly(m, n).items())
        b = sum(c * (-xi) ** p * np.conj(-xi) ** q
                for (p, q), c in displacement_fock_poly(n, m).items())
        np.testing.assert_allclose(a, np.conj(b), atol=1e-13)


def test_displacement_poly_rejects_negative_indices():
    with pytest.raises(ValueError):
        displacement_fock_poly(-1, 0)


def test_laguerre_coefficients_match_exact_recurrence():
    # closed form rounded once == exact rational recurrence rounded once
    for n in range(21):
        for alpha in range(21):
            want = [float(c) for c in oracles.laguerre_coeffs_recurrence(n, alpha)]
            assert _laguerre_coeffs(n, alpha) == want


# ---------------------------------------------------------------------------
# analytic elements

def test_vacuum_density_matrix():
    st = tmsv_chi(0.0)
    assert fock_element(st, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-13)
    assert abs(fock_element(st, 1, 0, 1, 0)) < 1e-13
    assert abs(fock_element(st, 0, 0, 1, 1)) < 1e-13


def test_tmsv_diagonal_closed_form():
    s = 0.403
    st = tmsv_chi(s)
    for n in range(4):
        want = oracles.tmsv_fock_diag(s, n)
        got = fock_element(st, n, n, n, n)
        np.testing.assert_allclose(got, want, rtol=1e-11)


def test_tmsv_schmidt_off_diagonal():
    s = 0.25
    st = tmsv_chi(s)
    lam = math.tanh(s)
    got = fock_element(st, 0, 0, 2, 2)
    np.testing.assert_allclose(got, lam ** 2 / math.cosh(s) ** 2, rtol=1e-11)
    # elements that break the photon-number correlation vanish
    assert abs(fock_element(st, 0, 1, 0, 0)) < 1e-13
    assert abs(fock_element(st, 1, 1, 2, 1)) < 1e-13


def test_fock_element_requires_normalized_state():
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(tmsv_chi(0.4), 1, op)
    with pytest.raises(ValueError):
        fock_element(raw, 0, 0, 0, 0)


def test_subtracted_tmsv_elements():
    s = 0.6
    st = subtracted_tmsv(s)
    c = oracles.subtracted_tmsv_schmidt(s, 6)
    rho = fock_matrix(st, 5)
    d = 6
    for n in range(4):
        np.testing.assert_allclose(rho[n * d + n, n * d + n],
                                   c[n] ** 2, rtol=1e-10)
    np.testing.assert_allclose(rho[0, 2 * d + 2], c[0] * c[2],
                               rtol=1e-10)


# ---------------------------------------------------------------------------
# full matrix assembly

def test_fock_matrix_trace_and_hermiticity():
    st = channelled_tmsv(0.403, 0.7, 0.1)
    rho = fock_matrix(st, 5)
    assert np.trace(rho).real <= 1.0 + 1e-9
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.min(np.diag(rho).real) >= -1e-10


def test_certify_passes_states_and_refuses_the_rest():
    rho = fock_matrix(channelled_tmsv(0.403, 0.7, 0.1), 3)
    assert certify(rho) is rho
    over = np.diag([1.0 + 2e-6, 0.0, 0.0, 0.0])
    negative = np.diag([0.5, 0.5 + 2e-6, -2e-6, 0.0])
    for bad in (over, negative):
        with pytest.raises(PrecisionError):
            certify(bad)


def test_truncated_tmsv_trace_partial_sum():
    s = 0.403
    rho = fock_matrix(tmsv_chi(s), 5)
    want = sum(oracles.tmsv_fock_diag(s, n) for n in range(6))
    np.testing.assert_allclose(np.trace(rho).real, want, rtol=1e-11)
    assert np.trace(rho).real == pytest.approx(9.999901880869390e-01, abs=1e-11)


def test_trace_monotone_in_truncation():
    st = channelled_tmsv(0.3, 0.6, 0.4)
    traces = [np.trace(fock_matrix(st, n)).real for n in range(2, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
    assert traces[-1] <= 1.0 + 1e-9


def test_thermal_product_state_is_diagonal():
    st = channelled_tmsv(0.0, 0.5, 0.8)  # vacuum in, thermal product out
    rho = fock_matrix(st, 3)
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-12
    # geometric photon-number distribution on each mode
    n_eff = (1 - 0.5) * 0.8
    p0 = 1 / (1 + n_eff)
    np.testing.assert_allclose(rho[0, 0], p0 * p0, rtol=1e-10)


def test_partial_trace_is_single_mode_state():
    st = subtracted_tmsv(0.5)
    rho = fock_matrix(st, 4)
    d = 5
    full = rho.reshape(d, d, d, d)
    reduced = np.einsum("ijkj->ik", full)
    np.testing.assert_allclose(reduced, reduced.conj().T, atol=1e-12)
    assert np.min(np.diag(reduced).real) >= -1e-10
    assert np.trace(reduced).real <= 1.0 + 1e-9


def test_builder_matches_elementwise_route():
    ch = ChannelParams(0.55, 0.15)
    st = apply_coherent_op(tmsv_chi(0.3), 1, CoherentOp.from_t(0.6))
    st = apply_coherent_op(st, 2, CoherentOp.from_t(0.6))
    st = channel_state(st, 1, ch)
    st = channel_state(st, 2, ch)
    st, _ = normalize(st)
    rho = fock_matrix(st, 3)
    d = 4
    for i, j, k, l in ((0, 0, 0, 0), (1, 2, 0, 1), (3, 3, 1, 1), (2, 0, 0, 2)):
        np.testing.assert_allclose(rho[i * d + j, k * d + l],
                                   fock_element(st, i, j, k, l), atol=1e-12)


def test_fock_matrices_reject_empty_support():
    st = tmsv_chi(0.2)
    for polys in ([], np.zeros((1, 1, 1, 1, 1)), np.zeros((2, 3, 3, 3, 3))):
        with pytest.raises(ValueError, match="empty polynomial support"):
            fock_matrices(st.kernel, 2, polys)


def test_fock_matrices_share_one_support_across_polynomials():
    # one call serves every t of the operated family on a fixed kernel
    ch = ChannelParams(0.8, 0.2)
    base = channel_state(
        channel_state(tmsv_chi(0.4), 1, ch), 2, ch)
    states = []
    for t in (0.3, 0.9):
        op = CoherentOp.from_t(t)
        st = apply_coherent_op(apply_coherent_op(base, 1, op), 2, op)
        states.append(normalize(st)[0])
    got = fock_matrices(base.kernel, 3, [st.poly for st in states])
    assert got.shape == (2, 16, 16)
    for rho, st in zip(got, states):
        np.testing.assert_allclose(rho, fock_matrix(st, 3), atol=1e-13)


def _same_bits(a, b):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8, 11])
def test_fock_matrices_equal_the_per_entry_route_bit_for_bit(n_trunc):
    rng = np.random.default_rng(n_trunc)
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))),
                             n_trunc)
        kernel, polys = _raw_terms(cfg)
        got = fock_matrices(kernel, n_trunc, polys)
        want = oracles.fock_matrices_by_entry(kernel, n_trunc, polys)
        assert _same_bits(got, want), cfg


def _random_terms(rng, n_trunc):
    """The raw terms of one random configuration of each strategy."""
    cases = []
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))),
                             n_trunc)
        cases.append(_raw_terms(cfg))
    return cases


def _plan_misses():
    return (chi_core._moment_plan.cache_info().misses,
            fock_recon._fock_plan.cache_info().misses)


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_charge_rule_changes_no_bit(monkeypatch, n_trunc):
    # phase_charges returning zeros makes moment_table and fock_matrices
    # compute every entry, as the recursion and the sums did without the rule
    rng = np.random.default_rng(100 + n_trunc)
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    cases = _random_terms(rng, n_trunc)

    def run():
        return [(moment_table(_augmented_kernel(kernel), (7, 6, 8, 5)),
                 moment_table(gaussian_kernel(r.T @ kernel @ r
                                              + [[0.0, 1.0], [1.0, 0.0]]), (9, 8)),
                 fock_matrices(kernel, n_trunc, polys))
                for kernel, polys in cases]

    chi_core._moment_plan.cache_clear()
    fock_recon._fock_plan.cache_clear()
    sparse = run()
    planned = _plan_misses()

    def no_charges(cov):
        return np.zeros(len(cov), dtype=int)
    monkeypatch.setattr(chi_core, "phase_charges", no_charges)
    monkeypatch.setattr(fock_recon, "phase_charges", no_charges)
    full = run()
    # the charges are part of both plan keys, so the full run plans every
    # table and matrix anew rather than reading the sparse plans
    assert _plan_misses() == tuple(2 * m for m in planned)
    for got, want in zip(sparse, full):
        for a, b in zip(got, want):
            assert _same_bits(a, b)


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_cached_plan_moves_no_bit(n_trunc):
    # a call that reads the plans another configuration built gives the
    # bits of a cold call
    rng = np.random.default_rng(300 + n_trunc)
    for (kernel, polys), (other, other_polys) in zip(_random_terms(rng, n_trunc),
                                                     _random_terms(rng, n_trunc)):
        chi_core._moment_plan.cache_clear()
        fock_recon._fock_plan.cache_clear()
        cold = fock_matrices(kernel, n_trunc, polys)
        chi_core._moment_plan.cache_clear()
        fock_recon._fock_plan.cache_clear()
        fock_matrices(other, n_trunc, other_polys)
        warm = fock_matrices(kernel, n_trunc, polys)
        assert fock_recon._fock_plan.cache_info().hits == 1
        assert _same_bits(warm, cold)


def test_each_support_gets_its_own_plan():
    # noop's support is one monomial, coherent_after's 46
    ch = ChannelParams(0.6, 0.2)
    cases = [_raw_terms(ScenarioConfig(strategy, 0.3, ch, 3))
             for strategy in (Strategy.NOOP, Strategy.COHERENT_AFTER, Strategy.NOOP)]
    fock_recon._fock_plan.cache_clear()
    got = [fock_matrices(kernel, 3, polys) for kernel, polys in cases]
    info = fock_recon._fock_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    for (kernel, polys), rho in zip(cases, got):
        assert _same_bits(rho, oracles.fock_matrices_by_entry(kernel, 3, polys))


def test_cached_fock_plan_is_read_only():
    kernel, polys = _raw_terms(ScenarioConfig(Strategy.COHERENT_BEFORE, 0.3,
                                              ChannelParams(0.7, 0.1), 3))
    fock_matrices(kernel, 3, polys)
    support = tuple(map(tuple, np.argwhere(np.any(polys != 0, axis=0)).tolist()))
    hits = fock_recon._fock_plan.cache_info().hits
    _, rows, cols, classes = fock_recon._fock_plan(4, support, (1, -1, -1, 1))
    assert fock_recon._fock_plan.cache_info().hits == hits + 1
    arrays = [rows, cols, *(x for c in classes for x in c)]
    assert len(arrays) > 2 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        classes[0][2][0, 0] = 0


def test_augmented_kernel_wants_an_exactly_symmetric_kernel():
    kernel = tmsv_chi(0.4).kernel
    want = np.array(kernel)
    for p in (0, 2):
        want[p, p + 1] += 0.5
        want[p + 1, p] += 0.5
    aug = _augmented_kernel(kernel)
    assert not aug.flags.writeable
    assert aug.tobytes() == gaussian_kernel(want).tobytes()
    skewed = np.array(kernel)
    skewed[0, 2] += 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        _augmented_kernel(skewed)
    with pytest.raises(ValueError, match="pairs"):
        _augmented_kernel(np.eye(3))


def test_fock_matrices_allocation_peak_at_cutoff_8():
    # measured with numpy 2.4: the per-entry route (fock_matrices_by_entry)
    # peaks at 3.56 MiB here, the grouped sums over every (entry, support)
    # pair at 4.78 MiB and over the pairs of charge zero at 3.64 MiB, and
    # with the cached plans (the measured call is warm) at 3.40 MiB; a
    # temporary that outgrows the bound raises the process's peak resident
    # memory
    cfg = ScenarioConfig(Strategy.COHERENT_AFTER, 0.5, ChannelParams(0.7, 0.1), 8)
    kernel, polys = _raw_terms(cfg)
    fock_matrices(kernel, 8, polys)
    tracemalloc.start()
    try:
        fock_matrices(kernel, 8, polys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2 ** 20


# ---------------------------------------------------------------------------
# quadrature oracle

def test_quadrature_vacuum_element():
    st = tmsv_chi(0.0)
    grid = QuadratureGrid(half_width=6.0, points=80)
    val = quadrature_fock_element(st, 0, 0, 0, 0, grid)
    np.testing.assert_allclose(val, 1.0, atol=1e-6)


def test_quadrature_matches_analytic_on_tmsv():
    st = tmsv_chi(0.029)
    for idx in ((0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 1, 1)):
        q = quadrature_fock_element(st, *idx)
        a = fock_element(st, *idx)
        np.testing.assert_allclose(q, a, atol=1e-6)


def test_quadrature_matches_analytic_on_operated_state():
    st = subtracted_tmsv(0.35)
    idx = [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 0, 1), (3, 0, 1, 2)]
    vals = quadrature_fock_elements(st, idx)
    for q in idx:
        np.testing.assert_allclose(vals[q], fock_element(st, *q), atol=1e-8)
