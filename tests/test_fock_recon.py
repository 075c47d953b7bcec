"""Fock-basis reconstruction against series oracles and brute quadrature."""

import math

import numpy as np
import pytest

from cvdistill.chi_core import ChannelParams, CoherentOp, tmsv_chi
from cvdistill.fock_recon import (
    PrecisionError,
    _laguerre_coeffs,
    certify,
    displacement_fock_poly,
    fock_matrices,
    fock_matrix,
)

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
