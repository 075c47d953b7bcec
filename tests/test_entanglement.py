"""Entanglement and figure-of-merit measures against closed forms."""

import math

import numpy as np
import pytest

from cvdistill.chi_core import (
    ChannelParams,
    CoherentOp,
    PolyGaussianChi,
    ZeroStateError,
    apply_coherent_op,
    apply_thermal_channel,
    normalize,
    tmsv_chi,
)
from cvdistill.fock_recon import fock_matrix
from cvdistill.scenarios import ScenarioConfig, Strategy, run_strategy
from cvdistill.entanglement import (
    CovarianceMatrix,
    InvalidCovarianceError,
    covariance_from_chi,
    gaussian_log_negativity,
    log_negativity,
    partial_transpose,
    separation_eta,
    separation_time,
    teleportation_fidelity,
    thermal_occupation,
)

import oracles
from oracles import EigenConvergenceError, jacobi_eigvalsh


def channelled_tmsv(s, eta, n_th):
    ch = ChannelParams(eta, n_th)
    st = apply_thermal_channel(tmsv_chi(s), 1, ch)
    return apply_thermal_channel(st, 2, ch)


def random_density_matrix(rng, n_trunc):
    d = (n_trunc + 1) ** 2
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


# ---------------------------------------------------------------------------
# partial transpose

def test_partial_transpose_involution():
    rho = random_density_matrix(np.random.default_rng(3), 3)
    back = partial_transpose(partial_transpose(rho))
    np.testing.assert_array_equal(back, rho)


def test_partial_transpose_index_map():
    d = 3
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[1 * d + 2, 0 * d + 1] = 0.7j  # rho_{12,01}
    pt = partial_transpose(mat)
    assert pt[0 * d + 2, 1 * d + 1] == 0.7j
    assert np.count_nonzero(pt) == 1


def test_partial_transpose_preserves_product_spectrum():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a @ a.conj().T
    b = b @ b.conj().T
    mat = np.kron(a, b) / np.trace(np.kron(a, b)).real
    w0 = np.sort(np.linalg.eigvalsh(mat))
    w1 = np.sort(np.linalg.eigvalsh(partial_transpose(mat)))
    np.testing.assert_allclose(w0, w1, atol=1e-12)


# ---------------------------------------------------------------------------
# Jacobi eigensolver

def test_jacobi_matches_lapack():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    mat = (g + g.conj().T) / 2
    got = np.sort(jacobi_eigvalsh(mat))
    want = np.sort(np.linalg.eigvalsh(mat))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_jacobi_diagonal_and_zero():
    np.testing.assert_allclose(np.sort(jacobi_eigvalsh(np.diag([3.0, -1.0, 2.0]))),
                               [-1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_array_equal(jacobi_eigvalsh(np.zeros((4, 4))), np.zeros(4))


def test_jacobi_rejects_nonsquare():
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.ones((2, 3)))


def test_jacobi_convergence_error():
    with pytest.raises(EigenConvergenceError):
        jacobi_eigvalsh(np.array([[1.0, 0.5], [0.5, 2.0]]), max_sweeps=0)


# ---------------------------------------------------------------------------
# logarithmic negativity, Fock route

def test_log_negativity_separable_is_zero():
    rho = np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex)
    assert log_negativity(rho) == 0.0


def test_log_negativity_truncated_tmsv():
    s = 0.403
    rho = fock_matrix(tmsv_chi(s), 10)
    want = oracles.truncated_tmsv_log_negativity(s, 10)
    np.testing.assert_allclose(log_negativity(rho), want, rtol=1e-9)


@pytest.mark.parametrize("n_trunc", [5, 8])
@pytest.mark.parametrize("strategy", ["coherent_before", "coherent_after"])
def test_log_negativity_solvers_agree(strategy, n_trunc):
    # the production LAPACK solve against the Jacobi oracle, on the kind of
    # matrices a sweep row measures
    cfg = ScenarioConfig(Strategy(strategy), 0.3, ChannelParams(0.7, 0.2),
                         n_trunc=n_trunc)
    for t in (0.2, 0.6, 0.95):
        st, _ = run_strategy(cfg, t)
        rho = fock_matrix(st, n_trunc)
        w = jacobi_eigvalsh(partial_transpose(rho))
        want = max(0.0, math.log2(float(np.sum(np.abs(w)))))
        np.testing.assert_allclose(log_negativity(rho), want, atol=1e-12)


# ---------------------------------------------------------------------------
# covariance route

def test_covariance_of_vacuum():
    cov = covariance_from_chi(tmsv_chi(0.0))
    np.testing.assert_allclose(cov.mat, np.eye(4) / 2, atol=1e-14)


def test_covariance_of_tmsv():
    s = 0.403
    cov = covariance_from_chi(tmsv_chi(s))
    a = math.cosh(2 * s) / 2
    c = math.sinh(2 * s) / 2
    np.testing.assert_allclose(cov.block_a, a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov.block_b, a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov.block_c, np.diag([c, -c]), atol=1e-13)


def test_covariance_after_channel():
    s, eta, n_th = 0.114, 0.6, 0.1
    st, _ = normalize(channelled_tmsv(s, eta, n_th))
    cov = covariance_from_chi(st)
    a = (eta * math.cosh(2 * s) + (1 - eta) * (2 * n_th + 1)) / 2
    c = eta * math.sinh(2 * s) / 2
    np.testing.assert_allclose(cov.block_a, a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov.block_c, np.diag([c, -c]), atol=1e-13)


def test_covariance_requires_normalized_state():
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(tmsv_chi(0.4), 1, op)
    with pytest.raises(ValueError):
        covariance_from_chi(raw)


def test_symplectic_eigenvalues_of_tmsv():
    cov = covariance_from_chi(tmsv_chi(0.3))
    lo, hi = cov.symplectic_eigenvalues()
    # pure state: both symplectic eigenvalues sit at the vacuum floor
    np.testing.assert_allclose([lo, hi], [0.5, 0.5], atol=1e-12)


def test_gaussian_log_negativity_closed_forms():
    assert gaussian_log_negativity(covariance_from_chi(tmsv_chi(0.0))) == \
        pytest.approx(0.0, abs=1e-12)
    for s in (0.114, 0.403):
        got = gaussian_log_negativity(covariance_from_chi(tmsv_chi(s)))
        np.testing.assert_allclose(got, oracles.tmsv_log_negativity(s),
                                    rtol=1e-12)


def test_gaussian_negativity_vanishes_at_separation_threshold():
    s, n_th = 0.114, 0.1
    eta_sep = separation_eta(s, n_th)
    for eta, positive in ((eta_sep - 1e-3, False), (eta_sep + 1e-3, True)):
        st, _ = normalize(channelled_tmsv(s, eta, n_th))
        e = gaussian_log_negativity(covariance_from_chi(st))
        assert (e > 0) == positive


def test_gaussian_log_negativity_rejects_unphysical_input():
    mat = np.array([[0.126, -0.334, -0.032, -1.110],
                    [-0.334, 0.362, 0.019, 0.364],
                    [-0.032, 0.019, -0.623, -0.602],
                    [-1.110, 0.364, -0.602, -0.732]])
    with pytest.raises(InvalidCovarianceError):
        gaussian_log_negativity(CovarianceMatrix(mat))
    with pytest.raises(InvalidCovarianceError):
        gaussian_log_negativity(CovarianceMatrix(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# teleportation fidelity and success probability

def test_fidelity_of_vacuum_resource():
    np.testing.assert_allclose(teleportation_fidelity(tmsv_chi(0.0)), 0.5,
                               atol=1e-13)


def test_fidelity_of_tmsv_closed_form():
    for s in (0.114, 0.403, 1.0):
        got = teleportation_fidelity(tmsv_chi(s))
        np.testing.assert_allclose(got, oracles.tmsv_fidelity(s), rtol=1e-12)


def test_fidelity_against_numeric_quadrature():
    op = CoherentOp.from_t(0.9)
    st = apply_coherent_op(tmsv_chi(0.114), 1, op)
    st = apply_coherent_op(st, 2, op)
    ch = ChannelParams(0.7, 0.1)
    st = apply_thermal_channel(st, 1, ch)
    st = apply_thermal_channel(st, 2, ch)
    st, _ = normalize(st)
    want = oracles.numeric_fidelity(st.evaluate)
    np.testing.assert_allclose(teleportation_fidelity(st), want.real,
                               atol=1e-9)
    assert abs(want.imag) < 1e-9


def test_fidelity_requires_normalized_state():
    raw = apply_coherent_op(tmsv_chi(0.4), 1, CoherentOp(1.0, 0.0))
    with pytest.raises(ValueError):
        teleportation_fidelity(raw)


def test_success_probability_of_double_subtraction():
    s = 0.403
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(apply_coherent_op(tmsv_chi(s), 1, op), 2, op)
    np.testing.assert_allclose(normalize(raw)[1],
                               oracles.subtract_both_probability(s),
                               rtol=1e-12)


def test_success_probability_can_exceed_one():
    # photon addition heralds on Tr[a^dag rho a] = 1 + <n>, which exceeds 1
    op = CoherentOp(0.0, 1.0)
    raw = apply_coherent_op(apply_coherent_op(tmsv_chi(0.4), 1, op), 2, op)
    assert normalize(raw)[1] > 1.0


def test_success_probability_input_validation():
    kernel = tmsv_chi(0.0).kernel
    with pytest.raises(ZeroStateError):
        normalize(PolyGaussianChi({(0, 0, 0, 0): -1.0}, kernel))


# ---------------------------------------------------------------------------
# thresholds and occupation numbers

def test_separation_eta_values():
    np.testing.assert_allclose(separation_eta(0.029, 0.1),
                               7.801831831132210e-01, rtol=1e-13)
    np.testing.assert_allclose(separation_eta(0.114, 0.1),
                               4.952018160796596e-01, rtol=1e-13)
    for s, n_th in ((0.029, 0.1), (0.114, 0.1), (0.5, 0.3)):
        np.testing.assert_allclose(separation_eta(s, n_th),
                                    oracles.separation_eta_closed(s, n_th),
                                    rtol=1e-13)


def test_separation_eta_pure_loss_is_zero():
    assert separation_eta(0.5, 0.0) == 0.0


def test_separation_eta_rejects_nonpositive_squeezing():
    with pytest.raises(ValueError):
        separation_eta(0.0, 0.1)


def test_separation_time_values():
    np.testing.assert_allclose(separation_time(0.029, 0.1),
                               2.482265367263231e-01, rtol=1e-13)
    np.testing.assert_allclose(separation_time(0.114, 0.1),
                               7.027898902524424e-01, rtol=1e-13)
    np.testing.assert_allclose(separation_time(0.114, 0.1, gamma=2.0),
                               7.027898902524424e-01 / 2, rtol=1e-13)
    assert separation_time(0.5, 0.0) == math.inf
    with pytest.raises(ValueError):
        separation_time(0.5, 0.1, gamma=0.0)


def test_thermal_occupation_values():
    np.testing.assert_allclose(thermal_occupation(1064e-9, 300.0),
                               2.657107908681539e-20, rtol=1e-9)
    np.testing.assert_allclose(thermal_occupation(20e-6, 300.0),
                               9.999271942124188e-02, rtol=1e-9)
    assert thermal_occupation(1064e-9, 0.0) == 0.0
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 300.0)
    with pytest.raises(ValueError):
        thermal_occupation(1064e-9, -1.0)


# ---------------------------------------------------------------------------
# cross-route consistency

def test_fock_and_gaussian_routes_agree_on_gaussian_states():
    for s in (0.114, 0.403):
        st, _ = normalize(channelled_tmsv(s, 0.7, 0.1))
        e_fock = log_negativity(fock_matrix(st, 10))
        e_gauss = gaussian_log_negativity(covariance_from_chi(st))
        assert abs(e_fock - e_gauss) < 5e-3


def test_fidelity_above_half_implies_entanglement():
    for s in (0.114, 0.403):
        st = tmsv_chi(s)
        assert teleportation_fidelity(st) > 0.5
        assert gaussian_log_negativity(covariance_from_chi(st)) > 0.0
