"""Entanglement and figure-of-merit measures against closed forms."""

import math

import numpy as np
import pytest
from scipy import constants

from cvdistill import entanglement
from cvdistill.chi_core import ChannelParams, SingularKernelError
from cvdistill.fock_recon import PrecisionError, certify
from cvdistill.scenarios import ScenarioConfig, Strategy, evaluate_point
from cvdistill.entanglement import (
    InvalidCovarianceError,
    breaking_eta,
    covariance_from_chi,
    fidelity_integrals,
    gaussian_log_negativity,
    log_negativity,
    origin_coefficients,
    partial_transpose,
    separation_eta,
    separation_time,
    thermal_occupation,
)

import oracles
from oracles import (
    CoherentOp,
    EigenConvergenceError,
    State,
    ZeroStateError,
    apply_coherent_op,
    channel_state,
    evaluate_chi,
    fock_matrix,
    jacobi_eigvalsh,
    normalize,
    raw_terms,
    teleportation_fidelity,
    tmsv_state,
)


def channelled_tmsv(s, eta, n_th):
    ch = ChannelParams(eta, n_th)
    st = channel_state(tmsv_state(s), 1, ch)
    return channel_state(st, 2, ch)


def covariance(state):
    return covariance_from_chi(state.kernel, origin_coefficients(state.poly))


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
    # a trace norm of 0 clamps like any norm at most 1, with no log2(0)
    assert log_negativity(np.zeros((4, 4), dtype=complex)) == 0.0


def test_log_negativity_of_a_nan_state_is_nan():
    # a NaN entry gives a NaN trace norm, which is not at most 1: the state
    # does not read as separable (0), alone or in a stack, and certify
    # refuses it
    rho = np.diag([0.5, 0.2, 0.2, 0.1])
    broken = rho.copy()
    broken[1, 2] = broken[2, 1] = np.nan
    assert math.isnan(log_negativity(broken))
    got = log_negativity(np.stack([rho, broken]))
    assert got[0] == 0.0 and math.isnan(got[1])
    with pytest.raises(PrecisionError):
        certify(broken)


def test_log_negativity_truncated_tmsv():
    s = 0.403
    rho = fock_matrix(tmsv_state(s), 10)
    want = oracles.truncated_tmsv_log_negativity(s, 10)
    np.testing.assert_allclose(log_negativity(rho), want, rtol=1e-9)


@pytest.mark.parametrize("n_trunc", [5, 8])
@pytest.mark.parametrize("strategy", ["coherent_before", "coherent_after"])
def test_log_negativity_solvers_agree(strategy, n_trunc):
    # the production LAPACK solve against the Jacobi oracle, on the kind of
    # matrices a sweep row measures
    cfg = ScenarioConfig(Strategy(strategy), 0.3, ChannelParams(0.7, 0.2),
                         n_trunc=n_trunc)
    ev = oracles.Row(cfg)
    for t in (0.2, 0.6, 0.95):
        rho = ev.rhos(ev.weights([t]))[0]
        w = jacobi_eigvalsh(partial_transpose(rho))
        want = max(0.0, math.log2(float(np.sum(np.abs(w)))))
        np.testing.assert_allclose(log_negativity(rho), want, atol=1e-12)


def seeded_rhos(n_trunc, n_weights=3):
    """(strategy, stack of normalized Fock matrices) at seeded settings and
    weights, one pair per strategy."""
    rng = np.random.default_rng(200 + n_trunc)
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.01, 0.8)),
                             ChannelParams(float(rng.uniform(0.05, 1.0)),
                                           float(rng.uniform(0.0, 0.5))),
                             n_trunc=n_trunc)
        ev = oracles.Row(cfg)
        yield strategy, np.stack([ev.rhos(ev.weights([t]))[0]
                                  for t in rng.uniform(0.0, 1.0, n_weights)])


def whole_complex_log_negativity(rho):
    w = np.linalg.eigvalsh(partial_transpose(np.asarray(rho, dtype=complex)))
    return max(0.0, math.log2(float(np.sum(np.abs(w)))))


@pytest.fixture
def eigvalsh_inputs(monkeypatch):
    """The (shape, dtype) of every numpy.linalg.eigvalsh call."""
    calls = []
    solve = np.linalg.eigvalsh

    def spy(a):
        calls.append((a.shape, a.dtype))
        return solve(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_stacked_log_negativity_equals_one_matrix_calls(n_trunc):
    for strategy, stack in seeded_rhos(n_trunc):
        got = log_negativity(stack)
        assert got.shape == (len(stack),), strategy
        one = [log_negativity(rho) for rho in stack]
        assert all(type(v) is float for v in one)
        assert got.tolist() == one, strategy
        assert log_negativity(stack.reshape(1, *stack.shape)).tolist() == [one]


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8])
def test_parity_blocked_real_solve_against_whole_solves(n_trunc, eigvalsh_inputs):
    # every strategy's rho^T1 is real and parity-blocked; the block solves
    # agree with a whole complex solve and with the Jacobi oracle
    d = n_trunc + 1
    sizes = sorted({(d * d + 1) // 2, d * d // 2} - {0})
    for strategy, stack in seeded_rhos(n_trunc):
        assert not np.any(stack.imag)
        del eigvalsh_inputs[:]
        got = [log_negativity(rho) for rho in stack]
        assert sorted({shape[-1] for shape, _ in eigvalsh_inputs}) == sizes
        assert {dtype for _, dtype in eigvalsh_inputs} == {np.dtype(float)}
        for rho, value in zip(stack, got):
            assert value == pytest.approx(whole_complex_log_negativity(rho),
                                          abs=1e-12)
        w = jacobi_eigvalsh(partial_transpose(stack[0]))
        want = max(0.0, math.log2(float(np.sum(np.abs(w)))))
        assert got[0] == pytest.approx(want, abs=1e-12), strategy


def test_log_negativity_without_the_structure_solves_whole(eigvalsh_inputs):
    rng = np.random.default_rng(17)
    # a dense Hermitian matrix couples the parities: one whole complex solve
    dense = random_density_matrix(rng, 3)
    want = whole_complex_log_negativity(dense)
    del eigvalsh_inputs[:]
    assert log_negativity(dense) == want
    assert eigvalsh_inputs == [((16, 16), np.dtype(complex))]
    # real but coupling the parities: one whole real solve
    del eigvalsh_inputs[:]
    real = dense.real.copy()
    log_negativity(real)
    assert eigvalsh_inputs == [((16, 16), np.dtype(float))]
    # parity-blocked with nonzero imaginary parts: complex block solves
    _, stack = next(seeded_rhos(3))
    rho = stack[0].astype(complex)
    i, j = np.divmod(np.arange(16), 4)
    same = (i + j)[:, None] % 2 == (i + j)[None, :] % 2
    phase = np.triu(rng.normal(size=(16, 16)) * 1e-3 * same, 1)
    rho += 1j * (phase - phase.T)
    want = whole_complex_log_negativity(rho)
    assert want > 0.0
    del eigvalsh_inputs[:]
    assert log_negativity(rho) == pytest.approx(want, abs=1e-12)
    assert eigvalsh_inputs == [((8, 8), np.dtype(complex))] * 2


def test_log_negativity_of_a_stack_with_one_coupling_matrix(eigvalsh_inputs):
    # one matrix of the stack couples the parities, so every matrix is
    # solved whole, in one call, and each value is its own whole solve
    # alone, bit for bit
    _, stack = next(seeded_rhos(3))
    coupled = random_density_matrix(np.random.default_rng(29), 3).real.copy()
    mixed = np.stack([stack[0], coupled, stack[1]])
    del eigvalsh_inputs[:]
    got = log_negativity(mixed)
    assert eigvalsh_inputs == [((3, 16, 16), np.dtype(float))]
    for rho, value in zip(mixed, got.tolist()):
        norm = float(np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho)))))
        assert value == (math.log2(norm) if norm > 1.0 else 0.0)
    assert got[1] == log_negativity(coupled) > 0.0
    for rho, value in zip(stack[:2], got[[0, 2]]):
        assert value == pytest.approx(log_negativity(rho), abs=1e-12)


@pytest.mark.parametrize("n_trunc", [1, 3, 5])
def test_a_complex_input_is_solved_complex(n_trunc, eigvalsh_inputs):
    # a Hermitian rho with every imaginary part 0, given as complex, is
    # solved in complex arithmetic and agrees with its real part
    for strategy, stack in seeded_rhos(n_trunc):
        z = stack.astype(complex)
        del eigvalsh_inputs[:]
        one = log_negativity(z[0])
        assert {dtype for _, dtype in eigvalsh_inputs} == {np.dtype(complex)}
        assert one == pytest.approx(log_negativity(stack[0]), abs=1e-14), strategy
        np.testing.assert_allclose(log_negativity(z), log_negativity(stack),
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# covariance route

def test_covariance_of_vacuum():
    cov = covariance(tmsv_state(0.0))
    assert cov.shape == (4, 4) and not cov.flags.writeable
    np.testing.assert_allclose(cov, np.eye(4) / 2, atol=1e-14)


def test_vacuum_covariance_is_exactly_half_the_identity():
    # the quadrature map carries no rounded 1/sqrt(2): sigma is scaled by
    # 1/2 once, so the vacuum's diagonal is 1/2 exactly and a product state
    # prints E_N_gauss 0, not 3.2e-16
    assert np.array_equal(covariance(tmsv_state(0.0)), np.eye(4) / 2)
    for s in (0.0, 1e-300):
        for eta in (0.5, 1.0):
            rec = evaluate_point(ScenarioConfig(Strategy.NOOP, s,
                                                ChannelParams(eta, 0.0)))
            assert rec.e_n_gauss == 0.0, (s, eta)


def test_covariance_of_tmsv():
    s = 0.403
    cov = covariance(tmsv_state(s))
    a = math.cosh(2 * s) / 2
    c = math.sinh(2 * s) / 2
    np.testing.assert_allclose(cov[:2, :2], a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov[2:, 2:], a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov[:2, 2:], np.diag([c, -c]), atol=1e-13)


def test_covariance_after_channel():
    s, eta, n_th = 0.114, 0.6, 0.1
    st, _ = normalize(channelled_tmsv(s, eta, n_th))
    cov = covariance(st)
    a = (eta * math.cosh(2 * s) + (1 - eta) * (2 * n_th + 1)) / 2
    c = eta * math.sinh(2 * s) / 2
    np.testing.assert_allclose(cov[:2, :2], a * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(cov[:2, 2:], np.diag([c, -c]), atol=1e-13)


def test_covariance_requires_normalized_state():
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(tmsv_state(0.4), 1, op)
    with pytest.raises(ValueError):
        covariance(raw)


def test_symplectic_eigenvalues_of_tmsv():
    cov = covariance(tmsv_state(0.3))
    # (nu_minus, nu_plus) from the invariants Delta = det A + det B + 2 det C
    # and det sigma
    delta = (np.linalg.det(cov[:2, :2]) + np.linalg.det(cov[2:, 2:])
             + 2.0 * np.linalg.det(cov[:2, 2:]))
    disc = max(delta * delta - 4.0 * np.linalg.det(cov), 0.0)
    lo, hi = (math.sqrt(max((delta + sign * math.sqrt(disc)) / 2.0, 0.0))
              for sign in (-1.0, 1.0))
    # pure state: both symplectic eigenvalues sit at the vacuum floor
    np.testing.assert_allclose([lo, hi], [0.5, 0.5], atol=1e-12)


def test_gaussian_log_negativity_closed_forms():
    assert gaussian_log_negativity(covariance(tmsv_state(0.0))) == \
        pytest.approx(0.0, abs=1e-12)
    for s in (0.114, 0.403):
        got = gaussian_log_negativity(covariance(tmsv_state(s)))
        np.testing.assert_allclose(got, oracles.tmsv_log_negativity(s),
                                    rtol=1e-12)


def test_gaussian_negativity_vanishes_at_separation_threshold():
    s, n_th = 0.114, 0.1
    eta_sep = separation_eta(s, n_th)
    for eta, positive in ((eta_sep - 1e-3, False), (eta_sep + 1e-3, True)):
        st, _ = normalize(channelled_tmsv(s, eta, n_th))
        e = gaussian_log_negativity(covariance(st))
        assert (e > 0) == positive


def test_gaussian_log_negativity_keeps_weak_entanglement():
    # the lossy squeezed vacuum's row against its closed form
    # max(0, -log2(eta e^(-2s) + (1 - eta)(2 n_th + 1))), down to s 1e-8,
    # where two invariants near 1/4 would cancel (measured worst
    # deviation here 4.7e-16)
    for s, eta, n_th in ((1e-8, 0.5, 0.0), (1e-4, 0.5, 0.0), (0.029, 0.5, 0.0),
                         (0.114, 0.9, 0.1)):
        rec = evaluate_point(ScenarioConfig(Strategy.NOOP, s, ChannelParams(eta, n_th)))
        x = -eta * -math.expm1(-2.0 * s) + 2.0 * n_th * (1.0 - eta)
        want = max(0.0, -math.log1p(x) / math.log(2.0))
        assert abs(rec.e_n_gauss - want) <= 1e-15, (s, eta, n_th, rec.e_n_gauss, want)


def test_gaussian_log_negativity_rejects_unphysical_input():
    mat = np.array([[0.126, -0.334, -0.032, -1.110],
                    [-0.334, 0.362, 0.019, 0.364],
                    [-0.032, 0.019, -0.623, -0.602],
                    [-1.110, 0.364, -0.602, -0.732]])
    with pytest.raises(InvalidCovarianceError):
        gaussian_log_negativity(mat)
    with pytest.raises(InvalidCovarianceError):
        gaussian_log_negativity(np.zeros((4, 4)))


def test_covariance_and_gaussian_negativity_take_stacks():
    # kernels (..., 4, 4) and origin blocks (..., 5, 5) give each state's
    # covariance and Gaussian E_N with the bits it gets alone, and the
    # states are checked in order: the first one that fails raises
    rng = np.random.default_rng(29)
    kernels, origins = [], []
    for strategy in Strategy:
        for _ in range(3):
            ev = oracles.Row(ScenarioConfig(
                strategy, float(rng.uniform(0.0, 0.8)),
                ChannelParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 0.5)))))
            kernels.append(ev.kernel)
            origins.append(ev.origin(ev.weights([float(rng.uniform(0.1, 1.0))])[0]))
    kernels, origins = np.stack(kernels), np.stack(origins)
    sigma = covariance_from_chi(kernels, origins)
    e_n = gaussian_log_negativity(sigma)
    assert sigma.shape == (15, 4, 4) and not sigma.flags.writeable
    assert e_n.shape == (15,) and e_n.dtype == np.float64 and e_n.max() > 0.0
    for k, o, got, value in zip(kernels, origins, sigma, e_n.tolist()):
        alone = covariance_from_chi(k, o)
        assert alone.tobytes() == got.tobytes()
        assert gaussian_log_negativity(alone).hex() == value.hex()
    nested = covariance_from_chi(kernels.reshape(3, 5, 4, 4), origins.reshape(3, 5, 5, 5))
    assert nested.tobytes() == sigma.tobytes()
    assert gaussian_log_negativity(nested).tobytes() == e_n.reshape(3, 5).tobytes()
    # one state's trace is 2, one state's block is complex, one state's x-p
    # entries come out complex: the first of them in the stack raises
    twice = origins.copy()
    twice[7, 0, 0] = 2.0
    imaginary = twice + 0j
    imaginary[4, 2, 3] += 1e-300j
    skewed = twice.copy()
    skewed[4, 1, 1] += 1e-3
    for origin, error, message in (
            (twice, ValueError, r"state trace 2\.0 is not 1"),
            (imaginary, ValueError, "origin coefficients must be real"),
            (skewed, InvalidCovarianceError, "non-real part"),
            (skewed[5:], ValueError, r"state trace 2\.0 is not 1")):
        with pytest.raises(error, match=message):
            covariance_from_chi(kernels[-len(origin):], origin)
    with pytest.raises(ValueError, match="same leading axes"):
        covariance_from_chi(kernels[:-1], origins)
    unphysical = np.array(sigma)
    unphysical[3] = np.zeros((4, 4))
    with pytest.raises(InvalidCovarianceError, match="not positive definite"):
        gaussian_log_negativity(unphysical)


# ---------------------------------------------------------------------------
# teleportation fidelity and success probability

def test_fidelity_of_vacuum_resource():
    np.testing.assert_allclose(teleportation_fidelity(tmsv_state(0.0)), 0.5,
                               atol=1e-13)


def test_fidelity_of_tmsv_closed_form():
    for s in (0.114, 0.403, 1.0):
        got = teleportation_fidelity(tmsv_state(s))
        np.testing.assert_allclose(got, oracles.tmsv_fidelity(s), rtol=1e-12)


def test_fidelity_against_numeric_quadrature():
    op = CoherentOp.from_t(0.9)
    st = apply_coherent_op(tmsv_state(0.114), 1, op)
    st = apply_coherent_op(st, 2, op)
    ch = ChannelParams(0.7, 0.1)
    st = channel_state(st, 1, ch)
    st = channel_state(st, 2, ch)
    st, _ = normalize(st)
    want = oracles.numeric_fidelity(
        lambda xi1, xi2: evaluate_chi(st, xi1, xi2))
    np.testing.assert_allclose(teleportation_fidelity(st), want.real,
                               atol=1e-9)
    assert abs(want.imag) < 1e-9


@pytest.mark.parametrize("strategy", ["coherent_before", "coherent_after"])
def test_fidelity_integrals_match_one_polynomial_calls(strategy):
    # one moment table over the union of the supports, one sum per polynomial
    kernel, polys = oracles.raw_terms(ScenarioConfig(Strategy(strategy), 0.114,
                                                     ChannelParams(0.7, 0.1)))
    batch = fidelity_integrals(kernel, polys)
    assert batch.shape == (5,) and batch.dtype == np.float64
    for k, poly in enumerate(polys):
        single = fidelity_integrals(kernel, [poly])[0]
        assert batch[k].tobytes() == single.tobytes()


def test_fidelity_integrals_of_empty_polynomials_vanish():
    kernel = tmsv_state(0.3).kernel
    assert list(fidelity_integrals(kernel, np.zeros((2, 3, 3, 3, 3)))) == [0, 0]
    assert fidelity_integrals(kernel, np.zeros((0, 1, 1, 1, 1))).shape == (0,)


def test_fidelity_integrals_closed_form_against_moment_table():
    # the closed moments a!/kappa^(a+1) against the Wick/Stein recursion
    # over the same substituted kernel (measured worst: 4.7e-15)
    rng = np.random.default_rng(2024)
    strategies = list(Strategy)
    for i in range(200):
        cfg = ScenarioConfig(strategies[i % 5], float(rng.uniform(0.0, 1.5)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 2.0))))
        kernel, polys = raw_terms(cfg)
        np.testing.assert_allclose(
            fidelity_integrals(kernel, polys),
            oracles.fidelity_integrals_by_moments(kernel, polys),
            rtol=1e-13, atol=0.0)


def pair_kernel(p):
    """Writable kernel whose exponent is -p (|xi1|^2 + |xi2|^2)."""
    k = np.zeros((4, 4), dtype=complex)
    k[0, 1] = k[1, 0] = k[2, 3] = k[3, 2] = p
    return k


def test_fidelity_integrals_refuse_phase_sensitive_kernel():
    # a single-mode squeezing of mode 1 lands on the diagonal of the
    # substituted kernel
    kernel = pair_kernel(1.0)
    kernel[0, 0], kernel[1, 1] = 0.3 + 0.1j, 0.3 - 0.1j
    with pytest.raises(ValueError, match="phase charge"):
        fidelity_integrals(kernel, np.ones((1, 1, 1, 1, 1)))


def test_fidelity_integrals_refuse_non_real_kappa():
    # a kq[0, 1] with an imaginary part needs a K_01 = K_10 that is not
    # real, which the real kernel contract refuses
    kernel = pair_kernel(1.0)
    kernel[0, 1] = kernel[1, 0] = 1.0 + 0.5j
    with pytest.raises(ValueError, match="kernel must be real"):
        fidelity_integrals(kernel, np.ones((1, 1, 1, 1, 1)))


@pytest.mark.parametrize("p", [-0.5, -1.0])
def test_fidelity_integrals_refuse_nonpositive_kappa(p):
    # kappa = 2 p + 1: 0 and -1
    with pytest.raises(SingularKernelError):
        fidelity_integrals(pair_kernel(p), np.ones((1, 1, 1, 1, 1)))


def test_fidelity_requires_normalized_state():
    raw = apply_coherent_op(tmsv_state(0.4), 1, CoherentOp(1.0, 0.0))
    with pytest.raises(ValueError):
        teleportation_fidelity(raw)


def test_success_probability_of_double_subtraction():
    s = 0.403
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(apply_coherent_op(tmsv_state(s), 1, op), 2, op)
    np.testing.assert_allclose(normalize(raw)[1],
                               oracles.subtract_both_probability(s),
                               rtol=1e-12)


def test_success_probability_can_exceed_one():
    # photon addition heralds on Tr[a^dag rho a] = 1 + <n>, which exceeds 1
    op = CoherentOp(0.0, 1.0)
    raw = apply_coherent_op(apply_coherent_op(tmsv_state(0.4), 1, op), 2, op)
    assert normalize(raw)[1] > 1.0


def test_success_probability_input_validation():
    kernel = tmsv_state(0.0).kernel
    with pytest.raises(ZeroStateError):
        normalize(State(-np.ones((1, 1, 1, 1)), kernel))


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


def test_breaking_eta_is_holevos_threshold():
    # at eta_eb the added noise (1 - eta)(2 n_th + 1), in shot-noise units,
    # equals 1 + eta; the threshold lies below separation_eta at every s
    for n_th in (0.01, 0.1, 1.0, 10.0):
        eta = breaking_eta(n_th)
        assert (1 - eta) * (2 * n_th + 1) == pytest.approx(1 + eta, rel=1e-14)
        for s in (1e-3, 0.029, 1.0, 20.0):
            assert eta < separation_eta(s, n_th)
    assert breaking_eta(0.1) == 0.1 / 1.1
    assert breaking_eta(0.0) == 0.0
    with pytest.raises(ValueError):
        breaking_eta(-0.1)


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
    # e^(-x)/(1 - e^(-x)) underflows to 0 where 1/(e^x - 1) would overflow
    assert thermal_occupation(1064e-9, 1.0) == 0.0
    # lambda kB T underflows to 0: x is infinite, not a division by zero
    assert thermal_occupation(1e-320, 1e-300) == 0.0
    for wavelength, temperature in ((1064e-9, 300.0), (20e-6, 300.0),
                                    (1064e-9, 20.0), (1.55e-6, 77.0)):
        x = (6.62607015e-34 * 299792458.0
             / (wavelength * 1.380649e-23 * temperature))
        np.testing.assert_allclose(thermal_occupation(wavelength, temperature),
                                   1.0 / math.expm1(x), rtol=1e-12)
    with pytest.raises(FloatingPointError):
        thermal_occupation(1e300, 1e300)
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 300.0)
    with pytest.raises(ValueError):
        thermal_occupation(1064e-9, -1.0)


def test_si_constants_match_scipy():
    assert entanglement._PLANCK == constants.h
    assert entanglement._SPEED_OF_LIGHT == constants.c
    assert entanglement._BOLTZMANN == constants.k


# ---------------------------------------------------------------------------
# cross-route consistency

def test_fock_and_gaussian_routes_agree_on_gaussian_states():
    for s in (0.114, 0.403):
        st, _ = normalize(channelled_tmsv(s, 0.7, 0.1))
        e_fock = log_negativity(fock_matrix(st, 10))
        e_gauss = gaussian_log_negativity(covariance(st))
        assert abs(e_fock - e_gauss) < 5e-3


def test_fidelity_above_half_implies_entanglement():
    for s in (0.114, 0.403):
        st = tmsv_state(s)
        assert teleportation_fidelity(st) > 0.5
        assert gaussian_log_negativity(covariance(st)) > 0.0
