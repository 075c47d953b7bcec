"""Core representation, pipeline operations, and the moment table."""

import math

import numpy as np
import pytest

from cvdistill import chi_core
from cvdistill.chi_core import (
    ChannelParams,
    CoherentOp,
    PolyGaussianChi,
    SingularKernelError,
    ZERO_INDEX,
    _moment_covariance,
    apply_thermal_channel,
    coherent_op_terms,
    gaussian_kernel,
    moment_table,
    phase_charges,
    tmsv_chi,
)
from cvdistill.fock_recon import _augmented_kernel
from cvdistill.scenarios import ScenarioConfig, Strategy, _raw_terms

import oracles
from oracles import (
    ZeroStateError,
    apply_coherent_op,
    channel_state,
    degree,
    evaluate_chi,
    hermiticity_defect,
    is_hermitian,
    normalize,
)


def vacuum_chi():
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = 0.5
    k[2, 3] = k[3, 2] = 0.5
    return PolyGaussianChi(np.ones((1, 1, 1, 1)), gaussian_kernel(k))


def pair_kernel(p):
    """Kernel whose exponent is -p (|xi1|^2 + |xi2|^2)."""
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = p
    k[2, 3] = k[3, 2] = p
    return gaussian_kernel(k)


# ---------------------------------------------------------------------------
# state preparation

def test_tmsv_trace_is_one():
    for s in (0.0, 0.029, 0.114, 0.403, 1.2):
        st = tmsv_chi(s)
        assert st.poly[ZERO_INDEX] == 1.0
        assert degree(st) == 0


def test_tmsv_zero_squeezing_is_vacuum():
    st = tmsv_chi(0.0)
    np.testing.assert_allclose(st.kernel, vacuum_chi().kernel,
                               atol=1e-15)


def test_tmsv_kernel_entries():
    s = 0.403
    st = tmsv_chi(s)
    k = st.kernel
    assert k[0, 1] == pytest.approx(math.cosh(0.806) / 2, abs=1e-15)
    assert k[2, 3] == pytest.approx(math.cosh(0.806) / 2, abs=1e-15)
    assert abs(k[0, 2]) == pytest.approx(math.sinh(0.806) / 2, abs=1e-15)
    assert k[0, 3] == 0.0 and k[1, 2] == 0.0


def test_tmsv_matches_fock_series():
    for s in (0.114, 0.6):
        st = tmsv_chi(s)
        for xi1, xi2 in ((0.3 + 0.2j, -0.1 + 0.4j), (1.0, 0.0),
                         (-0.5j, 0.25 - 0.75j)):
            ref = oracles.tmsv_chi_series(s, xi1, xi2)
            np.testing.assert_allclose(evaluate_chi(st, xi1, xi2), ref,
                                       atol=1e-10)


def test_tmsv_negative_squeezing_rejected():
    with pytest.raises(ValueError):
        tmsv_chi(-0.1)


def test_evaluate_chi_fixed_point():
    # chi(1, 0) of the s=0.114 squeezed vacuum, by hand
    st = tmsv_chi(0.114)
    assert evaluate_chi(st, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    val = evaluate_chi(st, 1.0, 0.0)
    assert val == pytest.approx(5.986654229206886e-01, abs=1e-12)


def test_evaluate_chi_hermiticity_spot_check():
    st = apply_coherent_op(tmsv_chi(0.3), 1, CoherentOp.from_t(0.8))
    a = evaluate_chi(st, 0.4 - 0.1j, 0.2 + 0.5j)
    b = evaluate_chi(st, -0.4 + 0.1j, -0.2 - 0.5j)
    np.testing.assert_allclose(a, np.conj(b), atol=1e-14)


# ---------------------------------------------------------------------------
# parameter containers

def test_coherent_op_validation():
    CoherentOp(1.0, 0.0)
    CoherentOp(0.6, 0.8)
    with pytest.raises(ValueError):
        CoherentOp(0.9, 0.9)
    with pytest.raises(ValueError):
        CoherentOp(-0.6, 0.8)
    with pytest.raises(ValueError):
        CoherentOp(1.2, 0.0)
    op = CoherentOp.from_t(0.7)
    assert op.t ** 2 + op.r ** 2 == pytest.approx(1.0, abs=1e-15)


def test_channel_params_validation():
    ChannelParams(1.0, 0.0)
    ChannelParams(0.3, 2.5)
    with pytest.raises(ValueError):
        ChannelParams(0.0, 0.1)
    with pytest.raises(ValueError):
        ChannelParams(1.1, 0.1)
    with pytest.raises(ValueError):
        ChannelParams(0.5, -0.1)


def test_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_kernel(np.array([[0.0, 1.0], [0.5, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        gaussian_kernel(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PolyGaussianChi(np.ones((1, 1, 1, 1)), gaussian_kernel(np.eye(2)))
    # swap conjugation P K P = conj(K), P exchanging xi_i and xi_i*
    k = tmsv_chi(0.5).kernel
    swap = [1, 0, 3, 2]
    assert np.max(np.abs(k[np.ix_(swap, swap)] - np.conj(k))) == 0.0


def test_polynomial_shape_validation():
    k = pair_kernel(0.5)
    for poly in (np.ones((2, 2, 2)), np.ones((2, 2, 2, 3)), np.ones((0, 0, 0, 0)),
                 {ZERO_INDEX: 1.0}):
        with pytest.raises(ValueError):
            PolyGaussianChi(poly, k)
    st = PolyGaussianChi(np.ones((2, 2, 2, 2)), k)
    assert not st.poly.flags.writeable


def test_hermiticity_defect_of_a_lone_linear_term():
    # P = v_1 = xi1 has no conjugate partner: conj(chi(-v)) carries -xi1*
    poly = np.zeros((2, 2, 2, 2))
    poly[1, 0, 0, 0] = 1.0
    st = PolyGaussianChi(poly, pair_kernel(0.5))
    assert hermiticity_defect(st) == 1.0
    assert not is_hermitian(st)


# ---------------------------------------------------------------------------
# coherent operation

def test_subtraction_annihilates_vacuum():
    out = apply_coherent_op(vacuum_chi(), 1, CoherentOp(1.0, 0.0))
    assert abs(out.poly[ZERO_INDEX]) < 1e-15
    with pytest.raises(ZeroStateError):
        normalize(out)


def test_addition_on_vacuum_gives_single_photon():
    # chi of |1><1| is (1 - |xi|^2) exp(-|xi|^2 / 2)
    out = apply_coherent_op(vacuum_chi(), 1, CoherentOp(0.0, 1.0))
    assert out.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-14)
    for xi in (0.37, -0.8 + 0.33j, 1.5j):
        want = (1 - abs(xi) ** 2) * math.exp(-abs(xi) ** 2 / 2)
        np.testing.assert_allclose(evaluate_chi(out, xi, 0.0), want, atol=1e-13)


def test_coherent_op_trace_on_vacuum():
    # Tr[(t a + r a^dag) rho (t a^dag + r a)] on vacuum = r^2
    out = apply_coherent_op(vacuum_chi(), 2, CoherentOp(0.6, 0.8))
    assert out.poly[ZERO_INDEX] == pytest.approx(0.64, abs=1e-14)


def test_coherent_op_preserves_kernel_and_hermiticity():
    st = tmsv_chi(0.4)
    out = apply_coherent_op(st, 1, CoherentOp.from_t(0.3))
    assert out.kernel is st.kernel
    assert degree(out) <= degree(st) + 2
    assert is_hermitian(out)
    out2 = apply_coherent_op(out, 2, CoherentOp.from_t(0.9))
    assert is_hermitian(out2)
    assert degree(out2) <= degree(st) + 4


def test_coherent_op_terms_grow_by_two():
    st = tmsv_chi(0.3)
    terms = coherent_op_terms(st.kernel, st.poly[None], 1)
    assert len(terms) == 3
    assert coherent_op_terms(st.kernel, terms, 2).shape == (5,) * 5
    with pytest.raises(ValueError):
        coherent_op_terms(st.kernel, terms, 3)


def test_subtraction_probability_closed_form():
    for s in (0.029, 0.403):
        st = tmsv_chi(s)
        op = CoherentOp(1.0, 0.0)
        out = apply_coherent_op(apply_coherent_op(st, 1, op), 2, op)
        np.testing.assert_allclose(out.poly[ZERO_INDEX],
                                   oracles.subtract_both_probability(s),
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# thermal channel

def test_channel_is_identity_at_unit_transmissivity():
    st = apply_coherent_op(tmsv_chi(0.3), 1, CoherentOp.from_t(0.7))
    out = channel_state(st, 1, ChannelParams(1.0, 5.0))
    np.testing.assert_allclose(out.kernel, st.kernel, atol=1e-15)
    np.testing.assert_array_equal(out.poly != 0, st.poly != 0)
    np.testing.assert_allclose(out.poly, st.poly, rtol=0.0, atol=1e-15)


def test_channel_preserves_trace():
    st = apply_coherent_op(tmsv_chi(0.5), 1, CoherentOp.from_t(0.4))
    for eta, n_th in ((0.7, 0.0), (0.3, 0.8), (0.999, 2.0)):
        out = channel_state(st, 1, ChannelParams(eta, n_th))
        out = channel_state(out, 2, ChannelParams(eta, n_th))
        assert abs(out.poly[ZERO_INDEX] - st.poly[ZERO_INDEX]) < 1e-14


def test_channel_full_loss_limit_is_thermal():
    # eta -> 0: the mode-1 factor approaches exp(-(2 n_th + 1) |xi1|^2 / 2)
    n_th = 0.35
    out = channel_state(tmsv_chi(0.8), 1, ChannelParams(1e-14, n_th))
    k = out.kernel
    assert k[0, 1] == pytest.approx((2 * n_th + 1) / 2, abs=1e-9)
    assert abs(k[0, 2]) < 1e-6 and abs(k[1, 3]) < 1e-6


def test_channel_scales_polynomial_by_mode_degree():
    st = apply_coherent_op(tmsv_chi(0.4), 1, CoherentOp.from_t(1.0))
    eta = 0.6
    out = channel_state(st, 1, ChannelParams(eta, 0.2))
    for a in map(tuple, np.argwhere(st.poly)):
        scale = math.sqrt(eta) ** (a[0] + a[1])
        assert out.poly[a] == pytest.approx(st.poly[a] * scale, rel=1e-14)


def test_channel_hermiticity_preserved():
    st = apply_coherent_op(tmsv_chi(0.4), 2, CoherentOp.from_t(0.2))
    out = channel_state(st, 2, ChannelParams(0.45, 0.6))
    assert is_hermitian(out)


def test_channel_checks_its_input_kernel_and_keeps_it_symmetric():
    st = tmsv_chi(0.4)
    ch = ChannelParams(0.37, 0.6)
    kernel, _ = apply_thermal_channel(st.kernel, st.poly[None], 1, ch)
    kernel, stack = apply_thermal_channel(kernel, st.poly[None], 2, ch)
    assert np.array_equal(kernel, kernel.T)
    assert kernel.dtype == complex and not kernel.flags.writeable
    skew = np.array(st.kernel)
    skew[0, 2] += 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        apply_thermal_channel(skew, st.poly[None], 1, ch)
    for shape in (3, 3), (4, 2), (4,):
        with pytest.raises(ValueError, match=r"square over \(xi, xi\*\) pairs"):
            apply_thermal_channel(np.ones(shape), st.poly[None], 1, ch)


# ---------------------------------------------------------------------------
# normalize

def test_normalize_tmsv_is_identity():
    st, tr = normalize(tmsv_chi(0.7))
    assert tr == 1.0
    assert st.poly[ZERO_INDEX] == 1.0


def test_normalize_returns_success_probability():
    s = 0.029
    op = CoherentOp(1.0, 0.0)
    out = apply_coherent_op(apply_coherent_op(tmsv_chi(s), 1, op), 2, op)
    nrm, tr = normalize(out)
    np.testing.assert_allclose(tr, 8.426511420694035e-04, rtol=1e-12)
    assert nrm.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_complex_trace():
    st = PolyGaussianChi(np.full((1, 1, 1, 1), 1.0 + 0.1j), pair_kernel(0.5))
    with pytest.raises(ValueError):
        normalize(st)


# ---------------------------------------------------------------------------
# moment table

def test_monomial_integral_normalizations():
    # exponent -(|xi1|^2 + |xi2|^2): each mode integrates to 1
    assert moment_table(pair_kernel(1.0), (1, 1, 1, 1))[ZERO_INDEX] \
        == pytest.approx(1.0, abs=1e-14)
    # the bare vacuum characteristic function exp(-|xi|^2/2) gives 2 per mode
    assert moment_table(pair_kernel(0.5), (1, 1, 1, 1))[ZERO_INDEX] \
        == pytest.approx(4.0, abs=1e-13)


def test_monomial_integral_radial():
    # Int (d^2xi/pi) |xi|^2 e^(-|xi|^2) = 1
    val = moment_table(pair_kernel(1.0), (2, 2, 1, 1))[1, 1, 0, 0]
    assert val == pytest.approx(1.0, abs=1e-13)


def test_odd_moments_vanish():
    table = moment_table(tmsv_chi(0.5).kernel, (4, 4, 4, 4))
    for alpha in ((1, 0, 0, 0), (0, 1, 2, 0), (1, 1, 1, 0), (3, 0, 1, 1)):
        assert table[alpha] == 0.0


def coupled_kernels():
    """Random integrable kernels with the conjugation symmetry that couple
    xi1 to xi2 and to xi2*."""
    rng = np.random.default_rng(7)
    kernels = []
    for _ in range(3):
        base = np.array(pair_kernel(1.0))
        z = rng.normal(scale=0.1, size=2) + 1j * rng.normal(scale=0.1, size=2)
        # cross-mode block entries respecting P K P = conj(K)
        base[0, 2] = base[2, 0] = z[0]
        base[1, 3] = base[3, 1] = np.conj(z[0])
        base[0, 3] = base[3, 0] = z[1]
        base[1, 2] = base[2, 1] = np.conj(z[1])
        kernels.append(gaussian_kernel(base))
    return kernels


def test_moment_engine_against_numeric_quadrature():
    # all moments of total degree <= 6 against one dense 4-D grid
    kernels = coupled_kernels()
    alphas = [(a, b, c, d)
              for a in range(4) for b in range(4)
              for c in range(4) for d in range(4)
              if 0 < a + b + c + d <= 6]
    picks = alphas[::5] + [(1, 1, 1, 1), (2, 2, 1, 1), (3, 3, 0, 0)]
    all_refs = oracles.numeric_gaussian_monomials(
        kernels, picks)
    for kernel, refs in zip(kernels, all_refs):
        table = moment_table(kernel, (4, 4, 4, 4))
        for alpha in picks:
            exact = table[alpha]
            ref = refs[alpha]
            if abs(ref) < 1e-9:
                assert abs(exact) < 1e-7
            else:
                np.testing.assert_allclose(exact, ref, rtol=1e-6)


def test_moment_table_matches_scalar_route():
    st = channel_state(tmsv_chi(0.6), 1, ChannelParams(0.7, 0.25))
    table = moment_table(st.kernel, (4, 4, 4, 4))
    ref = oracles.RecursiveMoments(st.kernel)
    for a in ((0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (3, 3, 2, 2),
              (1, 0, 0, 0), (2, 1, 0, 1)):
        np.testing.assert_allclose(table[a], ref.moment(a), atol=1e-12,
                                   rtol=1e-12)
    # the one-mode fidelity kernel of a coherent_before state, on every
    # monomial its diagonal substitution (xi*, xi, xi, xi*) can produce
    op, ch = CoherentOp.from_t(0.7), ChannelParams(0.5, 0.1)
    st = apply_coherent_op(apply_coherent_op(tmsv_chi(0.114), 1, op), 2, op)
    st = channel_state(channel_state(st, 1, ch), 2, ch)
    r = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    kernel = gaussian_kernel(r.T @ st.kernel @ r + [[0.0, 1.0], [1.0, 0.0]])
    support = np.argwhere(st.poly)
    shape = (max(a[1] + a[2] for a in support) + 1,
             max(a[0] + a[3] for a in support) + 1)
    assert shape == (5, 5)
    table = moment_table(kernel, shape)
    ref = oracles.RecursiveMoments(kernel)
    for a in np.ndindex(shape):
        np.testing.assert_allclose(table[a], ref.moment(a), atol=1e-12,
                                   rtol=1e-12)


def test_phase_charges():
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    rng = np.random.default_rng(11)
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))), 3)
        kernel, _ = _raw_terms(cfg)
        for k in (kernel, _augmented_kernel(kernel)):
            assert phase_charges(_moment_covariance(k)[0]).tolist() == [1, -1, -1, 1]
        fidelity = gaussian_kernel(r.T @ kernel @ r + [[0.0, 1.0], [1.0, 0.0]])
        assert phase_charges(_moment_covariance(fidelity)[0]).tolist() == [1, -1]
    # a xi1 xi2* coupling, and a single-mode squeezing with C_00 != 0
    squeezed = np.array(pair_kernel(1.0))
    squeezed[0, 0], squeezed[1, 1] = 0.3 + 0.1j, 0.3 - 0.1j
    squeezed_cov = _moment_covariance(gaussian_kernel(squeezed))[0]
    assert squeezed_cov[0, 0] != 0
    for cov in [_moment_covariance(k)[0] for k in coupled_kernels()] + [squeezed_cov]:
        assert not phase_charges(cov).any()


def test_singular_kernel_rejected():
    with pytest.raises(SingularKernelError):
        moment_table(gaussian_kernel(np.zeros((4, 4))), (1, 1, 1, 1))
    with pytest.raises(SingularKernelError):
        moment_table(pair_kernel(-0.5), (1, 1, 1, 1))


def test_integrate_polynomial():
    table = moment_table(pair_kernel(1.0), (2, 2, 1, 1))
    # Int (1 + |xi1|^2) -> 1 + 1 = 2
    poly = {ZERO_INDEX: 1.0, (1, 1, 0, 0): 1.0}
    val = sum(c * table[a] for a, c in poly.items())
    assert val == pytest.approx(2.0, abs=1e-13)


def test_moment_table_entry_ignores_table_shape():
    # a coherent_before state's augmented Fock kernel and its fidelity kernel
    op, ch = CoherentOp.from_t(0.7), ChannelParams(0.5, 0.1)
    st = apply_coherent_op(apply_coherent_op(tmsv_chi(0.3), 1, op), 2, op)
    st = channel_state(channel_state(st, 1, ch), 2, ch)
    r = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fidelity = gaussian_kernel(r.T @ st.kernel @ r + [[0.0, 1.0], [1.0, 0.0]])
    for kernel, small, large in ((_augmented_kernel(st.kernel), (3, 4, 2, 5),
                                  (6, 6, 7, 6)),
                                 (fidelity, (4, 3), (9, 8))):
        table = moment_table(kernel, small)
        big = moment_table(kernel, large)[tuple(slice(n) for n in small)]
        np.testing.assert_array_equal(table, big)


def test_moment_plan_is_shared_read_only_and_moves_no_bit():
    # the plan is keyed by (shape, charges), not by the kernel: a table read
    # through a plan built for another kernel has the bits of a cold call
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    rng = np.random.default_rng(21)
    cases = []
    for strategy in Strategy:
        for _ in range(2):
            cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                                 ChannelParams(float(rng.uniform(0.01, 1.0)),
                                               float(rng.uniform(0.0, 1.0))), 3)
            kernel, _ = _raw_terms(cfg)
            cases.append((_augmented_kernel(kernel), (6, 5, 7, 4)))
            cases.append((gaussian_kernel(r.T @ kernel @ r + [[0.0, 1.0], [1.0, 0.0]]),
                          (8, 7)))
    cold = []
    for kernel, shape in cases:
        chi_core._moment_plan.cache_clear()
        cold.append(moment_table(kernel, shape))
    chi_core._moment_plan.cache_clear()
    warm = [moment_table(kernel, shape) for kernel, shape in cases]
    info = chi_core._moment_plan.cache_info()
    assert (info.misses, info.hits) == (2, len(cases) - 2)
    for a, b in zip(warm, cold):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    plan = chi_core._moment_plan((6, 5, 7, 4), (1, -1, -1, 1))
    arrays = [x for _, target, terms in plan
              for x in (target, *(a for _, bk, source in terms for a in (bk, source)))]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 0
