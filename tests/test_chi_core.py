"""Core representation, pipeline operations, and the moment table."""

import math
import warnings

import numpy as np
import pytest

from cvdistill import chi_core
from cvdistill.chi_core import (
    ChannelParams,
    SingularKernelError,
    _moment_covariance,
    apply_thermal_channel,
    coherent_op_terms,
    gaussian_kernel,
    moment_table,
    tmsv_chi,
    two_mode_stack,
)
from cvdistill.entanglement import fidelity_integrals
from cvdistill.entanglement import covariance_from_chi, origin_coefficients
from cvdistill.fock_recon import _augmented_kernel, fock_matrices
from cvdistill.scenarios import ScenarioConfig, Strategy

import oracles
from oracles import (
    CoherentOp,
    State,
    ZERO_INDEX,
    ZeroStateError,
    apply_coherent_op,
    channel_state,
    degree,
    evaluate_chi,
    hermiticity_defect,
    is_hermitian,
    normalize,
    raw_terms,
    same_bits,
    tmsv_state,
)


def vacuum_chi():
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = 0.5
    k[2, 3] = k[3, 2] = 0.5
    return State(np.ones((1, 1, 1, 1)), gaussian_kernel(k))


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
        kernel, stack = tmsv_chi(s)
        assert stack.shape == (1, 1, 1, 1, 1) and stack.dtype == np.float64
        assert stack[(0, *ZERO_INDEX)] == 1.0
        assert kernel.shape == (4, 4) and kernel.dtype == np.float64
        assert not kernel.flags.writeable
        assert degree(State(stack[0], kernel)) == 0


def test_tmsv_zero_squeezing_is_vacuum():
    st = tmsv_state(0.0)
    np.testing.assert_allclose(st.kernel, vacuum_chi().kernel,
                               atol=1e-15)


def test_tmsv_kernel_entries():
    s = 0.403
    st = tmsv_state(s)
    k = st.kernel
    assert k[0, 1] == pytest.approx(math.cosh(0.806) / 2, abs=1e-15)
    assert k[2, 3] == pytest.approx(math.cosh(0.806) / 2, abs=1e-15)
    assert abs(k[0, 2]) == pytest.approx(math.sinh(0.806) / 2, abs=1e-15)
    assert k[0, 3] == 0.0 and k[1, 2] == 0.0


def test_tmsv_matches_fock_series():
    for s in (0.114, 0.6):
        st = tmsv_state(s)
        for xi1, xi2 in ((0.3 + 0.2j, -0.1 + 0.4j), (1.0, 0.0),
                         (-0.5j, 0.25 - 0.75j)):
            ref = oracles.tmsv_chi_series(s, xi1, xi2)
            np.testing.assert_allclose(evaluate_chi(st, xi1, xi2), ref,
                                       atol=1e-10)


def test_tmsv_negative_squeezing_rejected():
    # ScenarioConfig's rule, applied before any cosh or sinh is taken
    for s in (-0.1, math.inf, math.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonnegative and finite"):
                tmsv_chi(s)


def test_evaluate_chi_fixed_point():
    # chi(1, 0) of the s=0.114 squeezed vacuum, by hand
    st = tmsv_state(0.114)
    assert evaluate_chi(st, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    val = evaluate_chi(st, 1.0, 0.0)
    assert val == pytest.approx(5.986654229206886e-01, abs=1e-12)


def test_evaluate_chi_hermiticity_spot_check():
    st = apply_coherent_op(tmsv_state(0.3), 1, CoherentOp.from_t(0.8))
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
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_kernel(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="pairs"):
        gaussian_kernel(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="finite"):
        gaussian_kernel(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    # a one-mode kernel passes the contract, not the two-mode state format
    with pytest.raises(ValueError, match="4x4"):
        two_mode_stack(gaussian_kernel(np.array([[0.0, 0.5], [0.5, 0.0]])),
                       np.ones((1, 1, 1, 1, 1)))
    # the contract is exact: a kernel symmetric only to rounding is refused,
    # not symmetrized, and an accepted one comes back as a read-only copy
    k = np.array(tmsv_chi(0.5)[0])
    skew = k.copy()
    skew[0, 2] = np.nextafter(skew[0, 2].real, 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_kernel(skew)
    got = gaussian_kernel(k)
    assert got is not k and not got.flags.writeable
    assert got.dtype == np.float64 and got.tobytes() == k.tobytes()
    # a complex array whose imaginary parts are all 0 comes back float64
    assert gaussian_kernel(k.astype(complex)).tobytes() == k.tobytes()
    # swap symmetry P K P = K, P exchanging xi_i and xi_i*
    swap = [1, 0, 3, 2]
    assert np.array_equal(k[np.ix_(swap, swap)], k)


def test_polynomial_shape_validation():
    # a stack holds (D, D, D, D) cubes: a lone cube, a cube of the wrong
    # rank or of unequal sides, empty cubes and a dict are refused
    k = pair_kernel(0.5)
    for polys in (np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2, 3)),
                  np.ones((1, 0, 0, 0, 0)), np.ones((2, 2, 2, 2)),
                  {ZERO_INDEX: 1.0}):
        with pytest.raises(ValueError, match=r"stack of \(D, D, D, D\) cubes"):
            two_mode_stack(k, polys)
    for polys in (np.ones((1, 2, 2, 2, 2)), np.zeros((0, 3, 3, 3, 3))):
        assert two_mode_stack(k, polys).shape == polys.shape
    assert two_mode_stack(k, [np.ones((2, 2, 2, 2))]).shape == (1, 2, 2, 2, 2)


def test_hermiticity_defect_of_a_lone_linear_term():
    # P = v_1 = xi1 has no conjugate partner: conj(chi(-v)) carries -xi1*
    poly = np.zeros((2, 2, 2, 2))
    poly[1, 0, 0, 0] = 1.0
    st = State(poly, pair_kernel(0.5))
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
    st = tmsv_state(0.4)
    out = apply_coherent_op(st, 1, CoherentOp.from_t(0.3))
    assert out.kernel is st.kernel
    assert degree(out) <= degree(st) + 2
    assert is_hermitian(out)
    out2 = apply_coherent_op(out, 2, CoherentOp.from_t(0.9))
    assert is_hermitian(out2)
    assert degree(out2) <= degree(st) + 4


def test_a_chunk_of_states_keeps_each_state_alone():
    # kernels (S, 4, 4) and stacks (S, n, D, D, D, D): every state of a
    # chunk gets the bytes of its own call, also where a kernel entry is 0
    # in one state and not in another (s = 0 next to s = 0.3, so the
    # cross-mode terms are skipped for one state only); the channel takes
    # one ChannelParams per state, and gaussian_kernel checks every kernel
    states = [tmsv_state(0.0), tmsv_state(0.3)]
    channels = [ChannelParams(0.4, 0.0), ChannelParams(1.0, 0.2)]
    kernels = np.stack([st.kernel for st in states])
    stacks = np.stack([st.poly[None] for st in states])
    terms = coherent_op_terms(kernels, stacks, 1)
    # the output is a sum from +0, so it holds no -0 that a +-0 term of one
    # state could flip
    assert not np.signbit(terms[terms == 0.0]).any()
    chunk = apply_thermal_channel(kernels, terms, 2, channels)
    for i, (st, ch) in enumerate(zip(states, channels)):
        alone = coherent_op_terms(st.kernel, st.poly[None], 1)
        assert terms[i].tobytes() == alone.tobytes()
        for got, want in zip(chunk, apply_thermal_channel(st.kernel, alone, 2, ch)):
            assert got[i].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="one ChannelParams per state"):
        apply_thermal_channel(kernels, stacks, 1, channels[:1])
    with pytest.raises(ValueError, match=r"\(D, D, D, D\) cubes"):
        coherent_op_terms(kernels, stacks[0], 1)
    skew = kernels.copy()
    skew[1, 0, 2] = np.nextafter(skew[1, 0, 2], 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        apply_thermal_channel(skew, stacks, 1, channels)


def test_coherent_op_terms_grow_by_two():
    st = tmsv_state(0.3)
    terms = coherent_op_terms(st.kernel, st.poly[None], 1)
    assert len(terms) == 3
    assert coherent_op_terms(st.kernel, terms, 2).shape == (5,) * 5
    with pytest.raises(ValueError):
        coherent_op_terms(st.kernel, terms, 3)


def test_subtraction_probability_closed_form():
    for s in (0.029, 0.403):
        st = tmsv_state(s)
        op = CoherentOp(1.0, 0.0)
        out = apply_coherent_op(apply_coherent_op(st, 1, op), 2, op)
        np.testing.assert_allclose(out.poly[ZERO_INDEX],
                                   oracles.subtract_both_probability(s),
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# thermal channel

def test_channel_is_identity_at_unit_transmissivity():
    st = apply_coherent_op(tmsv_state(0.3), 1, CoherentOp.from_t(0.7))
    out = channel_state(st, 1, ChannelParams(1.0, 5.0))
    np.testing.assert_allclose(out.kernel, st.kernel, atol=1e-15)
    np.testing.assert_array_equal(out.poly != 0, st.poly != 0)
    np.testing.assert_allclose(out.poly, st.poly, rtol=0.0, atol=1e-15)


def test_channel_preserves_trace():
    st = apply_coherent_op(tmsv_state(0.5), 1, CoherentOp.from_t(0.4))
    for eta, n_th in ((0.7, 0.0), (0.3, 0.8), (0.999, 2.0)):
        out = channel_state(st, 1, ChannelParams(eta, n_th))
        out = channel_state(out, 2, ChannelParams(eta, n_th))
        assert abs(out.poly[ZERO_INDEX] - st.poly[ZERO_INDEX]) < 1e-14


def test_channel_full_loss_limit_is_thermal():
    # eta -> 0: the mode-1 factor approaches exp(-(2 n_th + 1) |xi1|^2 / 2)
    n_th = 0.35
    out = channel_state(tmsv_state(0.8), 1, ChannelParams(1e-14, n_th))
    k = out.kernel
    assert k[0, 1] == pytest.approx((2 * n_th + 1) / 2, abs=1e-9)
    assert abs(k[0, 2]) < 1e-6 and abs(k[1, 3]) < 1e-6


def test_channel_scales_polynomial_by_mode_degree():
    st = apply_coherent_op(tmsv_state(0.4), 1, CoherentOp.from_t(1.0))
    eta = 0.6
    out = channel_state(st, 1, ChannelParams(eta, 0.2))
    for a in map(tuple, np.argwhere(st.poly)):
        scale = math.sqrt(eta) ** (a[0] + a[1])
        assert out.poly[a] == pytest.approx(st.poly[a] * scale, rel=1e-14)


def test_channel_hermiticity_preserved():
    st = apply_coherent_op(tmsv_state(0.4), 2, CoherentOp.from_t(0.2))
    out = channel_state(st, 2, ChannelParams(0.45, 0.6))
    assert is_hermitian(out)


def test_channel_checks_its_input_kernel_and_keeps_it_symmetric():
    st = tmsv_state(0.4)
    ch = ChannelParams(0.37, 0.6)
    kernel, _ = apply_thermal_channel(st.kernel, st.poly[None], 1, ch)
    kernel, stack = apply_thermal_channel(kernel, st.poly[None], 2, ch)
    assert gaussian_kernel(kernel).tobytes() == kernel.tobytes()
    assert kernel.dtype == np.float64 and not kernel.flags.writeable
    skew = np.array(st.kernel)
    skew[0, 2] += 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        apply_thermal_channel(skew, st.poly[None], 1, ch)
    for shape in (3, 3), (4, 2), (4,):
        with pytest.raises(ValueError, match=r"square over \(xi, xi\*\) pairs"):
            apply_thermal_channel(np.ones(shape), st.poly[None], 1, ch)


def test_channel_refuses_an_overflowing_thermal_term():
    # 2 n_th + 1 overflows at n_th 1e308: no inf enters the kernel and no
    # RuntimeWarning leaks
    st = tmsv_state(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularKernelError, match="thermal term"):
            apply_thermal_channel(st.kernel, st.poly[None], 1,
                                  ChannelParams(0.5, 1e308))


# ---------------------------------------------------------------------------
# normalize

def test_normalize_tmsv_is_identity():
    st, tr = normalize(tmsv_state(0.7))
    assert tr == 1.0
    assert st.poly[ZERO_INDEX] == 1.0


def test_normalize_returns_success_probability():
    s = 0.029
    op = CoherentOp(1.0, 0.0)
    out = apply_coherent_op(apply_coherent_op(tmsv_state(s), 1, op), 2, op)
    nrm, tr = normalize(out)
    np.testing.assert_allclose(tr, 8.426511420694035e-04, rtol=1e-12)
    assert nrm.poly[ZERO_INDEX] == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_complex_trace():
    st = State(np.full((1, 1, 1, 1), 1.0 + 0.1j), pair_kernel(0.5))
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
    table = moment_table(tmsv_chi(0.5)[0], (4, 4, 4, 4))
    for alpha in ((1, 0, 0, 0), (0, 1, 2, 0), (1, 1, 1, 0), (3, 0, 1, 1)):
        assert table[alpha] == 0.0


def coupled_kernels(n=3, xi2_star=True):
    """n random integrable complex kernels with the swap-conjugation
    symmetry P K P = conj(K) that couple xi1 to xi2 and, with xi2_star, to
    xi2*.  That coupling breaks the phase charge (and the imaginary parts
    the real contract), so only kernels without it pass gaussian_kernel;
    these are plain arrays."""
    rng = np.random.default_rng(7)
    kernels = []
    for _ in range(n):
        base = np.array(pair_kernel(1.0), dtype=complex)
        z = rng.normal(scale=0.1, size=2) + 1j * rng.normal(scale=0.1, size=2)
        # cross-mode block entries respecting P K P = conj(K)
        base[0, 2] = base[2, 0] = z[0]
        base[1, 3] = base[3, 1] = np.conj(z[0])
        if xi2_star:
            base[0, 3] = base[3, 0] = z[1]
            base[1, 2] = base[2, 1] = np.conj(z[1])
        kernels.append(base)
    return kernels


def squeezed_kernel():
    """A complex single-mode squeezing of mode 1: C_00 != 0, against the
    charge."""
    k = np.array(pair_kernel(1.0), dtype=complex)
    k[0, 0], k[1, 1] = 0.3 + 0.1j, 0.3 - 0.1j
    return k


def test_moment_engine_against_numeric_quadrature():
    # all moments of total degree <= 6 against one dense 4-D grid: the
    # scalar recursion on complex xi2*-coupled kernels, which moment_table
    # refuses, and moment_table on a real kernel that conserves the phase
    # charge (the real part of a xi2-only coupling)
    coupled = coupled_kernels()
    charged = [k.real for k in coupled_kernels(1, xi2_star=False)]
    alphas = [(a, b, c, d)
              for a in range(4) for b in range(4)
              for c in range(4) for d in range(4)
              if 0 < a + b + c + d <= 6]
    picks = alphas[::5] + [(1, 1, 1, 1), (2, 2, 1, 1), (3, 3, 0, 0)]
    all_refs = oracles.numeric_gaussian_monomials(coupled + charged, picks)
    routes = ([oracles.RecursiveMoments(k).moment for k in coupled]
              + [moment_table(k, (4, 4, 4, 4)).__getitem__ for k in charged])
    for route, refs in zip(routes, all_refs):
        for alpha in picks:
            exact = route(alpha)
            ref = refs[alpha]
            if abs(ref) < 1e-9:
                assert abs(exact) < 1e-7
            else:
                np.testing.assert_allclose(exact, ref, rtol=1e-6)


def test_moment_table_matches_scalar_route():
    st = channel_state(tmsv_state(0.6), 1, ChannelParams(0.7, 0.25))
    table = moment_table(st.kernel, (4, 4, 4, 4))
    ref = oracles.RecursiveMoments(st.kernel)
    for a in ((0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (3, 3, 2, 2),
              (1, 0, 0, 0), (2, 1, 0, 1)):
        np.testing.assert_allclose(table[a], ref.moment(a), atol=1e-12,
                                   rtol=1e-12)
    # the one-mode fidelity kernel of a coherent_before state, on every
    # monomial its diagonal substitution (xi*, xi, xi, xi*) can produce
    op, ch = CoherentOp.from_t(0.7), ChannelParams(0.5, 0.1)
    st = apply_coherent_op(apply_coherent_op(tmsv_state(0.114), 1, op), 2, op)
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
    # gaussian_kernel takes every strategy's state, augmented and fidelity
    # kernels as they are, bit for bit, and refuses kernels that break the
    # phase charge: a xi1 xi2* coupling, and a single-mode squeezing
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    rng = np.random.default_rng(11)
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))), 3)
        kernel, _ = raw_terms(cfg)
        fidelity = r.T @ kernel @ r + [[0.0, 1.0], [1.0, 0.0]]
        for k in (kernel, _augmented_kernel(kernel), fidelity):
            assert gaussian_kernel(k).tobytes() == k.tobytes()
    squeezed = squeezed_kernel()
    assert _moment_covariance(squeezed)[0][0, 0] != 0
    for k in coupled_kernels() + [squeezed]:
        with pytest.raises(ValueError, match="phase charge"):
            gaussian_kernel(k)


def contract_breaking_kernels():
    """One kernel per way to break gaussian_kernel's contract, with the
    words of its refusal: a xi1 xi2* coupling, a single-mode squeezing, a
    symmetry only to rounding, a real K_02 != K_13 (P K P != K), and a
    K_01 = K_10 with an imaginary part, which keeps every other rule."""
    rounded = np.array(tmsv_chi(0.4)[0])
    rounded[0, 2] = np.nextafter(rounded[0, 2], 0.0)
    unswapped = np.array(tmsv_chi(0.4)[0])
    unswapped[0, 2] = unswapped[2, 0] = 2 * unswapped[0, 2]
    imaginary = np.array(pair_kernel(0.5), dtype=complex)
    imaginary[0, 1] = imaginary[1, 0] = 0.5 + 0.1j
    return [(coupled_kernels(1)[0], "phase charge"),
            (squeezed_kernel(), "phase charge"), (rounded, "symmetric"),
            (unswapped, "swap symmetry"), (imaginary, "must be real")]


def test_public_functions_refuse_kernels_outside_the_contract():
    poly = np.ones((1, 1, 1, 1))
    ch = ChannelParams(0.7, 0.1)
    calls = [lambda k: apply_thermal_channel(k, poly[None], 1, ch),
             lambda k: moment_table(k, (2, 2, 2, 2)),
             lambda k: fock_matrices(k, 2, poly[None]),
             lambda k: fidelity_integrals(k, poly[None])]
    good = tmsv_chi(0.4)[0]
    for call in calls:
        call(good)
        for kernel, reason in contract_breaking_kernels():
            with pytest.raises(ValueError, match=reason):
                call(kernel)
    # inputs outside the two-mode state format are refused by name: a
    # one-mode kernel, which passes gaussian_kernel, and a lone cube where a
    # stack belongs (which the pipeline operations would otherwise scale
    # along the wrong axes, or meet with an IndexError or a broadcast error)
    one_mode = np.array([[0.0, 0.5], [0.5, 0.0]])
    cube = np.ones((3, 3, 3, 3))
    fmt = r"two-mode state is a 4x4 kernel and a stack of \(D, D, D, D\) cubes"
    for call in (lambda: fock_matrices(one_mode, 2, poly[None]),
                 lambda: fidelity_integrals(one_mode, poly[None]),
                 lambda: fock_matrices(good, 2, cube),
                 *(lambda m=m: apply_thermal_channel(good, cube, m, ch) for m in (1, 2)),
                 *(lambda m=m: coherent_op_terms(good, cube, m) for m in (1, 2))):
        with pytest.raises(ValueError, match=fmt):
            call()
    # the covariance reads a 4x4 kernel and the 5x5 origin coefficients
    with pytest.raises(ValueError, match="4x4 kernel and a 5x5 block"):
        covariance_from_chi(one_mode, origin_coefficients(poly))


def test_moment_table_equals_the_scalar_recursion_bit_for_bit():
    # the plan computes only the entries of charge zero, in float64; the
    # complex recursion run on every entry gives the same bits, signs of
    # zero included, on the five strategies' augmented and fidelity kernels
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    rng = np.random.default_rng(100)
    for strategy in Strategy:
        for _ in range(4):
            cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                                 ChannelParams(float(rng.uniform(0.01, 1.0)),
                                               float(rng.uniform(0.0, 1.0))), 3)
            kernel, _ = raw_terms(cfg)
            fidelity = gaussian_kernel(r.T @ kernel @ r + [[0.0, 1.0], [1.0, 0.0]])
            for k, shape in ((_augmented_kernel(kernel), (7, 6, 8, 5)),
                             (fidelity, (9, 8))):
                ref = oracles.RecursiveMoments(k)
                want = np.reshape([ref.moment(a) for a in np.ndindex(shape)], shape)
                table = moment_table(k, shape)
                assert table.dtype == np.float64 and same_bits(table, want), cfg


def test_singular_kernel_rejected():
    with pytest.raises(SingularKernelError):
        moment_table(gaussian_kernel(np.zeros((4, 4))), (1, 1, 1, 1))
    with pytest.raises(SingularKernelError):
        moment_table(pair_kernel(-0.5), (1, 1, 1, 1))


def test_an_imaginary_moment_covariance_is_refused(monkeypatch):
    # every kernel gaussian_kernel takes has a real C, and moment_table
    # recurses on it in float64; a C with an imaginary part is refused
    # there, and so in the Fock route, rather than dropped
    covariance = chi_core._moment_covariance

    def imaginary(kernel):
        cov, norm = covariance(kernel)
        cov[-1, -1] += 1e-300j
        return cov, norm
    monkeypatch.setattr(chi_core, "_moment_covariance", imaginary)
    kernel, polys = raw_terms(ScenarioConfig(
        Strategy.COHERENT_AFTER, 0.3, ChannelParams(0.7, 0.1), 3))
    for call in (lambda: moment_table(kernel, (2, 2, 2, 2)),
                 lambda: fock_matrices(kernel, 3, polys)):
        with pytest.raises(SingularKernelError,
                           match="moment covariance has an imaginary part"):
            call()


@pytest.mark.parametrize("n_trunc", [0, 3, 5, 8, 12])
def test_moment_table_over_a_kernel_stack_is_per_kernel_bit_for_bit(n_trunc):
    # one recursion over a stack of augmented kernels gives each kernel the
    # bytes of its own call, signed zeros included, in the shape the Fock
    # build reads at this cutoff; the s = 0 kernels' cross-mode C entries
    # are 0 where the others' are not, so those terms add +-0 to them, which
    # moves no bit while every table is finite.  A one-kernel stack is the
    # 2-D call
    rng = np.random.default_rng(500 + n_trunc)
    kernels, _ = oracles.mixed_chunk(rng)
    aug = _augmented_kernel(kernels)
    zero = _moment_covariance(aug)[0] == 0
    assert (zero.any(axis=0) & ~zero.all(axis=0)).any()
    shape = (n_trunc + 5,) * 4
    table = moment_table(aug, shape)
    assert table.shape == (len(kernels),) + shape and table.dtype == np.float64
    assert np.isfinite(table).all()
    for k, got in zip(aug, table):
        want = moment_table(k, shape)
        assert got.tobytes() == want.tobytes()
        assert moment_table(k[None], shape)[0].tobytes() == want.tobytes()
    # leading axes of any rank
    assert moment_table(aug.reshape(1, -1, 4, 4), shape)[0].tobytes() == table.tobytes()


def test_a_kernel_stack_raises_its_first_refused_kernel_s_error():
    # a kernel that is not positive definite and kernels whose determinant
    # leaves the float range (above and below) raise, in a stack, the
    # exception and message of the first of them, as alone, in the moment
    # table and in the Fock build (whose augmented kernel takes the
    # 1e-200 one back into range); the good kernels around them do not
    # matter
    good = _augmented_kernel(raw_terms(ScenarioConfig(
        Strategy.COHERENT_AFTER, 0.3, ChannelParams(0.7, 0.1), 3))[0])
    bad = [pair_kernel(-1.0), pair_kernel(1e200), pair_kernel(1e-200)]
    builds = {"table": lambda k: moment_table(k, (2, 2, 2, 2)),
              "fock": lambda k: fock_matrices(k, 1, np.ones(k.shape[:-2] + (1,) * 5))}
    alone = {}
    for name, build in builds.items():
        alone[name] = []
        for k in bad:
            try:
                build(k)
                alone[name].append(None)
            except SingularKernelError as exc:
                alone[name].append(str(exc))
    assert alone["table"] == ["kernel is not positive definite",
                              "kernel determinant inf is out of range",
                              "kernel determinant 0.0 is out of range"]
    assert alone["fock"] == alone["table"][:2] + [None]
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0], [2, 0, 1], [1, 2]):
        stack = np.stack([good] + [bad[i] for i in order] + [good])
        for name, build in builds.items():
            want = next(m for m in (alone[name][i] for i in order) if m)
            with pytest.raises(SingularKernelError) as got:
                build(stack)
            assert str(got.value) == want, (name, order)


def test_integrate_polynomial():
    table = moment_table(pair_kernel(1.0), (2, 2, 1, 1))
    # Int (1 + |xi1|^2) -> 1 + 1 = 2
    poly = {ZERO_INDEX: 1.0, (1, 1, 0, 0): 1.0}
    val = sum(c * table[a] for a, c in poly.items())
    assert val == pytest.approx(2.0, abs=1e-13)


def test_moment_table_entry_ignores_table_shape():
    # a coherent_before state's augmented Fock kernel and its fidelity kernel
    op, ch = CoherentOp.from_t(0.7), ChannelParams(0.5, 0.1)
    st = apply_coherent_op(apply_coherent_op(tmsv_state(0.3), 1, op), 2, op)
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
    # the plan is keyed by the shape and the kernel count, not by the
    # kernels: a table read through a plan built for other kernels has the
    # bits of a cold call (one cache for every kernel count, so cold is
    # cold), and the plan of S kernels is the one-kernel plan with each
    # table's offset added
    r = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    rng = np.random.default_rng(21)
    cases = []
    for strategy in Strategy:
        for _ in range(2):
            cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                                 ChannelParams(float(rng.uniform(0.01, 1.0)),
                                               float(rng.uniform(0.0, 1.0))), 3)
            kernel, _ = raw_terms(cfg)
            cases.append((_augmented_kernel(kernel), (6, 5, 7, 4)))
            cases.append((gaussian_kernel(r.T @ kernel @ r + [[0.0, 1.0], [1.0, 0.0]]),
                          (8, 7)))
    cases.append((np.stack([k for k, shape in cases if len(shape) == 4]), (6, 5, 7, 4)))
    cold = []
    for kernel, shape in cases:
        chi_core._moment_plan.cache_clear()
        cold.append(moment_table(kernel, shape))
    chi_core._moment_plan.cache_clear()
    warm = [moment_table(kernel, shape) for kernel, shape in cases]
    info = chi_core._moment_plan.cache_info()
    assert (info.misses, info.hits) == (3, len(cases) - 3)
    for a, b in zip(warm, cold):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    one = chi_core._moment_plan((6, 5, 7, 4), 1)
    plan = chi_core._moment_plan((6, 5, 7, 4), 3)
    offsets = 6 * 5 * 7 * 4 * np.arange(3)[:, None]
    assert len(plan) == len(one)
    for (j, target, terms), (j1, target1, terms1) in zip(plan, one):
        assert j == j1 and len(terms) == len(terms1) and target1.shape[0] == 1
        assert np.array_equal(target, target1 + offsets)
        for (k, bk, source), (k1, bk1, source1) in zip(terms, terms1):
            assert k == k1 and np.array_equal(bk, bk1)
            assert np.array_equal(source, source1 + offsets)
    arrays = [x for _, target, terms in plan
              for x in (target, *(a for _, bk, source in terms for a in (bk, source)))]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 0
