"""Fock-basis reconstruction against series oracles and brute quadrature."""

import ast
import inspect
import math
import os
import tracemalloc

import numpy as np
import pytest

import cvdistill
from cvdistill import chi_core, entanglement, fock_recon
from cvdistill.chi_core import (
    ChannelParams,
    apply_thermal_channel,
    coherent_op_terms,
    gaussian_kernel,
    tmsv_chi,
)
from cvdistill.entanglement import (covariance_from_chi, fidelity_integrals,
                                    log_negativity, origin_coefficients)
from cvdistill.fock_recon import (
    PrecisionError,
    _augmented_kernel,
    _dagger_table,
    certify,
    fock_matrices,
    partial_transpose,
)
from cvdistill.scenarios import ScenarioConfig, Strategy

import oracles
from oracles import (
    CoherentOp,
    QuadratureGrid,
    _laguerre_coeffs,
    apply_coherent_op,
    channel_state,
    combine_terms,
    displacement_fock_poly,
    fock_element,
    fock_matrix,
    normalize,
    quadrature_fock_element,
    quadrature_fock_elements,
    raw_terms,
    same_bits,
    tmsv_state,
)


def subtracted_tmsv(s):
    op = CoherentOp(1.0, 0.0)
    st = apply_coherent_op(tmsv_state(s), 1, op)
    st = apply_coherent_op(st, 2, op)
    return normalize(st)[0]


def channelled_tmsv(s, eta, n_th):
    ch = ChannelParams(eta, n_th)
    st = channel_state(tmsv_state(s), 1, ch)
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


def test_dagger_table_equals_the_oracle_dicts_bit_for_bit():
    # the arrays built directly equal those packed from the dict route,
    # offsets, coefficients, padding and signs of zero included
    for d in range(1, 22):
        got, want = _dagger_table(d), oracles.dagger_table(d)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), d
        assert not any(a.flags.writeable for a in got)


# ---------------------------------------------------------------------------
# analytic elements

def test_vacuum_density_matrix():
    st = tmsv_state(0.0)
    assert fock_element(st, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-13)
    assert abs(fock_element(st, 1, 0, 1, 0)) < 1e-13
    assert abs(fock_element(st, 0, 0, 1, 1)) < 1e-13


def test_tmsv_diagonal_closed_form():
    s = 0.403
    st = tmsv_state(s)
    for n in range(4):
        want = oracles.tmsv_fock_diag(s, n)
        got = fock_element(st, n, n, n, n)
        np.testing.assert_allclose(got, want, rtol=1e-11)


def test_tmsv_schmidt_off_diagonal():
    s = 0.25
    st = tmsv_state(s)
    lam = math.tanh(s)
    got = fock_element(st, 0, 0, 2, 2)
    np.testing.assert_allclose(got, lam ** 2 / math.cosh(s) ** 2, rtol=1e-11)
    # elements that break the photon-number correlation vanish
    assert abs(fock_element(st, 0, 1, 0, 0)) < 1e-13
    assert abs(fock_element(st, 1, 1, 2, 1)) < 1e-13


def test_fock_element_requires_normalized_state():
    op = CoherentOp(1.0, 0.0)
    raw = apply_coherent_op(tmsv_state(0.4), 1, op)
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


def _coupled(weights):
    """A diagonal d = 2 matrix with the weights whose |0, 0> (even i + j)
    and |1, 0> (odd) are coupled by 0.1."""
    rho = np.diag(weights)
    rho[0, 2] = rho[2, 0] = 0.1
    return rho


def test_certify_passes_states_and_refuses_the_rest():
    rho = fock_matrix(channelled_tmsv(0.403, 0.7, 0.1), 3)
    assert certify(rho) is rho
    over = np.diag([1.0 + 2e-6, 0.0, 0.0, 0.0])
    negative = np.diag([0.5, 0.5 + 2e-6, -2e-6, 0.0])
    # eigvalsh reads a NaN entry as a NaN eigenvalue, which no bound rejects
    nan = np.eye(4) / 4
    nan[0, 1] = nan[1, 0] = np.nan
    # each parity block alone is a state, the whole matrix has an
    # eigenvalue of -0.019
    coupled = _coupled([0.5, 0.5, 0.0, 0.0])
    for bad in (over, negative, nan, coupled):
        with pytest.raises(PrecisionError, match="n_trunc = 1 gives no state: "):
            certify(bad)
    coupled = _coupled([0.5, 0.45, 0.05, 0.0])
    assert certify(coupled) is coupled


def test_certify_takes_a_stack():
    # each matrix of a stack is certified, by its parity blocks where the
    # coupling entries are exact zeros and whole where they are not, and
    # the first one refused raises with its index
    good = fock_matrix(channelled_tmsv(0.403, 0.7, 0.1), 1)
    coupled = _coupled([0.5, 0.45, 0.05, 0.0])
    for stack in (np.stack([np.eye(4) / 4] * 2), np.eye(4)[None] / 4,
                  np.stack([good, coupled, good])):
        assert certify(stack) is stack
    over = np.diag([1.0 + 2e-6, 0.0, 0.0, 0.0])
    negative = _coupled([0.5, 0.5, 0.0, 0.0])
    for stack, index in ((np.stack([good, over, negative]), "1"),
                         (np.stack([good, coupled, negative]), "2"),
                         (np.stack([good, negative, over, good]).reshape(2, 2, 4, 4),
                          r"\(0, 1\)")):
        with pytest.raises(PrecisionError,
                           match=f"n_trunc = 1 gives no state at index {index}: "):
            certify(stack)


# shapes outside the (..., d^2, d^2) format: sides that are not squares,
# d = 0, a vector, a non-square matrix and a stack of 3 x 3 matrices
NOT_FOCK = [np.eye(6) / 6, np.eye(3) / 3, np.zeros((0, 0)), np.ones(4),
            np.zeros((4, 9)), np.zeros((2, 3, 3))]
FOCK_FORMAT = r"a Fock matrix is a \(\.\.\., d\^2, d\^2\) array with d >= 1"


@pytest.mark.parametrize("rho", NOT_FOCK, ids=lambda a: "x".join(map(str, a.shape)))
@pytest.mark.parametrize("fn", [certify, partial_transpose, log_negativity],
                         ids=lambda f: f.__name__)
def test_fock_matrix_format_is_checked(fn, rho):
    # without the check certify passes eye(6) / 6, and the other two raise
    # IndexError or a numpy reshape error
    with pytest.raises(ValueError, match=FOCK_FORMAT):
        fn(rho)


def test_one_level_fock_matrix_is_in_the_format():
    vacuum = np.eye(1)
    assert certify(vacuum) is vacuum
    assert log_negativity(vacuum) == 0.0
    np.testing.assert_array_equal(partial_transpose(vacuum), vacuum)


@pytest.mark.parametrize("transposed", [False, True])
def test_parity_gathers_are_slices_of_the_partial_transpose(transposed):
    # each block gather reads, bit for bit, the slice of rho (or of
    # partial_transpose(rho)) over one parity set, of one matrix and of each
    # matrix of a stack; the coupling indices are exactly the entries whose
    # two parities differ.  _blocks gives those slices of a stack that
    # couples no parities, and None once one matrix couples them
    rng = np.random.default_rng(30)
    for d in range(1, 10):
        i, j = np.divmod(np.arange(d * d), d)
        parity = (i + j) % 2
        sets = [a for a in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
                if len(a)]
        blocks, coupling = fock_recon._parity_gathers(d, transposed)
        assert len(blocks) == len(sets) == min(d, 2)
        assert not coupling.flags.writeable
        assert coupling.tolist() == [r * d * d + c for r in range(d * d)
                                     for c in range(d * d) if parity[r] != parity[c]]
        for rho in (rng.normal(size=(d * d, d * d)), rng.normal(size=(2, 3, d * d, d * d))):
            whole = partial_transpose(rho) if transposed else rho
            flat = rho.reshape(*rho.shape[:-2], -1)
            for a, b in zip(sets, blocks):
                assert not b.flags.writeable
                got, want = flat[..., b], whole[..., a[:, None], a]
                if rho.ndim == 2:
                    np.testing.assert_array_equal(want, whole[np.ix_(a, a)])
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        rho = rng.normal(size=(3, d * d, d * d))
        rho[:, parity[:, None] != parity[None, :]] = 0.0
        got = fock_recon._blocks(rho, transposed)
        assert len(got) == len(sets)
        for a, block in zip(sets, got):
            for one, b in zip(rho, block):
                whole = partial_transpose(one) if transposed else one
                want = whole[np.ix_(a, a)]
                assert b.shape == want.shape and b.tobytes() == want.tobytes()
        if d > 1:
            rho[1].flat[coupling[-1]] = 1e-300
            assert fock_recon._blocks(rho, transposed) is None


def test_parity_rule_has_one_home():
    # the parity rule (blocks or whole) and the format's shape check are
    # fock_recon's: every other module reads the blocks through _blocks
    src = os.path.dirname(cvdistill.__file__)
    named = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "fock_recon.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            ids = ([node.id] if isinstance(node, ast.Name)
                   else [node.attr] if isinstance(node, ast.Attribute)
                   else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                   else [])
            named += [f"{name}:{i}" for i in ids if i in ("_parity_gathers", "_fock_side")]
    assert named == []


def test_partial_transpose_has_one_home():
    assert cvdistill.partial_transpose is fock_recon.partial_transpose
    assert not hasattr(entanglement, "partial_transpose")


def test_truncated_tmsv_trace_partial_sum():
    s = 0.403
    rho = fock_matrix(tmsv_state(s), 5)
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
    st = apply_coherent_op(tmsv_state(0.3), 1, CoherentOp.from_t(0.6))
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
    kernel = tmsv_chi(0.2)[0]
    for polys in (np.zeros((0, 1, 1, 1, 1)), np.zeros((1, 1, 1, 1, 1)),
                  np.zeros((2, 3, 3, 3, 3))):
        with pytest.raises(ValueError, match="empty polynomial support"):
            fock_matrices(kernel, 2, polys)
    # a list of no cubes has no stack shape: the format check refuses it
    with pytest.raises(ValueError, match="two-mode state"):
        fock_matrices(kernel, 2, [])


def test_fock_matrices_want_an_integer_cutoff():
    kernel, stack = tmsv_chi(0.2)
    for n_trunc in (5.5, 5.0, "5", None):
        with pytest.raises(ValueError, match="n_trunc must be an integer"):
            fock_matrices(kernel, n_trunc, stack)
    with pytest.raises(ValueError, match="nonnegative"):
        fock_matrices(kernel, -1, stack)
    want = fock_matrices(kernel, 2, stack)
    assert fock_matrices(kernel, np.int64(2), stack).tobytes() == want.tobytes()


def test_fock_matrices_share_one_support_across_polynomials():
    # one call serves every t of the operated family on a fixed kernel
    ch = ChannelParams(0.8, 0.2)
    base = channel_state(
        channel_state(tmsv_state(0.4), 1, ch), 2, ch)
    states = []
    for t in (0.3, 0.9):
        op = CoherentOp.from_t(t)
        st = apply_coherent_op(apply_coherent_op(base, 1, op), 2, op)
        states.append(normalize(st)[0])
    got = fock_matrices(base.kernel, 3, [st.poly for st in states])
    assert got.shape == (2, 16, 16)
    for rho, st in zip(got, states):
        np.testing.assert_allclose(rho, fock_matrix(st, 3), atol=1e-13)


@pytest.mark.parametrize("n_trunc", [0, 3, 5, 8])
def test_stacks_over_one_kernel_get_their_lone_bits(n_trunc):
    # the three pipelines of one setting end on one kernel; one call over
    # their stacks gives each stack the bits of a call of its own, whatever
    # the order, though noop's support is a part of the others' union
    rng = np.random.default_rng(40 + n_trunc)
    # at s 0, n_th 0 and eta 0.3 or 0.9 coherent_after has 12 monomials
    # and coherent_before 4
    settings = [(0.0, 1.0, 0.0), (0.0, 0.3, 0.0), (0.0, 0.9, 0.0), (0.029, 1.0, 0.1)]
    settings += [(float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.01, 1.0)),
                  float(rng.uniform(0.0, 1.0))) for _ in range(3)]
    for s, eta, n_th in settings:
        runs = [raw_terms(ScenarioConfig(strategy, s, ChannelParams(eta, n_th),
                                         n_trunc))
                for strategy in (Strategy.NOOP, Strategy.COHERENT_BEFORE,
                                 Strategy.COHERENT_AFTER)]
        kernel = runs[0][0]
        assert all(k.tobytes() == kernel.tobytes() for k, _ in runs)
        alone = [fock_matrices(kernel, n_trunc, polys) for _, polys in runs]
        for order in ([0, 1, 2], [2, 0, 1], [1, 2]):
            got = fock_matrices(kernel, n_trunc, *(runs[i][1] for i in order))
            assert same_bits(got, np.concatenate([alone[i] for i in order])), \
                (s, eta, n_th, order)
    with pytest.raises(ValueError, match="empty polynomial support"):
        fock_matrices(kernel, n_trunc, runs[0][1], np.zeros((1, 1, 1, 1, 1)))


@pytest.mark.parametrize("n_trunc", [0, 3, 5, 8])
def test_fock_matrices_over_a_kernel_stack_are_per_kernel_bit_for_bit(n_trunc):
    # one call over a stack of kernels, s = 0 kernels (no cross-mode
    # entries, smaller supports) mixed with s > 0 ones, and the three
    # pipeline stacks over them: each kernel's matrices have the bytes of
    # a call over that kernel alone; a one-kernel stack is the 2-D call
    rng = np.random.default_rng(700 + n_trunc)
    kernels, stacks = oracles.mixed_chunk(rng)
    d2 = (n_trunc + 1) ** 2
    got = fock_matrices(kernels, n_trunc, *stacks)
    assert got.shape == (len(kernels), sum(p.shape[1] for p in stacks), d2, d2)
    for k, kernel in enumerate(kernels):
        want = fock_matrices(kernel, n_trunc, *(p[k] for p in stacks))
        assert got[k].tobytes() == want.tobytes()
        one = fock_matrices(kernel[None], n_trunc, *(p[k:k + 1] for p in stacks))
        assert one.tobytes() == want.tobytes()
        for p in stacks:
            assert fock_matrices(kernel, n_trunc, p[k]).tobytes() == \
                fock_matrices(kernel[None], n_trunc, p[k:k + 1])[0].tobytes()
    with pytest.raises(ValueError, match="empty polynomial support"):
        fock_matrices(kernels, n_trunc, np.zeros((len(kernels), 1, 1, 1, 1, 1)))


@pytest.mark.parametrize("n_trunc", [0, 1, 3, 5, 8, 11])
def test_fock_matrices_equal_the_per_entry_route_bit_for_bit(n_trunc):
    rng = np.random.default_rng(n_trunc)
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))),
                             n_trunc)
        kernel, polys = raw_terms(cfg)
        got = fock_matrices(kernel, n_trunc, polys)
        want = oracles.fock_matrices_by_entry(kernel, n_trunc, polys)
        assert same_bits(got, want), cfg


def _random_terms(rng, n_trunc):
    """The raw terms of one random configuration of each strategy."""
    cases = []
    for strategy in Strategy:
        cfg = ScenarioConfig(strategy, float(rng.uniform(0.0, 1.0)),
                             ChannelParams(float(rng.uniform(0.01, 1.0)),
                                           float(rng.uniform(0.0, 1.0))),
                             n_trunc)
        cases.append(raw_terms(cfg))
    return cases


def test_fock_matrices_factor_the_kernel_once(monkeypatch):
    # the moment table's covariance is the one factorization a call makes
    factor = chi_core._moment_covariance
    calls = []

    def counted(kernel):
        calls.append(kernel)
        return factor(kernel)
    # patched wherever a module may hold the function by name
    for module in (chi_core, fock_recon):
        monkeypatch.setattr(module, "_moment_covariance", counted, raising=False)
    kernel, polys = _random_terms(np.random.default_rng(7), 3)[3]
    fock_matrices(kernel, 3, polys)
    assert len(calls) == 1


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
        assert same_bits(warm, cold)


def test_each_support_gets_its_own_plan():
    # noop's support is one monomial, coherent_after's 46
    ch = ChannelParams(0.6, 0.2)
    cases = [raw_terms(ScenarioConfig(strategy, 0.3, ch, 3))
             for strategy in (Strategy.NOOP, Strategy.COHERENT_AFTER, Strategy.NOOP)]
    fock_recon._fock_plan.cache_clear()
    got = [fock_matrices(kernel, 3, polys) for kernel, polys in cases]
    info = fock_recon._fock_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    for (kernel, polys), rho in zip(cases, got):
        assert same_bits(rho, oracles.fock_matrices_by_entry(kernel, 3, polys))


def test_cached_fock_plan_is_read_only():
    kernel, polys = raw_terms(ScenarioConfig(Strategy.COHERENT_BEFORE, 0.3,
                                             ChannelParams(0.7, 0.1), 3))
    fock_matrices(kernel, 3, polys)
    support = tuple(map(tuple, np.argwhere(np.any(polys != 0, axis=0)).tolist()))
    hits = fock_recon._fock_plan.cache_info().hits
    _, rows, cols, classes = fock_recon._fock_plan(4, support)
    assert fock_recon._fock_plan.cache_info().hits == hits + 1
    arrays = [rows, cols, *(x for c in classes for x in c)]
    assert len(arrays) > 2 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        classes[0][2][0, 0] = 0


def test_augmented_kernel_wants_an_exactly_symmetric_kernel():
    kernel, stack = tmsv_chi(0.4)
    want = np.array(kernel)
    for p in (0, 2):
        want[p, p + 1] += 0.5
        want[p + 1, p] += 0.5
    aug = _augmented_kernel(kernel)
    assert not aug.flags.writeable
    assert aug.tobytes() == gaussian_kernel(want).tobytes()
    # _augmented_kernel takes a kernel already checked: fock_matrices checks
    # it once, where it enters, before it is augmented
    skewed = np.array(kernel)
    skewed[0, 2] += 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        fock_matrices(skewed, 2, stack)
    with pytest.raises(ValueError, match="pairs"):
        fock_matrices(np.eye(3), 2, stack)


def test_fock_matrices_returns_one_new_array_and_refuses_an_unallocatable_cutoff():
    # one output path: no out parameter, and the refusal of a cutoff whose
    # matrices numpy cannot index (d^4 entries overflow its index at
    # n_trunc 100000) comes before the plan or the moment table is built
    assert list(inspect.signature(fock_matrices).parameters) == [
        "kernel", "n_trunc", "polys", "more"]
    kernel, polys = raw_terms(ScenarioConfig(Strategy.NOOP, 0.3, ChannelParams(0.7, 0.1)))
    with pytest.raises(MemoryError, match=r"^n_trunc = 100000: "):
        fock_matrices(kernel, 100000, polys)


def test_fock_matrices_allocation_peak_at_cutoff_8():
    # measured with numpy 2.4: the per-entry route (fock_matrices_by_entry)
    # peaks at 3.56 MiB here, the grouped sums over every (entry, support)
    # pair at 4.78 MiB and over the pairs of charge zero at 3.64 MiB, with
    # the cached plans (the measured call is warm) at 3.40 MiB, with
    # float64 weights and matrices at 1.71 MiB, and with the leading kernel
    # axis (one kernel here) and the returned array allocated before the
    # weights at 1.78 MiB, the same with that array as its one output
    # path (no out=); complex weights coming back,
    # or a temporary that outgrows the bound, raise the process's peak
    # resident memory
    cfg = ScenarioConfig(Strategy.COHERENT_AFTER, 0.5, ChannelParams(0.7, 0.1), 8)
    kernel, polys = raw_terms(cfg)
    fock_matrices(kernel, 8, polys)
    tracemalloc.start()
    try:
        fock_matrices(kernel, 8, polys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2 ** 20


@pytest.mark.parametrize("n_trunc", [0, 3, 5])
def test_fock_matrices_take_the_dtype_of_their_stacks(n_trunc):
    # a stack is float64: a complex one whose imaginary parts are all 0 is
    # its real part, alone and next to a real stack, bit for bit, and a
    # nonzero imaginary part is refused wherever a stack goes in
    rng = np.random.default_rng(40 + n_trunc)
    for kernel, polys in _random_terms(rng, n_trunc):
        assert polys.dtype == np.float64
        real = fock_matrices(kernel, n_trunc, polys)
        assert real.dtype == np.float64
        z = polys.astype(complex)
        alone = fock_matrices(kernel, n_trunc, z)
        both = fock_matrices(kernel, n_trunc, polys, z)
        stack = chi_core.two_mode_stack(kernel, z)
        assert alone.dtype == both.dtype == stack.dtype == np.float64
        assert same_bits(alone, real)
        assert same_bits(both, np.concatenate([real, real]))
        assert same_bits(stack, polys)
        z[-1].flat[0] += 1e-300j
        channel = ChannelParams(0.7, 0.1)
        for call in (lambda: chi_core.two_mode_stack(kernel, z),
                     lambda: fock_matrices(kernel, n_trunc, z),
                     lambda: fock_matrices(kernel, n_trunc, polys, z),
                     lambda: coherent_op_terms(kernel, z, 1),
                     lambda: apply_thermal_channel(kernel, z, 2, channel),
                     lambda: fidelity_integrals(kernel, z),
                     lambda: covariance_from_chi(kernel, origin_coefficients(z[-1]))):
            with pytest.raises(ValueError, match="real"):
                call()


# ---------------------------------------------------------------------------
# quadrature oracle

def test_quadrature_vacuum_element():
    st = tmsv_state(0.0)
    grid = QuadratureGrid(half_width=6.0, points=80)
    val = quadrature_fock_element(st, 0, 0, 0, 0, grid)
    np.testing.assert_allclose(val, 1.0, atol=1e-6)


def test_quadrature_matches_analytic_on_tmsv():
    st = tmsv_state(0.029)
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


def public_api_terms(case):
    """Kernels and stacks the public pipeline functions build beyond the
    strategies' symmetric channels: the README's channel on mode 1, two
    different channels, and the coherent operation after those two."""
    kernel, stack = apply_thermal_channel(*tmsv_chi(0.403), 1,
                                          ChannelParams(0.8, 0.1))
    if case != "one_channel":
        kernel, stack = apply_thermal_channel(kernel, stack, 2,
                                              ChannelParams(0.45, 0.6))
    if case == "operation_after":
        stack = coherent_op_terms(kernel, coherent_op_terms(kernel, stack, 1), 2)
    return kernel, stack


@pytest.mark.parametrize("case", ["one_channel", "two_channels", "operation_after"])
def test_public_api_kernels_pass_the_contract(case):
    # the fidelity in closed form against the moment recursion, and the
    # Fock matrix against brute quadrature, including an entry that the
    # phase charge makes 0 (measured worst differences: 2.2e-16 and 2.7e-12)
    kernel, polys = public_api_terms(case)
    np.testing.assert_allclose(fidelity_integrals(kernel, polys),
                               oracles.fidelity_integrals_by_moments(kernel, polys),
                               rtol=1e-13, atol=1e-15)
    op = CoherentOp.from_t(0.6)
    st = normalize(combine_terms(kernel, polys, op.t, op.r))[0]
    rho = fock_matrix(st, 3)
    idx = [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0), (1, 0, 0, 0)]
    vals = quadrature_fock_elements(st, idx)
    for i, j, k, l in idx:
        np.testing.assert_allclose(rho[4 * i + j, 4 * k + l], vals[(i, j, k, l)],
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# Kraus oracle: a Fock-space route that shares nothing with chi

def schmidt_rho(c):
    """(d^2, d^2) matrix of the pure state sum_n c_n |n, n>, d = len(c)."""
    d = len(c)
    diag = np.arange(d) * (d + 1)
    rho = np.zeros((d * d, d * d))
    rho[np.ix_(diag, diag)] = np.outer(c, c)
    return rho


@pytest.mark.parametrize("strategy", ["noop", "subtract_before", "subtract_after"])
def test_kraus_oracle_at_unit_transmissivity(strategy):
    # at eta = 1 the channel is the identity whatever n_th, so the states
    # are the Schmidt forms of the TMSV and of a1 a2 |TMSV> (measured worst
    # difference 2.8e-16)
    s, n_trunc = 0.5, 5
    rho = oracles.kraus_rho(strategy, s, 1.0, 0.3, 1.0, n_trunc, 30)
    if strategy == "noop":
        c = np.sqrt([oracles.tmsv_fock_diag(s, n) for n in range(n_trunc + 1)])
    else:
        c = oracles.subtracted_tmsv_schmidt(s, n_trunc)
    np.testing.assert_allclose(rho, schmidt_rho(c), rtol=0, atol=1e-15)


@pytest.mark.parametrize("s,eta,n_th,t", [(0.3, 0.7, 0.1, 0.6),
                                          (0.6, 0.9, 0.05, 0.95)])
@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_evaluator_rho_matches_the_kraus_oracle(strategy, s, eta, n_th, t):
    # the normalized rho(t) of the chi route against Kraus operators on the
    # Schmidt vector; measured worst gap 1.92e-12 at n_trunc 5 (and
    # 4.70e-10 at n_trunc 8), the chi route's float64 error
    cfg = ScenarioConfig(Strategy(strategy), s, ChannelParams(eta, n_th), 5)
    ev = oracles.Row(cfg)
    rho = ev.rhos(ev.weights([t]))[0]
    want = oracles.kraus_rho(strategy, s, eta, n_th, t, 5, 30)
    assert np.max(np.abs(rho - want)) <= 1e-11
