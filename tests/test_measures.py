import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlab import convert, linalg, measures, states, tgx
from xlab.errors import DimensionError, DomainError
from xlab.states import DensityMatrix


def test_concurrence_theta_law():
    worst = 0.0
    for th in np.linspace(0, math.pi / 2, 25):
        for ph in (0.0, 0.7, 2.1):
            for fam in (states.PHI, states.PSI):
                r = states.theta_state(fam, float(th), ph)
                worst = max(worst, abs(measures.concurrence(r) - abs(math.sin(2 * th))))
    assert worst <= 1e-10


def test_concurrence_anchors():
    assert abs(measures.concurrence(states.bell_state()) - 1.0) <= 1e-12
    prod = states.theta_state(states.PHI, 0.0, 0.0)
    assert measures.concurrence(prod) <= 1e-12
    maximally_mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert measures.concurrence(maximally_mixed) == 0.0


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_concurrence_bounds_and_local_invariance(seed, R):
    rng = np.random.default_rng(seed)
    rho = states.random_mixed(4, R, rng, (2, 2))
    c = measures.concurrence(rho)
    assert 0.0 <= c <= 1.0 + 1e-12
    # Invariance under local unitaries.
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r_ = np.linalg.qr(z)
    u1 = q * (np.diag(r_) / np.abs(np.diag(r_)))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r_ = np.linalg.qr(z)
    u2 = q * (np.diag(r_) / np.abs(np.diag(r_)))
    L = np.kron(u1, u2)
    rot = DensityMatrix(L @ rho.mat @ L.conj().T, (2, 2))
    assert abs(measures.concurrence(rot) - c) <= 1e-10


def test_concurrence_x_matches_general():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        params = states.XParams(
            probability_angles=rng.uniform(0, math.pi / 2, 3),
            superposition_angles=rng.uniform(0, math.pi / 2, 4),
            phases=rng.uniform(0, 2 * math.pi, 4))
        r = states.general_x_state(params)
        worst = max(worst, abs(measures.concurrence(r) - measures.concurrence_x(r)))
    assert worst <= 1e-9


def test_concurrence_x_rejects_non_x_input():
    rng = np.random.default_rng(8)
    rho = states.random_mixed(4, 4, rng, (2, 2))
    with pytest.raises(DomainError):
        measures.concurrence_x(rho)


def test_purity_range():
    assert abs(measures.purity(states.bell_state()) - 1.0) <= 1e-12
    assert abs(measures.purity(DensityMatrix(np.eye(4) / 4, (2, 2))) - 0.25) <= 1e-15


def test_anti_x_measure_extremes():
    x = states.general_x_state(states.XParams((0.4, 0.7, 0.9), (0.3, 0.8, 1.1, 0.2)))
    assert measures.anti_x_measure(x) <= 1e-14
    # Equal-weight four-term superposition with unit anti-X measure.
    m = 0.25 * np.array([
        [1, 1, -1j, 1j], [1, 1, -1j, 1j], [1j, 1j, 1, -1], [-1j, -1j, -1, 1]])
    assert abs(measures.anti_x_measure(DensityMatrix(m, (2, 2))) - 1.0) <= 1e-12


def test_partial_trace_bell():
    red = measures.partial_trace(states.bell_state(), 1)
    assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_2x3():
    phi1 = states.meb_state_2x3(states.PHI, 1, math.pi / 4, 0.0)
    red = measures.partial_trace(phi1, 2)
    assert np.allclose(np.diag(red.mat).real, [0.5, 0.0, 0.5], atol=1e-12)


def test_partial_transpose_bell():
    pt = measures.partial_transpose(states.bell_state(), 1)
    w = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(linalg.trace_norm(pt) - 2.0) <= 1e-12


def test_negativity_anchors():
    phi1 = states.meb_state_2x3(states.PHI, 1, math.pi / 4, 0.0)
    assert abs(measures.negativity_e(phi1) - 1.0) <= 1e-12
    assert measures.negativity_e(states.l_state(2, 0.3, 0.0)) <= 1e-12


def test_peres_consistency():
    # Product and separable states keep trace norm 1 under partial transpose.
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = states.random_pure(2, rng)
        b = states.random_pure(3, rng)
        prod = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
        pt = measures.partial_transpose(prod, 1)
        assert abs(linalg.trace_norm(pt) - 1.0) <= 1e-10
    for th in np.linspace(0, math.pi / 2, 7):
        pt = measures.partial_transpose(states.l_state(2, float(th), 0.4), 1)
        assert abs(linalg.trace_norm(pt) - 1.0) <= 1e-10


def test_mems_boundary_anchors():
    assert abs(measures.mems_boundary_2x2(1 / 3)) <= 1e-12
    assert abs(measures.mems_boundary_2x2(5 / 9) - 2 / 3) <= 1e-12
    assert abs(measures.mems_boundary_2x2(1.0) - 1.0) <= 1e-12
    assert abs(measures.mems_boundary_2x3(1.0) - 1.0) <= 1e-9


def test_mems_boundary_2x3_matches_family():
    for P in np.linspace(1 / 6, 1.0, 40):
        r = states.mems_2x3(float(P))
        # Interpolation error grows near the square-root branch points.
        assert abs(measures.mems_boundary_2x3(float(P))
                   - measures.negativity_e(r)) <= 1e-5


def test_measure_dimension_checks():
    rho23 = states.mems_2x3(0.5)
    with pytest.raises(DimensionError):
        measures.concurrence(rho23)
    with pytest.raises(DimensionError):
        measures.negativity_e(states.bell_state())


def _state_stack(seed, dims):
    """Random states of every rank, the maximally mixed state, a maximally
    entangled state and a rank-1 product state, stacked in random order."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    ranks = rng.permutation(np.repeat(np.arange(1, n + 1), 2))
    mats = [states.random_mixed(n, int(R), rng, dims).mat for R in ranks]
    entangled = (states.bell_state() if dims == (2, 2)
                 else states.meb_state_2x3(states.PHI, 1, math.pi / 4, 0.0))
    mats += [np.eye(n) / n, entangled.mat, np.diag(np.eye(n)[0])]
    return np.stack([mats[i] for i in rng.permutation(len(mats))])


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.sampled_from([(2, 2), (2, 3)]))
def test_stacked_kernels_match_per_matrix_calls(seed, dims):
    stack = _state_stack(seed, dims)
    measure = measures.concurrence if dims == (2, 2) else measures.negativity_e
    kernels = {
        "eig_hermitian.values": lambda m: linalg.eig_hermitian(m).values,
        "eig_hermitian.vectors": lambda m: linalg.eig_hermitian(m).vectors,
        "sqrt_psd": linalg.sqrt_psd,
        "trace_norm": lambda m: linalg.trace_norm(
            measures.partial_transpose(DensityMatrix(m, dims), 1)),
        "numerical_rank": linalg.numerical_rank,
        "rank": lambda m: DensityMatrix(m, dims).rank(),
        "purity": lambda m: measures.purity(DensityMatrix(m, dims)),
        "entanglement": lambda m: measure(DensityMatrix(m, dims)),
    }
    if dims == (2, 2):
        kernels["anti_x_measure"] = measures.anti_x_measure
    scalar_kernels = {"trace_norm", "numerical_rank", "rank", "purity",
                      "entanglement", "anti_x_measure"}
    for name, kernel in kernels.items():
        looped = [kernel(m) for m in stack]
        assert np.array_equal(kernel(stack), np.array(looped)), name
        assert np.array_equal(kernel(stack[:1]), np.array(looped[:1])), name
        if name in scalar_kernels:
            assert all(type(x) in (float, int) for x in looped), name


def test_stacked_measures_check_every_matrix():
    stack = np.stack([np.eye(4) / 4] * 3)
    stack[1] = np.diag([0.5, 0.5, 0.25, -0.25])
    with pytest.raises(DomainError):
        measures.concurrence(DensityMatrix(stack, (2, 2)))
    stack = np.stack([np.eye(6) / 6] * 3)
    stack[2, 0, 5] = 0.1
    with pytest.raises(DomainError):
        measures.negativity_e(DensityMatrix(stack, (2, 3)))


@pytest.mark.parametrize("single", [
    lambda rho: measures.partial_trace(rho, 1), measures.concurrence_x,
    tgx.is_simple_me_state, convert.find_x_equivalent, convert.closed_form_conversion,
], ids=["partial_trace", "concurrence_x", "is_simple_me_state", "find_x_equivalent",
        "closed_form_conversion"])
def test_single_matrix_functions_reject_stacks(single):
    stack = DensityMatrix(np.stack([states.bell_state().mat, np.eye(4) / 4]), (2, 2))
    with pytest.raises(DimensionError, match="stack"):
        single(stack)
