import math
import re
import warnings

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


def _local_unitaries(rng, B):
    """B Haar-random U1 (x) U2, a (B, 4, 4) stack."""
    z = rng.standard_normal((2, B, 2, 2)) + 1j * rng.standard_normal((2, B, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u1, u2 = q * (d / np.abs(d))[..., None, :]
    return np.einsum("bij,bkl->bikjl", u1, u2).reshape(B, 4, 4)


@pytest.mark.parametrize("second", [1, 2], ids=["01", "10"])
def test_rank_deficient_concurrence_is_good_to_about_1e_8(second):
    # 0.625 |psi><psi| + 0.375 |01><01| with psi = cos t|00> + sin t|11> and
    # sin 2t = 0.4 has C = 0.25.  It measures 0.25 to 1e-15 in this frame, but
    # sqrt_psd takes square roots of its zero eigenspace's eps-level eigenvalues,
    # so after a local unitary it reads C to about 1e-8, not to eps: up to 2.3e-8
    # over 10,000 draws from this seed, with the second term on |01> or |10>.
    t = math.asin(0.4) / 2.0
    psi, other = np.zeros(4), np.eye(4)[second]
    psi[[0, 3]] = math.cos(t), math.sin(t)
    rho = 0.625 * np.outer(psi, psi) + 0.375 * np.outer(other, other)
    assert abs(measures.concurrence(DensityMatrix(rho, (2, 2))) - 0.25) <= 1e-15
    L = _local_unitaries(np.random.default_rng(53), 2000)
    C = measures.concurrence(DensityMatrix(L @ rho @ L.conj().mT, (2, 2)))
    assert np.abs(C - 0.25).max() <= 1e-7


@pytest.mark.parametrize("second", [1, 2], ids=["01", "10"])
def test_rank_deficient_factor_concurrence_is_good_to_eps(second):
    # The state above from its factor [sqrt(0.625) psi, sqrt(0.375) e]: tau = F^T Y F
    # takes no square root of an eps-level eigenvalue, so under the same 2000 local
    # unitaries it reads C = 0.25 to 1e-15.
    t = math.asin(0.4) / 2.0
    psi = np.zeros(4)
    psi[[0, 3]] = math.cos(t), math.sin(t)
    F = np.stack([math.sqrt(0.625) * psi, math.sqrt(0.375) * np.eye(4)[second]], axis=-1)
    L = _local_unitaries(np.random.default_rng(53), 2000)
    assert np.abs(measures.factor_concurrence(L @ F) - 0.25).max() <= 1e-15


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_factor_concurrence_matches_concurrence_of_rho(seed, r):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((16, 4, r)) + 1j * rng.standard_normal((16, 4, r))
    F = G / np.sqrt(np.add.reduce(np.abs(G) ** 2, axis=(-2, -1)))[:, None, None]
    rho = DensityMatrix(F @ F.conj().mT, (2, 2))
    assert np.abs(measures.factor_concurrence(F) - measures.concurrence(rho)).max() <= 1e-12


def test_factor_concurrence_edges():
    # Columns |0> (x) b_k give tau = 0 exactly; after local unitaries they stay
    # product states.  A Bell ket reads 1, in any local frame to a few eps, and the
    # maximally mixed state's factor I/2 reads 0.
    rng = np.random.default_rng(17)
    F = np.zeros((50, 4, 3), dtype=complex)
    F[:, :2] = rng.standard_normal((50, 2, 3)) + 1j * rng.standard_normal((50, 2, 3))
    F /= np.sqrt(np.add.reduce(np.abs(F) ** 2, axis=(-2, -1)))[:, None, None]  # tr rho = 1
    assert measures.factor_concurrence(F).tolist() == [0.0] * 50
    L = _local_unitaries(rng, 50)
    assert np.abs(measures.factor_concurrence(L @ F[:, :, :1])).max() <= 1e-15
    assert np.abs(measures.factor_concurrence(L @ F)).max() <= 1e-15
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]])[..., None]
    bells = bells / math.sqrt(2.0)
    assert np.abs(measures.factor_concurrence(bells) - 1.0).max() <= 1e-15
    assert np.abs(measures.factor_concurrence(L @ bells[0]) - 1.0).max() <= 1e-14
    assert measures.factor_concurrence(np.eye(4) / 2.0) == 0.0


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


def test_anti_x_positions_are_the_two_qubit_anti_x_mask():
    # anti_x_measure, concurrence_x and convert's success column read these hard-coded
    # positions; they must be the upper triangle of the TGX rule's anti-X mask, in order.
    upper = [(r, c) for r, c in tgx.anti_x_mask((2, 2)).pairs() if r < c]
    assert list(zip(measures._ANTI_X_ROWS.tolist(), measures._ANTI_X_COLS.tolist())) == upper


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
        a = states.random_mixed(2, 1, rng)
        b = states.random_mixed(3, 1, rng)
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


def _boundary_grid(lo):
    """Purities from lo to 1 with each branch point and one ulp either side."""
    ends = np.array([1 / 5, 3 / 8, 1 / 3, 5 / 9, 1 / 2])
    edges = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
    return np.concatenate([np.linspace(lo, 1.0, 40), edges[edges >= lo]])


def test_mems_boundary_2x3_matches_family():
    for P in _boundary_grid(1 / 6):
        r = states.mems_2x3(float(P))
        assert abs(measures.mems_boundary_2x3(float(P))
                   - measures.negativity_e(r)) <= 1e-12


def _rho_star(P) -> DensityMatrix:
    """diag(r, r, r - k, r - k, r, r) + k (|0,0><1,2| + |1,2><0,0|) with
    k = sqrt((6P - 1)/20) and r = (1 + 2k)/6, for 1/5 <= P <= 3/8; an array
    of purities gives a stack.  A literal-X 2x3 state of purity P."""
    P = np.asarray(P, dtype=float)
    k = np.sqrt((6.0 * P - 1.0) / 20.0)
    r = (1.0 + 2.0 * k) / 6.0
    mat = np.zeros(P.shape + (6, 6), dtype=complex)
    mat[..., range(6), range(6)] = np.stack([r, r, r - k, r - k, r, r], axis=-1)
    mat[..., 0, 5] = mat[..., 5, 0] = k
    return DensityMatrix(mat, (2, 3))


def _e_star(P):
    """E*(P) = (sqrt(5(6P - 1)) - 1)/3, the negativity of `_rho_star(P)`."""
    return (np.sqrt(5.0 * (6.0 * P - 1.0)) - 1.0) / 3.0


def test_a_literal_x_state_beats_xlabs_2x3_candidate_below_purity_3_8():
    # xlab's candidate MEMS (states.mems_2x3, whose negativity is
    # measures.mems_boundary_2x3) is not the largest negativity at purity P in
    # (1/5, 3/8): rho*(P) reaches E*(P) = (sqrt(5(6P - 1)) - 1)/3, which meets
    # the candidate at 1/5 and 3/8 and exceeds it in between.
    P = np.linspace(0.2, 0.375, 36)
    rho = _rho_star(P).validate()
    assert np.abs(measures.purity(rho) - P).max() <= 1e-12
    assert np.abs(measures.negativity_e(rho) - _e_star(P)).max() <= 1e-12
    # The finding: 5.99e-3 above the candidate at P = 0.22.
    assert measures.negativity_e(_rho_star(0.22)) - measures.mems_boundary_2x3(0.22) >= 5e-3


def _dirichlet_spectra(n: int) -> list:
    """20,000 spectra of n values from dirichlet([alpha] * n) for each alpha in
    (1, 0.3, 0.1), in that order from default_rng(9), each sorted descending."""
    rng = np.random.default_rng(9)
    return [np.sort(rng.dirichlet([alpha] * n, 20_000), axis=1)[:, ::-1]
            for alpha in (1.0, 0.3, 0.1)]


def _vad_bound(lam):
    """Largest concurrence over the unitary orbit of the descending two-qubit
    spectrum lam: max(0, l1 - l3 - 2 sqrt(l2 l4)) (Verstraete, Audenaert and
    De Moor, PRA 64, 012316 (2001))."""
    return np.maximum(lam[:, 0] - lam[:, 2] - 2.0 * np.sqrt(lam[:, 1] * lam[:, 3]), 0.0)


def test_the_2x2_spectral_bound_is_the_mems_curve():
    for lam in _dirichlet_spectra(4):
        P = (lam * lam).sum(axis=1)
        assert (_vad_bound(lam) - measures.mems_boundary_2x2(P)).max() <= 1e-12
        # find_x_equivalent's layout at a = pi/4 reaches the bound: l1 and l3 on
        # the {|00>, |11>} plane, l2 on |01>, l4 on |10>.
        ex = convert._frame(np.ones(len(lam)), convert._FIND_X_ROW, 4)
        C = measures.concurrence(DensityMatrix(ex @ (lam[..., None] * ex.conj().mT), (2, 2)))
        # Loose because a rank-deficient state measures only to about 1e-8.
        assert np.abs(C - _vad_bound(lam)).max() <= 1e-7
    # The bound is attained on the MEMS, so it is the curve, not just under it.
    P = np.linspace(0.25, 1.0, 2001)
    lam = np.clip(np.linalg.eigvalsh(states.mems_2x2(P).mat)[:, ::-1], 0.0, None)
    assert np.abs(_vad_bound(lam) - measures.mems_boundary_2x2(P)).max() <= 1e-12


def test_the_2x3_one_coherence_layout_beats_the_candidate_but_not_e_star():
    # Per spectrum, l1 and l5 on |0,0>, |1,1> at a = pi/4, l4 on |0,1>, l6 on
    # |1,0>, and l2, l3 on |0,2>, |1,2>: its negativity is
    # E1 = sqrt((l1 - l5)^2 + (l4 - l6)^2) - l4 - l6 when positive.
    # It exceeds xlab's candidate (ROADMAP item 1) but never E*(P).  The plane
    # {0, 4} is TGX, not literal X: every state is 0 on the 2x3 anti-X mask.
    row = ((0, 4), (0, 4), ((3, 1), (5, 3), (1, 2), (2, 5)))
    beaten, anti_x = 0.0, tgx.anti_x_mask((2, 3)).grid
    for lam in _dirichlet_spectra(6):
        ex = convert._frame(np.ones(len(lam)), row, 6)
        mat = ex @ (lam[..., None] * ex.conj().mT)
        assert not mat[:, anti_x].any()
        E1 = np.hypot(lam[:, 0] - lam[:, 4], lam[:, 3] - lam[:, 5]) - lam[:, 3] - lam[:, 5]
        E = measures.negativity_e(DensityMatrix(mat, (2, 3)))
        assert np.abs(E - np.maximum(E1, 0.0)).max() <= 1e-12
        P = (lam * lam).sum(axis=1)
        candidate = measures.mems_boundary_2x3(P)
        beaten = max(beaten, (E - candidate).max())
        mid = (P > 0.2) & (P < 0.375)
        cap = np.where(mid, np.maximum(candidate, _e_star(np.clip(P, 0.2, 0.375))), candidate)
        assert (E - cap).max() <= 1e-12
    assert beaten > 1e-3


@pytest.mark.parametrize("boundary, lo", [
    (measures.mems_boundary_2x2, 1 / 4), (measures.mems_boundary_2x3, 1 / 6)],
    ids=["2x2", "2x3"])
def test_mems_boundary_array_equals_scalar_calls(boundary, lo):
    grid = _boundary_grid(lo)
    looped = [boundary(float(P)) for P in grid]
    assert all(type(e) is float for e in looped)
    assert np.array_equal(boundary(grid), np.array(looped))
    with pytest.raises(DomainError, match="purity 1.5 outside"):
        boundary(np.append(grid, 1.5))


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
        # The X part of each state, which zeroes its anti-X elements.
        x_part = ~tgx.anti_x_mask(dims).grid
        kernels["concurrence_x"] = lambda m: measures.concurrence_x(m * x_part)
    scalar_kernels = {"trace_norm", "numerical_rank", "rank", "purity",
                      "entanglement", "anti_x_measure", "concurrence_x"}
    for name, kernel in kernels.items():
        looped = [kernel(m) for m in stack]
        assert np.array_equal(kernel(stack), np.array(looped)), name
        assert np.array_equal(kernel(stack[:1]), np.array(looped[:1])), name
        if name in scalar_kernels:
            assert all(type(x) in (float, int) for x in looped), name


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def _flip_cases(seed, B):
    """(B, 4, 4) stacks: Ginibre states of ranks 1-4, general X states, MEMS
    with P = 1/4 and 1, H states with C = 0 and 1, and the Bell states."""
    rng = np.random.default_rng(seed)
    yield np.stack([states.random_mixed(4, int(R), rng, (2, 2)).mat
                    for R in rng.integers(1, 5, B)])
    u = rng.random((B, 11)) * np.r_[[math.pi / 2] * 7, [2 * math.pi] * 4]
    yield states.general_x_state(states.XParams(u[:, :3], u[:, 3:7], u[:, 7:])).mat
    yield states.mems_2x2(np.r_[0.25, 1.0, rng.uniform(0.25, 1.0, B)]).mat
    C = np.r_[0.0, 1.0, 0.0, 1.0, rng.random(B)]
    lo = states.h_purity_floor(C)
    u = np.r_[0.0, 0.0, 1.0, 1.0, rng.random(B)]
    yield states.h_state(C, np.minimum(lo + (1.0 - lo) * u, 1.0)).mat
    yield np.stack([psi.mat for psi in tgx.bell_basis()])


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_concurrence_spin_flip_is_bit_exact(seed, B):
    # The signed row reversal in measures.factor_concurrence against the literal
    # F^T (s2 x s2) F, compared byte for byte: on each case's Hermitian square root,
    # which measures.concurrence takes, and on complex Gaussian factors of rank 1-4.
    rng = np.random.default_rng(seed)
    mats = list(_flip_cases(seed, B))
    factors = [linalg.sqrt_psd(mat) for mat in mats] + [
        rng.standard_normal((B, 4, r)) + 1j * rng.standard_normal((B, 4, r)) for r in range(1, 5)]
    for k, F in enumerate(factors):
        lam = np.linalg.svd(F.mT @ (_SPIN_FLIP @ F), compute_uv=False)
        want = np.maximum(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0).tobytes()
        assert np.asarray(measures.factor_concurrence(F)).tobytes() == want
        if k < len(mats):
            got = measures.concurrence(DensityMatrix(mats[k], (2, 2)))
            assert np.asarray(got).tobytes() == want


def test_stacked_measures_check_every_matrix():
    stack = np.stack([np.eye(4) / 4] * 3)
    stack[1] = np.diag([0.5, 0.5, 0.25, -0.25])
    with pytest.raises(DomainError):
        measures.concurrence(DensityMatrix(stack, (2, 2)))
    factors = np.stack([np.eye(4) / 2] * 3)
    factors[2, 3, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        measures.factor_concurrence(factors)
    stack = np.stack([np.eye(4) / 4] * 3)
    stack[2, 0, 1] = stack[2, 1, 0] = 0.125
    with pytest.raises(DomainError, match="anti-X measure 6.250e-02"):
        measures.concurrence_x(DensityMatrix(stack, (2, 2)))
    stack = np.stack([np.eye(6) / 6] * 3)
    stack[2, 0, 5] = 0.1
    with pytest.raises(DomainError):
        measures.negativity_e(DensityMatrix(stack, (2, 3)))


@pytest.mark.parametrize("single", [
    lambda rho: measures.partial_trace(rho, 1),
    tgx.is_simple_me_state, convert.closed_form_conversion,
    lambda rho: convert.x_transform_unconstrained(rho, [0.0] * 6),
    lambda rho: convert.conversion_unitary(rho, rho),
], ids=["partial_trace", "is_simple_me_state", "closed_form_conversion",
        "x_transform_unconstrained", "conversion_unitary"])
def test_single_matrix_functions_reject_stacks(single):
    stack = DensityMatrix(np.stack([states.bell_state().mat, np.eye(4) / 4]), (2, 2))
    with pytest.raises(DimensionError, match="stack"):
        single(stack)


def _spoiled(n: int, value: float) -> list:
    """The maximally mixed n x n state with `value` at one diagonal entry, at
    one off-diagonal entry and at every entry, each alone and as the middle
    matrix of a stack of three."""
    out = []
    for at in ((0, 0), (0, 1), (slice(None), slice(None))):
        m = np.eye(n, dtype=complex) / n
        m[at] = value
        out += [m, np.stack([np.eye(n) / n, m, np.eye(n) / n])]
    return out


# name: (dims, kernel, takes a stack)
_NON_FINITE_KERNELS = {
    "validate": ((2, 2), DensityMatrix.validate, True),
    "validate_2x3": ((2, 3), DensityMatrix.validate, True),
    "rank": ((2, 3), DensityMatrix.rank, True),
    "eig_hermitian": ((2, 2), lambda rho: linalg.eig_hermitian(rho.mat), True),
    "numerical_rank": ((2, 3), lambda rho: linalg.numerical_rank(rho.mat), True),
    "sqrt_psd": ((2, 2), lambda rho: linalg.sqrt_psd(rho.mat), True),
    "trace_norm": ((2, 3), lambda rho: linalg.trace_norm(rho.mat), True),
    "concurrence": ((2, 2), measures.concurrence, True),
    "concurrence_x": ((2, 2), measures.concurrence_x, True),
    "negativity_e": ((2, 3), measures.negativity_e, True),
    "find_x_equivalent": ((2, 2), convert.find_x_equivalent, True),
    "is_simple_me_state": ((2, 3), tgx.is_simple_me_state, False),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_KERNELS))
def test_non_finite_input_raises_domain_error(name):
    # One message, with no numpy warning before it: not numpy's LinAlgError,
    # not a nan result, and not a Hermiticity or PSD message (an infinite
    # off-diagonal entry makes validate's |rho - rho+| inf, not nan).
    dims, kernel, stacks = _NON_FINITE_KERNELS[name]
    for value in (np.nan, np.inf, -np.inf):
        for m in _spoiled(math.prod(dims), value):
            if m.ndim == 3 and not stacks:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as err:
                    kernel(DensityMatrix(m, dims))
            assert str(err.value) == "matrix has a non-finite entry"


_NO_ROWS = np.zeros(0)
# name: (systems, a kernel of the empty stack, or a builder given no rows)
_EMPTY_STACK_CALLS = {
    "rank": (((2, 2), (2, 3)), DensityMatrix.rank),
    "validate": (((2, 2), (2, 3)), lambda rho: rho.validate().mat),
    "purity": (((2, 2), (2, 3)), measures.purity),
    "concurrence": (((2, 2),), measures.concurrence),
    "concurrence_x": (((2, 2),), measures.concurrence_x),
    "anti_x_measure": (((2, 2),), measures.anti_x_measure),
    "negativity_e": (((2, 3),), measures.negativity_e),
    "find_x_equivalent": (((2, 2),), lambda rho: convert.find_x_equivalent(rho).converted.mat),
    "eig_hermitian": (((2, 2), (2, 3)), lambda rho: linalg.eig_hermitian(rho.mat).vectors),
    "sqrt_psd": (((2, 2), (2, 3)), lambda rho: linalg.sqrt_psd(rho.mat)),
    "trace_norm": (((2, 2), (2, 3)), lambda rho: linalg.trace_norm(rho.mat)),
    "random_mixed": (((2, 2), (2, 3)), lambda rho: states.random_mixed(
        rho.n, _NO_ROWS.astype(int), [], rho.dims).mat),
    "mems": (((2, 2), (2, 3)), lambda rho: (
        states.mems_2x2 if rho.dims == (2, 2) else states.mems_2x3)(_NO_ROWS).mat),
    "rank_states": (((2, 2), (2, 3)), lambda rho: states.rank_states(
        states.RANK_X if rho.dims == (2, 2) else states.TGX_RANK, _NO_ROWS.astype(int),
        *np.zeros((2, 0, rho.n)))[0].mat),
    "general_x_state": (((2, 2),), lambda rho: states.general_x_state(
        states.XParams(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 4)))).mat),
    "h_state": (((2, 2),), lambda rho: states.h_state(_NO_ROWS, _NO_ROWS).mat),
    "closed_form_x": (((2, 2),), lambda rho: states.closed_form_x(_NO_ROWS, _NO_ROWS).mat),
}


@pytest.mark.parametrize("name,dims", [
    pytest.param(name, dims, id=f"{name}-{dims[0]}x{dims[1]}")
    for name, (systems, _) in _EMPTY_STACK_CALLS.items() for dims in systems])
def test_empty_stacks_give_empty_results(name, dims):
    # The Hermiticity and trace checks take a max, which has no identity
    # for an empty stack unless it is given one.
    n = math.prod(dims)
    out = _EMPTY_STACK_CALLS[name][1](DensityMatrix(np.zeros((0, n, n)), dims))
    assert out.shape in ((0,), (0, n, n))


def test_nan_eigenvalues_fail_the_psd_check():
    # An eigensystem passed in as `es`, with a NaN or a -0.2 eigenvalue, is
    # checked where it is used as PSD: never an SVD that does not converge, a
    # clamp to 0 or a rank that counts it.
    rho = DensityMatrix(np.stack([np.eye(4) / 4] * 3), (2, 2))
    one = DensityMatrix(rho.mat[1], (2, 2))
    for bad, shown in ((np.nan, "nan"), (-0.2, "-2.000e-01")):
        values, vectors = linalg.eig_hermitian(rho.mat)
        values[1, 2] = bad
        es, es1 = linalg.EigenSystem(values, vectors), linalg.EigenSystem(values[1], vectors[1])
        for kernel in (lambda: linalg.check_psd(es.values),
                       lambda: linalg.numerical_rank(rho.mat, es=es),
                       lambda: linalg.sqrt_psd(rho.mat, es=es),
                       lambda: linalg.sqrt_psd(one.mat, es=es1),
                       lambda: measures.concurrence(rho, es),
                       lambda: measures.concurrence(one, es1),
                       lambda: rho.rank(es=es),
                       lambda: one.rank(es=es1)):
            with pytest.raises(DomainError, match=f"^matrix is not PSD: smallest eigenvalue {shown}$"):
                kernel()


def test_an_eigensystem_of_another_shape_is_rejected():
    # `es` must be the eigensystem of the matrix it is passed with; one of
    # another size or stack depth is a one-line DimensionError, not a rank or
    # a square root of the wrong matrix.
    one = DensityMatrix(np.eye(4) / 4, (2, 2))
    stack = DensityMatrix(np.stack([np.eye(4) / 4] * 3), (2, 2))
    for rho, other in ((one, np.eye(6) / 6), (one, stack.mat), (stack, one.mat),
                       (stack, stack.mat[:2]), (stack, np.stack([np.eye(6) / 6] * 3))):
        es = linalg.eig_hermitian(other)
        shown = re.escape(f"eigensystem of shape {other.shape} for a {rho.mat.shape} matrix")
        for kernel in (lambda: linalg.sqrt_psd(rho.mat, es),
                       lambda: linalg.numerical_rank(rho.mat, es),
                       lambda: measures.concurrence(rho, es),
                       lambda: rho.rank(es=es)):
            with pytest.raises(DimensionError, match=f"^{shown}$"):
                kernel()
    for rho in (one, stack):  # an eigensystem of the matrix itself still works
        es = linalg.eig_hermitian(rho.mat)
        assert np.all(rho.rank(es=es) == 4) and np.all(measures.concurrence(rho, es) == 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: measures.anti_x_measure(np.eye(6)), "anti-X measure needs a 4x4 matrix, got (6, 6)"),
    (lambda: measures.partial_trace(states.bell_state(), 3),
     "subsystem index 3 invalid for dims [2, 2]"),
    (lambda: measures.partial_transpose(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), 1),
     "partial transpose needs bipartite dims, got [2, 2, 2]"),
    (lambda: measures.partial_transpose(states.bell_state(), 3),
     "subsystem must be 1 or 2, got 3"),
], ids=["anti-x-6x6", "partial-trace-keep-3", "partial-transpose-2x2x2",
        "partial-transpose-sub-3"])
def test_a_measure_of_the_wrong_shape_is_one_dimension_error(call, message):
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == message
