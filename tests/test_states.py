import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlab import measures, states
from xlab.errors import DimensionError, DomainError, RankError


def test_theta_state_supports():
    phi = states.theta_state(states.PHI, 0.3, 0.5)
    psi = states.theta_state(states.PSI, 0.3, 0.5)
    assert abs(phi.mat[1, 1]) == 0 and abs(phi.mat[2, 2]) == 0
    assert abs(psi.mat[0, 0]) == 0 and abs(psi.mat[3, 3]) == 0
    phi.validate()
    psi.validate()


def test_bell_state_values():
    b = states.bell_state(states.PHI, +1)
    assert abs(b.mat[0, 0] - 0.5) <= 1e-15
    assert abs(b.mat[0, 3] - 0.5) <= 1e-15
    bm = states.bell_state(states.PHI, -1)
    assert abs(bm.mat[0, 3] + 0.5) <= 1e-15


@given(st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=5))
def test_hyperspherical_probs_simplex(angles):
    p = states.hyperspherical_probs(angles)
    assert len(p) == len(angles) + 1
    assert np.all(p >= -1e-15)
    assert abs(p.sum() - 1.0) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_general_x_state_is_valid_x_state(seed):
    rng = np.random.default_rng(seed)
    params = states.XParams(
        probability_angles=rng.uniform(0, math.pi / 2, 3),
        superposition_angles=rng.uniform(0, math.pi / 2, 4),
        phases=rng.uniform(0, 2 * math.pi, 4))
    r = states.general_x_state(params)
    r.validate()
    assert measures.anti_x_measure(r) <= 1e-14


def test_rank_x_state_ranks():
    rng = np.random.default_rng(0)
    for R in (1, 2, 3, 4):
        r = states.rank_x_state(R, rng.uniform(0.1, 1.4, R),
                                np.full(R, 1.0 / R))
        assert r.rank() == R
        r.validate()


def test_rank_x_state_rejects_zero_probability():
    with pytest.raises(RankError):
        states.rank_x_state(2, [0.3, 0.4], [1.0, 0.0])


def test_mems_2x2_domain():
    with pytest.raises(DomainError):
        states.mems_2x2(0.2)
    with pytest.raises(DomainError):
        states.mems_2x2(1.1)


def test_mems_2x2_round_trip():
    for P in np.linspace(0.25, 1.0, 101):
        r = states.mems_2x2(float(P))
        r.validate()
        assert abs(measures.purity(r) - P) <= 1e-9
        assert abs(measures.concurrence(r) - measures.mems_boundary_2x2(float(P))) <= 1e-9


@pytest.mark.parametrize("P0", [1 / 3, 5 / 9])
def test_mems_2x2_branch_continuity(P0):
    lo = states.mems_2x2(P0 - 1e-13).mat
    hi = states.mems_2x2(P0 + 1e-13).mat
    assert np.max(np.abs(hi - lo)) < 1e-6


def test_h_state_round_trip():
    worst = 0.0
    for C in np.linspace(0.0, 1.0, 21):
        pmin = 1 / 3 + C * C / 2 if C < 2 / 3 else 0.5 * (1 + (2 * C - 1) ** 2)
        for P in np.linspace(min(pmin + 1e-9, 1.0), 1.0, 11):
            r = states.h_state(float(C), float(P))
            r.validate()
            worst = max(worst, abs(measures.purity(r) - P),
                        abs(measures.concurrence(r) - C))
    assert worst <= 1e-8


def test_h_state_high_purity_branch_is_closed_form_x():
    # 33/99 is a grid concurrence of `xlab scatter --family h` whose grid
    # purity lands one ulp below the branch point 5/9.
    for C in (0.0, 0.3, 33 / 99, 2 / 3, 0.9, 1.0):
        edge = 0.5 * (1.0 + C * C)
        for P in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0), 0.5 * (edge + 1.0),
                  1.0):
            assert np.array_equal(states.h_state(C, float(P)).mat,
                                  states.closed_form_x(C, float(P)).mat), (C, P)


def test_h_state_separable_branch_is_mems():
    for P in [*np.linspace(0.25, 1 / 3, 9, endpoint=False), np.nextafter(1 / 3, 0.0)]:
        assert np.array_equal(states.h_state(0.0, float(P)).mat, states.mems_2x2(float(P)).mat)


def test_h_state_rejects_below_floor():
    with pytest.raises(DomainError):
        states.h_state(0.9, 0.4)


def test_meb_state_2x3_plus_is_maximally_entangled():
    for fam in (states.PHI, states.PSI):
        for idx in (1, 2, 3):
            r = states.meb_state_2x3(fam, idx, math.pi / 4, 0.0)
            assert abs(measures.negativity_e(r) - 1.0) <= 1e-12


def test_l_state_index_2_separable():
    for th in np.linspace(0, math.pi / 2, 9):
        assert measures.negativity_e(states.l_state(2, float(th), 0.7)) <= 1e-12


def test_mems_2x3_round_trip_and_continuity():
    for P in np.linspace(1 / 6, 1.0, 101):
        r = states.mems_2x3(float(P))
        r.validate()
        assert abs(measures.purity(r) - P) <= 1e-9
    for P0 in (1 / 5, 3 / 8):
        lo = states.mems_2x3(P0 - 1e-13).mat
        hi = states.mems_2x3(P0 + 1e-13).mat
        assert np.max(np.abs(hi - lo)) < 1e-6


def test_rank_specific_2x3_families():
    rng = np.random.default_rng(5)
    for builder in (states.lx_rank_state, states.tgx_rank_state):
        for R in range(1, 7):
            r = builder(R, rng.uniform(0.2, 1.3, R), np.full(R, 1.0 / R))
            assert r.rank() == R
            r.validate()


def test_random_ensembles():
    rng = np.random.default_rng(9)
    for R in (1, 2, 3, 4):
        r = states.random_mixed(4, R, rng, (2, 2))
        r.validate()
        assert r.rank() == R
    p = states.random_pure(6, rng, (2, 3))
    p.validate()
    assert p.rank() == 1


def test_density_matrix_shape_check():
    with pytest.raises(DimensionError):
        states.DensityMatrix(np.eye(3), (2, 2))


def test_density_matrix_stack():
    stack = np.stack([states.bell_state().mat, np.eye(4) / 4, np.diag([1.0, 0, 0, 0])])
    rho = states.DensityMatrix(stack, (2, 2)).validate()
    assert rho.n == 4
    assert rho.rank().tolist() == [1, 4, 1]
    bad = stack.copy()
    bad[1] *= 1.5
    with pytest.raises(DomainError):
        states.DensityMatrix(bad, (2, 2)).validate()
    with pytest.raises(DimensionError):
        states.DensityMatrix(stack[None], (2, 2))
