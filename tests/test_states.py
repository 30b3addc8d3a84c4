import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xlab import linalg, measures, states
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


@pytest.mark.parametrize("mode", ["reduced-9", "full-11"])
def test_general_x_state_stack_equals_row_builds(mode):
    rng = np.random.default_rng(11)
    angles = rng.uniform(0, math.pi / 2, (50, 7))
    phases = rng.uniform(0, 2 * math.pi, (50, 4))
    stack = states.general_x_state(states.XParams(angles[:, :3], angles[:, 3:], phases), mode)
    assert stack.mat.shape == (50, 4, 4) and stack.dims == (2, 2)
    for b in range(50):
        one = states.general_x_state(
            states.XParams(tuple(angles[b, :3]), tuple(angles[b, 3:]), tuple(phases[b])), mode)
        assert one.mat.tobytes() == stack.mat[b].tobytes(), b
    full = states.general_x_state(states.XParams(angles[:, :3], angles[:, 3:], phases), "full-11")
    assert (mode == "full-11") == np.array_equal(full.mat, stack.mat)
    with pytest.raises(DomainError, match="unknown mode 'full-9'"):
        states.general_x_state(states.XParams(angles[:, :3], angles[:, 3:], phases), "full-9")


def _per_term_x_state(angles, thetas, phases, mode):
    """`general_x_state` one term at a time, with np.linalg.norm and np.outer."""
    mat = np.zeros((4, 4), dtype=complex)
    probs = states.hyperspherical_probs(angles)
    for k, (a, b) in enumerate([(0, 3), (0, 3), (1, 2), (1, 2)]):
        phase = 0.0 if mode == "reduced-9" and k in (0, 2) else phases[k]
        v = np.zeros(4, dtype=complex)
        v[a] = math.cos(thetas[k])
        v[b] = math.sin(thetas[k]) * np.exp(1j * phase)
        v = v / np.linalg.norm(v)
        mat += probs[k] * np.outer(v, v.conj())
    return mat


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(["reduced-9", "full-11"]))
def test_general_x_state_stack_equals_per_term_sum(seed, rows, mode):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, math.pi / 2, (rows, 7))
    phases = rng.uniform(0, 2 * math.pi, (rows, 4))
    stack = states.general_x_state(states.XParams(angles[:, :3], angles[:, 3:], phases), mode)
    for b in range(rows):
        reference = _per_term_x_state(angles[b, :3], angles[b, 3:], phases[b], mode)
        assert stack.mat[b].tobytes() == reference.tobytes(), b


def _with_neighbours(points):
    return [float(q) for p in points for q in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0))]


def _h_grid(samples):
    """The (C, P) grid of `xlab scatter --family h --samples <samples>`."""
    side = max(math.ceil(math.sqrt(samples)), 2)
    C = [(i % side) / (side - 1) for i in range(samples)]
    P = [min(states.h_purity_floor(c) + (1.0 - states.h_purity_floor(c))
             * ((i // side) % side) / (side - 1), 1.0) for i, c in enumerate(C)]
    return C, P


def test_grid_families_on_arrays_equal_one_state_builds():
    cases = [(states.mems_2x2, [np.linspace(0.25, 1.0, 41), _with_neighbours([1 / 3, 5 / 9])]),
             (states.mems_2x3, [np.linspace(1 / 6, 1.0, 41), _with_neighbours([1 / 5, 3 / 8])])]
    C, P = _h_grid(300)
    for c in (0.0, 0.3, 33 / 99, 2 / 3, 0.9, 1.0):
        edge = 0.5 * (1.0 + c * c)
        C += [c] * 5
        P += [*_with_neighbours([edge]), 0.5 * (edge + 1.0), 1.0]
    C += [0.0] * 6
    P += _with_neighbours([0.25, 1 / 3])
    for build, arrays in cases:
        P23 = np.concatenate(arrays)
        stack = build(P23).mat
        assert stack.shape[0] == len(P23)
        for b, p in enumerate(P23):
            assert build(float(p)).mat.tobytes() == stack[b].tobytes(), (build, p)
    stack = states.h_state(np.array(C), np.array(P)).mat
    assert stack.shape == (len(C), 4, 4)
    for b, (c, p) in enumerate(zip(C, P)):
        assert states.h_state(c, p).mat.tobytes() == stack[b].tobytes(), (c, p)
    floors = states.h_purity_floor(np.array(C))
    assert floors.tolist() == [states.h_purity_floor(c) for c in C]
    high = np.array(P) >= 0.5 * (1.0 + np.array(C) ** 2)
    cx = states.closed_form_x(np.array(C)[high], np.array(P)[high]).mat
    assert all(states.closed_form_x(c, p).mat.tobytes() == m.tobytes()
               for c, p, m in zip(np.array(C)[high], np.array(P)[high], cx))


@pytest.mark.parametrize("build,args,message", [
    (states.mems_2x2, ([0.5, 0.2, 0.1],), "purity 0.2 outside [1/4, 1]"),
    (states.mems_2x3, ([0.5, 1.25],), "purity 1.25 outside [1/6, 1]"),
    (states.h_state, ([0.5, 1.5], [0.9, 0.9]), "concurrence 1.5 outside [0, 1]"),
    (states.h_state, ([0.5, 0.5], [0.9, 1.5]), "purity 1.5 exceeds 1"),
    (states.h_state, ([0.5, 0.9, 0.9], [0.9, 0.4, 0.3]),
     "(C=0.9, P=0.4) below the purity floor 0.820000"),
    (states.closed_form_x, ([0.0, 0.5], [0.9, 0.6]),
     "purity 0.6 outside [0.625, 1] for concurrence 0.5"),
])
def test_grid_families_name_the_first_entry_outside_the_domain(build, args, message):
    with pytest.raises(DomainError) as err:
        build(*map(np.array, args))
    assert str(err.value) == message


def _one_row(family, R, thetas, probs):
    """The rank-R state of `family` and its numerical rank from a one-row `rank_states` call."""
    rows = np.zeros((2, 1, len(family.lo)))
    rows[:, 0, :R] = thetas, probs
    rho, rank = states.rank_states(family, [R], *rows)
    return states.DensityMatrix(rho.mat[0], family.dims), int(rank[0])


def test_rank_x_state_ranks():
    rng = np.random.default_rng(0)
    for R in (1, 2, 3, 4):
        r, rank = _one_row(states.RANK_X, R, rng.uniform(0.1, 1.4, R), np.full(R, 1.0 / R))
        assert rank == r.rank() == R
        r.validate()


def test_rank_x_state_zero_probability_falls_short():
    assert _one_row(states.RANK_X, 2, [0.3, 0.4], [1.0, 0.0])[1] == 1


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


@settings(deadline=None, max_examples=300)
@given(st.floats(0.0, 1.0), st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
@example(0.0, -2.0)
@example(2.0 / 3.0, -0.5)
@example(1.0, -2.0)
def test_closed_form_x_accepts_just_where_h_state_goes_high(C, k):
    # At k times the rank-<=2 slack from P = (1 + C^2)/2, closed_form_x
    # accepts (C, P) exactly when h_state hands it P on its high branch (off
    # it, h_state passes P = 1 or rejects first), and both read one slack.
    P = 0.5 * (1.0 + C * C) + k * states._RANK2_SLACK
    assume(P <= 1.0)
    try:
        states.closed_form_x(C, P)
        accepts = True
    except DomainError:
        accepts = False
    with mock.patch.object(states, "closed_form_x", wraps=states.closed_form_x) as spy:
        try:
            states.h_state(C, P)
        except DomainError:
            pass  # below the purity floor
    high = spy.called and float(spy.call_args.args[1]) == P
    assert accepts == high == (k > -1)


def test_h_state_separable_branch_is_mems():
    for P in [*np.linspace(0.25, 1 / 3, 9, endpoint=False), np.nextafter(1 / 3, 0.0)]:
        assert np.array_equal(states.h_state(0.0, float(P)).mat, states.mems_2x2(float(P)).mat)


def test_h_state_rejects_below_floor():
    with pytest.raises(DomainError):
        states.h_state(0.9, 0.4)


def test_h_state_rejects_nan_purity():
    # NaN compares false both ways, so it must fail the checks, not slip past them.
    with pytest.raises(DomainError, match="purity nan"):
        states.h_state(0.5, float("nan"))
    with pytest.raises(DomainError, match="purity nan"):
        states.h_state(np.array([0.5, 0.2, 0.9]), np.array([0.9, np.nan, 0.95]))


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
    for family in (states.LX_RANK, states.TGX_RANK):
        for R in range(1, 7):
            r, rank = _one_row(family, R, rng.uniform(0.2, 1.3, R), np.full(R, 1.0 / R))
            assert rank == r.rank() == R
            r.validate()


def test_tgx_rank_state_is_a_one_row_rank_states_call():
    rng = np.random.default_rng(8)
    for R in range(1, 7):
        thetas, probs = rng.uniform(0.2, 1.3, R), np.full(R, 1.0 / R)
        assert np.array_equal(states.tgx_rank_state(R, thetas, probs).mat,
                              _one_row(states.TGX_RANK, R, thetas, probs)[0].mat)
    with pytest.raises(RankError, match="strictly positive"):
        states.tgx_rank_state(2, [0.3, 0.4], [1.0, 0.0])
    # Theta 0 puts both (psi, 2) terms of rank 5 on |0,2>.
    with pytest.raises(RankError, match="numerical rank 4 != 5"):
        states.tgx_rank_state(5, [0.3, 0.4, 0.5, 0.0, 0.0], np.full(5, 0.2))
    with pytest.raises(DimensionError, match="need 2 thetas"):
        states.tgx_rank_state(2, [0.3], [1.0])
    with pytest.raises(DomainError, match="rank must be in 1..6, got 7"):
        states.tgx_rank_state(7, [0.3] * 7, np.full(7, 1 / 7))


# (family, constituent table, support of a table key)
_RANK_FAMILIES = [
    (states.RANK_X, states._RANK_X_CONSTITUENTS, states._THETA_SUPPORT.get),
    (states.LX_RANK, states._LX_RANK_CONSTITUENTS, states._LX_SUPPORT.get),
    (states.TGX_RANK, states._TGX_RANK_CONSTITUENTS,
     lambda fam, index: states._MEB_SUPPORT_2X3[fam][index - 1]),
]


def _per_term_mixture(table, support, n, R, thetas, probs):
    """sum_k p_k |v_k><v_k| one term at a time, with np.linalg.norm and np.outer."""
    mat = np.zeros((n, n), dtype=complex)
    for p, th, (*key, sign) in zip(probs, thetas, table[R]):
        a, b = support(*key)
        v = np.zeros(n, dtype=complex)
        v[a] = math.cos(th)
        v[b] = math.sin(th) * np.exp(1j * (0.0 if sign > 0 else math.pi))
        v = v / np.linalg.norm(v)
        mat += p * np.outer(v, v.conj())
    return mat


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(0, 10),
       st.booleans())
def test_rank_states_rows_equal_one_state_builds(which, seed, extra, zero_weight):
    family, table, support = _RANK_FAMILIES[which]
    width, n = len(family.lo), math.prod(family.dims)
    rng = np.random.default_rng(seed)
    # Every rank once, then `extra` random ones.  A first angle of 0 gives
    # every later term weight 0, so those rows of rank >= 2 fall short.
    ranks = np.concatenate([np.arange(1, width + 1), rng.integers(1, width + 1, extra)])
    thetas, angles = np.zeros((2, len(ranks), width))
    for b, r in enumerate(ranks):
        thetas[b, :r] = rng.uniform(0.0, math.pi / 2, r)
        angles[b, :r - 1] = rng.uniform(0.0, math.pi / 2, r - 1)
        if zero_weight and b % 2:
            angles[b, 0] = 0.0
    probs = states.hyperspherical_probs(angles[:, :-1])
    rho, got = states.rank_states(family, ranks, thetas, probs)
    assert rho.mat.shape == (len(ranks), n, n) and rho.dims == family.dims
    assert got.tolist() == [linalg.numerical_rank(m) for m in rho.mat]
    assert (got < ranks).any() or not zero_weight
    for b, r in enumerate(ranks):
        reference = _per_term_mixture(table, support, n, r, thetas[b, :r], probs[b, :r])
        assert rho.mat[b].tobytes() == reference.tobytes()


def test_rank_states_rejects_bad_input():
    ok = np.zeros((1, 6))
    ok[0, 0] = 1.0
    with pytest.raises(DomainError, match="rank must be in 1..6, got 7"):
        states.rank_states(states.TGX_RANK, [7], ok, ok)
    with pytest.raises(DomainError, match="got 0"):
        states.rank_states(states.LX_RANK, [1, 0], np.zeros((2, 6)), np.vstack([ok, ok]))
    with pytest.raises(DimensionError):
        states.rank_states(states.RANK_X, [1], ok, ok)
    with pytest.raises(DimensionError):
        states.rank_states(states.TGX_RANK, [1, 1], ok, ok)
    with pytest.raises(DomainError, match="sum to 0.5"):
        states.rank_states(states.TGX_RANK, [1], ok, 0.5 * ok)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rank_states_reject_non_finite_parameters(value):
    for k, what in ((0, f"theta {value} is not finite"), (1, f"probabilities sum to {value}")):
        rows = [np.array([[0.3, 0.4, 0.0, 0.0]]), np.array([[0.5, 0.5, 0.0, 0.0]])]
        rows[k][0, 0] = value
        with pytest.raises(DomainError) as err:
            states.rank_states(states.RANK_X, [2], *rows)
        assert str(err.value).startswith(what)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build,angle", [
    (lambda v: states.theta_state(states.PHI, v, 0.2), "theta"),
    (lambda v: states.theta_state(states.PSI, 0.3, v), "phi"),
    (lambda v: states.meb_state_2x3(states.PSI, 2, v, 0.2), "theta"),
    (lambda v: states.meb_state_2x3(states.PHI, 1, 0.3, v), "phi"),
    (lambda v: states.l_state(3, v, 0.2), "theta"),
    (lambda v: states.l_state(1, 0.3, v), "phi"),
    (lambda v: states.general_x_state(states.XParams((0.1, 0.2, 0.3), (0.4, v, 0.6, 0.7))),
     "theta"),
    (lambda v: states.general_x_state(states.XParams((0.1, 0.2, 0.3), (0.4, 0.5, 0.6, 0.7),
                                                     [0.0, v, 0.0, 0.1])), "phi"),
    (lambda v: states.general_x_state(states.XParams((0.1, v, 0.3), (0.4, 0.5, 0.6, 0.7))),
     "angle"),
    (lambda v: states.tgx_rank_state(2, [0.3, v], [0.5, 0.5]), "theta"),
], ids=["theta-theta", "theta-phi", "meb-theta", "meb-phi", "l-theta", "l-phi",
        "general-theta", "general-phi", "general-probability", "tgx-rank-theta"])
def test_builders_reject_a_non_finite_angle(build, angle, value):
    # The suite fails on a RuntimeWarning, so this also asserts numpy issues none.
    with pytest.raises(DomainError) as err:
        build(value)
    assert str(err.value) == f"{angle} {value} is not finite"


@pytest.mark.parametrize("rank", [2.5, True, "2"])
def test_a_rank_that_is_not_an_int_is_one_domain_error(rank):
    with pytest.raises(DomainError) as err:
        states.random_mixed(4, rank, np.random.default_rng(0))
    assert str(err.value) == f"rank must be in 1..4, got {rank!r}"
    ok = np.zeros((1, 6))
    ok[0, 0] = 1.0
    with pytest.raises(DomainError) as err:
        states.rank_states(states.TGX_RANK, [rank], ok, ok)
    assert str(err.value) == f"rank must be in 1..6, got {rank!r}"


def test_hyperspherical_probs_rows_pad_with_zeros():
    rng = np.random.default_rng(2)
    angles = np.zeros((5, 5))
    for r in range(5):
        angles[r, :r] = rng.uniform(0.0, math.pi / 2, r)
    rows = states.hyperspherical_probs(angles)
    for r in range(5):
        assert rows[r, :r + 1].tobytes() == states.hyperspherical_probs(angles[r, :r]).tobytes()
        assert not rows[r, r + 1:].any()


def test_random_ensembles():
    rng = np.random.default_rng(9)
    for R in (1, 2, 3, 4):
        r = states.random_mixed(4, R, rng, (2, 2))
        r.validate()
        assert r.rank() == R
    p = states.random_pure(6, rng, (2, 3))
    p.validate()
    assert p.rank() == 1


def _one_random_mixed(n, R, rng):
    """A Ginibre state drawn and normalised one matrix at a time."""
    G = rng.standard_normal((n, R)) + 1j * rng.standard_normal((n, R))
    W = G @ G.conj().T
    return W / np.trace(W).real


@pytest.mark.parametrize("n,dims", [(4, (2, 2)), (6, (2, 3))])
def test_random_mixed_block_equals_one_state_loop(n, dims):
    ranks = np.tile(np.arange(1, n + 1), 5)[np.random.default_rng(n).permutation(5 * n)]
    rngs = [np.random.default_rng([n, i]) for i in range(len(ranks))]
    block = states.random_mixed(n, ranks, rngs, dims)
    assert block.mat.shape == (len(ranks), n, n) and block.dims == dims
    want = [_one_random_mixed(n, int(R), np.random.default_rng([n, i]))
            for i, R in enumerate(ranks)]
    assert np.array_equal(block.mat, np.stack(want))
    assert block.rank().tolist() == ranks.tolist()
    for i, R in enumerate(ranks[:2 * n].tolist()):
        one = states.random_mixed(n, R, np.random.default_rng([n, i]), dims)
        assert one.mat.shape == (n, n) and np.array_equal(one.mat, want[i])
    # One generator for every row draws the rows in order.
    shared, loop = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
    want = np.stack([_one_random_mixed(n, int(R), loop) for R in ranks])
    assert np.array_equal(states.random_mixed(n, ranks, [shared] * len(ranks)).mat, want)


def test_random_mixed_rejects_bad_ranks():
    rng = np.random.default_rng(0)
    for R in (0, 5, -1):
        with pytest.raises(DomainError, match="rank must be in 1..4"):
            states.random_mixed(4, R, rng)
    for R in ([1, 2, 5], [0, 3]):
        with pytest.raises(DomainError, match="rank must be in 1..4"):
            states.random_mixed(4, R, [rng] * len(R))
    with pytest.raises(DimensionError):
        states.random_mixed(4, [1, 2, 3], [rng, rng])
    with pytest.raises(DimensionError):
        states.random_mixed(4, [[1, 2]], [rng, rng])


def test_density_matrix_shape_check():
    with pytest.raises(DimensionError):
        states.DensityMatrix(np.eye(3), (2, 2))


def _validate_cases(scale: float) -> list:
    """(matrix, message if rejected) for each bound of DensityMatrix.validate
    crossed by `scale` times its value: Hermiticity 1e-10, trace 1e-12, PSD 1e-10."""
    drift = np.eye(4, dtype=complex) / 4
    drift[0, 1] = 1j * scale * 1e-10
    return [(drift, f"not Hermitian within 1e-10 (drift {scale * 1e-10:.3e})"),
            (np.diag([0.25 + scale * 1e-12, 0.25, 0.25, 0.25]),
             f"trace differs from 1 by {scale * 1e-12:.3e}, beyond 1e-12"),
            (np.diag([0.5 + scale * 1e-10, 0.25, 0.25, -scale * 1e-10]),
             f"matrix is not PSD: smallest eigenvalue {-scale * 1e-10:.3e}")]


@pytest.mark.parametrize("stacked", [False, True])
def test_validate_bounds(stacked):
    ok = np.eye(4) / 4
    for scale in (0.9, 1.1):
        for m, message in _validate_cases(scale):
            rho = states.DensityMatrix(np.stack([ok, m, ok]) if stacked else m, (2, 2))
            if scale < 1.0:
                assert rho.validate() is rho
                continue
            with pytest.raises(DomainError) as err:
                rho.validate()
            assert str(err.value) == message


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


@pytest.mark.parametrize("dims", [(2, 3.7), ("2", "3"), (2.0, 3), (True, 6)])
def test_density_matrix_rejects_non_integer_dims(dims):
    # int() would truncate (2, 3.7) to (2, 3); a size that is not an integer is an error.
    with pytest.raises(DimensionError, match="dimensions must be integers") as err:
        states.DensityMatrix(np.eye(6) / 6, dims)
    assert str(list(dims)) in str(err.value)
    assert states.DensityMatrix(np.eye(6) / 6, (np.int64(2), 3)).dims == (2, 3)
