import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlab import measures, states, tgx
from xlab.errors import DimensionError, DomainError, RankError
from xlab.states import DensityMatrix


def test_mask_2x2_is_literal_x():
    m = tgx.tgx_mask((2, 2))
    expect = {(i, i) for i in range(4)} | {(0, 3), (3, 0), (1, 2), (2, 1)}
    assert m.marked == frozenset(expect)
    a = tgx.anti_x_mask((2, 2))
    assert a.marked == frozenset(
        {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)})


def test_mask_2x3_pattern():
    m = tgx.tgx_mask((2, 3))
    up = {(i, j) for (i, j) in m.marked if i < j}
    assert up == {(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)}
    assert (4, 1) not in m.marked
    for pos in [(4, 0), (5, 1), (3, 1), (4, 2)]:
        assert pos in m.marked


def test_mask_3qubit_pattern():
    expect_upper = {(1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (2, 8),
                    (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (5, 8), (6, 7)}
    m = tgx.tgx_mask((2, 2, 2))
    up = {(i + 1, j + 1) for (i, j) in m.marked if i < j}
    assert up == expect_upper


def test_mask_3x3_pattern():
    expect_upper = {(1, 5), (1, 6), (1, 8), (1, 9), (2, 4), (2, 6), (2, 7), (2, 9),
                    (3, 4), (3, 5), (3, 7), (3, 8), (4, 8), (4, 9), (5, 7), (5, 9),
                    (6, 7), (6, 8)}
    m = tgx.tgx_mask((3, 3))
    up = {(i + 1, j + 1) for (i, j) in m.marked if i < j}
    assert up == expect_upper


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 4), (2, 2, 3)])
def test_mask_partition(dims):
    n = int(np.prod(dims))
    anti = tgx.anti_x_mask(dims).marked
    t = tgx.tgx_mask(dims).marked
    offd = {(i, j) for i in range(n) for j in range(n) if i != j}
    assert not (anti & t)
    assert (anti | t) == offd | {(i, i) for i in range(n)}


def test_element_mask_helpers():
    m = tgx.tgx_mask((2, 2))
    assert m.pairs() == sorted(m.marked)
    assert m.to_ascii().splitlines()[0] == "X . . X"
    with pytest.raises(DimensionError):
        tgx.ElementMask(2, np.array([[False, True], [False, False]]))  # not symmetric


@pytest.mark.parametrize("n,marked,match", [
    (2, np.ones((3, 3), bool), "shape"),
    (3, np.triu(np.ones((3, 3), bool)), r"^mask not symmetric: \(0,1\) without \(1,0\)$"),
    # Row-major the first unpaired entry is (0,2); column-major it would be (1,0).
    (3, np.eye(3, k=2, dtype=bool) | np.eye(3, k=-1, dtype=bool),
     r"^mask not symmetric: \(0,2\) without \(2,0\)$"),
], ids=["wrong-shape", "array-asymmetric", "first-unpaired-row-major"])
def test_element_mask_rejects_bad_positions(n, marked, match):
    with pytest.raises(DimensionError, match=match):
        tgx.ElementMask(n, marked)


@pytest.mark.parametrize("n", [2.7, "2", 2.0])
def test_element_mask_rejects_a_size_that_is_not_an_integer(n):
    # int() would truncate 2.7 to 2; the size must be an integer, as dims are.
    with pytest.raises(DimensionError, match="dimensions must be integers") as err:
        tgx.ElementMask(n, np.zeros((2, 2), bool))
    assert repr(n) in str(err.value)
    assert tgx.ElementMask(np.int64(2), np.zeros((2, 2), bool)).n == 2


def _digit_rule_anti(dims) -> np.ndarray:
    # Subsystem k alone differs: all-ones-minus-identity on k, identity elsewhere.
    out = 0
    for k in range(len(dims)):
        term = np.ones((1, 1))
        for m, d in enumerate(dims):
            term = np.kron(term, np.ones((d, d)) - np.eye(d) if m == k else np.eye(d))
        out = out + term
    return out.astype(bool)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=5))
def test_mask_kernel_properties(dims):
    n = math.prod(dims)
    anti, t = tgx.anti_x_mask(dims), tgx.tgx_mask(dims)
    assert np.array_equal(anti.grid, _digit_rule_anti(dims))
    assert np.count_nonzero(anti.grid) == n * sum(d - 1 for d in dims)
    for mask in (anti, t):
        assert mask.n == n and np.array_equal(mask.grid, mask.grid.T)
    assert not np.any(anti.grid & t.grid) and np.all(anti.grid | t.grid)
    assert anti.pairs() == sorted(anti.marked)
    if n <= 256:  # sorting the dense TGX set of n = 1024 takes seconds
        assert t.pairs() == sorted(t.marked)


@pytest.mark.parametrize("dims", [[2, 2.5], "ab", (2, 3.0), [2, "3"]])
def test_a_dimension_that_is_not_an_integer_is_rejected(dims):
    for build in (tgx.anti_x_mask, tgx.tgx_mask):
        with pytest.raises(DimensionError, match="dimensions must be integers"):
            build(dims)
    assert tgx.tgx_mask([2, np.int64(3)]) is tgx.tgx_mask((2, 3))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 4)])
def test_masks_are_cached_and_read_only(dims):
    for build in (tgx.anti_x_mask, tgx.tgx_mask):
        mask = build(dims)
        assert build(dims) is mask and build(list(dims)) is mask
        assert not mask.grid.flags.writeable
        with pytest.raises(ValueError):
            mask.grid[0, 0] = not mask.grid[0, 0]


def test_project_tgx_diagonal_reductions():
    rng = np.random.default_rng(3)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        n = int(np.prod(dims))
        r = states.random_mixed(n, n, rng, dims)
        p = tgx.project_tgx(r)
        assert np.max(np.abs(p.mat - p.mat.conj().T)) <= 1e-14
        assert abs(np.trace(p.mat) - 1) <= 1e-12
        for m_ in range(1, len(dims) + 1):
            red = measures.partial_trace(p, m_).mat
            assert np.max(np.abs(red - np.diag(np.diag(red)))) <= 1e-14


def test_maximally_anti_x_pure_state():
    # Equal four-term superposition: anti-X measure 1, diagonal reductions,
    # yet the state is not simple maximally entangled.
    rho = DensityMatrix(0.25 * np.array([
        [1, 1, -1j, 1j], [1, 1, -1j, 1j],
        [1j, 1j, 1, -1], [-1j, -1j, -1, 1]]), (2, 2))
    assert abs(measures.anti_x_measure(rho) - 1.0) <= 1e-12
    p = tgx.project_tgx(rho)
    expect = np.diag([0.25] * 4).astype(complex)
    expect[0, 3], expect[3, 0] = 0.25j, -0.25j
    expect[1, 2], expect[2, 1] = -0.25j, 0.25j
    assert np.max(np.abs(p.mat - expect)) <= 1e-14
    assert not tgx.is_simple_me_state(rho)


def test_is_simple_me_state():
    phi1 = states.meb_state_2x3(states.PHI, 1, math.pi / 4, 0.0)
    assert tgx.is_simple_me_state(phi1)
    assert not tgx.is_simple_me_state(states.theta_state(states.PHI, 0.0, 0.0))
    rng = np.random.default_rng(4)
    with pytest.raises(RankError):
        tgx.is_simple_me_state(states.random_mixed(4, 2, rng, (2, 2)))


@pytest.mark.parametrize("family", ["chi", ["phi"], None])
def test_a_bad_family_is_one_domain_error(family):
    # meb_basis_2x3 leaves the check to its first meb_state_2x3 call.
    for build in (lambda: tgx.meb_basis_2x3(family),
                  lambda: states.meb_state_2x3(family, 1, 0.3, 0.0),
                  lambda: states.theta_state(family, 0.3, 0.0)):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == f"family must be 'phi' or 'psi', got {family!r}"


def test_meb_union_masks():
    u = tgx.meb_union_mask(
        tgx.meb_basis_2x3(states.PHI) + tgx.meb_basis_2x3(states.PSI), (2, 3))
    assert u.marked == tgx.tgx_mask((2, 3)).marked
    u_pairs = tgx.meb_union_mask(tgx.meb_basis_3qubit_pairs(), (2, 2, 2))
    literal = {(i, i) for i in range(8)} | {(i, 7 - i) for i in range(8)}
    assert u_pairs.marked == frozenset(literal)
    u_all = u_pairs.union(
        tgx.meb_union_mask(tgx.meb_basis_3qubit_quads(), (2, 2, 2)))
    assert u_all.marked == tgx.tgx_mask((2, 2, 2)).marked
    u33 = tgx.meb_union_mask(tgx.meb_basis_3x3(1, 1), (3, 3))
    assert u33.marked == tgx.tgx_mask((3, 3)).marked


def test_meb_union_rejects_non_simple_member():
    bad = [states.theta_state(states.PHI, 0.1, 0.0)]
    with pytest.raises(DomainError):
        tgx.meb_union_mask(bad, (2, 2))


def test_basis_resolutions():
    c, ok = tgx.basis_resolution(tgx.bell_basis())
    assert ok and abs(c - 1.0) <= 1e-12
    c, ok = tgx.basis_resolution(tgx.meb_basis_2x3(states.PHI))
    assert ok and abs(c - 1.0) <= 1e-12
    c, ok = tgx.basis_resolution(tgx.meb_basis_3qubit_pairs())
    assert ok and abs(c - 1.0) <= 1e-12
    c, ok = tgx.basis_resolution(tgx.meb_basis_3qubit_quads())
    assert ok and abs(c - 1.0) <= 1e-12
    c, ok = tgx.basis_resolution(tgx.meb_basis_3x3_full())
    assert ok and abs(c - 3.0 / 8.0) <= 1e-12
    _, ok = tgx.basis_resolution(tgx.meb_basis_3x3(1, 1))
    assert not ok


def test_catalog_members_are_simple():
    for members in (tgx.bell_basis(),
                    tgx.meb_basis_2x3(states.PHI),
                    tgx.meb_basis_2x3(states.PSI),
                    tgx.meb_basis_3qubit_pairs(),
                    tgx.meb_basis_3qubit_quads(),
                    tgx.meb_basis_3x3_full()):
        for psi in members:
            assert tgx.is_simple_me_state(psi)


def test_equal_masks_hash_equal():
    mask = tgx.tgx_mask((2, 3))
    copy = tgx.ElementMask(mask.n, mask.grid.copy())
    assert copy is not mask and copy == mask and hash(copy) == hash(mask)
    assert len({mask, copy, tgx.anti_x_mask((2, 3))}) == 2


@pytest.mark.parametrize("call,error,message", [
    (lambda: tgx.tgx_mask((2, 2)).union(tgx.tgx_mask((2, 3))), DimensionError,
     "mask sizes differ: 4 vs 6"),
    (lambda: tgx.meb_union_mask([states.bell_state()], (2, 3)), DimensionError,
     "member 0 has dims [2, 2], expected [2, 3]"),
    (lambda: tgx.basis_resolution([]), DomainError, "need at least one state"),
    (lambda: tgx.basis_resolution([states.bell_state(),
                                   states.meb_state_2x3(states.PHI, 1, 0.3, 0.0)]),
     DimensionError, "member 1 has dims [2, 3], expected [2, 2]"),
    # Equal sizes in different bases: a 2x3 and a 3x2 state must not be summed.
    (lambda: tgx.basis_resolution([DensityMatrix(np.eye(6) / 6, (2, 3)),
                                   DensityMatrix(np.eye(6) / 6, (3, 2))]),
     DimensionError, "member 1 has dims [3, 2], expected [2, 3]"),
    (lambda: tgx.meb_basis_3x3(2, 1), DomainError, "phase factors must be +-1, got a=2, b=1"),
    (lambda: tgx.meb_basis_3x3(1, {"b": 2}), DomainError,
     "phase factors must be +-1, got a=1, b={'b': 2}"),
], ids=["union-sizes", "meb-union-dims", "resolution-empty", "resolution-sizes",
        "resolution-dims", "meb-3x3-phase-2", "meb-3x3-phase-braces"])
def test_mismatched_members_name_the_mismatch(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
