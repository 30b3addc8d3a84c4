import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlab import convert, linalg, measures, states
from xlab.errors import DimensionError, DomainError, RankError, SpectralMismatchError
from xlab.states import DensityMatrix


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


X_SAMPLE = states.general_x_state(states.XParams(
    probability_angles=(0.4, 0.7, 0.9),
    superposition_angles=(0.3, 0.8, 1.1, 0.2)))


def test_conversion_unitary_self():
    U = convert.conversion_unitary(X_SAMPLE, X_SAMPLE)
    assert np.max(np.abs(U @ X_SAMPLE.mat @ U.conj().T - X_SAMPLE.mat)) <= 1e-10


def _rank_x(thetas, probs):
    """The rank-len(thetas) X state from a one-row `rank_states` call."""
    rows = np.zeros((2, 1, 4))
    rows[:, 0, :len(thetas)] = thetas, probs
    return DensityMatrix(states.rank_states(states.RANK_X, [len(thetas)], *rows)[0].mat[0], (2, 2))


def test_conversion_unitary_round_trip():
    rng = np.random.default_rng(42)
    rho_x = _rank_x([0.3, 0.7, 1.0, 0.2], [0.4, 0.3, 0.2, 0.1])
    V = haar_unitary(4, rng)
    rho_g = DensityMatrix(V @ rho_x.mat @ V.conj().T, (2, 2))
    U = convert.conversion_unitary(rho_g, rho_x)
    assert np.max(np.abs(U @ rho_g.mat @ U.conj().T - rho_x.mat)) <= 1e-9


def test_conversion_unitary_spectral_mismatch():
    rho_x = _rank_x([0.3, 0.7], [0.6, 0.4])
    with pytest.raises(SpectralMismatchError):
        convert.conversion_unitary(states.bell_state(), rho_x)


@pytest.mark.parametrize("R", [1, 2, 3, 4])
def test_find_x_equivalent_each_rank(R):
    rng = np.random.default_rng(100 + R)
    for trial in range(5):
        rho = states.random_mixed(4, R, rng, (2, 2))
        res = convert.find_x_equivalent(rho)
        assert res.delta_c <= convert.DEFAULT_TOL_C
        assert res.anti_x <= 1e-10
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(res.converted.mat))
                             - np.sort(np.linalg.eigvalsh(rho.mat)))) <= 1e-10
        assert np.max(np.abs(res.unitary @ res.unitary.conj().T - np.eye(4))) <= 1e-10


def _werner(p):
    return DensityMatrix(p * states.bell_state(states.PSI, -1).mat
                         + (1 - p) * np.eye(4) / 4, (2, 2))


# Degenerate and rank-deficient spectra, with C = 0, at the separability
# edge (Werner p = 1/3) and at C = 1.
DEGENERATE = {
    "maximally mixed": DensityMatrix(np.eye(4) / 4, (2, 2)),
    "Werner p=1/3": _werner(1 / 3),
    "Bell": states.bell_state(),
    "|00>": states.theta_state(states.PHI, 0.0, 0.0),
    "equal-weight rank 2": DensityMatrix(
        0.5 * states.bell_state().mat + 0.5 * np.diag([0, 1, 0, 0]), (2, 2)),
}


def _ginibre(seed, R):
    return states.random_mixed(4, R, np.random.default_rng(seed), (2, 2))


def _locally_rotated(name, seed):
    # A local unitary keeps C and the spectrum but hides the X form.
    rng = np.random.default_rng(seed)
    L = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return DensityMatrix(L @ DEGENERATE[name].mat @ L.conj().T, (2, 2))


@settings(deadline=None, max_examples=200)
@given(st.one_of(
    st.builds(_ginibre, st.integers(0, 2**32 - 1), st.integers(1, 4)),
    st.builds(_locally_rotated, st.sampled_from(sorted(DEGENERATE)),
              st.integers(0, 2**32 - 1))))
@example(DEGENERATE["maximally mixed"])
@example(DEGENERATE["Werner p=1/3"])
@example(DEGENERATE["Bell"])
@example(DEGENERATE["|00>"])
@example(DEGENERATE["equal-weight rank 2"])
def test_find_x_equivalent_properties(rho):
    res = convert.find_x_equivalent(rho)
    U = res.unitary
    assert res.attempts == 1
    assert abs(measures.concurrence(res.converted) - measures.concurrence(rho)) <= 1e-7
    assert res.anti_x <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(res.converted.mat)
                         - np.linalg.eigvalsh(rho.mat))) <= 1e-10
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-10


def _eig_calls(monkeypatch, conversion, rho):
    """The conversion of rho and the matrices linalg.eig_hermitian saw meanwhile."""
    calls, eig = [], linalg.eig_hermitian

    def counting(M):
        calls.append(M)
        return eig(M)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    res = conversion(rho)
    monkeypatch.setattr(linalg, "eig_hermitian", eig)
    assert np.array_equal(calls[0], rho.mat) and np.array_equal(calls[-1], res.converted.mat)
    assert np.array_equal(res.input_concurrence, measures.concurrence(rho))
    return res, calls


def test_find_x_equivalent_eigendecomposes_each_state_once(monkeypatch):
    # One eigh of rho serves the frame and the input concurrence; the other
    # is the converted state's, inside measures.concurrence.
    rng = np.random.default_rng(12)
    for R in (1, 2, 3, 4):
        rho = states.random_mixed(4, R, rng, (2, 2))
        _, calls = _eig_calls(monkeypatch, convert.find_x_equivalent, rho)
        assert len(calls) == 2


@pytest.mark.parametrize("B", [1, 3, 256])
def test_find_x_equivalent_eigendecomposes_each_block_once(monkeypatch, B):
    # A (B, 4, 4) stack takes one eigh of the input stack and one of the
    # converted stack, whatever B is.
    rng = np.random.default_rng(20)
    rho = DensityMatrix(np.stack([states.random_mixed(4, 1 + k % 4, rng).mat
                                  for k in range(B)]), (2, 2))
    res, calls = _eig_calls(monkeypatch, convert.find_x_equivalent, rho)
    assert len(calls) == 2 and res.converted.mat.shape == (B, 4, 4)


def test_closed_form_conversion_eigendecomposes_each_state_once(monkeypatch):
    # One eigh of rho serves the rank check, the input concurrence, the reach
    # test and the frame; the other is the converted state's concurrence.
    rng = np.random.default_rng(14)
    cases = [states.random_mixed(4, 1, rng, (2, 2)) for _ in range(3)]
    for rho in cases + [states.closed_form_x(0.55, 0.8), states.bell_state()]:
        _, calls = _eig_calls(monkeypatch, convert.closed_form_conversion, rho)
        assert len(calls) == 2


def test_find_x_equivalent_rejects_non_psd():
    bad = np.diag([0.5, 0.5, 0.25, -0.25])
    with pytest.raises(DomainError, match="not PSD"):
        convert.find_x_equivalent(DensityMatrix(bad, (2, 2)))
    # One bad matrix in a stack is enough.
    stack = np.stack([np.eye(4) / 4, bad, states.bell_state().mat])
    with pytest.raises(DomainError, match="not PSD"):
        convert.find_x_equivalent(DensityMatrix(stack, (2, 2)))


def test_find_x_equivalent_rejects_other_dims():
    for rho in (states.mems_2x3(0.5),
                DensityMatrix(np.stack([states.mems_2x3(0.5).mat] * 2), (2, 3))):
        with pytest.raises(DimensionError):
            convert.find_x_equivalent(rho)
    # closed_form_conversion stays single-matrix.
    with pytest.raises(DimensionError):
        convert.closed_form_conversion(DensityMatrix(np.stack([np.eye(4) / 4] * 2), (2, 2)))


def _rotated_diag(spectrum, seed):
    # A Haar rotation of diag(spectrum); l1 == l3 when the top three are equal.
    V = haar_unitary(4, np.random.default_rng(seed))
    return DensityMatrix(V @ np.diag(spectrum) @ V.conj().T, (2, 2))


_STACK_ROWS = st.one_of(
    st.builds(_ginibre, st.integers(0, 2**32 - 1), st.integers(1, 4)),
    st.just(DEGENERATE["maximally mixed"]),
    st.builds(_rotated_diag, st.sampled_from([(1 / 3, 1 / 3, 1 / 3, 0.0),
                                              (0.3, 0.3, 0.3, 0.1)]),
              st.integers(0, 2**32 - 1)),
    st.just(DensityMatrix(np.diag([0.3, 0.3, 0.3, 0.1]), (2, 2))),
    st.builds(_locally_rotated, st.sampled_from(sorted(DEGENERATE)),
              st.integers(0, 2**32 - 1)))

_SCALAR_FIELDS = ("delta_c", "anti_x", "input_concurrence", "output_concurrence")


@settings(deadline=None, max_examples=100)
@given(st.lists(_STACK_ROWS, min_size=1, max_size=12))
@example([DEGENERATE["maximally mixed"], _ginibre(1, 1), _ginibre(2, 2), _ginibre(3, 3),
          _ginibre(4, 4), DensityMatrix(np.diag([0.3, 0.3, 0.3, 0.1]), (2, 2))])
def test_find_x_equivalent_stack_equals_loop(rows):
    # Every field of a stacked conversion equals the per-state loop bit for
    # bit, a single state gets Python floats, and the l1 == l3 and C = 0
    # rows raise no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = convert.find_x_equivalent(DensityMatrix(np.stack([r.mat for r in rows]), (2, 2)))
        looped = [convert.find_x_equivalent(r) for r in rows]
    assert np.array_equal(res.converted.mat, np.stack([x.converted.mat for x in looped]))
    assert np.array_equal(res.unitary, np.stack([x.unitary for x in looped]))
    for name in _SCALAR_FIELDS:
        assert np.array_equal(getattr(res, name), [getattr(x, name) for x in looped]), name
        assert all(type(getattr(x, name)) is float for x in looped), name
    assert res.attempts == 1 and all(x.attempts == 1 for x in looped)


def test_closed_form_x_anchors():
    cf = convert.closed_form_x(1.0, 1.0)
    assert np.max(np.abs(cf.mat - states.bell_state().mat)) <= 1e-12
    cf = convert.closed_form_x(0.0, 1.0)
    assert abs(cf.mat[0, 0] - 1.0) <= 1e-12


def test_closed_form_x_spectrum():
    rng = np.random.default_rng(11)
    for _ in range(25):
        C = rng.uniform(0, 1)
        P = rng.uniform(0.5 * (1 + C * C), 1.0)
        cf = convert.closed_form_x(C, P)
        ev = np.sort(np.linalg.eigvalsh(cf.mat))[::-1]
        A = math.sqrt(2 * P - 1)
        expect = np.array([(1 + A) / 2, (1 - A) / 2, 0, 0])
        assert np.max(np.abs(ev - expect)) <= 1e-10
        assert abs(measures.concurrence(cf) - C) <= 1e-10


def test_closed_form_x_domain():
    with pytest.raises(DomainError):
        convert.closed_form_x(0.8, 0.6)


def test_closed_form_conversion_in_region():
    rng = np.random.default_rng(12)
    done = 0
    while done < 50:
        rho = states.random_mixed(4, 2, rng, (2, 2))
        try:
            res = convert.closed_form_conversion(rho)
        except DomainError:
            continue  # rank-2 states outside the closed-form (C, P) region
        done += 1
        C = measures.concurrence(rho)
        P = measures.purity(rho)
        target = convert.closed_form_x(C, min(max(P, 0.5 * (1 + C * C)), 1.0))
        assert np.max(np.abs(res.converted.mat - target.mat)) <= 1e-9
        assert res.delta_c <= 1e-10
        assert res.anti_x <= 1e-12


@settings(deadline=None, max_examples=300)
@given(st.floats(0.5 + 1e-8, 1.0 - 1e-6), st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
@example(0.5 + 1e-8, -2.0)
@example(0.5 + 1e-8, 2.0)
@example(1.0 - 1e-6, 2.0)
def test_closed_form_conversion_converts_just_where_the_rotation_reaches_c(l1, k):
    # At k times the rank-<=2 slack from C = l1 - l2, the rank-2 state
    # l1 |psi><psi| + (1 - l1) |01><01| with psi = cos t |00> + sin t |11>
    # and C = l1 sin 2t converts exactly when C <= l1 - l2 + slack: at
    # k = +-2 exactly when C <= l1 - l2.  Its concurrence measures to
    # ~1e-15; a general rotation of it would blur that to ~1e-8 (the sqrt
    # of the eps-level eigenvalues in sqrt(rho)).
    C = (2.0 * l1 - 1.0) + k * states._RANK2_SLACK
    t = 0.5 * math.asin(C / l1)
    psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
    rho = DensityMatrix(l1 * np.outer(psi, psi) + np.diag([0.0, 1.0 - l1, 0.0, 0.0]), (2, 2))
    assert abs(measures.concurrence(rho) - C) <= 1e-12
    if k > 1:
        with pytest.raises(DomainError, match="outside the closed-form region"):
            convert.closed_form_conversion(rho)
        return
    res = convert.closed_form_conversion(rho)
    assert res.delta_c <= max(k, 0.0) * states._RANK2_SLACK + 1e-12 and res.anti_x <= 1e-12


def test_closed_form_conversion_rejects_rank3():
    rng = np.random.default_rng(13)
    with pytest.raises(RankError):
        convert.closed_form_conversion(states.random_mixed(4, 3, rng, (2, 2)))


def test_diag_factor_conditions_reference_phases():
    (l1, r1), (l2, r2) = convert.diag_factor_conditions([0.95, 0.23, 0.61, 0.49])
    assert abs(l1 - (-0.12)) <= 1e-12 and abs(r1 - (-0.72)) <= 1e-12
    assert abs(l2 - 0.26) <= 1e-12 and abs(r2 - (-0.34)) <= 1e-12
    assert l1 != r1 and l2 != r2


def test_diag_factorizable_exact():
    ok, w = convert.diag_factorizable([0.95, 0.23, 0.61, 0.49], "exact")
    assert not ok and w is None
    ok, w = convert.diag_factorizable([0.0, 0.0, 0.0, 0.0], "exact")
    assert ok and np.max(np.abs(w)) <= 1e-12
    a1, a2, b1, b2 = 0.3, 1.1, -0.2, 0.7
    eta = [a1 + b1, a1 + b2, a2 + b1, a2 + b2]
    ok, w = convert.diag_factorizable(eta, "exact")
    assert ok
    wa1, wa2, wb1, wb2 = w
    recon = [wa1 + wb1, wa1 + wb2, wa2 + wb1, wa2 + wb2]
    assert np.max(np.abs(np.array(recon) - np.array(eta))) <= 1e-12


def test_diag_factorizable_mod_global_phase():
    ok, _ = convert.diag_factorizable([0.1, 0.2, 0.3, 0.4], "mod-global-phase")
    assert ok
    ok, _ = convert.diag_factorizable([0.95, 0.23, 0.61, 0.49], "mod-global-phase")
    assert not ok


# Rows express eta_k = a_i + b_j for the 2x2 tensor ordering.
_FACTOR_SYSTEM = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=float)


def _lstsq_factorizable(eta, mode):
    """The least-squares reference: (decision, witness, the phases the witness
    rebuilds, how far the tested number lies from its 1e-10 bound)."""
    eta = np.array(eta, dtype=float)
    if mode == "mod-global-phase":
        excess = eta[0] + eta[3] - eta[1] - eta[2]
        gap = excess % (2.0 * math.pi)
        tested = min(gap, 2.0 * math.pi - gap)
        eta[3] -= excess  # absorb the global phase, then solve exactly
    sol = np.linalg.lstsq(_FACTOR_SYSTEM, eta, rcond=None)[0]
    if mode == "exact":
        tested = np.max(np.abs(_FACTOR_SYSTEM @ sol - eta))
    return tested <= 1e-10, sol, eta, tested - 1e-10


_SHIFTS = st.sampled_from([0.0, 1e-11, 9.9e-11, -1.01e-10, -3.9e-10, 4.1e-10, 1e-6, 0.5]) \
    | st.floats(-1.0, 1.0)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       st.sampled_from([0.0, 2.0 * math.pi, -4.0 * math.pi]), _SHIFTS)
@example([0.0] * 4, 0.0, 0.0)
@example([0.3, 1.1, -0.2, 0.7], 2.0 * math.pi, 0.0)
def test_diag_factorizable_matches_a_lstsq_oracle(ab, turns, shift):
    a1, a2, b1, b2 = ab
    eta = [a1 + b1, a1 + b2, a2 + b1, a2 + b2 + turns + shift]
    (l1, r1), (l2, r2) = convert.diag_factor_conditions(eta)
    # Both pairs differ by the excess eta1 + eta4 - eta2 - eta3.
    assert abs((l1 - r1) - (l2 - r2)) <= 1e-13
    for mode in ("exact", "mod-global-phase"):
        ok, witness = convert.diag_factorizable(eta, mode)
        want, sol, rebuilt, edge = _lstsq_factorizable(eta, mode)
        if abs(edge) <= 1e-13:
            continue
        assert ok == want, (mode, edge)
        if mode == "exact":
            # The pairs are equal (to the exact bound on their gap) just when exact accepts.
            assert ok == (max(abs(l1 - r1), abs(l2 - r2)) / 4.0 <= 1e-10)
        if not ok:
            assert witness is None
            continue
        w = np.array(witness)
        assert np.max(np.abs(w - sol)) <= 1e-12
        assert np.max(np.abs(_FACTOR_SYSTEM @ w - rebuilt)) <= 1e-10 + 1e-12
        # The witness's diagonal equals diag(e^{i eta}) up to the absorbed 2 pi turns.
        assert np.max(np.abs(np.exp(1j * (_FACTOR_SYSTEM @ w)) - np.exp(1j * np.array(eta)))) \
            <= 1e-9
    with pytest.raises(DomainError, match="unknown mode 'exactly'"):
        convert.diag_factorizable(eta, "exactly")


def test_x_preserving_unitary():
    assert np.max(np.abs(convert.x_preserving_unitary(0, 0, 0, 0, 0, 0)
                         - np.eye(4))) <= 1e-14
    rng = np.random.default_rng(14)
    U = convert.x_preserving_unitary(*rng.uniform(0, 1.5, 6))
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-12
    out = DensityMatrix(U @ X_SAMPLE.mat @ U.conj().T, (2, 2))
    assert measures.anti_x_measure(out) <= 1e-14


def test_diag_unitary_preserves_x_concurrence():
    rng = np.random.default_rng(15)
    for _ in range(50):
        params = states.XParams(rng.uniform(0, np.pi / 2, 3),
                                rng.uniform(0, np.pi / 2, 4),
                                rng.uniform(0, 2 * np.pi, 4))
        rx = states.general_x_state(params)
        D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        out = DensityMatrix(D @ rx.mat @ D.conj().T, (2, 2))
        assert abs(measures.concurrence(out) - measures.concurrence(rx)) <= 1e-12


def test_entangling_rotation_is_not_epu():
    # A rotation mixing the |0,0>, |1,1> plane on a noisy Bell state changes
    # the concurrence by a macroscopic amount.
    rho = DensityMatrix(0.8 * states.bell_state().mat + 0.2 * np.eye(4) / 4, (2, 2))
    U = np.eye(4, dtype=complex)
    U[0, 0] = U[3, 3] = math.cos(0.6)
    U[0, 3], U[3, 0] = math.sin(0.6), -math.sin(0.6)
    out = DensityMatrix(U @ rho.mat @ U.conj().T, (2, 2))
    assert abs(measures.concurrence(out) - measures.concurrence(rho)) > 0.01


def test_x_transform_unconstrained():
    rng = np.random.default_rng(18)
    rho = states.random_mixed(4, 4, rng, (2, 2))
    out = convert.x_transform_unconstrained(rho, np.eye(4))
    assert measures.anti_x_measure(out) <= 1e-12
    assert np.max(np.abs(out.mat - np.diag(np.diag(out.mat)))) <= 1e-12
    for _ in range(25):
        r = states.random_mixed(4, 4, rng, (2, 2))
        out = convert.x_transform_unconstrained(r, rng.uniform(0, 1.5, 6))
        assert measures.anti_x_measure(out) <= 1e-12
        assert abs(measures.purity(out) - measures.purity(r)) <= 1e-12


def test_local_channel_generally_not_epu():
    # Fixed-seed two-term local mixing of a Bell state loses concurrence.
    rng = np.random.default_rng(21)
    local = [np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(2)]
    bell = states.bell_state().mat
    out = DensityMatrix(sum(0.5 * L @ bell @ L.conj().T for L in local), (2, 2))
    assert measures.concurrence(out) < 1.0 - 0.01
