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


def test_conversion_unitary_dims_differ():
    with pytest.raises(DimensionError,
                       match=r"^conversion_unitary's rho_x has dims \[4\], expected \[2, 2\]$"):
        convert.conversion_unitary(states.bell_state(), DensityMatrix(np.eye(4) / 4, (4,)))


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


def _layout_state(s, lam, layout) -> np.ndarray:
    """ex diag(lam) ex+ for `convert._frame`'s X eigenframe ex of `layout` at sin 2a = s."""
    ex = convert._frame(s, layout, lam.shape[-1])
    return ex @ (lam[..., None] * ex.conj().mT)


# Random, degenerate and rank-deficient spectra, in descending order.
_SPECTRA = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    st.sampled_from([(0.25,) * 4, (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0),
                     (1 / 3, 1 / 3, 1 / 3, 0.0), (0.4, 0.2, 0.2, 0.2)]),
).map(lambda lam: sorted(lam, reverse=True))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([convert._FIND_X_ROW, convert._CLOSED_FORM_ROW]),
       st.lists(st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), _SPECTRA),
                min_size=1, max_size=8))
def test_frame_is_a_unitary_x_frame_that_keeps_the_spectrum(layout, rows):
    s, lam = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    ex = convert._frame(s, layout, 4)
    assert np.abs(ex @ ex.conj().mT - np.eye(4)).max() <= 1e-15
    x = _layout_state(s, lam, layout)
    assert np.max(measures.anti_x_measure(x)) == 0.0
    assert np.abs(np.linalg.eigvalsh(x) - np.sort(lam)).max() <= 1e-15
    # Unturned rows are exactly a permutation: one 1 in each row and column, else 0.
    perm = ex[s == 0.0]
    assert np.all((perm == 0.0) | (perm == 1.0))
    assert np.all(perm.sum(axis=-1) == 1.0) and np.all(perm.sum(axis=-2) == 1.0)


def test_spectrum_and_concurrence_label_each_epu_class():
    # find_x_equivalent's X form depends on the spectrum and C alone, and a local
    # unitary L keeps both: rho and L rho L+ share one X form, and U_b+ U_a is an
    # EPU between them.  At ranks 2 and 3 C, and so the angle, is good to about 1e-8.
    rank, rng = 1 + np.arange(2000) % 4, np.random.default_rng(21)
    rho = states.random_mixed(4, rank, [rng] * 2000, (2, 2))
    z = rng.standard_normal((2, 2000, 2, 2)) + 1j * rng.standard_normal((2, 2000, 2, 2))
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    a, b = q * (d / np.abs(d))[..., None, :]  # Haar unitaries on each qubit
    L = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(2000, 4, 4)
    moved = DensityMatrix(L @ rho.mat @ L.conj().mT, (2, 2))
    ra, rb = convert.find_x_equivalent(rho), convert.find_x_equivalent(moved)
    epu = rb.unitary.conj().mT @ ra.unitary
    gaps = {"X form": np.abs(ra.converted.mat - rb.converted.mat).max(axis=(1, 2)),
            "EPU": np.abs(epu @ rho.mat @ epu.conj().mT - moved.mat).max(axis=(1, 2))}
    for name, gap in gaps.items():
        for R, bound in ((1, 1e-13), (2, 1e-7), (3, 1e-7), (4, 1e-13)):
            assert gap[rank == R].max() <= bound, (name, R, gap[rank == R].max())


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
    C = (2.0 * l1 - 1.0) + k * linalg.RANK2_TOL
    t = 0.5 * math.asin(C / l1)
    psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
    rho = DensityMatrix(l1 * np.outer(psi, psi) + np.diag([0.0, 1.0 - l1, 0.0, 0.0]), (2, 2))
    assert abs(measures.concurrence(rho) - C) <= 1e-12
    if k > 1:
        with pytest.raises(DomainError, match="outside the closed-form region"):
            convert.closed_form_conversion(rho)
        return
    res = convert.closed_form_conversion(rho)
    assert res.delta_c <= max(k, 0.0) * linalg.RANK2_TOL + 1e-12 and res.anti_x <= 1e-12


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


@pytest.mark.parametrize("angles,error,message", [
    (np.ones((4, 4)), DimensionError, "need 6 angles, got shape (4, 4)"),
    ([0.1] * 5, DimensionError, "need 6 angles, got shape (5,)"),
    ([0.1, 0.2, math.nan, 0.3, 0.4, 0.5], DomainError, "angle nan is not finite"),
    ([0.1] * 5 + [-math.inf], DomainError, "angle -inf is not finite"),
], ids=["4x4-matrix", "five-angles", "nan-angle", "inf-angle"])
def test_x_transform_unconstrained_takes_six_finite_angles(angles, error, message):
    # A 4x4 matrix is not a unitary to use unchecked (np.ones would give a "state" of
    # trace 4), and NaN angles would give a NaN matrix.
    rho = states.random_mixed(4, 3, np.random.default_rng(5), (2, 2))
    with pytest.raises(error) as err:
        convert.x_transform_unconstrained(rho, angles)
    assert type(err.value) is error and str(err.value) == message
    if error is DomainError:
        with pytest.raises(DomainError, match="is not finite"):
            convert.x_preserving_unitary(*angles)


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
    out = convert.x_transform_unconstrained(rho, [0.0] * 6)
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


def test_conversion_unitary_warns_on_a_spectral_gap_under_1e_8():
    rho = states.random_mixed(4, 4, np.random.default_rng(2), (2, 2))
    es = linalg.eig_hermitian(rho.mat)
    shifted = es.values + 5e-10 * np.array([1.0, -1.0, 1.0, -1.0])
    rho_x = DensityMatrix((es.vectors * shifted) @ es.vectors.conj().T, (2, 2))
    with pytest.warns(UserWarning) as record:
        U = convert.conversion_unitary(rho, rho_x)
    assert [str(w.message) for w in record] == [
        "spectra differ by 5.000e-10; conversion will be approximate"]
    assert np.max(np.abs(U @ rho.mat @ U.conj().T - rho_x.mat)) <= 1e-9


def test_diag_factor_conditions_take_4_phases():
    with pytest.raises(DimensionError) as err:
        convert.diag_factor_conditions([1, 2, 3])
    assert str(err.value) == "need 4 phases, got shape (3,)"


def _negativity(rho):
    """N = ||rho^T1||_1 - 1 of a two-qubit state or a stack of them."""
    return linalg.trace_norm(measures.partial_transpose(rho, 1)) - 1.0


def _test_04_draw(seed: int, K: int) -> DensityMatrix:
    """States 0..K-1 of test 04's kind: random_mixed(4, 1 + k % 4) from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return states.random_mixed(4, 1 + np.arange(K) % 4, [rng] * K, (2, 2))


def _negativity_x_state(rho: DensityMatrix) -> DensityMatrix:
    """The X state of rho's spectrum and N in find_x_equivalent's frame: l1 and l3
    on the {|00>, |11>} plane at angle a, l2 and l4 on |01> and |10>.  There
    N(a) = sqrt((l2 - l4)^2 + (l1 - l3)^2 sin^2 2a) - l2 - l4, so
    sin 2a = sqrt((N + 2 l2)(N + 2 l4)) / (l1 - l3) gives any N up to the bound."""
    lam = np.clip(linalg.eig_hermitian(rho.mat).values, 0.0, None)
    l1, l2, l3, l4 = np.moveaxis(lam, -1, 0)
    n = np.maximum(_negativity(rho), 0.0)  # a separable state's N may round below 0
    s = np.minimum(1.0, np.sqrt((n + 2 * l2) * (n + 2 * l4)) / (l1 - l3))
    return DensityMatrix(_layout_state(s, lam, convert._FIND_X_ROW), (2, 2))


def test_two_qubit_negativity_meets_its_spectral_bound_and_an_x_state_reaches_it():
    # The largest N over a spectrum's unitary orbit is
    # sqrt((l1 - l3)^2 + (l2 - l4)^2) - l2 - l4 (Verstraete, Audenaert & De Moor,
    # PRA 64, 012316 (2001)), and `_negativity_x_state` reaches every N below it.
    rho = _test_04_draw(3, 20_000)
    N = _negativity(rho)
    es = linalg.eig_hermitian(rho.mat)
    l1, l2, l3, l4 = np.moveaxis(np.clip(es.values, 0.0, None), -1, 0)
    assert np.all(N <= np.maximum(0.0, np.hypot(l1 - l3, l2 - l4) - l2 - l4) + 1e-12)
    x = _negativity_x_state(rho)
    assert np.max(np.abs(_negativity(x) - N)) <= 1e-12
    assert np.max(np.abs(linalg.eig_hermitian(x.mat).values - es.values)) <= 1e-12
    assert np.max(measures.anti_x_measure(x)) == 0.0


def _x_block(hi, lo, angle):
    """Diagonal and coherence of the 2x2 X block holding eigenvalues hi, lo at `angle`."""
    c2, s2 = np.cos(angle) ** 2, np.sin(angle) ** 2
    return hi * c2 + lo * s2, hi * s2 + lo * c2, abs(hi - lo) * np.sin(2 * angle) / 2


def _x_layout_c_n(outer, inner, a, b):
    """Concurrence and N of the real X state with eigenvalue pair `outer` on the
    {0, 3} block at angle a and `inner` on the {1, 2} block at angle b.  The
    partial transpose swaps the coherences: block {1, 2} of rho^T1 holds {0, 3}'s."""
    p0, p3, z_out = _x_block(*outer, a)
    p1, p2, z_in = _x_block(*inner, b)
    C = 2 * np.maximum(0.0, np.maximum(z_in - np.sqrt(p0 * p3), z_out - np.sqrt(p1 * p2)))
    N = sum(np.maximum(0.0, np.hypot(x - y, 2 * z) - x - y)
            for x, y, z in ((p1, p2, z_out), (p0, p3, z_in)))
    return C, N


# The 6 ways to put a spectrum's eigenvalue pairs on an X state's two blocks.
_X_LAYOUTS = [(pair, rest) for p, q in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
              for pair, rest in ((p, q), (q, p))]


def test_x_layout_closed_forms_match_the_measures():
    lam = np.clip(linalg.eig_hermitian(_test_04_draw(5, 378).mat[377]).values, 0.0, None)
    rng = np.random.default_rng(0)
    for k in range(60):
        outer, inner = (lam[list(p)] for p in _X_LAYOUTS[k % 6])
        a, b = rng.uniform(0.0, math.pi / 2, 2)
        (p0, p3, z_out), (p1, p2, z_in) = _x_block(*outer, a), _x_block(*inner, b)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[3, 3], m[0, 3], m[3, 0] = p0, p3, z_out, z_out
        m[1, 1], m[2, 2], m[1, 2], m[2, 1] = p1, p2, z_in, z_in
        x = DensityMatrix(m, (2, 2))
        C, N = _x_layout_c_n(outer, inner, a, b)
        assert abs(C - measures.concurrence_x(x)) <= 1e-12
        assert abs(N - _negativity(x)) <= 1e-12


def test_state_377_has_no_x_equivalent_for_concurrence_and_negativity_at_once():
    # State 377 of default_rng(5) (rank 2) has an X equivalent of its concurrence
    # (find_x_equivalent) and one of its N (`_negativity_x_state`), each far off
    # in the other measure, and no X state of its spectrum matches both.  On a
    # 601 x 601 grid of block angles over [0, pi/2]^2, every layout misses by
    # more than 0.02 + 2h: C and N change by at most 2 per unit of each angle,
    # so no point between nodes comes within 0.02 of the pair.
    rho = DensityMatrix(_test_04_draw(5, 378).mat[377], (2, 2))
    C0, N0 = measures.concurrence(rho), _negativity(rho)
    assert rho.rank() == 2
    assert abs(C0 - 0.3100619) <= 1e-7 and abs(N0 - 0.1040095) <= 1e-7
    by_c, by_n = convert.find_x_equivalent(rho).converted, _negativity_x_state(rho)
    assert abs(measures.concurrence(by_c) - C0) <= convert.DEFAULT_TOL_C
    assert abs(_negativity(by_n) - N0) <= 1e-12
    assert abs(_negativity(by_c) - 0.15340) <= 1e-5
    assert abs(measures.concurrence_x(by_n) - 0.24505) <= 1e-5
    lam = np.clip(linalg.eig_hermitian(rho.mat).values, 0.0, None)
    m = 601
    h = (math.pi / 2) / (m - 1)
    a, b = np.meshgrid(np.linspace(0.0, math.pi / 2, m), np.linspace(0.0, math.pi / 2, m),
                       indexing="ij")
    miss = min(np.max([abs(C - C0), abs(N - N0)], axis=0).min() for C, N in (
        _x_layout_c_n(lam[list(outer)], lam[list(inner)], a, b) for outer, inner in _X_LAYOUTS))
    assert miss >= 0.02 + 2 * h
