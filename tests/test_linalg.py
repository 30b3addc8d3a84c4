import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlab import convert, linalg, measures, states, tgx
from xlab.errors import DimensionError, DomainError


def test_hermitize_symmetrizes_small_drift():
    m = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    h = linalg.hermitize(m)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_hermitize_rejects_large_drift():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        linalg.hermitize(m)


def test_eig_hermitian_descending_and_reconstructs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = a + a.conj().T
    sys_ = linalg.eig_hermitian(h)
    assert np.all(np.diff(sys_.values) <= 1e-12)
    recon = sys_.vectors @ np.diag(sys_.values) @ sys_.vectors.conj().T
    assert np.max(np.abs(recon - h)) <= 1e-10


def test_eig_hermitian_gauge_deterministic():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    v1 = linalg.eig_hermitian(h).vectors
    v2 = linalg.eig_hermitian(h.copy()).vectors
    assert np.array_equal(v1, v2)
    # Gauge: the largest-magnitude entry of each column is real positive.
    for k in range(4):
        idx = np.argmax(np.abs(v1[:, k]))
        assert v1[idx, k].real > 0
        assert abs(v1[idx, k].imag) <= 1e-14


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    s = linalg.sqrt_psd(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-10 * np.max(np.abs(m))


def test_trace_norm_sums_absolute_eigenvalues():
    assert abs(linalg.trace_norm(np.diag([1.0, -0.5, 0.25, 0.0])) - 1.75) <= 1e-12


def test_numerical_rank():
    d = np.diag([1.0, 0.5, 1e-14, 0.0])
    assert linalg.numerical_rank(d) == 2


def test_stack_checks_every_matrix():
    ok = np.stack([np.eye(4) / 4] * 5)
    skew = ok.copy()
    skew[3, 0, 1] = 0.5
    for kernel in (linalg.hermitize, linalg.eig_hermitian, linalg.sqrt_psd,
                   linalg.trace_norm, linalg.numerical_rank):
        kernel(ok)
        with pytest.raises(DomainError):
            kernel(skew)
    for bad, kernels in ((np.diag([0.5, 0.5, 0.25, -0.25]), (linalg.sqrt_psd,)),
                         (-np.eye(4) / 4, (linalg.sqrt_psd, linalg.numerical_rank))):
        stack = ok.copy()
        stack[2] = bad
        for kernel in kernels:
            with pytest.raises(DomainError):
                kernel(stack)


def test_numerical_rank_tolerance_is_per_matrix():
    # 1e-12 is below 1e-10 * 1 but above 1e-10 * 1e-3.
    stack = np.stack([np.diag([1.0, 1e-12, 0.0, 0.0]), np.diag([1e-3, 1e-12, 0.0, 0.0])])
    assert linalg.numerical_rank(stack).tolist() == [1, 2]
    assert [linalg.numerical_rank(m) for m in stack] == [1, 2]


def test_numerical_rank_rejects_a_negative_smallest_eigenvalue():
    # The largest eigenvalue is positive, so a check of it alone passes.
    bad = np.diag([0.5, 0.5, 0.25, -0.25])
    stack = np.stack([np.eye(4) / 4] * 3)
    stack[1] = bad
    for m in (bad, stack):
        with pytest.raises(DomainError):
            linalg.numerical_rank(m)
        with pytest.raises(DomainError):
            states.DensityMatrix(m, (2, 2)).rank()


def _with_spectra(spectra, seed: int) -> np.ndarray:
    """A stack of Hermitian matrices U diag(spectrum) U^dagger, one per
    spectrum, each with its own Haar-random unitary U."""
    rng = np.random.default_rng(seed)
    n = len(spectra[0])
    g = rng.standard_normal((len(spectra), n, n)) + 1j * rng.standard_normal((len(spectra), n, n))
    u = np.linalg.qr(g)[0]
    return (u * np.asarray(spectra)[:, None, :]) @ u.conj().mT


# An eigenvalue relative to the largest one, 1: a bulk value, an exact zero,
# or one a factor of 1.001-3 below or above the 1e-10 rank threshold, far
# outside the eigensolvers' ~1e-15 rounding.
_EIGENVALUE = st.one_of(
    st.floats(1e-3, 1.0), st.just(0.0),
    st.floats(1.001, 3.0).map(lambda f: 1e-10 / f), st.floats(1.001, 3.0).map(lambda f: 1e-10 * f))


@st.composite
def _spectrum(draw, n: int):
    """n eigenvalues, some repeated (degenerate), scaled so the largest is 1e-3 to 40."""
    vals = [1.0] + draw(st.lists(_EIGENVALUE, min_size=n - 1, max_size=n - 1))
    repeats = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    vals = [vals[min(i, r)] for i, r in enumerate(repeats)]
    return np.array(vals) * draw(st.sampled_from([1e-3, 0.25, 1.0, 40.0]))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_numerical_rank_from_eigenvalues_equals_rank_from_eig_hermitian(data):
    n = data.draw(st.sampled_from([2, 4, 6]))
    spectra = data.draw(st.lists(_spectrum(n), min_size=1, max_size=4))
    stack = _with_spectra(spectra, data.draw(st.integers(0, 2**32 - 1)))
    want = [int((lam > 1e-10 * lam.max()).sum()) for lam in spectra]
    es = linalg.eig_hermitian(stack)
    assert linalg.numerical_rank(stack).tolist() == want
    assert linalg.numerical_rank(stack, es=es).tolist() == want
    # The tolerance comes from the largest eigenvalue in any sort order.
    assert linalg.numerical_rank(stack, es=es._replace(values=es.values[:, ::-1])).tolist() == want
    for M, rank in zip(stack, want):
        assert linalg.numerical_rank(M) == linalg.numerical_rank(M, es=linalg.eig_hermitian(M)) == rank


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_a_passed_eigensystem_changes_no_result(data):
    # PSD stacks with tied and zero eigenvalues: each kernel given
    # es = eig_hermitian(M) returns what it returns without es, bit for bit.
    n = data.draw(st.sampled_from([2, 4, 6]))
    spectra = data.draw(st.lists(_spectrum(n), min_size=1, max_size=4))
    stack = _with_spectra(spectra, data.draw(st.integers(0, 2**32 - 1)))
    for M in (stack, stack[0]):
        es = linalg.eig_hermitian(M)
        assert linalg.sqrt_psd(M, es).tobytes() == linalg.sqrt_psd(M).tobytes()
        assert np.array_equal(linalg.numerical_rank(M, es), linalg.numerical_rank(M))
        if n == 4:
            rho = states.DensityMatrix(M, (2, 2))
            with_es, without = measures.concurrence(rho, es), measures.concurrence(rho)
            assert np.asarray(with_es).tobytes() == np.asarray(without).tobytes()


# Smallest eigenvalues on either side of -1e-10, each far from the threshold
# and from a rounding boundary of the message's 4 significant digits.
@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 4, 6]), st.sampled_from([-1.5e-10, -2e-10, -3.25e-10, -1e-4]),
       st.sampled_from([-0.9e-10, -0.5e-10, 0.0]), st.integers(0, 2**32 - 1))
def test_numerical_rank_and_sqrt_psd_reject_the_same_negative_eigenvalue(n, bad, ok, seed):
    # numerical_rank takes eigvalsh; sqrt_psd and numerical_rank(M, es) take
    # the eig_hermitian spectrum.  All three give the one message.
    spectra = [np.linspace(1.0, 0.0, n), np.linspace(1.0, 0.0, n), np.linspace(1.0, 0.0, n)]
    spectra[0][-1], spectra[2][-1] = ok, bad
    stack = _with_spectra(spectra, seed)
    assert linalg.numerical_rank(stack[:2]).tolist() == [n - 1, n - 1]
    for M in (stack, stack[2]):
        messages = set()
        for kernel in (linalg.numerical_rank, linalg.sqrt_psd,
                       lambda M: linalg.numerical_rank(M, es=linalg.eig_hermitian(M))):
            with pytest.raises(DomainError) as err:
                kernel(M)
            messages.add(str(err.value))
        assert messages == {f"matrix is not PSD: smallest eigenvalue {bad:.3e}"}


def _public_callables(module):
    """(name, callable) for each public function and class of `module`, and
    each public method of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, type):
            yield name, obj
        if isinstance(obj, type):
            yield from ((f"{name}.{k}", v) for k, v in vars(obj).items()
                        if not k.startswith("_") and inspect.isfunction(v))


def test_no_public_callable_takes_a_tolerance():
    # Tolerances are module constants: xlab.linalg's, tgx's own two and the
    # fixed bounds of convert's checks.
    params = {f"{m.__name__}.{name}": inspect.signature(f).parameters
              for m in (linalg, states, measures, tgx, convert)
              for name, f in _public_callables(m)}
    assert {"xlab.linalg.numerical_rank", "xlab.states.DensityMatrix.validate",
            "xlab.measures.concurrence_x", "xlab.tgx.is_simple_me_state",
            "xlab.convert.diag_factorizable", "xlab.convert.find_x_equivalent"} <= params.keys()
    assert [f"{name}({p})" for name, ps in params.items() for p in ps
            if p.endswith("tol")] == []


def test_hermitize_takes_square_matrices():
    with pytest.raises(DimensionError) as err:
        linalg.hermitize(np.zeros(3))
    assert str(err.value) == "expected a square matrix or a stack of them, got shape (3,)"


def _eig_reference(M):
    """eig_hermitian's rules spelled out on one matrix's np.linalg.eigh: values sorted
    descending by Python's stable sort, so tied ones keep LAPACK's ascending order, and each
    vector scaled by conj(p)/|p| for p its first entry of largest magnitude."""
    w, v = np.linalg.eigh(0.5 * (M + M.conj().T))
    order = sorted(range(len(w)), key=lambda k: -w[k])
    w, v = w[order], v[:, order]
    for k in range(len(w)):
        mags = np.abs(v[:, k])
        p = v[np.flatnonzero(mags == mags.max())[:1], k]  # a 1-entry array, as in a stack
        v[:, k] = v[:, k] * (p.conj() / np.abs(p))
    return w, v


def test_eig_hermitian_tie_rules_match_a_reference_bit_for_bit():
    perm = [2, 0, 3, 1]
    tied = np.diag([0.3, 0.3, 0.3, 0.1])[perm][:, perm]  # one eigenvalue three times
    mixed = np.eye(4) / 4  # every eigenvalue tied
    # Eigenvalue 0.2 three times, and vectors whose two largest entries are equal.
    block = np.array([[0.3, 0.1j, 0, 0], [-0.1j, 0.3, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, 0.2]])
    generic = states.random_mixed(4, 4, np.random.default_rng(5), (2, 2)).mat
    stack = np.stack([tied, mixed, block, generic, tied])
    es = linalg.eig_hermitian(stack)
    for b, M in enumerate(stack):
        w, v = _eig_reference(M)
        one = linalg.eig_hermitian(M)
        assert one.values.tobytes() == es.values[b].tobytes() == w.tobytes()
        assert one.vectors.tobytes() == es.vectors[b].tobytes() == v.tobytes()
    assert np.all(np.diff(es.values, axis=-1) <= 0.0)
    # Tied eigenvalues keep LAPACK's ascending order of their vectors.
    lapack = np.linalg.eigh(tied)[1][:, [1, 2, 3, 0]]
    assert np.abs(es.vectors[0]).tolist() == np.abs(lapack).tolist()
    assert np.abs(es.vectors[1]).tolist() == np.abs(np.linalg.eigh(mixed)[1]).tolist()
    # Where the largest magnitude is tied, the lowest such entry is made real and positive;
    # in `block` a later tied entry is not, so another pivot would give other vectors.
    ties = []
    for v in es.vectors.transpose(0, 2, 1).reshape(-1, 4):
        top = np.flatnonzero(np.abs(v) == np.abs(v).max())
        assert abs(v[top[0]].imag) <= 1e-15 and v[top[0]].real > 0.0
        ties += [v[top[1:]]] if len(top) > 1 else []
    assert len(ties) >= 2 and any(np.any(abs(t - abs(t)) > 0.5) for t in ties)
