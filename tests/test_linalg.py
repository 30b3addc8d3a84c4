import numpy as np
import pytest

from xlab import linalg
from xlab.errors import DomainError


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
