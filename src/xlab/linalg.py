"""Dense complex linear algebra kernel for small matrices.

Everything here operates on plain numpy arrays.  Eigendecompositions use a
deterministic gauge (descending eigenvalues, largest-magnitude component of
each eigenvector made real and positive) so that downstream conversion
unitaries are reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

HERM_DRIFT_TOL = 1e-8


class EigenSystem(NamedTuple):
    """Eigenvalues in descending order paired with gauge-fixed eigenvectors.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitize(M: np.ndarray, tol: float = HERM_DRIFT_TOL) -> np.ndarray:
    """Return (M + M†)/2, rejecting input that is not Hermitian within `tol`.

    The drift check guards against silent accumulation errors in long
    pipelines: symmetrizing must not change any entry by more than `tol`.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    H = 0.5 * (M + M.conj().T)
    drift = np.max(np.abs(H - M))
    if drift > tol:
        raise DomainError(f"matrix is not Hermitian: symmetrization moved an entry by {drift:.3e}")
    return H


def _gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's phase so its largest-magnitude entry is real positive.

    Magnitude ties break toward the lowest index (np.argmax convention).
    """
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, k] = col * (pivot.conjugate() / mag)
    return out


def eig_hermitian(M: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic gauge.

    Eigenvalues come out in descending order (stable on ties); each
    eigenvector is phase-fixed via `_gauge_fix`.
    """
    H = hermitize(M)
    w, v = np.linalg.eigh(H)
    order = np.argsort(-w, kind="stable")
    return EigenSystem(values=w[order], vectors=_gauge_fix(v[:, order]))


def sqrt_psd(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine PSD violation and raises.
    """
    vals, vecs = eig_hermitian(M)
    if vals[-1] < -tol:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {vals[-1]:.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def trace_norm(M: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Manhattan/1-norm)."""
    H = hermitize(M)
    return float(np.sum(np.abs(np.linalg.eigvalsh(H))))


def numerical_rank(M: np.ndarray, tol: float | None = None) -> int:
    """Count of eigenvalues above `tol` for a Hermitian PSD matrix.

    Default tolerance is 1e-10 times the largest eigenvalue.
    """
    vals, _ = eig_hermitian(M)
    if vals[0] < -1e-10:
        raise DomainError("matrix is not PSD")
    if tol is None:
        tol = 1e-10 * max(vals[0], 0.0)
    return int(np.count_nonzero(vals > tol))
