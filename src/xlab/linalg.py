"""Dense complex linear algebra for small matrices and stacks of them.

Each function works matrix by matrix on the last two axes of an (n, n)
matrix or an (..., n, n) stack, so a stacked call equals a loop bit for bit
and every check covers every matrix.  Eigendecompositions use a
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

    ``vectors[..., :, k]`` is the unit eigenvector for ``values[..., k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def scalar(x):
    """A 0-d result as a Python float or int; a stacked result unchanged."""
    return x.item() if x.ndim == 0 else x


def hermitize(M: np.ndarray, tol: float = HERM_DRIFT_TOL) -> np.ndarray:
    """Return (M + M†)/2, rejecting input that is not Hermitian within `tol`.

    The drift check guards against silent accumulation errors in long
    pipelines: symmetrizing must not change any entry by more than `tol`.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    H = 0.5 * (M + M.conj().mT)
    drift = np.abs(H - M).max()
    if drift > tol:
        raise DomainError(f"matrix is not Hermitian: symmetrization moved an entry by {drift:.3e}")
    return H


def eig_hermitian(M: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic gauge.

    Eigenvalues come out in descending order (stable on ties).  Each
    eigenvector is multiplied by conj(p)/|p|, where p is its
    largest-magnitude entry (the lowest index on ties), so that p becomes
    real and positive.
    """
    H = hermitize(M)
    n = H.shape[-1]
    w, v = np.linalg.eigh(H.reshape(-1, n, n))
    rows = np.arange(len(w))[:, None]
    order = (-w).argsort(axis=-1, kind="stable")
    # vt[b, k] is the eigenvector of matrix b for its k-th largest eigenvalue.
    w, vt = w[rows, order], v.mT[rows, order]
    pivot = vt[rows, np.arange(n), np.abs(vt).argmax(axis=-1)]
    vt = vt * (pivot.conj() / np.abs(pivot))[..., None]
    return EigenSystem(values=w.reshape(H.shape[:-1]), vectors=vt.mT.reshape(H.shape))


def _psd_eig(M: np.ndarray, tol: float) -> EigenSystem:
    """eig_hermitian(M), rejecting any matrix whose smallest eigenvalue is below -tol."""
    es = eig_hermitian(M)
    low = es.values[..., -1]
    if (low < -tol).any():
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {low.min():.3e}")
    return es


def sqrt_psd(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine PSD violation and raises.
    """
    vals, vecs = _psd_eig(M, tol)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().mT


def trace_norm(M: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (Manhattan/1-norm)."""
    H = hermitize(M)
    return scalar(np.abs(np.linalg.eigvalsh(H)).sum(axis=-1))


def numerical_rank(M: np.ndarray, tol: float | None = None):
    """Count of eigenvalues above `tol` for a Hermitian PSD matrix.

    Default tolerance is 1e-10 times the largest eigenvalue of each matrix;
    an eigenvalue below -1e-10 is a PSD violation and raises.
    """
    vals, _ = _psd_eig(M, 1e-10)
    if tol is None:
        tol = 1e-10 * np.maximum(vals[..., :1], 0.0)
    return scalar((vals > tol).sum(axis=-1))
