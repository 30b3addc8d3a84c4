"""Dense complex linear algebra for small matrices and stacks of them.

Each function works matrix by matrix on the last two axes of an (n, n)
matrix or an (..., n, n) stack, so a stacked call equals a loop bit for bit
and every check covers every matrix.  Eigendecompositions use a
deterministic gauge (descending eigenvalues, largest-magnitude component of
each eigenvector made real and positive) so that downstream conversion
unitaries are reproducible.

Every tolerance is one of the *_TOL constants below; no call takes its own.
A NaN or infinite entry is rejected with `check_finite`'s one message and no
numpy warning.  `check_psd` runs where a spectrum is used as PSD, so an
eigensystem a caller passes in as `es` is checked like one computed here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

HERM_DRIFT_TOL = 1e-8  # how far `hermitize` may move an entry
HERM_TOL = 1e-10  # largest |M - M+| entry `DensityMatrix.validate` accepts
TRACE_TOL = 1e-12  # largest |tr M - 1| `DensityMatrix.validate` accepts
PSD_TOL = 1e-10  # how far below 0 an eigenvalue of a PSD matrix may lie
RANK_TOL = 1e-10  # the rank counts eigenvalues above RANK_TOL times the largest
ANTI_X_TOL = 1e-10  # largest anti-X measure of an X state


class EigenSystem(NamedTuple):
    """Eigenvalues in descending order paired with gauge-fixed eigenvectors.

    ``vectors[..., :, k]`` is the unit eigenvector for ``values[..., k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def scalar(x):
    """A 0-d result as a Python float or int; a stacked result unchanged."""
    return x.item() if x.ndim == 0 else x


def reject(bad, message: str, *values) -> None:
    """A DomainError if any entry of `bad` holds: `message` formatted with
    the first such entry of each of `values`, which broadcast against `bad`."""
    bad = np.asarray(bad)
    if bad.any():
        raise DomainError(message.format(
            *(np.broadcast_to(v, bad.shape).flat[bad.argmax()].item() for v in values)))


def clamped(x, lo: float, hi: float, message: str) -> np.ndarray:
    """x (a float or an array) as floats clipped to [lo, hi]; an entry
    further than 1e-12 outside that range is rejected with `message`."""
    x = np.asarray(x, dtype=float)
    reject(~((lo - 1e-12 <= x) & (x <= hi + 1e-12)), message, x)
    return np.clip(x, lo, hi)


def check_finite(M: np.ndarray) -> None:
    """Reject a NaN or infinite entry of M: the one non-finite message."""
    reject(~np.isfinite(M).all(), "matrix has a non-finite entry")


def hermitize(M: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, rejecting input that is not Hermitian within HERM_DRIFT_TOL.

    The drift check guards against silent accumulation errors in long
    pipelines.  A NaN or infinite entry makes the drift NaN (inf - inf, with
    the warning silenced), which `check_finite` then rejects.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    with np.errstate(invalid="ignore"):
        H = 0.5 * (M + M.conj().mT)
        drift = np.abs(H - M).max()
    if not drift <= HERM_DRIFT_TOL:
        check_finite(M)
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


def check_psd(values: np.ndarray) -> np.ndarray:
    """`values` (eigenvalues on the last axis, any order), rejecting NaN or any below -PSD_TOL."""
    if not (values >= -PSD_TOL).all():
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {values.min():.3e}")
    return values


def sqrt_psd(M: np.ndarray, es: EigenSystem | None = None) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; `check_psd` rejects a
    NaN or anything below.  A caller that already holds `eig_hermitian(M)`
    passes it as `es` to skip the eigendecomposition, not the check.
    """
    vals, vecs = eig_hermitian(M) if es is None else es
    vals = np.maximum(check_psd(vals), 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().mT


def trace_norm(M: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (Manhattan/1-norm)."""
    return scalar(np.abs(np.linalg.eigvalsh(hermitize(M))).sum(axis=-1))


def numerical_rank(M: np.ndarray, es: EigenSystem | None = None):
    """Count of eigenvalues above RANK_TOL times the largest, per matrix, of a
    Hermitian PSD matrix; a NaN or an eigenvalue below -PSD_TOL raises (not PSD).

    Computes eigenvalues only (eigvalsh), or reuses `es`, the `eig_hermitian(M)`
    a caller already holds, whose eigenvalues get the same check.
    """
    vals = check_psd(np.linalg.eigvalsh(hermitize(M)) if es is None else es.values)
    return scalar((vals > RANK_TOL * np.maximum(vals.max(axis=-1, keepdims=True), 0.0))
                  .sum(axis=-1))
