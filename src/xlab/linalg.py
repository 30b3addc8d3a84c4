"""Dense complex linear algebra for small matrices and stacks of them.

Each function works matrix by matrix on the last two axes of an (n, n)
matrix or an (..., n, n) stack, so a stacked call equals a loop bit for bit
and every check covers every matrix.  Eigendecompositions use a
deterministic gauge (descending eigenvalues, largest-magnitude component of
each eigenvector made real and positive) so that downstream conversion
unitaries are reproducible.

Every tolerance is one of the *_TOL constants below; no call takes its own.
Keys are checked by `member`, numeric inputs read by `numbers`, matrices by `square`
and records (namedtuple rows such as `EigenSystem`) by `record`; a rejected value is
shown by `one_line`, so an array inside it keeps the message on one line.
A NaN or infinite entry is rejected with `check_finite`'s one message and no
numpy warning.  `check_psd` runs wherever a spectrum is used as PSD.

The per-block paths call ufuncs, ufunc reductions and C methods, not numpy's
Python-level helpers (`np.clip`, `np.errstate`, the wrappers behind
`ndarray.all/.any/.max/.sum`): a command converts or measures a block of a
few states, so each helper's fixed cost outweighs the arithmetic it wraps.
"""

from __future__ import annotations

from collections import namedtuple
from numbers import Number

import numpy as np

from .errors import DimensionError, DomainError

HERM_DRIFT_TOL = 1e-8  # how far `hermitize` may move an entry
HERM_TOL = 1e-10  # largest |M - M+| entry `DensityMatrix.validate` accepts
TRACE_TOL = 1e-12  # largest |tr M - 1| `DensityMatrix.validate` accepts
PSD_TOL = 1e-10  # how far below 0 an eigenvalue of a PSD matrix may lie
RANK_TOL = 1e-10  # the rank counts eigenvalues above RANK_TOL times the largest
ANTI_X_TOL = 1e-10  # largest anti-X measure of an X state
INPUT_TOL = 1e-12  # how far a state family's parameter may lie outside its range
RANK2_TOL = 1e-9  # slack of P >= (1 + C^2)/2, i.e. of C <= l1 - l2 at rank <= 2
NEGATIVITY_TOL = 1e-9  # how far above 1 `negativity_e` may read
SPECTRUM_TOL, SPECTRUM_WARN_TOL = 1e-8, 1e-10  # spectrum gaps conversion_unitary rejects, warns of
PHASE_TOL = 1e-10  # largest excess (mod 2 pi, or / 4) `diag_factorizable` accepts
RESOLUTION_TOL = 1e-10  # largest |c * sum - I| entry of a `basis_resolution`
ZERO_TOL = 1e-12  # the largest |entry| or eigenvalue `tgx` counts as zero
FLAT_TOL = 1e-9  # how far a maximally mixed reduction's nonzero eigenvalues may spread


EigenSystem = namedtuple("EigenSystem", "values vectors")
EigenSystem.__doc__ = """Eigenvalues in descending order paired with gauge-fixed eigenvectors.

``vectors[..., :, k]`` is the unit eigenvector for ``values[..., k]``."""


def scalar(x):
    """A 0-d result as a Python float or int; a stacked result unchanged."""
    return x.item() if x.ndim == 0 else x


def reject(bad, message: str, *values) -> None:
    """A DomainError if any entry of `bad` holds: `message` formatted with
    the first such entry of each of `values`, which broadcast against `bad`."""
    bad = np.asarray(bad)
    if np.logical_or.reduce(bad, axis=None):
        raise DomainError(message.format(
            *(np.broadcast_to(v, bad.shape).item(bad.argmax()) for v in values)))


def member(value, options, message: str, error=DomainError):
    """`value` if it is in `options` and a str or a Python or numpy int, not a bool;
    else `error(message.format(value))`."""
    if isinstance(value, (str, int, np.integer)) and type(value) is not bool and value in options:
        return value
    raise error(message.format(value))


def numbers(x, name: str, dtype=float) -> np.ndarray:
    """x as an array of `dtype`; a DomainError names it unless its entries are numbers
    (`_first_non_number`): not None, which numpy reads as NaN, nor str or bytes, which it
    parses (an ndarray of numbers, the per-block input, is not scanned).  An x whose
    one-line repr is over 80 characters is named by its first non-number entry's row-major
    index, or else by that repr cut at 80."""
    try:
        raw = x if isinstance(x, np.ndarray) else np.asarray(x)
        if raw.dtype.kind not in "OSU" or raw.dtype.kind == "O" and not _first_non_number(raw):
            return np.asarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        pass
    shown = one_line(x)
    if len(shown) > 80:
        bad = _first_non_number(x)
        shown = f"entry {bad[0]} ({one_line(bad[1]):.80})" if bad else f"{shown:.80}..."
    raise DomainError(f"{name} {shown} is not a number")


def _first_non_number(x):
    """(row-major index, entry) of the first entry of x, nested in lists, tuples and arrays,
    that is not a number (a `numbers.Number` or numpy scalar, not str or bytes), or None."""
    todo, index = [x], 0
    while todo:
        v = todo.pop()
        v = v.tolist() if isinstance(v, np.ndarray) else v
        if isinstance(v, (list, tuple)):
            todo += reversed(v)
        elif isinstance(v, (str, bytes)) or not isinstance(v, (Number, np.generic)):
            return index, v
        else:
            index += 1
    return None


def one_line(value) -> str:
    """repr(value) with each run of whitespace one space, so an array's repr fits an error line."""
    return " ".join(repr(value).split())


def record(value, kind, name: str, arrays: bool = False):
    """`value` if it is a `kind` row, each field an ndarray when `arrays`; else a
    DimensionError naming `name`: the one check of a record argument."""
    if isinstance(value, kind) and (not arrays or all(isinstance(f, np.ndarray) for f in value)):
        return value
    raise DimensionError(
        f"{name} {one_line(value):.80} is not {kind.__name__}{' of arrays' * arrays}")


def clamped(x, lo: float, hi: float, message: str) -> np.ndarray:
    """x (a float or an array) as floats clipped to [lo, hi]; an entry further than
    INPUT_TOL outside it is rejected with `message`, whose first word names x."""
    x = numbers(x, message.split()[0])
    reject(~((lo - INPUT_TOL <= x) & (x <= hi + INPUT_TOL)), message, x)
    return np.clip(x, lo, hi)


def square(M, name: str = "matrix") -> np.ndarray:
    """M as a complex (n, n) matrix or (..., n, n) stack; else an XLabError naming `name`."""
    M = numbers(M, name, complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"expected a square {name} or a stack of them, got shape {M.shape}")
    return M


def check_finite(M: np.ndarray) -> None:
    """Reject a NaN or infinite entry of M: the one non-finite message."""
    if not np.logical_and.reduce(np.isfinite(M), axis=None):
        raise DomainError("matrix has a non-finite entry")


def hermitize(M: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, rejecting input that is not Hermitian within HERM_DRIFT_TOL.

    The drift check guards against silent accumulation errors in long
    pipelines.  `check_finite` runs first, so a NaN or infinite entry gets
    its message and the arithmetic never meets one.
    """
    M = square(M)
    check_finite(M)
    H = 0.5 * (M + M.conj().mT)
    drift = np.maximum.reduce(np.abs(H - M), axis=None, initial=0.0)
    if not drift <= HERM_DRIFT_TOL:
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
    if not np.logical_and.reduce(values >= -PSD_TOL, axis=None):
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {values.min():.3e}")
    return values


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Hermitian square root (V sqrt(L)) V+ of a PSD matrix, from `eig_hermitian(M)`:
    eigenvalues in [-PSD_TOL, 0) are clamped to zero; `check_psd` rejects a NaN or
    anything below."""
    vals, vecs = eig_hermitian(M)
    vals = np.maximum(check_psd(vals), 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().mT


def trace_norm(M: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (Manhattan/1-norm)."""
    return scalar(np.abs(np.linalg.eigvalsh(hermitize(M))).sum(axis=-1))


def numerical_rank(M: np.ndarray):
    """Count of eigenvalues above RANK_TOL times the largest, per matrix, of a
    Hermitian PSD matrix; a NaN or an eigenvalue below -PSD_TOL raises (not PSD).
    Computes eigenvalues only (eigvalsh)."""
    vals = check_psd(np.linalg.eigvalsh(hermitize(M)))
    top = np.maximum(np.maximum.reduce(vals, axis=-1, keepdims=True), 0.0)
    return scalar(np.add.reduce(vals > RANK_TOL * top, axis=-1))
