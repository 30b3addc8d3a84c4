"""Entanglement-preserving unitary (EPU) conversion of two-qubit states to X form.

The central routine is `find_x_equivalent`, which builds in closed form a
spectrum-preserving unitary that maps any two-qubit state, of any rank, to
an X state of the same concurrence.  `closed_form_conversion` maps rank-<=2
states onto the `closed_form_x` family instead.  Also here: the unitary
between two states of one spectrum (`conversion_unitary`), diagonal-unitary
factorizability tests and the X-preserving unitary with its unconstrained
X transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, measures
from .errors import DimensionError, DomainError, RankError, SpectralMismatchError
from .states import DensityMatrix, closed_form_x

# |dC| up to which a conversion counts as concurrence-preserving.
DEFAULT_TOL_C = 1e-3


@dataclass
class ConversionResult:
    """Outcome of an X-conversion: the X-shaped state, the unitary, and stats.

    `attempts` counts the candidate X states evaluated: `find_x_equivalent`
    builds its one candidate in closed form, so it reports 1;
    `closed_form_conversion` reports 0.  `input_concurrence` and
    `output_concurrence` are the concurrences of the input and of
    `converted`; `delta_c` is their absolute difference.  For a stacked
    input, `converted` and `unitary` are stacks and the measures arrays.
    """

    converted: DensityMatrix
    unitary: np.ndarray
    attempts: int
    delta_c: float
    anti_x: float
    input_concurrence: float
    output_concurrence: float


def conversion_unitary(rho_g: DensityMatrix, rho_x: DensityMatrix) -> np.ndarray:
    """Unitary U = eps_X eps_G+ mapping rho_g onto rho_x's eigenframe.

    Both states must share their spectrum within 1e-8 (unitary equivalence
    is impossible otherwise); a mismatch above 1e-10 only warns.
    """
    if rho_g.dims != rho_x.dims:
        raise DimensionError(
            f"dims differ: {list(rho_g.dims)} vs {list(rho_x.dims)}")
    eg, ex = linalg.eig_hermitian(rho_g.mat), linalg.eig_hermitian(rho_x.mat)
    gap = float(np.max(np.abs(eg.values - ex.values)))
    if gap > 1e-8:
        raise SpectralMismatchError(
            f"spectra differ by {gap:.3e}; states cannot be unitarily equivalent")
    if gap > 1e-10:
        warnings.warn(f"spectra differ by {gap:.3e}; conversion will be approximate")
    return ex.vectors @ eg.vectors.conj().T


def _conjugate(rho: DensityMatrix, U: np.ndarray) -> DensityMatrix:
    return DensityMatrix(U @ rho.mat @ U.conj().mT, rho.dims)


def find_x_equivalent(rho: DensityMatrix) -> ConversionResult:
    """X state unitarily equivalent to `rho` with the same concurrence, in closed form.

    With the spectrum l1 >= l2 >= l3 >= l4 of rho, the X state that puts l2
    on |01>, l4 on |10> and l1, l3 on the {|00>, |11>} plane rotated by an
    angle a has concurrence max(0, (l1 - l3) sin 2a - 2 sqrt(l2 l4)).  Its
    maximum over a is the largest concurrence any state of that spectrum
    can have (Verstraete, Audenaert & De Moor, PRA 64, 012316 (2001);
    Ishizaka & Hiroshima, PRA 62, 022310 (2000)), so
    sin 2a = (C + 2 sqrt(l2 l4)) / (l1 - l3) is always solvable, with a = 0
    when C = 0 or l1 = l3.  U maps rho's eigenframe onto that X eigenframe.

    `rho` is one state or a (B, 4, 4) stack, with one eigendecomposition per
    stack; a stack's result fields equal a per-state loop bit for bit.
    """
    measures.require_dims(rho, (2, 2), "X conversion")
    es = linalg.eig_hermitian(rho.mat)
    l1, l2, l3, l4 = np.moveaxis(np.clip(es.values, 0.0, None), -1, 0)
    c_in = measures.concurrence(rho, es)
    turn = (c_in > 0.0) & (l1 > l3)
    s = np.minimum(1.0, (c_in + 2.0 * np.sqrt(l2 * l4)) / np.where(turn, l1 - l3, 1.0))
    # math.asin row by row: np.arcsin differs from it in the last bit.
    a = np.where(turn, 0.5 * np.vectorize(math.asin, otypes=[float])(s), 0.0)
    # Column k is the X state's eigenvector for l_(k+1).
    ca, sa = np.cos(a), np.sin(a)
    ex = np.zeros(a.shape + (4, 4), dtype=complex)
    ex[..., 0, 0], ex[..., 3, 0], ex[..., 0, 2], ex[..., 3, 2] = ca, sa, -sa, ca
    ex[..., 1, 1] = ex[..., 2, 3] = 1.0
    return _onto_frame(rho, es.vectors, ex, c_in, attempts=1)


def _onto_frame(rho: DensityMatrix, eg: np.ndarray, ex: np.ndarray, c_in,
                attempts: int) -> ConversionResult:
    """Conjugate rho by U = ex eg+, which maps its eigenframe eg onto ex."""
    U = ex @ eg.conj().mT
    out = _conjugate(rho, U)
    c_out = measures.concurrence(out)
    return ConversionResult(
        converted=out, unitary=U, attempts=attempts, delta_c=abs(c_out - c_in),
        anti_x=measures.anti_x_measure(out),
        input_concurrence=c_in, output_concurrence=c_out)


def closed_form_conversion(rho_g: DensityMatrix) -> ConversionResult:
    """Exact X conversion for rank-<=2 two-qubit states (no search needed)."""
    measures.require_single(rho_g, "closed-form conversion", (2, 2))
    es = linalg.eig_hermitian(rho_g.mat)
    R = linalg.numerical_rank(rho_g.mat, es=es)
    if R > 2:
        raise RankError(f"closed-form conversion needs rank <= 2, got rank {R}")
    C = measures.concurrence(rho_g, es)
    P = measures.purity(rho_g)
    if 2.0 * P - 1.0 - C * C < -1e-9:
        # Rank <= 2 alone is not enough: no rank-<=2 X state with this
        # (C, P) pair exists, so an exact concurrence-preserving target is
        # out of reach for this closed form (find_x_equivalent still applies).
        raise DomainError(
            f"(C={C:.6f}, P={P:.6f}) lies outside the closed-form region "
            f"P >= (1 + C^2)/2; use find_x_equivalent instead")
    # Any eigenbasis of the target maps rho_g's equal spectrum onto it.
    ex = linalg.eig_hermitian(closed_form_x(C, P).mat).vectors
    return _onto_frame(rho_g, es.vectors, ex, C, attempts=0)


# ---------------------------------------------------------------------------
# Diagonal unitaries and factorizability
# ---------------------------------------------------------------------------

# Rows express eta_k = a_i + b_j for the 2x2 tensor ordering.
_FACTOR_SYSTEM = np.array([
    [1, 0, 1, 0],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
    [0, 1, 0, 1],
], dtype=float)


def _four_phases(phases: Sequence[float]) -> np.ndarray:
    eta = np.asarray(phases, dtype=float)
    if eta.shape != (4,):
        raise DimensionError(f"need 4 phases, got shape {eta.shape}")
    return eta


def diag_factor_conditions(phases: Sequence[float]) -> tuple:
    """Necessary-condition pairs for diagonal-unitary factorizability.

    Returns ((eta4 - eta3, eta2 - eta1), (eta4 - eta2, eta3 - eta1)); the
    diagonal factors into a tensor product of 2x2 diagonals only if each
    pair is equal.
    """
    eta = _four_phases(phases)
    return ((float(eta[3] - eta[2]), float(eta[1] - eta[0])),
            (float(eta[3] - eta[1]), float(eta[2] - eta[0])))


def diag_factorizable(phases: Sequence[float], mode: str = "exact"):
    """Can diag(e^{i eta}) be written as a tensor product of 2x2 diagonals?

    "exact" demands eta_k = a_i + b_j exactly (linear-system consistency);
    "mod-global-phase" only requires eta1 + eta4 = eta2 + eta3 mod 2 pi.
    Returns (ok, witness) where witness = (a1, a2, b1, b2) on success.
    """
    eta = _four_phases(phases)
    if mode == "exact":
        sol, *_ = np.linalg.lstsq(_FACTOR_SYSTEM, eta, rcond=None)
        residual = float(np.max(np.abs(_FACTOR_SYSTEM @ sol - eta)))
        return (True, tuple(sol)) if residual <= 1e-10 else (False, None)
    if mode == "mod-global-phase":
        excess = eta[0] + eta[3] - eta[1] - eta[2]
        gap = excess % (2.0 * math.pi)
        if not min(gap, 2.0 * math.pi - gap) <= 1e-10:
            return False, None
        # Absorb the global phase, then solve exactly.
        sol, *_ = np.linalg.lstsq(_FACTOR_SYSTEM, eta - [0.0, 0.0, 0.0, excess], rcond=None)
        return True, tuple(sol)
    raise DomainError(f"unknown mode {mode!r}")


def x_preserving_unitary(eps: float, theta: float, alpha: float, beta: float,
                         phi: float, chi: float) -> np.ndarray:
    """X-shaped 4x4 unitary: independent rotations of the outer and inner planes."""
    ce, se = math.cos(eps), math.sin(eps)
    ct, st = math.cos(theta), math.sin(theta)
    U = np.zeros((4, 4), dtype=complex)
    U[0, 0] = ce * np.exp(1j * alpha)
    U[0, 3] = se * np.exp(1j * beta)
    U[3, 0] = -se * np.exp(-1j * beta)
    U[3, 3] = ce * np.exp(-1j * alpha)
    U[1, 1] = ct * np.exp(1j * phi)
    U[1, 2] = st * np.exp(1j * chi)
    U[2, 1] = -st * np.exp(-1j * chi)
    U[2, 2] = ct * np.exp(-1j * phi)
    return U


def x_transform_unconstrained(rho_g: DensityMatrix, x_unitary_params) -> DensityMatrix:
    """One-shot X transform without entanglement preservation.

    Diagonalize rho_g, then rotate the diagonal with an X-shaped unitary:
    the output is always X-shaped with the input's spectrum, but the
    concurrence generally changes.  `x_unitary_params` is either a 4x4
    X-shaped unitary or the 6 angles of `x_preserving_unitary`.
    """
    measures.require_single(rho_g, "X transform", (2, 2))
    UX = np.asarray(x_unitary_params, dtype=complex) \
        if np.ndim(x_unitary_params) == 2 else x_preserving_unitary(*x_unitary_params)
    eg = linalg.eig_hermitian(rho_g.mat).vectors
    return _conjugate(rho_g, UX @ eg.conj().T)

