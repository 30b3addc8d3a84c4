"""Entanglement-preserving unitary (EPU) conversion of two-qubit states to X form.

`find_x_equivalent` maps any two-qubit state, of any rank, to an X state of
the same concurrence in closed form; `closed_form_conversion` maps a rank-<=2
state onto `closed_form_x`.  They are two layout rows of one X-frame builder.
Also here: `conversion_unitary` between two states of one spectrum, the
diagonal-unitary factorizability test, and the X-preserving unitary with its
unconstrained X transform.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import Sequence

import numpy as np

from . import linalg, measures
from .errors import DimensionError, DomainError, RankError, SpectralMismatchError
from .states import DensityMatrix, _finite, closed_form_x

# |dC| up to which a conversion counts as concurrence-preserving.
DEFAULT_TOL_C = 1e-3


ConversionResult = namedtuple("ConversionResult", "converted unitary attempts delta_c anti_x "
                              "input_concurrence output_concurrence")
ConversionResult.__doc__ = """Outcome of an X-conversion: the X state, the unitary, and stats.

`attempts` counts the candidate X states evaluated: `find_x_equivalent`
builds its one candidate in closed form, so it reports 1;
`closed_form_conversion` reports 0.  `input_concurrence` and
`output_concurrence` are the concurrences of the input and of
`converted`; `delta_c` is their absolute difference.  For a stacked
input, `converted` and `unitary` are stacks and the measures arrays."""


def conversion_unitary(rho_g: DensityMatrix, rho_x: DensityMatrix) -> np.ndarray:
    """Unitary U = eps_X eps_G+ mapping rho_g onto rho_x's eigenframe.

    Both states must share their spectrum within linalg.SPECTRUM_TOL (unitary
    equivalence is impossible otherwise); a mismatch above SPECTRUM_WARN_TOL only warns.
    """
    dims = measures.require_state(rho_g, "conversion_unitary", single=True).dims
    measures.require_state(rho_x, "conversion_unitary's rho_x", dims, single=True)
    eg, ex = linalg.eig_hermitian(rho_g.mat), linalg.eig_hermitian(rho_x.mat)
    gap = float(np.max(np.abs(eg.values - ex.values)))
    if gap > linalg.SPECTRUM_TOL:
        raise SpectralMismatchError(
            f"spectra differ by {gap:.3e}; states cannot be unitarily equivalent")
    if gap > linalg.SPECTRUM_WARN_TOL:
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
    es = linalg.eig_hermitian(measures.require_state(rho, "find_x_equivalent", (2, 2)).mat)
    return _x_frame(rho, es, measures.concurrence(rho, es), _FIND_X_ROW, 1)


_FIND_X_ROW = ((0, 3), (0, 2), ((1, 1), (3, 2)))  # l1, l3 on {|00>, |11>}; l2, l4 on |01>, |10>
_CLOSED_FORM_ROW = ((0, 3), (0, 1), ((2, 1), (3, 2)))  # l1, l2 on {|00>, |11>}; l3, l4 off it


def _frame(s, layout, n: int) -> np.ndarray:
    """The (..., n, n) X eigenframe at sin 2a = `s`, an array: column k is eigenvalue k's
    eigenvector.  `layout` = ((i, j), (p, q), ((k, b), ...)) turns eigenvalues p, q by a on
    the basis plane {i, j} and puts each other eigenvalue k on basis index b."""
    (i, j), (p, q), rest = layout
    # math.asin row by row: np.arcsin differs from it in the last bit.
    a = 0.5 * np.array([math.asin(x) for x in s.ravel().tolist()]).reshape(s.shape)
    ca, sa = np.cos(a), np.sin(a)
    ex = np.zeros(s.shape + (n, n), dtype=complex)
    ex[..., i, p], ex[..., j, p], ex[..., i, q], ex[..., j, q] = ca, sa, -sa, ca
    for k, b in rest:
        ex[..., b, k] = 1.0
    return ex


def _x_frame(rho: DensityMatrix, es, c_in, layout, attempts: int) -> ConversionResult:
    """Conversion onto `layout` at concurrence C: sin 2a = (C + 2 sqrt(l_u l_v)) / (l_p - l_q)."""
    _, (p, q), ((u, _), (v, _)) = layout
    lam = np.maximum(es.values, 0.0)
    lp, lq, lu, lv = lam[..., p], lam[..., q], lam[..., u], lam[..., v]
    turn = (c_in > 0.0) & (lp > lq)
    s = np.minimum(1.0, (c_in + 2.0 * np.sqrt(lu * lv)) / np.where(turn, lp - lq, 1.0))
    U = _frame(np.where(turn, s, 0.0), layout, 4) @ es.vectors.conj().mT  # rho's frame onto X's
    out = _conjugate(rho, U)
    c_out = measures.concurrence(out)
    return ConversionResult(
        converted=out, unitary=U, attempts=attempts, delta_c=abs(c_out - c_in),
        anti_x=measures.anti_x_measure(out), input_concurrence=c_in, output_concurrence=c_out)


def closed_form_conversion(rho_g: DensityMatrix) -> ConversionResult:
    """Exact X conversion of one rank-<=2 two-qubit state: l1 and l2 share
    the rotated plane, sin 2a = C / (l1 - l2), so C > l1 - l2 + `linalg.RANK2_TOL`,
    which is P < (1 + C^2)/2, is a DomainError."""
    es = linalg.eig_hermitian(
        measures.require_state(rho_g, "closed_form_conversion", (2, 2), single=True).mat)
    R = rho_g.rank()
    if R > 2:
        raise RankError(f"closed-form conversion needs rank <= 2, got rank {R}")
    C = measures.concurrence(rho_g, es)
    if C - (es.values[0] - es.values[1]) > linalg.RANK2_TOL:
        raise DomainError(
            f"(C={C:.6f}, P={measures.purity(rho_g):.6f}) lies outside the closed-form "
            f"region P >= (1 + C^2)/2; use find_x_equivalent instead")
    return _x_frame(rho_g, es, C, _CLOSED_FORM_ROW, 0)


# ---------------------------------------------------------------------------
# Diagonal unitaries and factorizability
# ---------------------------------------------------------------------------

def diag_factor_conditions(phases: Sequence[float]) -> tuple:
    """Necessary-condition pairs for diagonal-unitary factorizability.

    Returns ((eta4 - eta3, eta2 - eta1), (eta4 - eta2, eta3 - eta1)); the
    diagonal factors into a tensor product of 2x2 diagonals only if each
    pair is equal.
    """
    eta = linalg.numbers(phases, "phase")
    if eta.shape != (4,):
        raise DimensionError(f"need 4 phases, got shape {eta.shape}")
    e1, e2, e3, e4 = eta.tolist()  # Python floats: a non-finite phase gives nan, no warning
    return (e4 - e3, e2 - e1), (e4 - e2, e3 - e1)


def diag_factorizable(phases: Sequence[float], mode: str = "exact"):
    """Can diag(e^{i eta}) be written as a tensor product of 2x2 diagonals?

    Both modes test the excess eta1 + eta4 - eta2 - eta3, the gap between the
    first pair of `diag_factor_conditions`: "exact" (eta_k = a_i + b_j) accepts
    |excess| / 4 <= linalg.PHASE_TOL; "mod-global-phase" accepts excess = 0 mod 2 pi
    within PHASE_TOL, then takes it off eta4.  Returns (ok, witness); witness =
    (a1, a2, b1, b2) is the least-norm least-squares fit: the row and column means
    of eta as a 2x2 grid, each less half the grid's mean.
    """
    (left, right), _ = diag_factor_conditions(phases)
    excess = left - right
    if linalg.member(mode, ("exact", "mod-global-phase"), "unknown mode {!r}") == "exact":
        ok, shift = abs(excess) / 4.0 <= linalg.PHASE_TOL, 0.0
    else:
        gap = excess % (2.0 * math.pi)
        ok, shift = min(gap, 2.0 * math.pi - gap) <= linalg.PHASE_TOL, excess
    if not ok:
        return False, None
    grid = (linalg.numbers(phases, "phase") - [0.0, 0.0, 0.0, shift]).reshape(2, 2)
    half = grid.mean() / 2.0
    return True, (*(grid.mean(axis=1) - half), *(grid.mean(axis=0) - half))


def x_preserving_unitary(eps: float, theta: float, alpha: float, beta: float,
                         phi: float, chi: float) -> np.ndarray:
    """X-shaped 4x4 unitary: independent rotations of the outer and inner planes;
    a DomainError names the first angle that is not finite."""
    eps, theta, alpha, beta, phi, chi = _finite([eps, theta, alpha, beta, phi, chi],
                                                "angle").tolist()
    U = np.zeros((4, 4), dtype=complex)
    for i, j, w, a, b in ((0, 3, eps, alpha, beta), (1, 2, theta, phi, chi)):
        c, s = math.cos(w), math.sin(w)
        U[i, i], U[i, j] = c * np.exp(1j * a), s * np.exp(1j * b)
        U[j, i], U[j, j] = -s * np.exp(-1j * b), c * np.exp(-1j * a)
    return U


def x_transform_unconstrained(rho_g: DensityMatrix, angles) -> DensityMatrix:
    """One-shot X transform without entanglement preservation.

    Diagonalize rho_g, then rotate the diagonal with the X-shaped unitary of
    the six `x_preserving_unitary` angles: the output is always X-shaped with
    the input's spectrum, but the concurrence generally changes.
    """
    measures.require_state(rho_g, "x_transform_unconstrained", (2, 2), single=True)
    angles = linalg.numbers(angles, "angle")
    if angles.shape != (6,):
        raise DimensionError(f"need 6 angles, got shape {angles.shape}")
    eg = linalg.eig_hermitian(rho_g.mat).vectors
    return _conjugate(rho_g, x_preserving_unitary(*angles.tolist()) @ eg.conj().T)
