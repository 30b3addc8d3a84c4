"""Entanglement-preserving unitary (EPU) conversion of two-qubit states to X form.

`find_x_equivalent` maps any two-qubit state, of any rank, to `x_state`, the X state
X(lambda, C) of its spectrum and concurrence, in closed form; `closed_form_conversion`
maps a rank-<=2 state onto `closed_form_x`.  Each builds its output from the rank-cut
spectrum on a layout row of one X-frame builder, not as U rho U+.  Also here:
`conversion_unitary` between two states of one spectrum, the diagonal-unitary
factorizability test, and the X-preserving unitary with its unconstrained X transform.
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
`closed_form_conversion` reports 0.  `input_concurrence` is
`measures.concurrence` of the input and `output_concurrence` the X closed
form `measures.concurrence_x` of `converted`; `delta_c` is their absolute
difference.  For a stacked input, `converted` and `unitary` are stacks and
the measures arrays."""


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


def find_x_equivalent(rho: DensityMatrix) -> ConversionResult:
    """X state unitarily equivalent to `rho` with the same concurrence, in closed form.

    The output is `x_state` of rho's spectrum and concurrence, built from that spectrum.
    U maps rho's eigenframe onto the X eigenframe, so U rho U+ is the output up to rounding.

    `rho` is one state or a (B, 4, 4) stack.  It is eigendecomposed twice, for the frame
    and inside `measures.concurrence`, and the output is measured by `concurrence_x`; a
    stack's result fields equal a per-state loop bit for bit.
    """
    es = linalg.eig_hermitian(measures.require_state(rho, "find_x_equivalent", (2, 2)).mat)
    return _x_frame(es, measures.concurrence(rho), _FIND_X_ROW, 1)


_FIND_X_ROW = ((0, 3), (0, 2), ((1, 1), (3, 2)))  # l1, l3 on {|00>, |11>}; l2, l4 on |01>, |10>
_CLOSED_FORM_ROW = ((0, 3), (0, 1), ((2, 1), (3, 2)))  # l1, l2 on {|00>, |11>}; l3, l4 off it


def _frame(s, layout, n: int) -> np.ndarray:
    """The (..., n, n) X eigenframe at sin 2a = `s`, an array: column k is eigenvalue k's
    eigenvector.  `layout` = ((i, j), (p, q), ((k, b), ...)) turns eigenvalues p, q by a on
    the basis plane {i, j} and puts each other eigenvalue k on basis index b."""
    (i, j), (p, q), rest = layout
    a = 0.5 * np.arcsin(s)
    ca, sa = np.cos(a), np.sin(a)
    ex = np.zeros(s.shape + (n, n), dtype=complex)
    ex[..., i, p], ex[..., j, p], ex[..., i, q], ex[..., j, q] = ca, sa, -sa, ca
    for k, b in rest:
        ex[..., b, k] = 1.0
    return ex


def _state(ex: np.ndarray, lam: np.ndarray) -> DensityMatrix:
    """The two-qubit state ex diag(lam) ex+ of eigenframe `ex` and spectrum `lam`."""
    return DensityMatrix(ex @ (lam[..., None] * ex.conj().mT), (2, 2))


def _x_build(values, c, layout) -> tuple:
    """(E, E diag(lam) E+, reach): `layout`'s X frame E at concurrence `c`, lam the descending
    `values` cut as `numerical_rank` counts, and the largest C the turn reaches."""
    _, (p, q), ((u, _), (v, _)) = layout
    lam = np.where(values > linalg.RANK_TOL * values[..., :1], np.maximum(values, 0.0), 0.0)
    span, root = lam[..., p] - lam[..., q], 2.0 * np.sqrt(lam[..., u] * lam[..., v])
    turn = (c > 0.0) & (span > 0.0)
    s = np.minimum(1.0, (c + root) / np.where(turn, span, 1.0))
    ex = _frame(np.where(turn, s, 0.0), layout, 4)
    return ex, _state(ex, lam), np.maximum(span - root, 0.0)


def x_state(spectrum, C) -> DensityMatrix:
    """X(lambda, C): the two-qubit X state of spectrum l1 >= l2 >= l3 >= l4 and concurrence C.

    It puts l2 on |01>, l4 on |10> and l1, l3 on the {|00>, |11>} plane rotated by an
    angle a, with concurrence max(0, (l1 - l3) sin 2a - 2 sqrt(l2 l4)).  Its maximum over
    a, the reach, is the largest concurrence any state of that spectrum can have
    (Verstraete, Audenaert & De Moor, PRA 64, 012316 (2001); Ishizaka & Hiroshima, PRA 62,
    022310 (2000)), so sin 2a = (C + 2 sqrt(l2 l4)) / (l1 - l3) is solvable for every C up
    to it, with a = 0 when C = 0 or l1 = l3.  The spectrum is rank-cut first: each entry
    at or below linalg.RANK_TOL * l1 is 0.  `find_x_equivalent` returns this state, bit
    for bit, for every state of that spectrum and concurrence.

    `spectrum` is 4 eigenvalues or a (B, 4) stack, C one number or one per spectrum.  A
    DomainError names a non-finite or non-descending spectrum, an entry below
    -linalg.PSD_TOL, a sum off 1 by more than linalg.TRACE_TOL, and a C more than
    linalg.INPUT_TOL outside [0, reach].
    """
    lam, c = _finite(spectrum, "spectrum entry"), linalg.numbers(C, "concurrence")
    if lam.ndim not in (1, 2) or lam.shape[-1] != 4 or c.shape not in ((), lam.shape[:-1]):
        raise DimensionError(f"x_state takes a (4,) spectrum or a (B, 4) stack and one C or "
                             f"one per spectrum, got shapes {lam.shape} and {c.shape}")
    linalg.reject(lam < -linalg.PSD_TOL, f"spectrum entry {{:.3e}} is below -{linalg.PSD_TOL}",
                  lam)
    linalg.reject(lam[..., 1:] > lam[..., :-1], "spectrum is not descending: {!r} before {!r}",
                  lam[..., :-1], lam[..., 1:])
    total = np.add.reduce(lam, axis=-1)
    linalg.reject(np.abs(total - 1.0) > linalg.TRACE_TOL,
                  f"spectrum sums to {{!r}}, off 1 by more than {linalg.TRACE_TOL}", total)
    _, out, reach = _x_build(lam, c, _FIND_X_ROW)
    linalg.reject(~((c >= -linalg.INPUT_TOL) & (c <= reach + linalg.INPUT_TOL)),
                  "concurrence {!r} lies outside [0, {!r}], the reach of its spectrum", c, reach)
    return out


def _x_frame(es, c_in, layout, attempts: int) -> ConversionResult:
    """Conversion of eigensystem `es` onto `layout`'s X state at `c_in`, with U = E V+."""
    ex, out, _ = _x_build(es.values, c_in, layout)
    c_out, U = measures.concurrence_x(out), ex @ es.vectors.conj().mT
    return ConversionResult(
        converted=out, unitary=U, attempts=attempts, delta_c=abs(c_out - c_in),
        anti_x=measures.anti_x_measure(out), input_concurrence=c_in, output_concurrence=c_out)


def closed_form_conversion(rho_g: DensityMatrix) -> ConversionResult:
    """Exact X conversion of one rank-<=2 two-qubit state: l1 and l2 share
    the rotated plane, sin 2a = C / (l1 - l2), so C > l1 - l2 + `linalg.RANK2_TOL`,
    which is P < (1 + C^2)/2, is a DomainError.  C is `measures.concurrence` of the
    input, and the output is measured by `concurrence_x`, as in `find_x_equivalent`."""
    es = linalg.eig_hermitian(
        measures.require_state(rho_g, "closed_form_conversion", (2, 2), single=True).mat)
    R = rho_g.rank()
    if R > 2:
        raise RankError(f"closed-form conversion needs rank <= 2, got rank {R}")
    C = measures.concurrence(rho_g)
    if C - (es.values[0] - es.values[1]) > linalg.RANK2_TOL:
        raise DomainError(
            f"(C={C:.6f}, P={measures.purity(rho_g):.6f}) lies outside the closed-form "
            f"region P >= (1 + C^2)/2; use find_x_equivalent instead")
    return _x_frame(es, C, _CLOSED_FORM_ROW, 0)


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

    X diag(lambda) X+ for rho_g's spectrum lambda and the X-shaped unitary X of the
    six `x_preserving_unitary` angles: the output is always X-shaped with the
    input's spectrum, but the concurrence generally changes.
    """
    measures.require_state(rho_g, "x_transform_unconstrained", (2, 2), single=True)
    angles = linalg.numbers(angles, "angle")
    if angles.shape != (6,):
        raise DimensionError(f"need 6 angles, got shape {angles.shape}")
    return _state(x_preserving_unitary(*angles.tolist()), linalg.eig_hermitian(rho_g.mat).values)
