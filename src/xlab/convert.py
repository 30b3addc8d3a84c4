"""Entanglement-preserving unitary (EPU) conversion of two-qubit states to X form.

The central routine is `find_x_equivalent`, which builds in closed form a
spectrum-preserving unitary that maps any two-qubit state, of any rank, to
an X state of the same concurrence.  `closed_form_conversion` maps rank-<=2
states onto the `closed_form_x` family instead.  Also here:
diagonal-unitary factorizability tests, X-preserving and subspace-rotation
unitaries, candidate EPU assembly, and spectrum-based concurrence
estimation against the fixed-concurrence/fixed-purity state family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg, measures, states
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
    `converted`; `delta_c` is their absolute difference.
    """

    converted: DensityMatrix
    unitary: np.ndarray
    attempts: int
    delta_c: float
    anti_x: float
    input_concurrence: float
    output_concurrence: float


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(linalg.hermitize(mat))[::-1]


def conversion_unitary(rho_g: DensityMatrix, rho_x: DensityMatrix) -> np.ndarray:
    """Unitary U = eps_X eps_G+ mapping rho_g onto rho_x's eigenframe.

    Both states must share their spectrum within 1e-8 (unitary equivalence
    is impossible otherwise); a mismatch above 1e-10 only warns.
    """
    if rho_g.dims != rho_x.dims:
        raise DimensionError(
            f"dims differ: {list(rho_g.dims)} vs {list(rho_x.dims)}")
    sg = _spectrum(rho_g.mat)
    sx = _spectrum(rho_x.mat)
    gap = float(np.max(np.abs(sg - sx)))
    if gap > 1e-8:
        raise SpectralMismatchError(
            f"spectra differ by {gap:.3e}; states cannot be unitarily equivalent")
    if gap > 1e-10:
        warnings.warn(f"spectra differ by {gap:.3e}; conversion will be approximate")
    eg = linalg.eig_hermitian(rho_g.mat).vectors
    ex = linalg.eig_hermitian(rho_x.mat).vectors
    return ex @ eg.conj().T


def _conjugate(rho: DensityMatrix, U: np.ndarray) -> DensityMatrix:
    return DensityMatrix(U @ rho.mat @ U.conj().T, rho.dims)


def find_x_equivalent(rho: DensityMatrix) -> ConversionResult:
    """X state unitarily equivalent to `rho` with the same concurrence, in closed form.

    With the spectrum l1 >= l2 >= l3 >= l4 of rho, the X state that puts l2
    on |01>, l4 on |10> and l1, l3 on the {|00>, |11>} plane rotated by an
    angle a has concurrence max(0, (l1 - l3) sin 2a - 2 sqrt(l2 l4)).  Its
    maximum over a is the largest concurrence any state of that spectrum
    can have (Verstraete, Audenaert & De Moor, PRA 64, 012316 (2001);
    Ishizaka & Hiroshima, PRA 62, 022310 (2000)), so
    sin 2a = (C + 2 sqrt(l2 l4)) / (l1 - l3) is always solvable, with a = 0
    when C = 0.  U maps rho's eigenframe onto that X eigenframe.
    """
    measures.require_single(rho, "X conversion", (2, 2))
    vals, eg = linalg.eig_hermitian(rho.mat)
    l1, l2, l3, l4 = np.clip(vals, 0.0, None)
    c_in = measures.concurrence(rho)
    a = 0.0
    if c_in > 0.0 and l1 > l3:
        a = 0.5 * math.asin(min(1.0, (c_in + 2.0 * math.sqrt(l2 * l4)) / (l1 - l3)))
    # Column k is the X state's eigenvector for l_(k+1).
    ex = np.zeros((4, 4), dtype=complex)
    ex[0, 0], ex[3, 0] = math.cos(a), math.sin(a)
    ex[1, 1] = 1.0
    ex[0, 2], ex[3, 2] = -math.sin(a), math.cos(a)
    ex[2, 3] = 1.0
    return _onto_frame(rho, eg, ex, c_in, attempts=1)


def _onto_frame(rho: DensityMatrix, eg: np.ndarray, ex: np.ndarray, c_in: float,
                attempts: int) -> ConversionResult:
    """Conjugate rho by U = ex eg+, which maps its eigenframe eg onto ex."""
    U = ex @ eg.conj().T
    out = _conjugate(rho, U)
    c_out = measures.concurrence(out)
    return ConversionResult(
        converted=out, unitary=U, attempts=attempts, delta_c=abs(c_out - c_in),
        anti_x=measures.anti_x_measure(out),
        input_concurrence=c_in, output_concurrence=c_out)


def closed_form_conversion(rho_g: DensityMatrix) -> ConversionResult:
    """Exact X conversion for rank-<=2 two-qubit states (no search needed)."""
    measures.require_single(rho_g, "closed-form conversion", (2, 2))
    R = rho_g.rank()
    if R > 2:
        raise RankError(f"closed-form conversion needs rank <= 2, got rank {R}")
    C = measures.concurrence(rho_g)
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
    return _onto_frame(rho_g, linalg.eig_hermitian(rho_g.mat).vectors, ex, C, attempts=0)


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


def diag_unitary(phases: Sequence[float]) -> np.ndarray:
    """diag(e^{i eta_1}, ..., e^{i eta_n})."""
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


def diag_factor_conditions(phases: Sequence[float]) -> tuple:
    """Necessary-condition pairs for diagonal-unitary factorizability.

    Returns ((eta4 - eta3, eta2 - eta1), (eta4 - eta2, eta3 - eta1)); the
    diagonal factors into a tensor product of 2x2 diagonals only if each
    pair is equal.
    """
    eta = np.asarray(phases, dtype=float)
    if eta.shape != (4,):
        raise DimensionError(f"need 4 phases, got shape {eta.shape}")
    return ((float(eta[3] - eta[2]), float(eta[1] - eta[0])),
            (float(eta[3] - eta[1]), float(eta[2] - eta[0])))


def diag_factorizable(phases: Sequence[float], mode: str = "exact"):
    """Can diag(e^{i eta}) be written as a tensor product of 2x2 diagonals?

    "exact" demands eta_k = a_i + b_j exactly (linear-system consistency);
    "mod-global-phase" only requires eta1 + eta4 = eta2 + eta3 mod 2 pi.
    Returns (ok, witness) where witness = (a1, a2, b1, b2) on success.
    """
    eta = np.asarray(phases, dtype=float)
    if eta.shape != (4,):
        raise DimensionError(f"need 4 phases, got shape {eta.shape}")
    if mode == "exact":
        sol, *_ = np.linalg.lstsq(_FACTOR_SYSTEM, eta, rcond=None)
        residual = float(np.max(np.abs(_FACTOR_SYSTEM @ sol - eta)))
        if residual <= 1e-10:
            return True, tuple(sol)
        return False, None
    if mode == "mod-global-phase":
        gap = (eta[0] + eta[3] - eta[1] - eta[2]) % (2.0 * math.pi)
        gap = min(gap, 2.0 * math.pi - gap)
        if gap <= 1e-10:
            # Absorb the global phase, then solve exactly.
            shifted = eta.copy()
            shifted[3] -= eta[0] + eta[3] - eta[1] - eta[2]
            sol, *_ = np.linalg.lstsq(_FACTOR_SYSTEM, shifted, rcond=None)
            return True, tuple(sol)
        return False, None
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


def subspace_rotation(n: int, x: int, y: int, theta: float, phi: float) -> np.ndarray:
    """Two-parameter rotation of basis levels y and x (1-based) in dimension n."""
    if not (1 <= y < x <= n):
        raise DimensionError(f"need 1 <= y < x <= n, got x={x}, y={y}, n={n}")
    ct, st = math.cos(theta), math.sin(theta)
    U = np.eye(n, dtype=complex)
    a, b = y - 1, x - 1
    U[a, a] = ct * np.exp(1j * phi)
    U[a, b] = st
    U[b, a] = -st
    U[b, b] = ct * np.exp(-1j * phi)
    return U


def epu_candidate(subspace_params: Sequence[tuple], diag: Sequence[float]) -> np.ndarray:
    """Assemble (prod_k U_(x_k, y_k))^dagger D^dagger from rotation parameters.

    Whether the result actually preserves entanglement for a given state
    must be checked with `is_epu_for`.
    """
    eta = np.asarray(diag, dtype=float)
    n = len(eta)
    prod = np.eye(n, dtype=complex)
    for x, y, theta, phi in subspace_params:
        prod = prod @ subspace_rotation(n, int(x), int(y), theta, phi)
    return prod.conj().T @ diag_unitary(eta).conj().T


def is_epu_for(U: np.ndarray, rho: DensityMatrix, tol: float = 1e-10) -> bool:
    """Does U preserve the entanglement of rho within tol?

    Concurrence is the measure for [2, 2]; the rescaled negativity for [2, 3].
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (rho.n, rho.n):
        raise DimensionError(f"unitary shape {U.shape} does not match state size {rho.n}")
    unit_err = float(np.max(np.abs(U @ U.conj().T - np.eye(rho.n))))
    if unit_err > 1e-10:
        raise DomainError(f"matrix is not unitary (error {unit_err:.3e})")
    return abs(measures.entanglement(_conjugate(rho, U)) - measures.entanglement(rho)) <= tol


def x_transform_unconstrained(rho_g: DensityMatrix, x_unitary_params) -> DensityMatrix:
    """One-shot X transform without entanglement preservation.

    Diagonalize rho_g, then rotate the diagonal with an X-shaped unitary:
    the output is always X-shaped with the input's spectrum, but the
    concurrence generally changes.  `x_unitary_params` is either a 4x4
    X-shaped unitary or the 6 angles of `x_preserving_unitary`.
    """
    if tuple(rho_g.dims) != (2, 2):
        raise DimensionError(f"requires dims [2, 2], got {list(rho_g.dims)}")
    UX = np.asarray(x_unitary_params, dtype=complex) \
        if np.ndim(x_unitary_params) == 2 else x_preserving_unitary(*x_unitary_params)
    eg = linalg.eig_hermitian(rho_g.mat).vectors
    return _conjugate(rho_g, UX @ eg.conj().T)


def local_doubly_stochastic(rho: DensityMatrix,
                            terms: Sequence[tuple]) -> DensityMatrix:
    """Mixture of local-unitary conjugations: sum_k p_k (U1 x U2) rho (.)^dagger."""
    if tuple(rho.dims) != (2, 2):
        raise DimensionError(f"requires dims [2, 2], got {list(rho.dims)}")
    probs = np.array([t[0] for t in terms], dtype=float)
    if np.any(probs < -1e-15) or abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError(f"probabilities must be in [0,1] and sum to 1, got {probs}")
    out = np.zeros((4, 4), dtype=complex)
    for p, U1, U2 in terms:
        for name, U in (("U1", U1), ("U2", U2)):
            err = float(np.max(np.abs(np.asarray(U) @ np.asarray(U).conj().T - np.eye(2))))
            if err > 1e-10:
                raise DomainError(f"{name} is not unitary (error {err:.3e})")
        L = np.kron(np.asarray(U1, dtype=complex), np.asarray(U2, dtype=complex))
        out += p * (L @ rho.mat @ L.conj().T)
    return DensityMatrix(out, (2, 2))


class HMatchResult(NamedTuple):
    """Spectrum-matched concurrence estimate and its max-norm residual."""

    concurrence: float
    residual: float


def h_match(rho: DensityMatrix, grid_step: float = 1e-3) -> HMatchResult:
    """Estimate concurrence by matching rho's spectrum against h_state spectra.

    Scans C at fixed P = purity(rho) and returns the best spectral match.
    Only meaningful when rho's rank equals the matching candidate's rank;
    otherwise a RankError explains the limitation.
    """
    if tuple(rho.dims) != (2, 2):
        raise DimensionError(f"requires dims [2, 2], got {list(rho.dims)}")
    P = measures.purity(rho)
    spec = _spectrum(rho.mat)
    best = None  # (residual, entry_residual, C, candidate)
    for C in np.arange(0.0, 1.0 + grid_step / 2, grid_step):
        try:
            cand = states.h_state(float(C), P)
        except DomainError:
            continue
        residual = float(np.max(np.abs(_spectrum(cand.mat) - spec)))
        # The rank-2 branch's spectrum does not depend on C, so spectral ties
        # are broken by entry-wise distance; this pins down C for inputs that
        # are themselves members of the family and is harmless otherwise.
        entry_residual = float(np.max(np.abs(cand.mat - rho.mat)))
        if best is None or residual < best[0] - 1e-12 or (
                residual <= best[0] + 1e-12 and entry_residual < best[1]):
            best = (residual, entry_residual, float(C), cand)
    if best is None:
        raise DomainError(f"no candidate state exists at purity {P}")
    residual, _, C, cand = best
    if cand.rank() != rho.rank():
        raise RankError(
            f"input rank {rho.rank()} differs from the candidate family rank "
            f"{cand.rank()} at purity {P:.6f}; spectrum matching only "
            f"identifies concurrence for rank-matched inputs")
    return HMatchResult(concurrence=C, residual=residual)
