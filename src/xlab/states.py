"""Parametric state families and seeded random state ensembles.

All constructors return a `DensityMatrix` that satisfies the standard
invariants (Hermitian, PSD, unit trace) up to floating point tolerance.
Basis ordering is lexicographic over the subsystem dimensions, e.g. for
a qubit-qutrit pair: |0,0>, |0,1>, |0,2>, |1,0>, |1,1>, |1,2>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, RankError

_EPS = 1e-12


@dataclass
class DensityMatrix:
    """A density matrix, or a (B, n, n) stack of them, with the subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in self.dims):
            raise DimensionError(f"all subsystem dimensions must be >= 2, got {self.dims}")
        n = int(np.prod(self.dims))
        if self.mat.shape[-2:] != (n, n) or self.mat.ndim not in (2, 3):
            raise DimensionError(
                f"matrix shape {self.mat.shape} does not match dims {self.dims} (n={n})")

    @property
    def n(self) -> int:
        return self.mat.shape[-1]

    def validate(self, herm_tol: float = 1e-10, trace_tol: float = 1e-12,
                 psd_tol: float = 1e-10) -> "DensityMatrix":
        """Check Hermiticity, unit trace, and positivity of every matrix; return self."""
        drift = np.max(np.abs(self.mat - self.mat.conj().mT))
        if drift > herm_tol:
            raise DomainError(f"not Hermitian within {herm_tol} (drift {drift:.3e})")
        tr_err = np.max(np.abs(np.trace(self.mat, axis1=-2, axis2=-1) - 1.0))
        if tr_err > trace_tol:
            raise DomainError(f"trace differs from 1 by {tr_err:.3e}, beyond {trace_tol}")
        wmin = float(np.min(np.linalg.eigvalsh(0.5 * (self.mat + self.mat.conj().mT))))
        if wmin < -psd_tol:
            raise DomainError(f"not PSD: smallest eigenvalue {wmin:.3e}")
        return self

    def rank(self, tol: float | None = None):
        """Numerical rank: an int, or an int array with one entry per stacked matrix."""
        return linalg.numerical_rank(self.mat, tol)


def _pure(vec: np.ndarray, dims) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def _support_theta(n: int, a: int, b: int, theta: float, phi: float) -> np.ndarray:
    """Ket cos(theta)|a> + e^{i phi} sin(theta)|b> in an n-dim space."""
    v = np.zeros(n, dtype=complex)
    v[a] = math.cos(theta)
    v[b] = math.sin(theta) * np.exp(1j * phi)
    return v


# ---------------------------------------------------------------------------
# Two-qubit families
# ---------------------------------------------------------------------------

PHI = "phi"
PSI = "psi"

_THETA_SUPPORT = {PHI: (0, 3), PSI: (1, 2)}


def theta_state(family: str, theta: float, phi: float) -> DensityMatrix:
    """Two-parameter pure X state generalizing the Bell states.

    family "phi" lives on the |0,0>, |1,1> plane; "psi" on |0,1>, |1,0>.
    Separable at theta in {0, pi/2}, maximally entangled at theta = pi/4
    (Bell states when phi is 0 or pi).  Concurrence is |sin 2 theta|.
    """
    if family not in _THETA_SUPPORT:
        raise DomainError(f"family must be 'phi' or 'psi', got {family!r}")
    a, b = _THETA_SUPPORT[family]
    return _pure(_support_theta(4, a, b, theta, phi), (2, 2))


def bell_state(family: str = PHI, sign: int = +1) -> DensityMatrix:
    """Bell state projector; sign +1 gives the '+' state, -1 the '-' state."""
    return theta_state(family, math.pi / 4, 0.0 if sign > 0 else math.pi)


def hyperspherical_probs(angles: Sequence[float]) -> np.ndarray:
    """Probability vector of length len(angles)+1 in hyperspherical form.

    p_1 = cos^2 t_1, p_2 = sin^2 t_1 cos^2 t_2, ..., p_last picks up all
    the sin^2 factors.  Always sums to 1.
    """
    angles = np.asarray(angles, dtype=float)
    c2 = np.cos(angles) ** 2
    s2 = np.sin(angles) ** 2
    probs = np.empty(len(angles) + 1)
    running = 1.0
    for k, (c, s) in enumerate(zip(c2, s2)):
        probs[k] = running * c
        running *= s
    probs[-1] = running
    return probs


@dataclass
class XParams:
    """Parameters of the general mixed two-qubit X state.

    probability_angles: three hyperspherical angles in [0, pi/2] giving the
    four mixing probabilities; superposition_angles: four theta angles in
    [0, pi/2]; phases: four phase angles in [0, 2 pi).
    """

    probability_angles: tuple[float, float, float]
    superposition_angles: tuple[float, float, float, float]
    phases: tuple[float, float, float, float] = field(default=(0.0, 0.0, 0.0, 0.0))


def general_x_state(params: XParams, mode: str = "reduced-9") -> DensityMatrix:
    """Convex mixture of four theta states covering all two-qubit X states.

    mode "full-11" uses all four phases; "reduced-9" forces the first and
    third phases to zero (the minimal parameterization; consecutive pure
    terms share off-diagonal support, so one phase per pair suffices).
    """
    if mode not in ("full-11", "reduced-9"):
        raise DomainError(f"unknown mode {mode!r}")
    probs = hyperspherical_probs(params.probability_angles)
    thetas = params.superposition_angles
    phases = list(params.phases)
    if mode == "reduced-9":
        phases[0] = 0.0
        phases[2] = 0.0
    fams = (PHI, PHI, PSI, PSI)
    mat = np.zeros((4, 4), dtype=complex)
    for p, fam, th, ph in zip(probs, fams, thetas, phases):
        mat += p * theta_state(fam, th, ph).mat
    return DensityMatrix(mat, (2, 2))


# Constituents of the canonical minimal (real-valued) rank-specific X states:
# family and sign per rank, with X+(t) = X(t, 0) and X-(t) = X(t, pi).
_RANK_X_CONSTITUENTS = {
    1: [(PHI, +1)],
    2: [(PHI, +1), (PSI, +1)],
    3: [(PHI, +1), (PHI, -1), (PSI, +1)],
    4: [(PHI, +1), (PHI, -1), (PSI, +1), (PSI, -1)],
}


def rank_x_state(R: int, thetas: Sequence[float], probs: Sequence[float]) -> DensityMatrix:
    """Real-valued rank-R two-qubit X state (R in 1..4) with 2R-1 parameters.

    Raises RankError if any probability vanishes or the constituents
    coincide so that the numerical rank falls below R.
    """
    return _mix(_RANK_X_CONSTITUENTS, R, thetas, probs, theta_state, (2, 2))


def _diag_dm(entries, dims) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(entries, dtype=complex)), dims)


def _separable_diag(P: float) -> DensityMatrix:
    """Diagonal C = 0 state at purity P in [1/4, 1/3], shared by MEMS and H states.

    Its radial coefficient b is fixed so that the purity round-trip is
    exact: b = 1 at P = 1/4, b = 5/3 at P = 1/3.
    """
    b = 1.0 + 4.0 * math.sqrt(max(P - 0.25, 0.0) / 3.0)
    d = (1.0 + b) / 8.0
    return _diag_dm([d, d, (5.0 - 3.0 * b) / 8.0, d], (2, 2))


def mems_2x2(P: float) -> DensityMatrix:
    """Two-qubit maximally entangled mixed state at purity P in [1/4, 1].

    Three purity branches; boundary points use the higher-purity branch.
    Concurrence equals the MEMS boundary curve at P.
    """
    if not (0.25 - _EPS <= P <= 1.0 + _EPS):
        raise DomainError(f"purity {P} outside [1/4, 1]")
    P = min(max(P, 0.25), 1.0)
    if P < 1.0 / 3.0:
        return _separable_diag(P)
    if P < 5.0 / 9.0:
        r = math.sqrt(2.0 * (P - 1.0 / 3.0))
        mat = r * bell_state().mat
        mat += np.diag([1.0 / 3.0 - r / 2.0, 1.0 / 3.0, 0.0, 1.0 / 3.0 - r / 2.0]).astype(complex)
        return DensityMatrix(mat, (2, 2))
    x = (1.0 + math.sqrt(2.0 * P - 1.0)) / 2.0
    mat = x * bell_state().mat
    mat[1, 1] += 1.0 - x
    return DensityMatrix(mat, (2, 2))


def closed_form_x(C: float, P: float) -> DensityMatrix:
    """Rank-<=2 X state with concurrence C and purity P, P >= (1+C^2)/2."""
    if not -_EPS <= C <= 1.0 + _EPS:
        raise DomainError(f"concurrence {C} outside [0, 1]")
    C = min(max(C, 0.0), 1.0)
    lo = 0.5 * (1.0 + C * C)
    if not lo - 1e-9 <= P <= 1.0 + _EPS:
        raise DomainError(f"purity {P} outside [{lo}, 1] for concurrence {C}")
    B = math.sqrt(max(2.0 * min(P, 1.0) - 1.0 - C * C, 0.0))
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = (1.0 + B) / 2.0
    mat[3, 3] = (1.0 - B) / 2.0
    mat[0, 3] = mat[3, 0] = C / 2.0
    return DensityMatrix(mat, (2, 2))


def h_purity_floor(C: float) -> float:
    """Smallest purity `h_state` accepts at concurrence C in [0, 1]."""
    if C == 0.0:
        return 0.25
    if C < 2.0 / 3.0:
        return 1.0 / 3.0 + 0.5 * C * C
    return 0.5 * (1.0 + (2.0 * C - 1.0) ** 2)


def h_state(C: float, P: float) -> DensityMatrix:
    """Two-qubit state with independently specified concurrence and purity.

    Three branches cover the physical (C, P) region: a diagonal branch for
    the sub-separable-ball purities (C = 0 only), a rank-3-shaped middle
    branch, and the rank-<=2 `closed_form_x` branch at high purity.  Inputs
    outside the region raise DomainError naming the violated bound.
    """
    if not (-_EPS <= C <= 1.0 + _EPS):
        raise DomainError(f"concurrence {C} outside [0, 1]")
    C = min(max(C, 0.0), 1.0)
    if P > 1.0 + _EPS:
        raise DomainError(f"purity {P} exceeds 1")
    if P >= 0.5 * (1.0 + C * C) - _EPS:
        return closed_form_x(C, P)
    lo = h_purity_floor(C)
    if P < lo - _EPS:
        raise DomainError(f"(C={C}, P={P}) below the purity floor {lo:.6f}")
    if C == 0.0 and P < 1.0 / 3.0:
        return _separable_diag(P)
    s = math.sqrt(max(6.0 * P - 2.0 - 3.0 * C * C, 0.0))
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = (2.0 + s) / 6.0
    mat[1, 1] = (1.0 - s) / 3.0
    mat[0, 3] = mat[3, 0] = C / 2.0
    return DensityMatrix(mat, (2, 2))


# ---------------------------------------------------------------------------
# Qubit-qutrit (2x3) families
# ---------------------------------------------------------------------------

# Support index pairs of the two simple maximally entangled bases in 2x3.
_MEB_SUPPORT_2X3 = {
    PHI: [(0, 5), (1, 3), (2, 4)],
    PSI: [(0, 4), (2, 3), (1, 5)],
}

# Literal-X constituents: L1 and L3 coincide with entangled MEB members,
# L2 spans |0,1>, |1,1> and is separable.
_LX_SUPPORT = {1: (0, 5), 2: (1, 4), 3: (2, 3)}


def meb_state_2x3(family: str, index: int, theta: float, phi: float) -> DensityMatrix:
    """Theta-state version of the indexed 2x3 maximally entangled basis state.

    At theta = pi/4, phi = 0 this is the '+' basis state itself; phi = pi
    gives the '-' state.
    """
    if family not in _MEB_SUPPORT_2X3:
        raise DomainError(f"family must be 'phi' or 'psi', got {family!r}")
    if index not in (1, 2, 3):
        raise DomainError(f"index must be 1..3, got {index}")
    a, b = _MEB_SUPPORT_2X3[family][index - 1]
    return _pure(_support_theta(6, a, b, theta, phi), (2, 3))


def l_state(index: int, theta: float, phi: float) -> DensityMatrix:
    """Literal-X constituent state in 2x3 (index 1..3); index 2 is separable."""
    if index not in _LX_SUPPORT:
        raise DomainError(f"index must be 1..3, got {index}")
    a, b = _LX_SUPPORT[index]
    return _pure(_support_theta(6, a, b, theta, phi), (2, 3))


def mems_2x3(P: float) -> DensityMatrix:
    """Candidate 2x3 maximally entangled mixed state at purity P in [1/6, 1]."""
    if not (1.0 / 6.0 - _EPS <= P <= 1.0 + _EPS):
        raise DomainError(f"purity {P} outside [1/6, 1]")
    P = min(max(P, 1.0 / 6.0), 1.0)
    if P < 0.2:
        f = math.sqrt(30.0 * (P - 1.0 / 6.0))
        d = f / 5.0 + (1.0 - f) / 6.0
        return _diag_dm([d, d, d, (1.0 - f) / 6.0, d, d], (2, 3))
    phi1 = meb_state_2x3(PHI, 1, math.pi / 4, 0.0).mat
    if P < 3.0 / 8.0:
        g = math.sqrt((10.0 / 7.0) * (P - 0.2))
        mat = g * phi1
        alpha = (1.0 + g / 2.0) / 5.0
        beta = (1.0 - 2.0 * g) / 5.0
        mat += np.diag([beta, alpha, beta, 0.0, alpha, beta]).astype(complex)
        return DensityMatrix(mat, (2, 3))
    h = math.sqrt(6.0 * (P - 1.0 / 3.0))
    w = (1.0 + h) / 3.0
    mat = w * phi1
    half_rest = 0.5 * (1.0 - w)
    mat[1, 1] += half_rest
    mat[4, 4] += half_rest
    return DensityMatrix(mat, (2, 3))


# Rank-specific constituent lists for 2x3: (index, sign) rows for literal-X
# states, (family, index, sign) rows for TGX states.
_LX_RANK_CONSTITUENTS = {
    1: [(1, +1)],
    2: [(1, +1), (2, +1)],
    3: [(1, +1), (2, +1), (2, -1)],
    4: [(1, +1), (1, -1), (2, +1), (2, -1)],
    5: [(1, +1), (2, +1), (2, -1), (3, +1), (3, -1)],
    6: [(1, +1), (1, -1), (2, +1), (2, -1), (3, +1), (3, -1)],
}

_TGX_RANK_CONSTITUENTS = {
    1: [(PHI, 1, +1)],
    2: [(PHI, 1, +1), (PHI, 2, +1)],
    3: [(PHI, 1, +1), (PHI, 2, +1), (PHI, 3, +1)],
    4: [(PHI, 1, +1), (PHI, 2, +1), (PHI, 3, +1), (PSI, 1, +1)],
    5: [(PHI, 1, +1), (PHI, 2, +1), (PHI, 3, +1), (PSI, 2, +1), (PSI, 2, -1)],
    6: [(PHI, 1, +1), (PHI, 2, +1), (PHI, 3, +1), (PSI, 1, +1), (PSI, 2, +1), (PSI, 3, +1)],
}


def lx_rank_state(R: int, thetas: Sequence[float], probs: Sequence[float]) -> DensityMatrix:
    """Rank-R literal-X state in 2x3 (R in 1..6)."""
    return _mix(_LX_RANK_CONSTITUENTS, R, thetas, probs, l_state, (2, 3))


def tgx_rank_state(R: int, thetas: Sequence[float], probs: Sequence[float]) -> DensityMatrix:
    """Rank-R true-generalized-X state in 2x3 (R in 1..6)."""
    return _mix(_TGX_RANK_CONSTITUENTS, R, thetas, probs, meb_state_2x3, (2, 3))


def _mix(table, R, thetas, probs, build, dims) -> DensityMatrix:
    """Mixture sum_k p_k build(*term_k, theta_k, phase_k) of the rank-R terms in
    `table`, each term ending in a sign: phase 0 for +1, pi for -1.

    Raises RankError if any probability vanishes or the numerical rank is
    not R.
    """
    if R not in table:
        raise DomainError(f"rank must be in 1..{len(table)}, got {R}")
    thetas = list(thetas)
    probs = np.asarray(probs, dtype=float)
    if len(thetas) != R or len(probs) != R:
        raise DimensionError(f"need {R} thetas and {R} probabilities for rank {R}")
    if np.any(probs <= 0.0):
        raise RankError("all mixing probabilities must be strictly positive")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {probs.sum()}, not 1")
    n = math.prod(dims)
    mat = np.zeros((n, n), dtype=complex)
    for p, th, (*args, sign) in zip(probs, thetas, table[R]):
        mat += p * build(*args, th, 0.0 if sign > 0 else math.pi).mat
    out = DensityMatrix(mat, dims)
    if out.rank() != R:
        raise RankError(f"constituents are degenerate: numerical rank {out.rank()} != {R}")
    return out


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

def random_pure(n: int, rng: np.random.Generator, dims=None) -> DensityMatrix:
    """Haar-uniform pure state of dimension n (complex Gaussian, normalized)."""
    if n < 2:
        raise DimensionError(f"dimension must be >= 2, got {n}")
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return _pure(vec, dims if dims is not None else (n,))


def random_mixed(n: int, R: int, rng: np.random.Generator, dims=None) -> DensityMatrix:
    """Rank-R mixed state from the Ginibre-induced measure: GG+/tr(GG+)."""
    if not 1 <= R <= n:
        raise DomainError(f"rank must be in 1..{n}, got {R}")
    G = rng.standard_normal((n, R)) + 1j * rng.standard_normal((n, R))
    W = G @ G.conj().T
    W /= np.trace(W).real
    return DensityMatrix(W, dims if dims is not None else (n,))
