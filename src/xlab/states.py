"""Parametric state families and seeded random state ensembles.

All constructors return a `DensityMatrix` that satisfies the standard
invariants (Hermitian, PSD, unit trace) up to floating point tolerance.
Basis ordering is lexicographic over the subsystem dimensions, e.g. for
a qubit-qutrit pair: |0,0>, |0,1>, |0,2>, |1,0>, |1,1>, |1,2>.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, RankError


def _int_dims(dims) -> tuple:
    """`dims` as a tuple of ints; a DimensionError names them unless they are a sequence of
    Python or numpy integers (not bools)."""
    if not np.iterable(dims):
        raise DimensionError(f"dimensions must be a sequence of integers, got {dims!r}")
    dims = tuple(dims)
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
        raise DimensionError(f"dimensions must be integers, got {list(dims)}")
    return tuple(map(int, dims))


@dataclass
class DensityMatrix:
    """A density matrix, or a (B, n, n) stack of them, with the subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.mat = linalg.numbers(self.mat, "matrix", complex)
        self.dims = _int_dims(self.dims)
        if any(d < 2 for d in self.dims):
            raise DimensionError(f"all subsystem dimensions must be >= 2, got {self.dims}")
        n = math.prod(self.dims)
        if self.mat.shape[-2:] != (n, n) or self.mat.ndim not in (2, 3):
            raise DimensionError(
                f"matrix shape {self.mat.shape} does not match dims {self.dims} (n={n})")

    @property
    def n(self) -> int:
        return self.mat.shape[-1]

    def validate(self) -> "DensityMatrix":
        """Check finiteness, then Hermiticity, unit trace and positivity of every
        matrix, within linalg.HERM_TOL, TRACE_TOL and PSD_TOL; return self."""
        linalg.check_finite(self.mat)
        drift = np.abs(self.mat - self.mat.conj().mT).max(initial=0.0)
        if not drift <= linalg.HERM_TOL:
            raise DomainError(f"not Hermitian within {linalg.HERM_TOL} (drift {drift:.3e})")
        tr_err = np.abs(np.trace(self.mat, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
        if not tr_err <= linalg.TRACE_TOL:
            raise DomainError(f"trace differs from 1 by {tr_err:.3e}, beyond {linalg.TRACE_TOL}")
        linalg.check_psd(np.linalg.eigvalsh(linalg.hermitize(self.mat)))
        return self

    def rank(self):
        """`linalg.numerical_rank(mat)`: an int, or one per stacked matrix."""
        return linalg.numerical_rank(self.mat)


def _finite(angles, name: str) -> np.ndarray:
    """`angles` as floats; a DomainError names the first NaN or infinite one."""
    angles = linalg.numbers(angles, name)
    linalg.reject(~np.isfinite(angles), f"{name} {{}} is not finite", angles)
    return angles


def _phase(phi) -> np.ndarray:
    """e^{i phi} for a phase angle or an array of them."""
    return np.exp(1j * _finite(phi, "phi"))


def _theta_kets(n: int, lo, hi, thetas, phases) -> np.ndarray:
    """Kets cos(theta)|lo> + phase sin(theta)|hi> in an n-dim space, one per
    entry of `thetas`; lo, hi and phases broadcast against it."""
    thetas = _finite(thetas, "theta")
    kets = np.zeros(thetas.shape + (n,), dtype=complex)
    at = np.indices(thetas.shape, sparse=True)
    kets[(*at, lo)] = np.cos(thetas)
    kets[(*at, hi)] = np.sin(thetas) * phases
    return kets


def _norms(kets: np.ndarray) -> np.ndarray:
    """The norm of each ket on the last axis as np.linalg.norm computes it,
    sqrt(re.re + im.im) over all n entries: BLAS sums them with FMA, so a norm
    of a ket's non-zero entries alone can differ in the last bit."""
    return np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))


def _projectors(kets: np.ndarray) -> np.ndarray:
    """|v><v| for each ket v on the last axis, scaled to unit norm by `_norms`:
    one state and a stack of them agree bit for bit."""
    kets = kets / _norms(kets)[..., None]
    return kets[..., :, None] * kets.conj()[..., None, :]


def _block_mixture(n: int, lo, hi, thetas, phases, probs: np.ndarray) -> np.ndarray:
    """sum_k probs[..., k] |v_k><v_k| over the unit `_theta_kets` v_k on the last
    axis of thetas.  v_k is zero off lo_k and hi_k, so term k adds only the 2x2
    block p_k v v+ at rows and columns (lo_k, hi_k); one np.add.at adds every
    block from zero in k order, which equals a dense sum of projectors bit for bit."""
    kets = _theta_kets(n, lo, hi, thetas, phases)
    norms = _norms(kets)
    pair = np.stack(np.broadcast_arrays(lo, hi, norms)[:2], axis=-1)
    v = np.take_along_axis(kets, pair, axis=-1) / norms[..., None]
    blocks = probs[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    rows = np.arange(norms[..., 0].size).reshape(norms.shape[:-1] + (1, 1, 1)) * (n * n)
    mat = np.zeros(norms.shape[:-1] + (n, n), dtype=complex)
    # Raveled 1-D indices take np.add.at's fast path; a 4-d index is ~6x slower.
    np.add.at(mat.reshape(-1), (rows + pair[..., :, None] * n + pair[..., None, :]).ravel(),
              blocks.ravel())
    return mat


def _pure(vec, dims) -> DensityMatrix:
    return DensityMatrix(_projectors(np.asarray(vec, dtype=complex)), dims)


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
    linalg.member(family, (PHI, PSI), "family must be 'phi' or 'psi', got {!r}")
    return _pure(_theta_kets(4, *_THETA_SUPPORT[family], theta, _phase(phi)), (2, 2))


def bell_state(family: str = PHI, sign: int = +1) -> DensityMatrix:
    """Bell state projector; sign +1 gives the '+' state, -1 the '-' state."""
    linalg.member(sign, (1, -1), "sign must be +1 or -1, got {!r}")
    return theta_state(family, math.pi / 4, 0.0 if sign > 0 else math.pi)


def hyperspherical_probs(angles: Sequence[float]) -> np.ndarray:
    """Probability vector of length len(angles)+1 in hyperspherical form.

    p_1 = cos^2 t_1, p_2 = sin^2 t_1 cos^2 t_2, ..., p_last picks up all
    the sin^2 factors.  Always sums to 1.  Works row by row on the last
    axis; zero angles after a row's own ones pad its vector with zeros.
    """
    angles = _finite(angles, "angle")
    if angles.ndim == 0:
        raise DimensionError(f"need a sequence of angles, got {angles.item()!r}")
    ones = np.ones(angles.shape[:-1] + (1,))
    # running[k] = prod_{j<k} sin^2 t_j, multiplied in order.
    running = np.cumprod(np.concatenate((ones, np.sin(angles) ** 2), axis=-1), axis=-1)
    running[..., :-1] *= np.cos(angles) ** 2
    return running


XParams = namedtuple("XParams", "probability_angles superposition_angles phases",
                     defaults=[(0.0, 0.0, 0.0, 0.0)])
XParams.__doc__ = """Parameters of the general mixed two-qubit X state.

probability_angles: three hyperspherical angles in [0, pi/2] giving the
four mixing probabilities; superposition_angles: four theta angles in
[0, pi/2]; phases: four phase angles in [0, 2 pi), all zero by default.
Each may also be a (B, 3) or (B, 4) array, one row per state."""


def general_x_state(params: XParams, mode: str = "reduced-9") -> DensityMatrix:
    """Convex mixture of four theta states covering all two-qubit X states.

    mode "full-11" uses all four phases; "reduced-9" forces the first and
    third phases to zero (the minimal parameterization; consecutive pure
    terms share off-diagonal support, so one phase per pair suffices).
    Parameter arrays with B rows give a (B, 4, 4) stack whose matrix b is
    the state of row b.
    """
    linalg.member(mode, ("full-11", "reduced-9"), "unknown mode {!r}")
    params = linalg.record(params, XParams, "params")._asdict()
    angles, thetas, phases = (linalg.numbers(v, name) for name, v in params.items())
    shapes = [angles.shape, thetas.shape, phases.shape]
    if [s[-1:] for s in shapes] != [(3,), (4,), (4,)] or len({s[:-1] for s in shapes} - {()}) > 1:
        raise DimensionError(f"X parameter shapes {shapes} are not (..., 3), (..., 4), (..., 4)")
    phases = np.where([mode == "reduced-9", False] * 2, 0.0, phases)
    lo, hi = zip(*(_THETA_SUPPORT[fam] for fam in (PHI, PHI, PSI, PSI)))
    mat = _block_mixture(4, lo, hi, thetas, _phase(phases), hyperspherical_probs(angles))
    return DensityMatrix(mat, (2, 2))


# Constituents of the canonical minimal (real-valued) rank-specific X states:
# family and sign per rank, with X+(t) = X(t, 0) and X-(t) = X(t, pi).
_RANK_X_CONSTITUENTS = {
    1: [(PHI, +1)],
    2: [(PHI, +1), (PSI, +1)],
    3: [(PHI, +1), (PHI, -1), (PSI, +1)],
    4: [(PHI, +1), (PHI, -1), (PSI, +1), (PSI, -1)],
}


# The grid families below build every branch for every entry of their array
# arguments, then select each entry's, so a stack equals one-state builds.

def _diag(*entries) -> np.ndarray:
    """(..., n, n) complex matrices with diagonal `entries` (floats or arrays
    that broadcast together) and zeros elsewhere."""
    diag = np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)
    mat = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
    at = np.arange(diag.shape[-1])
    mat[..., at, at] = diag
    return mat


def _x_mat(diag, corner) -> np.ndarray:
    """(..., 4, 4) matrices with diagonal `diag` and `corner` at (0, 3) and (3, 0)."""
    mat = _diag(*diag)
    mat[..., 0, 3] = mat[..., 3, 0] = corner
    return mat


def _separable_diag(P) -> tuple:
    """Diagonal of the C = 0 state at purity P in [1/4, 1/3], shared by MEMS and H states.

    Its radial coefficient b is fixed so that the purity round-trip is
    exact: b = 1 at P = 1/4, b = 5/3 at P = 1/3.
    """
    b = 1.0 + 4.0 * np.sqrt(np.maximum(P - 0.25, 0.0) / 3.0)
    d = (1.0 + b) / 8.0
    return d, d, (5.0 - 3.0 * b) / 8.0, d


def _mems_branches_2x2(P) -> tuple:
    """P clamped to [1/4, 1] and the middle and high MEMS branch concurrences r, x."""
    P = linalg.clamped(P, 0.25, 1.0, "purity {} outside [1/4, 1]")
    return (P, np.sqrt(np.maximum(2.0 * (P - 1.0 / 3.0), 0.0)),
            (1.0 + np.sqrt(np.maximum(2.0 * P - 1.0, 0.0))) / 2.0)


def mems_2x2(P) -> DensityMatrix:
    """Two-qubit maximally entangled mixed state at purity P in [1/4, 1].

    Three purity branches; boundary points use the higher-purity branch.
    Concurrence equals the MEMS boundary curve at P.  An array of purities
    gives a stack of states; an entry outside the range is a DomainError.
    """
    P, r, x = _mems_branches_2x2(P)
    bell = bell_state().mat
    mid = r[..., None, None] * bell + _diag(1.0 / 3.0 - r / 2.0, 1.0 / 3.0, 0.0,
                                           1.0 / 3.0 - r / 2.0)
    high = x[..., None, None] * bell
    high[..., 1, 1] += 1.0 - x
    at = P[..., None, None]
    return DensityMatrix(np.select([at < 1.0 / 3.0, at < 5.0 / 9.0],
                                   [_diag(*_separable_diag(P)), mid], high), (2, 2))


def closed_form_x(C, P) -> DensityMatrix:
    """Rank-<=2 X state with concurrence C and purity P, P >= (1+C^2)/2;
    arrays of C and P give a stack, and an entry outside is a DomainError."""
    C = linalg.clamped(C, 0.0, 1.0, "concurrence {} outside [0, 1]")
    P = linalg.numbers(P, "purity")
    lo = 0.5 * (1.0 + C * C)
    linalg.reject(~((lo - linalg.RANK2_TOL <= P) & (P <= 1.0 + linalg.INPUT_TOL)),
                  "purity {} outside [{}, 1] for concurrence {}", P, lo, C)
    B = np.sqrt(np.maximum(2.0 * np.minimum(P, 1.0) - 1.0 - C * C, 0.0))
    return DensityMatrix(_x_mat(((1.0 + B) / 2.0, 0.0, 0.0, (1.0 - B) / 2.0), C / 2.0), (2, 2))


def h_purity_floor(C):
    """Smallest purity `h_state` accepts at concurrence C in [0, 1] (a float or an array)."""
    C = linalg.clamped(C, 0.0, 1.0, "concurrence {} outside [0, 1]")
    return linalg.scalar(np.select([C == 0.0, C < 2.0 / 3.0], [0.25, 1.0 / 3.0 + 0.5 * C * C],
                                   0.5 * (1.0 + (2.0 * C - 1.0) ** 2)))


def h_state(C, P) -> DensityMatrix:
    """Two-qubit state with independently specified concurrence and purity.

    Three branches cover the physical (C, P) region: a diagonal branch for
    the sub-separable-ball purities (C = 0 only), a rank-3-shaped middle
    branch, and the rank-<=2 `closed_form_x` branch at high purity.  Arrays
    of C and P give a stack of states.  Inputs outside the region raise
    DomainError naming the violated bound and the first entry outside it.
    """
    C = linalg.clamped(C, 0.0, 1.0, "concurrence {} outside [0, 1]")
    P = linalg.numbers(P, "purity")
    linalg.reject(~(P <= 1.0 + linalg.INPUT_TOL), "purity {} exceeds 1", P)
    high = P >= 0.5 * (1.0 + C * C) - linalg.RANK2_TOL
    lo = h_purity_floor(C)
    linalg.reject(~high & ~(P >= lo - linalg.INPUT_TOL),
                  "(C={}, P={}) below the purity floor {:.6f}", C, P, lo)
    s = np.sqrt(np.maximum(6.0 * P - 2.0 - 3.0 * C * C, 0.0))
    mid = _x_mat(((2.0 + s) / 6.0, (1.0 - s) / 3.0, 0.0, (2.0 + s) / 6.0), C / 2.0)
    separable = (C == 0.0) & (P < 1.0 / 3.0)
    # P = 1, which closed_form_x takes at every C, stands in off its branch.
    top = closed_form_x(C, np.where(high, P, 1.0)).mat
    return DensityMatrix(np.select([high[..., None, None], separable[..., None, None]],
                                   [top, _diag(*_separable_diag(P))], mid), (2, 2))


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
    linalg.member(family, (PHI, PSI), "family must be 'phi' or 'psi', got {!r}")
    linalg.member(index, (1, 2, 3), "index must be 1..3, got {}")
    return _pure(_theta_kets(6, *_MEB_SUPPORT_2X3[family][index - 1], theta, _phase(phi)), (2, 3))


def l_state(index: int, theta: float, phi: float) -> DensityMatrix:
    """Literal-X constituent state in 2x3 (index 1..3); index 2 is separable."""
    linalg.member(index, _LX_SUPPORT, "index must be 1..3, got {}")
    return _pure(_theta_kets(6, *_LX_SUPPORT[index], theta, _phase(phi)), (2, 3))


def _mems_branches_2x3(P) -> tuple:
    """P clamped to [1/6, 1] and the middle and high branch parameters g, beta, w."""
    P = linalg.clamped(P, 1.0 / 6.0, 1.0, "purity {} outside [1/6, 1]")
    g = np.sqrt(np.maximum((10.0 / 7.0) * (P - 0.2), 0.0))
    return (P, g, (1.0 - 2.0 * g) / 5.0,
            (1.0 + np.sqrt(np.maximum(6.0 * (P - 1.0 / 3.0), 0.0))) / 3.0)


def mems_2x3(P) -> DensityMatrix:
    """Candidate 2x3 maximally entangled mixed state at purity P in [1/6, 1].

    An array of purities gives a stack of states, as `mems_2x2` does.
    """
    P, g, beta, w = _mems_branches_2x3(P)
    f = np.sqrt(30.0 * (P - 1.0 / 6.0))
    d = f / 5.0 + (1.0 - f) / 6.0
    phi1 = meb_state_2x3(PHI, 1, math.pi / 4, 0.0).mat
    alpha = (1.0 + g / 2.0) / 5.0
    mid = g[..., None, None] * phi1 + _diag(beta, alpha, beta, 0.0, alpha, beta)
    high = w[..., None, None] * phi1
    high[..., [1, 4], [1, 4]] += 0.5 * (1.0 - w)[..., None]
    at = P[..., None, None]
    return DensityMatrix(np.select([at < 0.2, at < 3.0 / 8.0],
                                   [_diag(d, d, d, (1.0 - f) / 6.0, d, d), mid], high), (2, 3))


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


RankFamily = namedtuple("RankFamily", "dims lo hi phase")
RankFamily.__doc__ = """A constituent table as arrays: term k of the rank-R state is the ket
cos(theta_k)|lo[R-1, k]> + phase[R-1, k] sin(theta_k)|hi[R-1, k]>."""


def _rank_family(table, support, dims) -> RankFamily:
    """The RankFamily of `table`, whose rows are a `support` key and a sign.

    Sign +1 is phase e^{i0} and -1 is e^{i pi}, with the 1.2e-16 imaginary
    part np.exp gives it.  Past a row's rank the terms are |0>, which
    `rank_states` gives weight 0.
    """
    lo, hi = np.zeros((2, len(table), len(table)), dtype=int) + [[[0]], [[1]]]
    phase = np.ones(lo.shape, dtype=complex)
    for R, rows in table.items():
        for k, (*key, sign) in enumerate(rows):
            lo[R - 1, k], hi[R - 1, k] = support(*key)
            phase[R - 1, k] = np.exp(1j * (0.0 if sign > 0 else math.pi))
    return RankFamily(dims, lo, hi, phase)


RANK_X = _rank_family(_RANK_X_CONSTITUENTS, _THETA_SUPPORT.get, (2, 2))
LX_RANK = _rank_family(_LX_RANK_CONSTITUENTS, _LX_SUPPORT.get, (2, 3))
TGX_RANK = _rank_family(_TGX_RANK_CONSTITUENTS,
                        lambda fam, index: _MEB_SUPPORT_2X3[fam][index - 1], (2, 3))


def _check_ranks(ranks, top: int) -> np.ndarray:
    """`ranks` (an int or an array) as an array; a DomainError names the first
    that is not an int in 1..top (no float, bool or string is one)."""
    ranks = np.asarray(ranks)
    ok = (1 <= ranks) & (ranks <= top) if ranks.dtype.kind in "iu" else np.zeros(ranks.shape, bool)
    linalg.reject(~ok, f"rank must be in 1..{top}, got {{!r}}", ranks)
    return ranks


def rank_states(family: RankFamily, ranks, thetas, probs):
    """A (B, n, n) stack of rank-specific states and each one's numerical rank.

    Row b mixes the first ranks[b] terms of `family` at angles thetas[b] with
    weights probs[b], (B, max rank) arrays that are zero past the row's rank.
    Raises DomainError for a bad rank, a non-finite angle or weights not summing to 1.
    """
    dims = linalg.record(family, RankFamily, "family").dims
    try:  # once per call: int dims, and lo, hi and phase arrays
        linalg.record(family._replace(dims=np.array(_int_dims(dims))), RankFamily, "family", True)
    except DimensionError:
        raise DimensionError("family RankFamily needs int dims and arrays lo, hi, phase") from None
    at = _check_ranks(ranks, len(family.lo)) - 1
    thetas, probs = linalg.numbers(thetas, "theta"), linalg.numbers(probs, "probabilities")
    shape = family.lo[at].shape
    if not thetas.shape == probs.shape == shape:
        raise DimensionError(f"thetas {thetas.shape} and probs {probs.shape} are not {shape}")
    sums = probs.sum(axis=1)
    linalg.reject(~(abs(sums - 1.0) <= linalg.INPUT_TOL), "probabilities sum to {}, not 1", sums)
    mat = _block_mixture(math.prod(family.dims), family.lo[at], family.hi[at], thetas,
                         family.phase[at], probs)
    return DensityMatrix(mat, family.dims), linalg.numerical_rank(mat)


# Kept only while the benchmark's tracer looks this name up; xlab never calls it.
def tgx_rank_state(R: int, thetas: Sequence[float], probs: Sequence[float]) -> DensityMatrix:
    """Rank-R true-generalized-X state in 2x3 (R in 1..6) from a one-row
    `rank_states` call; RankError if any probability vanishes or the
    numerical rank is not R."""
    R = int(_check_ranks(R, len(TGX_RANK.lo)))
    thetas, probs = linalg.numbers(thetas, "theta"), linalg.numbers(probs, "probabilities")
    if not thetas.shape == probs.shape == (R,):
        raise DimensionError(f"need {R} thetas and {R} probabilities for rank {R}")
    if np.any(probs <= 0.0):
        raise RankError("all mixing probabilities must be strictly positive")
    rows = np.zeros((2, 1, len(TGX_RANK.lo)))
    rows[:, 0, :R] = thetas, probs
    rho, rank = rank_states(TGX_RANK, [R], *rows)
    if rank[0] != R:
        raise RankError(f"constituents are degenerate: numerical rank {rank[0]} != {R}")
    return DensityMatrix(rho.mat[0], TGX_RANK.dims)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

def _ginibre(G: dict, ranks: np.ndarray, n: int) -> tuple:
    """(B, n, n) stack of GG+/tr(GG+): row b takes the next (2, n, r) real and imaginary
    parts in G[r] for r = ranks[b].  One product per rank: a zero-padded G would change
    the last bits.  Also a (rows of rank r, their factors F = G/sqrt(tr(GG+))) per rank."""
    W, factors = np.empty((len(ranks), n, n), dtype=complex), []
    for r, Gr in G.items():
        Gr, rows = Gr[:, 0] + 1j * Gr[:, 1], ranks == r
        W[rows] = Gr @ Gr.conj().mT
        factors.append((rows, Gr))
    tr = W.trace(axis1=-2, axis2=-1).real
    W /= tr[:, None, None]
    return W, [(rows, Gr / np.sqrt(tr[rows])[:, None, None]) for rows, Gr in factors]


def _random_factored(n: int, R, rng, dims=None) -> tuple:
    """`random_mixed(n, R, rng, dims)` and `_ginibre`'s (rows, factors) of its states."""
    (n,) = _int_dims([n])
    ranks = _check_ranks(R, n)
    rngs = list(rng) if ranks.ndim and np.iterable(rng) else [rng]
    flat = ranks.reshape(-1).tolist()
    if ranks.ndim > 1 or len(rngs) != len(flat):
        raise DimensionError(f"rng must be a Generator per rank, got {len(rngs)} for {ranks.shape}")
    G = {r: np.empty((flat.count(r), 2, n, r)) for r in set(flat)}
    filled = dict.fromkeys(G, 0)
    try:  # no per-row type check: only a row that fails is looked at
        for g, r in zip(rngs, flat):
            g.standard_normal(out=G[r][filled[r]])
            filled[r] += 1
    except (AttributeError, TypeError):
        raise DimensionError(f"rng {linalg.one_line(g):.80} is not a numpy Generator") from None
    W, factors = _ginibre(G, ranks.reshape(-1), n)
    return DensityMatrix(W if ranks.ndim else W[0], dims if dims is not None else (n,)), factors


def random_mixed(n: int, R, rng, dims=None) -> DensityMatrix:
    """Rank-R mixed state from the Ginibre-induced measure: GG+/tr(GG+).

    R = 1 is the Haar-uniform pure state (a normalized complex Gaussian ket).
    R may be an array of ranks and rng a matching sequence of generators;
    the result is then a (B, n, n) stack.  Row b draws the real, then the
    imaginary part of its (n, R[b]) G from its generator, rows in order, so
    a block equals a loop of single draws, also when generators repeat.
    """
    return _random_factored(n, R, rng, dims)[0]
