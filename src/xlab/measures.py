"""Entanglement and structure measures.

Concurrence (general and X-form), purity, the anti-X measure, partial
trace / partial transpose, the rescaled-negativity measure for 2x3, and
the maximally-entangled-mixed-state boundary curves.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, states
from .errors import DimensionError, DomainError
from .states import DensityMatrix

# Matrices per stacked call when a long sequence is measured in blocks: enough
# to amortise numpy's per-call overhead, few enough to keep temporaries small.
BLOCK = 256

_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA2, _SIGMA2)

# Anti-X positions of the two-qubit X pattern (upper triangle).
_ANTI_X_ROWS, _ANTI_X_COLS = [0, 0, 1, 2], [1, 2, 3, 3]


def _as_mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _require_dims(rho: DensityMatrix, dims: tuple[int, ...], what: str):
    if tuple(rho.dims) != dims:
        raise DimensionError(f"{what} requires dims {list(dims)}, got {list(rho.dims)}")


def require_single(rho, what: str, dims: tuple[int, ...] | None = None) -> np.ndarray:
    """The one matrix of `rho` (a DensityMatrix or an array) for `what`.

    A (B, n, n) stack, or a DensityMatrix whose dims differ from `dims`
    when given, is a DimensionError.
    """
    m = _as_mat(rho)
    if m.ndim != 2:
        raise DimensionError(f"{what} takes one matrix, not a stack of shape {m.shape}")
    if dims is not None:
        _require_dims(rho, dims, what)
    return m


def purity(rho):
    """tr(rho^2); ranges from 1/n (maximally mixed) to 1 (pure)."""
    m = _as_mat(rho)
    return linalg.scalar((np.abs(m) ** 2).sum(axis=(-2, -1)))


def concurrence(rho: DensityMatrix):
    """Wootters concurrence of a two-qubit state.

    Uses the Hermitian route: descending eigenvalues lam_k of
    R = sqrt(sqrt(rho) rho~ sqrt(rho)) with the spin-flipped
    rho~ = (s2 x s2) rho* (s2 x s2); C = max(0, lam1 - lam2 - lam3 - lam4).
    """
    _require_dims(rho, (2, 2), "concurrence")
    s = linalg.sqrt_psd(rho.mat)
    # The eigenvalues of R are the singular values of sqrt(rho) sqrt(rho~):
    # (A A')^(1/2) with A = s st.  Computing them by SVD keeps the small
    # lam_k accurate to ~eps absolute; squaring into s rho~ s and taking an
    # eigenvalue square root would blow eps-level noise up to ~sqrt(eps).
    st = _SPIN_FLIP @ s.conj() @ _SPIN_FLIP
    lam = np.linalg.svd(s @ st, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return linalg.scalar(np.maximum(c, 0.0))


def anti_x_measure(rho):
    """How far a two-qubit state is from X form, normalized to [0, 1].

    Four times the summed square magnitudes of the unique anti-X elements;
    exactly zero iff the state is an X state.
    """
    m = _as_mat(rho)
    if m.shape[-2:] != (4, 4):
        raise DimensionError(f"anti-X measure needs a 4x4 matrix, got {m.shape}")
    return linalg.scalar(4.0 * (np.abs(m[..., _ANTI_X_ROWS, _ANTI_X_COLS]) ** 2).sum(axis=-1))


def concurrence_x(rho, tol: float = 1e-10) -> float:
    """Closed-form concurrence for a two-qubit X state.

    2 max(0, |rho32| - sqrt(rho44 rho11), |rho41| - sqrt(rho33 rho22)).
    Rejects input whose anti-X measure exceeds `tol`.
    """
    m = require_single(rho, "concurrence_x")
    a = anti_x_measure(m)
    if a > tol:
        raise DomainError(f"state is not X-shaped: anti-X measure {a:.3e} > {tol}")
    d = np.abs(np.diag(m).real)
    c = 2.0 * max(
        0.0,
        abs(m[2, 1]) - math.sqrt(d[3] * d[0]),
        abs(m[3, 0]) - math.sqrt(d[2] * d[1]),
    )
    return float(c)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduction to subsystem `keep` (1-based), tracing out the others."""
    require_single(rho, "partial_trace")
    dims = rho.dims
    if not 1 <= keep <= len(dims):
        raise DimensionError(f"subsystem index {keep} invalid for dims {list(dims)}")
    m = keep - 1
    d = dims[m]
    t = rho.mat.reshape(dims + dims)
    # Trace over every axis pair except the kept one.
    for sub in range(len(dims) - 1, -1, -1):
        if sub == m:
            continue
        t = np.trace(t, axis1=sub, axis2=sub + (t.ndim // 2))
    return DensityMatrix(t.reshape(d, d), (d,) if d >= 2 else (d,))


def partial_transpose(rho: DensityMatrix, sub: int) -> np.ndarray:
    """Partial transpose over subsystem `sub` (1 or 2) of a bipartite state.

    Returns a plain Hermitian matrix: the result is generally not PSD.
    """
    dims = rho.dims
    if len(dims) != 2:
        raise DimensionError(f"partial transpose needs bipartite dims, got {list(dims)}")
    if sub not in (1, 2):
        raise DimensionError(f"subsystem must be 1 or 2, got {sub}")
    dA, dB = dims
    t = rho.mat.reshape(-1, dA, dB, dA, dB)
    t = t.swapaxes(1, 3) if sub == 1 else t.swapaxes(2, 4)
    return t.reshape(rho.mat.shape)


def negativity_e(rho: DensityMatrix):
    """Rescaled negativity for 2x3: ||rho^T1||_1 - 1, clamped to [0, 1].

    Normalized so a maximally entangled 2x3 state scores exactly 1.
    """
    _require_dims(rho, (2, 3), "negativity_e")
    e = linalg.trace_norm(partial_transpose(rho, 1)) - 1.0
    return linalg.scalar(np.minimum(np.maximum(e, 0.0), 1.0 + 1e-9))


def entanglement(rho: DensityMatrix):
    """`concurrence` of a 2x2 state, `negativity_e` of a 2x3 state; other dims raise."""
    if tuple(rho.dims) == (2, 2):
        return concurrence(rho)
    if tuple(rho.dims) == (2, 3):
        return negativity_e(rho)
    raise DimensionError(f"no entanglement measure for dims {list(rho.dims)}")


def mems_boundary_2x2(P: float) -> float:
    """Maximal two-qubit concurrence at purity P (piecewise closed form)."""
    if not (0.25 - 1e-12 <= P <= 1.0 + 1e-12):
        raise DomainError(f"purity {P} outside [1/4, 1]")
    P = min(max(P, 0.25), 1.0)
    if P <= 1.0 / 3.0:
        return 0.0
    if P <= 5.0 / 9.0:
        return math.sqrt(2.0 * (P - 1.0 / 3.0))
    return (1.0 + math.sqrt(2.0 * P - 1.0)) / 2.0


class _Boundary2x3:
    """Tabulated E_T1-vs-purity curve of the 2x3 MEMS family.

    No closed form exists; the curve is sampled once on a uniform grid and
    linearly interpolated afterwards.  The (grid, values) table is published
    in one assignment, so a concurrent caller never sees half of it.
    """

    GRID_POINTS = 1000

    def __init__(self):
        self._table = None

    def _build(self):
        ps = np.linspace(1.0 / 6.0, 1.0, self.GRID_POINTS)
        vals = np.concatenate([
            negativity_e(DensityMatrix(
                np.stack([states.mems_2x3(p).mat for p in ps[lo:lo + BLOCK]]), (2, 3)))
            for lo in range(0, len(ps), BLOCK)])
        self._table = ps, vals
        return self._table

    def __call__(self, P: float) -> float:
        if not (1.0 / 6.0 - 1e-12 <= P <= 1.0 + 1e-12):
            raise DomainError(f"purity {P} outside [1/6, 1]")
        grid, vals = self._table or self._build()
        P = min(max(P, 1.0 / 6.0), 1.0)
        return float(np.interp(P, grid, vals))


mems_boundary_2x3 = _Boundary2x3()


def pure_companion(C: float) -> DensityMatrix:
    """Pure two-qubit state with the given concurrence (theta state)."""
    if not -1e-12 <= C <= 1.0 + 1e-12:
        raise DomainError(f"concurrence {C} outside [0, 1]")
    C = min(max(C, 0.0), 1.0)
    return states.theta_state(states.PHI, 0.5 * math.asin(C), 0.0)


def mems_companion(C: float) -> DensityMatrix:
    """MEMS with the given concurrence (inverts the boundary curve).

    Branch selection pivots at C = 2/3, the concurrence at the P = 5/9
    branch point of the boundary.
    """
    if not -1e-12 <= C <= 1.0 + 1e-12:
        raise DomainError(f"concurrence {C} outside [0, 1]")
    C = min(max(C, 0.0), 1.0)
    if C <= 2.0 / 3.0:
        P = 0.5 * C * C + 1.0 / 3.0
    else:
        P = 0.5 * ((2.0 * C - 1.0) ** 2 + 1.0)
    return states.mems_2x2(P)
