"""Entanglement and structure measures.

Concurrence (general and X-form), purity, the anti-X measure, partial
trace / partial transpose, the rescaled-negativity measure for 2x3, and
the maximally-entangled-mixed-state boundary curves in closed form, which
take a purity or an array of purities.
"""

from __future__ import annotations

import numpy as np

from . import linalg, states
from .errors import DimensionError
from .states import DensityMatrix

# (s2 x s2) M (s2 x s2) is M reversed on both axes times these signs.
_FLIP_SIGN = np.outer([1, -1, -1, 1], [1, -1, -1, 1])

# Anti-X positions of the two-qubit X pattern (upper triangle).
_ANTI_X_ROWS, _ANTI_X_COLS = [0, 0, 1, 2], [1, 2, 3, 3]


def _as_mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def require_dims(rho: DensityMatrix, dims: tuple[int, ...], what: str):
    """A DimensionError unless `rho` has subsystem dims `dims`."""
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
        require_dims(rho, dims, what)
    return m


def purity(rho):
    """tr(rho^2); ranges from 1/n (maximally mixed) to 1 (pure)."""
    m = _as_mat(rho)
    return linalg.scalar((np.abs(m) ** 2).sum(axis=(-2, -1)))


def concurrence(rho: DensityMatrix, es: linalg.EigenSystem | None = None):
    """Wootters concurrence of a two-qubit state.

    Uses the Hermitian route: descending eigenvalues lam_k of
    R = sqrt(sqrt(rho) rho~ sqrt(rho)) with the spin-flipped
    rho~ = (s2 x s2) rho* (s2 x s2); C = max(0, lam1 - lam2 - lam3 - lam4).
    `es` reuses rho's `linalg.eig_hermitian` for sqrt(rho), which checks it is PSD.
    A rank-deficient rho measures only to about 1e-8: sqrt(rho) takes the
    square root of its zero eigenspace's eps-level eigenvalues.
    """
    require_dims(rho, (2, 2), "concurrence")
    s = linalg.sqrt_psd(rho.mat, es=es)
    # The eigenvalues of R are the singular values of sqrt(rho) sqrt(rho~):
    # (A A')^(1/2) with A = s st.  Computing them by SVD keeps the small
    # lam_k accurate to ~eps absolute; squaring into s rho~ s and taking an
    # eigenvalue square root would blow eps-level noise up to ~sqrt(eps).
    st = s.conj()[..., ::-1, ::-1] * _FLIP_SIGN
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


def concurrence_x(rho):
    """Closed-form concurrence for a two-qubit X state or a stack of them.

    2 max(0, |rho32| - sqrt(rho44 rho11), |rho41| - sqrt(rho33 rho22)).
    Rejects a matrix with a non-finite entry or an anti-X measure above linalg.ANTI_X_TOL.
    """
    m = _as_mat(rho)
    linalg.check_finite(m)
    a = np.asarray(anti_x_measure(m))
    linalg.reject(~(a <= linalg.ANTI_X_TOL),
                  f"state is not X-shaped: anti-X measure {{:.3e}} > {linalg.ANTI_X_TOL}", a)
    d = np.abs(np.diagonal(m, axis1=-2, axis2=-1).real)
    c = np.maximum(np.abs(m[..., 2, 1]) - np.sqrt(d[..., 3] * d[..., 0]),
                   np.abs(m[..., 3, 0]) - np.sqrt(d[..., 2] * d[..., 1]))
    return linalg.scalar(2.0 * np.maximum(c, 0.0))


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
    return DensityMatrix(t.reshape(d, d), (d,))


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
    """Rescaled negativity for 2x3: ||rho^T1||_1 - 1, clamped to [0, 1 + 1e-9].

    Normalized so a maximally entangled 2x3 state scores 1 up to rounding.
    """
    require_dims(rho, (2, 3), "negativity_e")
    e = linalg.trace_norm(partial_transpose(rho, 1)) - 1.0
    return linalg.scalar(np.minimum(np.maximum(e, 0.0), 1.0 + 1e-9))


def mems_boundary_2x2(P):
    """Maximal two-qubit concurrence at purity P (piecewise closed form).

    P is a float or an array; a float gives a float.
    """
    P, r, x = states._mems_branches_2x2(P)
    return linalg.scalar(np.where(P <= 1.0 / 3.0, 0.0, np.where(P <= 5.0 / 9.0, r, x)))


def mems_boundary_2x3(P):
    """negativity_e of `states.mems_2x3(P)` in closed form; P a float or an array.

    In each purity branch of that family only the partial-transpose block on
    |0,2>, |1,0> can go negative.  It is [[beta, g/2], [g/2, 0]] for
    1/5 <= P < 3/8 and [[0, w/2], [w/2, 0]] above, with the family's branch
    parameters g, beta and w, so E = sqrt(beta^2 + g^2) - beta, then E = w;
    E = 0 for P < 1/5.
    """
    P, g, beta, w = states._mems_branches_2x3(P)
    mid = np.sqrt(beta * beta + g * g) - beta
    return linalg.scalar(np.where(P < 0.2, 0.0, np.where(P < 3.0 / 8.0, mid, w)))
