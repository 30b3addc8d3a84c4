"""Entanglement and structure measures.

Concurrence (general, from any factor, and X-form), purity, the anti-X
measure, partial trace / partial transpose, the rescaled-negativity measure
for 2x3, and the maximally-entangled-mixed-state boundary curves in closed
form, which take a purity or an array of purities.

`require_state` is the one check of a state argument across xlab; `purity`,
`anti_x_measure` and `concurrence_x`, which read only the matrix, also take
a square array or stack (`_as_mat`).
"""

from __future__ import annotations

import numpy as np

from . import linalg, states
from .errors import DimensionError
from .states import DensityMatrix

# (s2 x s2) F is F's rows reversed times these signs.
_FLIP_ROWS = np.array([[-1.0], [1.0], [1.0], [-1.0]])

# Anti-X positions of the two-qubit X pattern (upper triangle).
_ANTI_X_ROWS, _ANTI_X_COLS = np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])


def _as_mat(rho, what: str) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else linalg.square(rho, f"{what} matrix")


def require_state(rho, what: str, dims: tuple[int, ...] | None = None,
                  single: bool = False) -> DensityMatrix:
    """`rho` if it is a DensityMatrix, of subsystem dims `dims` when given and
    one matrix, not a (B, n, n) stack, when `single`; else a DimensionError
    that names `what`."""
    if not isinstance(rho, DensityMatrix):
        raise DimensionError(f"{what} takes a DensityMatrix, got {type(rho).__name__}")
    if dims is not None and rho.dims != dims:
        raise DimensionError(f"{what} has dims {list(rho.dims)}, expected {list(dims)}")
    if single and rho.mat.ndim != 2:
        raise DimensionError(f"{what} takes one matrix, not a stack of shape {rho.mat.shape}")
    return rho


def purity(rho):
    """tr(rho^2); ranges from 1/n (maximally mixed) to 1 (pure)."""
    m = _as_mat(rho, "purity")
    return linalg.scalar(np.add.reduce(np.abs(m) ** 2, axis=(-2, -1)))


def concurrence(rho: DensityMatrix, es: linalg.EigenSystem | None = None):
    """Wootters concurrence of a two-qubit state: `factor_concurrence` of sqrt(rho).

    `es` reuses rho's `linalg.eig_hermitian` for sqrt(rho), which checks it is PSD.
    A rank-deficient rho measures only to about 1e-8, since sqrt(rho) takes the square
    roots of its zero eigenspace's eps-level eigenvalues; a factor with no such column,
    as a Ginibre draw's own G, measures to ~eps.
    """
    return factor_concurrence(
        linalg.sqrt_psd(require_state(rho, "concurrence", (2, 2)).mat, es=es))


def factor_concurrence(F):
    """Wootters concurrence of rho = F F+ from any (4, r) factor F, or a (..., 4, r) stack:
    C = max(0, lam1 - lam2 - ... - lam_r) over the singular values lam_k of the r x r
    tau = F^T (s2 x s2) F (PRL 80, 2245).  The SVD keeps small lam_k accurate to ~eps."""
    F = linalg.numbers(F, "factor", complex)
    if F.ndim < 2 or F.shape[-2] != 4 or F.shape[-1] < 1:
        raise DimensionError(f"expected a (4, r) factor or a stack of them, got shape {F.shape}")
    linalg.check_finite(F)
    lam = np.linalg.svd(F.mT @ (F[..., ::-1, :] * _FLIP_ROWS), compute_uv=False)
    return linalg.scalar(np.maximum(lam[..., 0] - np.add.reduce(lam[..., 1:], axis=-1), 0.0))


def anti_x_measure(rho):
    """How far a two-qubit state is from X form, normalized to [0, 1].

    Four times the summed square magnitudes of the unique anti-X elements;
    exactly zero iff the state is an X state.
    """
    m = _as_mat(rho, "anti_x_measure")
    if m.shape[-2:] != (4, 4):
        raise DimensionError(f"anti-X measure needs a 4x4 matrix, got {m.shape}")
    return linalg.scalar(4.0 * np.add.reduce(np.abs(m[..., _ANTI_X_ROWS, _ANTI_X_COLS]) ** 2,
                                             axis=-1))


def concurrence_x(rho):
    """Closed-form concurrence for a two-qubit X state or a stack of them.

    2 max(0, |rho32| - sqrt(rho44 rho11), |rho41| - sqrt(rho33 rho22)).
    Rejects a matrix with a non-finite entry or an anti-X measure above linalg.ANTI_X_TOL.
    """
    m = _as_mat(rho, "concurrence_x")
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
    dims = require_state(rho, "partial_trace", single=True).dims
    linalg.member(keep, range(1, len(dims) + 1),
                  f"subsystem index {{}} invalid for dims {list(dims)}", DimensionError)
    t = rho.mat.reshape(dims + dims)
    for sub in reversed(range(len(dims))):  # trace every axis pair but the kept one
        if sub != keep - 1:
            t = np.trace(t, axis1=sub, axis2=sub + (t.ndim // 2))
    return DensityMatrix(t, (dims[keep - 1],))


def partial_transpose(rho: DensityMatrix, sub: int) -> np.ndarray:
    """Partial transpose over subsystem `sub` (1 or 2) of a bipartite state.

    Returns a plain Hermitian matrix: the result is generally not PSD.
    """
    dims = require_state(rho, "partial_transpose").dims
    if len(dims) != 2:
        raise DimensionError(f"partial transpose needs bipartite dims, got {list(dims)}")
    linalg.member(sub, (1, 2), "subsystem must be 1 or 2, got {}", DimensionError)
    dA, dB = dims
    t = rho.mat.reshape(-1, dA, dB, dA, dB)
    t = t.swapaxes(1, 3) if sub == 1 else t.swapaxes(2, 4)
    return t.reshape(rho.mat.shape)


def negativity_e(rho: DensityMatrix):
    """Rescaled negativity for 2x3: ||rho^T1||_1 - 1, clamped to [0, 1 + linalg.NEGATIVITY_TOL].

    Normalized so a maximally entangled 2x3 state scores 1 up to rounding.
    """
    e = linalg.trace_norm(partial_transpose(require_state(rho, "negativity_e", (2, 3)), 1)) - 1.0
    return linalg.scalar(np.minimum(np.maximum(e, 0.0), 1.0 + linalg.NEGATIVITY_TOL))


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
