"""True-generalized-X (TGX) structure for arbitrary multipartite dimensions.

The anti-X positions of a multipartite density matrix are those that land
in the off-diagonals of some single-site reduction; TGX positions are the
rest.  This module computes both masks from the mixed-radix digit rule,
projects states onto TGX form, validates simple maximally entangled basis
(MEB) sets, and carries the built-in MEB catalogs for 2x3, 2x2x2 and 3x3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measures, states
from .errors import DimensionError, DomainError, RankError
from .states import DensityMatrix

# At most _ZERO_TOL counts as zero, and eigenvalues within _FLAT_TOL as equal.
_ZERO_TOL, _FLAT_TOL = 1e-12, 1e-9


@dataclass(frozen=True, init=False, eq=False)
class ElementMask:
    """Symmetric marked (row, col) positions of an n x n matrix, held as one
    read-only boolean array `grid`; built from a copy of such an array."""

    n: int
    grid: np.ndarray

    def __init__(self, n: int, marked: np.ndarray):
        (n,) = states._int_dims([n])
        grid = np.array(marked)
        if grid.shape != (n, n) or grid.dtype != bool:
            raise DimensionError(f"mask shape {grid.shape} ({grid.dtype}) is not ({n}, {n}) bool")
        lone = np.argwhere(grid & ~grid.T)
        if len(lone):
            i, j = lone[0]
            raise DimensionError(f"mask not symmetric: ({i},{j}) without ({j},{i})")
        grid.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "grid", grid)

    @property
    def marked(self) -> frozenset:
        return frozenset(self.pairs())

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementMask) and np.array_equal(self.grid, other.grid)

    def __hash__(self) -> int:
        return hash(self.grid.tobytes())

    def pairs(self) -> list:
        """Sorted 0-based (row, col) list."""
        return list(zip(*(axis.tolist() for axis in np.nonzero(self.grid))))

    def to_ascii(self) -> str:
        """Dot/X grid in the paper-style dot notation."""
        buf = np.full((self.n, 2 * self.n), ord(" "), dtype=np.uint8)  # a byte per char
        buf[:, ::2] = np.where(self.grid, ord("X"), ord("."))
        buf[:, -1:] = ord("\n")
        return buf.tobytes().decode()[:-1]

    def union(self, other: "ElementMask") -> "ElementMask":
        if self.n != other.n:
            raise DimensionError(f"mask sizes differ: {self.n} vs {other.n}")
        return ElementMask(self.n, self.grid | other.grid)


def _check_dims(dims) -> tuple:
    dims = states._int_dims(dims)
    if len(dims) < 2 or any(d < 2 for d in dims):
        raise DimensionError(f"need at least two subsystems of dimension >= 2, got {list(dims)}")
    return dims


_MASK_CACHE, _TGX_CACHE = {}, {}  # anti-X and TGX masks by dims; their grids are read-only


def anti_x_mask(dims) -> ElementMask:
    """Positions contributing to off-diagonals of some single-site reduction.

    (i, j) is anti-X exactly when the mixed-radix digits of i and j differ
    in exactly one subsystem: tracing out the others then keeps the term
    and places it off-diagonal in that subsystem's reduction.
    """
    dims = _check_dims(dims)
    if dims not in _MASK_CACHE:
        k, n = len(dims), math.prod(dims)
        count = np.zeros(dims + dims, dtype=np.int8)  # digits of i and j that differ
        for m, d in enumerate(dims):  # d x d table on axes m and k + m; axes < m broadcast
            count += ~np.eye(d, dtype=bool).reshape([d] + [1] * (k - 1) + [d] + [1] * (k - 1 - m))
        _MASK_CACHE[dims] = ElementMask(n, (count == 1).reshape(n, n))
    return _MASK_CACHE[dims]


def tgx_mask(dims) -> ElementMask:
    """Diagonal plus every off-diagonal position that is not anti-X."""
    dims = _check_dims(dims)
    if dims not in _TGX_CACHE:
        _TGX_CACHE[dims] = ElementMask(math.prod(dims), ~anti_x_mask(dims).grid)
    return _TGX_CACHE[dims]


def project_tgx(rho: DensityMatrix) -> DensityMatrix:
    """Zero out the anti-X positions of rho.

    The result is Hermitian with unit trace and diagonal single-site
    reductions, but is NOT guaranteed positive semidefinite; callers that
    need a physical state must check.
    """
    return DensityMatrix(rho.mat * tgx_mask(rho.dims).grid, rho.dims)


def is_simple_me_state(psi: DensityMatrix) -> bool:
    """Is psi a 'simple' maximally entangled pure state?

    Simple: every anti-X matrix element vanishes (within _ZERO_TOL).
    Maximally entangled: each single-site reduction has at least two nonzero
    eigenvalues and they are all equal within _FLAT_TOL (maximally mixed on
    its support, which may be a proper subspace).  A non-finite entry raises.
    """
    measures.require_single(psi, "is_simple_me_state")
    linalg.check_finite(psi.mat)
    if not measures.purity(psi) >= 1.0 - _ZERO_TOL:
        raise RankError("input must be a pure state (rank 1)")
    if not (np.abs(psi.mat[anti_x_mask(psi.dims).grid]) <= _ZERO_TOL).all():
        return False
    for m in range(1, len(psi.dims) + 1):
        w = np.linalg.eigvalsh(measures.partial_trace(psi, m).mat)
        nz = w[w > _ZERO_TOL]
        if len(nz) < 2 or not nz.max() - nz.min() <= _FLAT_TOL:
            return False
    return True


def meb_union_mask(members, dims) -> ElementMask:
    """Union of the nonzero-element footprints of a set of simple ME states."""
    dims = _check_dims(dims)
    n = math.prod(dims)
    grid = np.zeros((n, n), dtype=bool)
    for k, psi in enumerate(members):
        if tuple(psi.dims) != dims:
            raise DimensionError(f"member {k} has dims {list(psi.dims)}, expected {list(dims)}")
        if not is_simple_me_state(psi):
            raise DomainError(f"member {k} is not a simple maximally entangled state")
        grid |= np.abs(psi.mat) > _ZERO_TOL
    return ElementMask(n, grid)


def basis_resolution(members) -> tuple:
    """Best scalar c with c * sum_k psi_k ~= I, and whether it resolves I.

    Returns (factor, is_resolution); is_resolution is True when the
    max-norm residual of c * sum - I is <= 1e-10.  For a (possibly
    overcomplete) projector resolution the factor is n / count.
    """
    members = list(members)
    if not members:
        raise DomainError("need at least one state")
    n = members[0].n
    S = np.zeros((n, n), dtype=complex)
    for k, psi in enumerate(members):
        if psi.n != n:
            raise DimensionError(f"member {k} has size {psi.n}, expected {n}")
        S += psi.mat
    # Least-squares scalar fit of c*S to the identity.
    denom = float(np.sum(np.abs(S) ** 2))
    c = float(np.real(np.trace(S))) / denom if denom > 0 else 0.0
    residual = float(np.max(np.abs(c * S - np.eye(n))))
    return c, residual <= 1e-10


# ---------------------------------------------------------------------------
# Built-in MEB catalogs
# ---------------------------------------------------------------------------

def _pure_from_support(n, dims, support, coeffs) -> DensityMatrix:
    v = np.zeros(n, dtype=complex)
    v[list(support)] = coeffs
    return states._pure(v, dims)


def meb_basis_2x3(family: str) -> list:
    """Six-state complete MEB in 2x3: the +/- pair for each support pair."""
    return [states.meb_state_2x3(family, index, math.pi / 4, phi)
            for index in (1, 2, 3) for phi in (0.0, math.pi)]


# Three-qubit pairwise MEB: each member superposes a basis ket with its
# bitwise complement, so the union footprint is the literal X shape.
_PAIRS_3QUBIT = [(0, 7), (1, 6), (2, 5), (3, 4)]

# Three-qubit four-term MEB: supports of even and odd bit-parity, with the
# four sign patterns that keep the members mutually orthogonal.
_QUAD_SUPPORTS_3QUBIT = [(0, 3, 5, 6), (7, 4, 2, 1)]
_QUAD_SIGNS_3QUBIT = [(1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)]


def meb_basis_3qubit_pairs() -> list:
    """Eight-state complete MEB in 2x2x2 with literal-X footprint."""
    return [_pure_from_support(8, (2, 2, 2), pair, (1.0, sign))
            for pair in _PAIRS_3QUBIT for sign in (1.0, -1.0)]


def meb_basis_3qubit_quads() -> list:
    """Eight-state complete MEB in 2x2x2 with four-term members."""
    return [_pure_from_support(8, (2, 2, 2), support, signs)
            for support in _QUAD_SUPPORTS_3QUBIT for signs in _QUAD_SIGNS_3QUBIT]


# 3x3 overcomplete MEB: six three-term supports; the phase pair (a, b)
# multiplies the second and third kets.
_SUPPORTS_3X3 = [(0, 4, 8), (1, 5, 6), (3, 7, 2), (0, 5, 7), (4, 2, 6), (8, 1, 3)]
_SIGN_PAIRS_3X3 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def meb_basis_3x3(a: int = 1, b: int = 1) -> list:
    """Six three-term ME states in 3x3 with relative phases a, b (each +-1)."""
    if a not in (1, -1) or b not in (1, -1):
        raise DomainError(f"phase factors must be +-1, got a={a}, b={b}")
    return [_pure_from_support(9, (3, 3), s, (1.0, float(a), float(b)))
            for s in _SUPPORTS_3X3]


def meb_basis_3x3_full() -> list:
    """All 24 members: the 3x3 family over all four sign pairs (overcomplete)."""
    return [psi for a, b in _SIGN_PAIRS_3X3 for psi in meb_basis_3x3(a, b)]


def bell_basis() -> list:
    """The four Bell states (the unique simple MEB of 2x2)."""
    return [states.bell_state(fam, sign)
            for fam in (states.PHI, states.PSI) for sign in (+1, -1)]
