"""Operator bases for N-level systems and conversions between them.

Two ordered orthonormal bases of the N x N complex matrices are used
throughout the package:

* the **standard basis** of matrix units ``E_ij`` (single 1 at row i,
  column j), ordered so that off-diagonal labels come first, grouped in
  (i, j), (j, i) pairs for i < j in lexicographic order, followed by the
  diagonal labels (1, 1), ..., (N, N);
* the **Gell-Mann basis**: the symmetric/antisymmetric Hermitian pairs
  ``lam_ij = (E_ij + E_ji)/sqrt(2)`` and ``lam_ji = -i(E_ij - E_ji)/sqrt(2)``
  (for i < j) in the same pair order, then the diagonal traceless matrices
  ``lam_nn`` for n = 1..N-1, then the normalized identity ``I_N/sqrt(N)``.

Both orderings are bijections between labels and positions 0..N**2-1, and
they share the off-diagonal ("O") sector positions, so the change-of-basis
matrix is block diagonal: one 2x2 block per (i, j) pair and one N x N block
on the diagonal ("D") sector.

All public indices are 1-based, matching the usual physics notation for
matrix units; array positions are 0-based.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Default absolute tolerance for numeric predicates.  Where noted,
#: predicates adjust the tolerance by the largest magnitude entry involved.
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def standard_labels(N: int) -> tuple[tuple[int, int], ...]:
    """Ordered labels (i, j) of the standard basis of M_N.

    Off-diagonal labels first, paired (i, j), (j, i) for i < j in
    lexicographic order of (i, j); then the diagonal labels (1, 1)..(N, N).
    """
    if N < 1:
        raise ValueError(f"dimension must be positive, got {N}")
    labels: list[tuple[int, int]] = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            labels.append((i, j))
            labels.append((j, i))
    labels.extend((n, n) for n in range(1, N + 1))
    return tuple(labels)


def gellmann_labels(N: int) -> tuple[tuple[int, int], ...]:
    """Ordered labels of the Gell-Mann basis of M_N.

    Pairs (i, j), (j, i) for i < j (symmetric then antisymmetric), then the
    diagonal labels (n, n) for n = 1..N-1, then (N, N) which denotes the
    normalized identity ``I_N/sqrt(N)``.  The label order is the standard
    one, so both bases share every position.
    """
    return standard_labels(N)


def standard_position(i: int, j: int, N: int) -> int:
    """0-based position of the label (i, j) in the standard ordering."""
    pos = _standard_position_array(N)
    if not (1 <= i <= N and 1 <= j <= N):
        raise ValueError(f"label ({i}, {j}) out of range for N={N}")
    return int(pos[i - 1, j - 1])


def gellmann_position(i: int, j: int, N: int) -> int:
    """0-based position of the label (i, j) in the Gell-Mann ordering.

    (N, N) is the sentinel label of the normalized identity.
    """
    return standard_position(i, j, N)


@lru_cache(maxsize=None)
def _standard_position_array(N: int) -> np.ndarray:
    """pos[i-1, j-1] = standard position of label (i, j)."""
    pos = np.empty((N, N), dtype=np.intp)
    for p, (i, j) in enumerate(standard_labels(N)):
        pos[i - 1, j - 1] = p
    pos.setflags(write=False)
    return pos


def _standard_flat_order(N: int) -> np.ndarray:
    """Row-major index (i-1)*N + (j-1) of the label at each standard position."""
    return np.argsort(_standard_position_array(N).ravel())


# ---------------------------------------------------------------------------
# Basis matrices
# ---------------------------------------------------------------------------


def matrix_unit(i: int, j: int, N: int) -> np.ndarray:
    """The matrix unit E_ij (1-based indices)."""
    if not (1 <= i <= N and 1 <= j <= N):
        raise ValueError(f"matrix unit ({i}, {j}) out of range for N={N}")
    E = np.zeros((N, N), dtype=np.complex128)
    E[i - 1, j - 1] = 1.0
    return E


def gellmann(i: int, j: int, N: int) -> np.ndarray:
    """The generalized Gell-Mann matrix lam_ij for dimension N.

    * i < j: symmetric, ``(E_ij + E_ji)/sqrt(2)``;
    * i > j: antisymmetric, ``-i(E_ji - E_ij)/sqrt(2)`` (so that
      ``gellmann(2, 1, 2)`` is ``[[0, -i], [i, 0]]/sqrt(2)``);
    * i == j <= N-1: diagonal traceless,
      ``(E_11 + ... + E_nn - n*E_{n+1,n+1})/sqrt(n(n+1))``;
    * i == j == N: the sentinel label of the normalized identity
      ``I_N/sqrt(N)``.

    Every returned matrix is Hermitian with unit Hilbert-Schmidt norm, and
    traceless except for the identity label.
    """
    if not (1 <= i <= N and 1 <= j <= N):
        raise ValueError(f"Gell-Mann label ({i}, {j}) out of range for N={N}")
    if i < j:
        out = matrix_unit(i, j, N) + matrix_unit(j, i, N)
        return out / math.sqrt(2.0)
    if i > j:
        out = -1j * (matrix_unit(j, i, N) - matrix_unit(i, j, N))
        return out / math.sqrt(2.0)
    n = i
    if n == N:
        return np.eye(N, dtype=np.complex128) / math.sqrt(N)
    out = np.zeros((N, N), dtype=np.complex128)
    for m in range(1, n + 1):
        out[m - 1, m - 1] = 1.0
    out[n, n] = -n
    return out / math.sqrt(n * (n + 1))


@lru_cache(maxsize=None)
def _gellmann_stack(N: int) -> np.ndarray:
    """All Gell-Mann matrices stacked along axis 0, in ordering."""
    return np.stack([gellmann(i, j, N) for (i, j) in gellmann_labels(N)])


def expand_standard_in_gellmann(i: int, j: int, N: int) -> np.ndarray:
    """Coefficients c (length N**2, Gell-Mann ordering) with E_ij = sum c_q lam_q.

    Closed forms:

    * i < j: ``E_ij = (lam_ij + i*lam_ji)/sqrt(2)``;
    * i > j: ``E_ij = (lam_ji - i*lam_ij)/sqrt(2)``;
    * i == j: the telescoping diagonal formula
      ``E_jj = -sqrt((j-1)/j) lam_{j-1,j-1}
      + sum_{m=j}^{N-1} lam_mm/sqrt(m(m+1)) + I_N/N``
      (the lam_{0,0} term is read as zero and the sum is vacuous for j = N).
    """
    if not (1 <= i <= N and 1 <= j <= N):
        raise ValueError(f"label ({i}, {j}) out of range for N={N}")
    coeffs = np.zeros(N * N, dtype=np.complex128)
    if i < j:
        coeffs[gellmann_position(i, j, N)] = 1.0 / math.sqrt(2.0)
        coeffs[gellmann_position(j, i, N)] = 1j / math.sqrt(2.0)
        return coeffs
    if i > j:
        coeffs[gellmann_position(j, i, N)] = 1.0 / math.sqrt(2.0)
        coeffs[gellmann_position(i, j, N)] = -1j / math.sqrt(2.0)
        return coeffs
    if j > 1:
        coeffs[gellmann_position(j - 1, j - 1, N)] = -math.sqrt((j - 1) / j)
    for m in range(j, N):
        coeffs[gellmann_position(m, m, N)] = 1.0 / math.sqrt(m * (m + 1))
    # Coefficient on I_N/sqrt(N), contributing I_N/N to E_jj.
    coeffs[gellmann_position(N, N, N)] = 1.0 / math.sqrt(N)
    return coeffs


# ---------------------------------------------------------------------------
# Inner product and predicates
# ---------------------------------------------------------------------------


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A* B), conjugate-linear in A."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return complex(np.vdot(A, B))


def is_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff max|A - A*| <= tol, scale-adjusted by the largest entry."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    if A.size == 0:
        return True
    scale = max(1.0, float(np.abs(A).max()))
    return float(np.abs(A - A.conj().T).max()) <= tol * scale


def is_psd(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is Hermitian and min eig >= -tol * max(1, max eig)."""
    if not is_hermitian(A, tol):
        return False
    A = np.asarray(A)
    if A.size == 0:
        return True
    evals = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
    return float(evals.min()) >= -tol * max(1.0, float(evals.max()))


# ---------------------------------------------------------------------------
# Coordinates and basis change
# ---------------------------------------------------------------------------


def to_standard_coordinates(M: np.ndarray) -> np.ndarray:
    """Coordinate vector of M in the standard ordering."""
    M = np.asarray(M, dtype=np.complex128)
    N = M.shape[0]
    if M.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M.reshape(N * N)[_standard_flat_order(N)]


def from_standard_coordinates(v: np.ndarray, N: int) -> np.ndarray:
    """Matrix reassembled from a standard-ordering coordinate vector."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (N * N,):
        raise ValueError(f"expected a vector of length {N * N}, got {v.shape}")
    return v[_standard_position_array(N)]


@lru_cache(maxsize=None)
def basis_change_matrix(N: int) -> np.ndarray:
    """Unitary W with W[q, p] = <lam_q, E_p> (Gell-Mann rows, standard columns).

    Coordinate vectors transform as v_gm = W @ v_std, and coefficient/operator
    matrices as M_gm = W @ M_std @ W*.  Since <lam_q, E_ij> = conj(lam_q[i, j]),
    the matrix is assembled by direct indexing.  Cached per dimension.
    """
    lam = _gellmann_stack(N).reshape(N * N, N * N)
    W = lam[:, _standard_flat_order(N)].conj()
    W.setflags(write=False)
    return W


def operator_basis_change(M: np.ndarray, source: str, target: str) -> np.ndarray:
    """Re-express an operator-on-matrices matrix M in another ordered basis.

    ``source`` and ``target`` are ``"standard"`` or ``"gellmann"``.  M must be
    N**2 x N**2; it is interpreted as the matrix of a linear map on M_N in the
    source ordering and conjugated by the (unitary) change-of-basis matrix.
    The same rule converts coefficient matrices (Gamma <-> C with the
    identity row/column retained).
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    N = math.isqrt(M.shape[0])
    if N * N != M.shape[0]:
        raise ValueError(f"matrix side {M.shape[0]} is not a perfect square")
    for name in (source, target):
        if name not in ("standard", "gellmann"):
            raise ValueError(f"unknown basis ordering {name!r}")
    if source == target:
        return M.copy()
    W = basis_change_matrix(N)
    if source == "standard":  # -> gellmann
        return W @ M @ W.conj().T
    return W.conj().T @ M @ W  # gellmann -> standard


@lru_cache(maxsize=None)
def pair_block_unitary() -> np.ndarray:
    """The 2x2 block of the basis change on one (i, j) pair.

    Rows (lam_ij, lam_ji), columns (E_ij, E_ji):
    ``U = [[1, 1], [i, -i]]/sqrt(2)``.
    """
    U = np.array([[1.0, 1.0], [1j, -1j]], dtype=np.complex128) / math.sqrt(2.0)
    U.setflags(write=False)
    return U


def convert_block(block: np.ndarray, direction: str) -> np.ndarray:
    """Convert one 2x2 pair block between Gamma and C representations.

    ``direction`` is ``"gamma-to-c"`` or ``"c-to-gamma"``.  The block rows and
    columns are ordered ((i, j), (j, i)) for Gamma and (lam_ij, lam_ji) for C,
    so the conversion is conjugation by the pair-block unitary:
    ``C = U Gamma U*`` and ``Gamma = U* C U``.  Round-trip is the identity.
    """
    block = np.asarray(block, dtype=np.complex128)
    if block.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got shape {block.shape}")
    U = pair_block_unitary()
    if direction == "gamma-to-c":
        return U @ block @ U.conj().T
    if direction == "c-to-gamma":
        return U.conj().T @ block @ U
    raise ValueError(f"unknown direction {direction!r}")
