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
matrix W is block diagonal: one 2x2 block per (i, j) pair and one N x N block
on the diagonal ("D") sector.  Conjugation by W is computed from those
blocks in O(N^4) time, never as a dense N**2 x N**2 product (O(N^6)).

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
    skew, magnitude = _hermitian_margin([A])
    return skew <= tol * max(1.0, magnitude)


def _hermitian_margin(blocks) -> tuple[float, float]:
    """(max|A - A*|, max|A|) over square matrices or stacks of them.

    For the diagonal blocks of a block-diagonal matrix this equals the
    pair for the whole matrix, whose other entries are zero.
    """
    skew = max(float(np.abs(b - b.conj().swapaxes(-1, -2)).max()) for b in blocks)
    magnitude = max(float(np.abs(b).max()) for b in blocks)
    return skew, magnitude


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


def basis_change_matrix(N: int) -> np.ndarray:
    """Unitary W with W[q, p] = <lam_q, E_p> (Gell-Mann rows, standard columns).

    Coordinate vectors transform as v_gm = W @ v_std, and coefficient/operator
    matrices as M_gm = W @ M_std @ W*.  Since <lam_q, E_ij> = conj(lam_q[i, j]),
    row q is conj(lam_q) read in standard order.  This dense form is the
    reference; the package conjugates by W's blocks (:func:`_conjugate_by_w`).
    """
    lam = np.stack([gellmann(i, j, N) for (i, j) in gellmann_labels(N)])
    return lam.reshape(N * N, N * N)[:, _standard_flat_order(N)].conj()


@lru_cache(maxsize=None)
def _diagonal_block(N: int) -> np.ndarray:
    """W's N x N diagonal-sector block ``W[R:, R:]``: row n is conj(diag(lam_nn))."""
    D = np.stack([np.diag(gellmann(n, n, N)) for n in range(1, N + 1)]).conj()
    D.setflags(write=False)
    return D


def _butterfly(x: np.ndarray, y: np.ndarray) -> None:
    """(x, y) <- (x + y, x - y) in place, with no temporary of their size."""
    x += y
    y *= -2.0
    y += x


def _conjugate_by_w(A: np.ndarray, inverse: bool) -> np.ndarray:
    """Overwrite A with ``W A W*``, or with ``W* A W`` when ``inverse``.

    A is a writable complex N**2 x N**2 array.  The product is taken from
    the blocks of W in O(N^4) time, with no temporary of A's size.  The
    pair block factors as ``U = diag(u) H2``, with ``H2 = [[1, 1], [1, -1]]``
    and u the first column of U: each pair of rows, then of columns, is
    combined by H2 as a sum and a difference in place and scaled by u (or
    u*), and the last N rows, then columns, are multiplied by the N x N
    diagonal-sector block of W.  The result equals the dense product up to
    rounding, for every A.  Returns A.
    """
    N = math.isqrt(A.shape[0])
    R = N * N - N
    u = pair_block_unitary()[:, 0]
    D = _diagonal_block(N)
    row_e, row_o = A[0:R:2], A[1:R:2]
    col_e, col_o = A[:, 0:R:2], A[:, 1:R:2]
    if inverse:  # rows by U* = H2 diag(u*), columns by U = diag(u) H2
        row_e *= u[0].conj()
        row_o *= u[1].conj()
        _butterfly(row_e, row_o)
        A[R:] = D.conj().T @ A[R:]
        col_e *= u[0]
        col_o *= u[1]
        _butterfly(col_e, col_o)
        A[:, R:] = A[:, R:] @ D
    else:  # rows by U = diag(u) H2, columns by U* = H2 diag(u*)
        _butterfly(row_e, row_o)
        row_e *= u[0]
        row_o *= u[1]
        A[R:] = D @ A[R:]
        _butterfly(col_e, col_o)
        col_e *= u[0].conj()
        col_o *= u[1].conj()
        A[:, R:] = A[:, R:] @ D.conj().T
    return A


def _pair_block(M: np.ndarray, k: int, ell: int, N: int) -> np.ndarray:
    """The 2x2 view of M over the labels (k, ell), (ell, k), for k < ell.

    M is indexed by the label order.  The two labels sit at adjacent
    positions, so the block is a slice of M and a write through it lands
    in M.  The diagonal labels come last: their block is ``M[-N:, -N:]``.
    """
    p = standard_position(k, ell, N)
    return M[p : p + 2, p : p + 2]


def _pair_blocks(M: np.ndarray, N: int) -> np.ndarray:
    """The 2x2 diagonal blocks of M's pair sector, as a (P, 2, 2) array.

    M is indexed by the label order (standard or Gell-Mann, which agree) or
    a leading part of it; its first R = N**2 - N rows and columns hold the
    P = R/2 pairs.
    """
    P = (N * N - N) // 2
    t = np.arange(P)
    return M[: 2 * P, : 2 * P].reshape(P, 2, P, 2)[t, :, t, :]


#: Pair rows per band of :func:`_max_off_block`'s scan.
_SCAN_BAND_PAIRS = 32


def _max_off_block(M: np.ndarray, N: int) -> float:
    """Largest |M[a, b]| outside the pair blocks and the diagonal-sector block.

    M is laid out as for :func:`_pair_blocks`; its rows and columns past R
    form one square diagonal-sector block.  The result is 0 exactly when M
    has the pair-block zero pattern.  The pair sector is scanned one band of
    rows at a time, so no R x R temporary is made.
    """
    R = N * N - N
    if R == 0:
        return 0.0
    P = R // 2
    worst = [np.abs(M[:R, R:]).max(), np.abs(M[R:, :R]).max()]
    for t0 in range(0, P, _SCAN_BAND_PAIRS):
        t = np.arange(t0, min(P, t0 + _SCAN_BAND_PAIRS))
        band = np.abs(M[2 * t0 : 2 * (t[-1] + 1), :R]).reshape(t.size, 2, P, 2)
        band[np.arange(t.size), :, t, :] = 0.0
        worst.append(band.max())
    return float(np.max(worst))


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
    return _conjugate_by_w(M.copy(), inverse=source == "gellmann")


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
