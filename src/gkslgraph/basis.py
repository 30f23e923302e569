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
they share the off-diagonal ("O") sector positions, so the unitary
change-of-basis matrix W, ``W[q, p] = <lam_q, E_p>`` (Gell-Mann rows,
standard columns), is block diagonal: one 2x2 block per (i, j) pair and
one N x N block on the diagonal ("D") sector.  The layout is defined once,
by ``_pair_levels``, and W's diagonal block by the closed form of the
diagonal Gell-Mann matrices (``_diagonal_block``).  Conjugation by W is
computed from those blocks in O(N^4) time, never as a dense N**2 x N**2
product (O(N^6)); a matrix with the pair-block zero pattern keeps it, and
only its blocks are conjugated, in O(N^3).

All public indices are 1-based, matching the usual physics notation for
matrix units; array positions are 0-based.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "standard_labels",
    "gellmann_labels",
    "standard_position",
    "matrix_unit",
    "gellmann",
    "is_hermitian",
    "is_psd",
    "to_standard_coordinates",
    "from_standard_coordinates",
    "pair_block_unitary",
]

#: Default tolerance of every numeric test; see :func:`_threshold` for how
#: it is scaled.
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
    i, j = np.divmod(_standard_flat_order(N), N)
    return tuple(zip((i + 1).tolist(), (j + 1).tolist()))


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


@lru_cache(maxsize=None)
def _pair_levels(N: int) -> np.ndarray:
    """Read-only (P, 2) array whose row t is the levels (k, l), k < l, of the labels 2t, 2t + 1."""
    levels = np.stack(np.triu_indices(N, 1), axis=1) + 1
    levels.setflags(write=False)
    return levels


@lru_cache(maxsize=None)
def _standard_position_array(N: int) -> np.ndarray:
    """Read-only table with pos[i-1, j-1] = standard position of label (i, j)."""
    k, ell = _pair_levels(N).T - 1
    t = np.arange(2 * k.size, step=2)
    pos = np.empty((N, N), dtype=np.intp)
    pos[k, ell], pos[ell, k] = t, t + 1
    np.fill_diagonal(pos, np.arange(2 * k.size, N * N))
    pos.setflags(write=False)
    return pos


def _pair_index(k, ell, N: int):
    """Pair t of the levels (k, l), k < l, or of arrays of them; inverts :func:`_pair_levels`."""
    return _standard_position_array(N)[k - 1, ell - 1] // 2


@lru_cache(maxsize=None)
def _standard_flat_order(N: int) -> np.ndarray:
    """Read-only row-major index (i-1)*N + (j-1) of the label at each standard position."""
    order = np.empty(N * N, dtype=np.intp)
    order[_standard_position_array(N).ravel()] = np.arange(N * N)
    order.setflags(write=False)
    return order


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
        return (matrix_unit(i, j, N) + matrix_unit(j, i, N)) / math.sqrt(2.0)
    if i > j:
        return -1j * (matrix_unit(j, i, N) - matrix_unit(i, j, N)) / math.sqrt(2.0)
    return np.diag(_diagonal_block(N)[i - 1].conj())


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _threshold(tol: float, magnitude: float) -> float:
    """``tol * max(1, magnitude)``: the package's one tolerance rule (README, "Tolerances").

    A value held to ``magnitude`` passes when it is at most this; the sites
    are listed in the README, among them ``kernel._nullity``, whose SVD
    is real when ``max|Im A|`` passes held to ``max|A|``.  Other rules, to
    be merged into this one: absolute ``tol``
    (``digraph.induced_digraph``'s ``w > tol``, ``kernel.k_operator``'s
    overlap, ``superposition_block``), ``tol * s[0]`` (``kernel._nullity``'s rank)
    and ``max(tol, 1e-9)`` (``kernel.verify_invariant``'s unit-trace test).
    """
    return tol * max(1.0, magnitude)


def _psd_test(blocks, tol: float, spectrum: bool = True) -> tuple[bool, float | None, float]:
    """(psd_ok, offending_eigenvalue, max_abs) of the block-diagonal A made of ``blocks``.

    ``blocks`` are square matrices or stacks of them.  A is PSD when
    ``max|A - A*| <= _threshold(tol, max|A|)`` and no eigenvalue of
    ``(A + A*)/2`` is below ``-_threshold(tol, max eigenvalue)``; the
    lowest eigenvalue is offending when that test fails, Hermitian or not.
    The eigenvalue test is first made by :func:`_certified_psd`, one
    shifted Cholesky per block array with no spectrum; only where that
    does not certify A is the spectrum taken, so an offending eigenvalue
    always comes from it.  Without ``spectrum`` only the Hermitian test is
    made.  An A with a NaN or infinite entry fails before any arithmetic
    on it, so with no warning; so does one whose skew overflows.  Neither
    takes a spectrum.  An A whose entries reach the largest float is tested
    with no warning too (:func:`_hermitian_part`).  An empty A passes.
    """
    if all(b.size == 0 for b in blocks):
        return True, None, 0.0
    magnitude = max(float(np.abs(b).max()) for b in blocks)
    if not math.isfinite(magnitude):
        return False, None, magnitude
    with np.errstate(over="ignore", invalid="ignore"):  # a skew that overflows fails below
        skew = max(float(np.abs(b - b.conj().swapaxes(-1, -2)).max()) for b in blocks)
    if not math.isfinite(skew):
        return False, None, magnitude
    ok = skew <= _threshold(tol, magnitude)
    if not spectrum:
        return ok, None, magnitude
    hermitized = [_hermitian_part(b, magnitude) for b in blocks if b.size]
    if _certified_psd(hermitized, tol):
        return ok, None, magnitude
    evals = np.concatenate([np.linalg.eigvalsh(h).ravel() for h in hermitized])
    lowest = float(evals.min())
    if lowest >= -_threshold(tol, float(evals.max())):
        return ok, None, magnitude
    return False, lowest, magnitude


def _hermitian_part(b, magnitude: float):
    """``(b + b*) / 2`` of a square matrix or stack b with no entry above ``magnitude`` in modulus.

    Each part of ``b + b*`` is at most ``2 magnitude``, so the sum is taken
    first wherever that is finite, which keeps subnormal entries exact.
    Above half the largest float it would overflow, so each term is halved
    first; what that rounds away is below the rounding of the largest entry.
    """
    bh = b.conj().swapaxes(-1, -2)
    if magnitude <= np.finfo(np.float64).max / 2.0:
        return (b + bh) / 2.0
    return b / 2.0 + bh / 2.0


def _certified_psd(hermitized, tol: float) -> bool:
    """Whether a Cholesky factorization proves that :func:`_psd_test`'s eigenvalue test passes.

    ``hermitized`` are nonempty Hermitian matrices or stacks of them.  With
    ``d`` their largest diagonal entry, the shift is
    ``s = _threshold(tol, d) / 2``; since ``d`` is at most the largest
    eigenvalue, ``2 s`` is at most the test's threshold.  Each array is
    factored as ``h + s I`` by ``np.linalg.cholesky``, and ``True`` means
    every factorization succeeded.

    The guard: for an n x n block and unit roundoff ``u = eps / 2``, a
    computed factor R satisfies ``R* R = h + s I + E`` with
    ``|E| <= g |R*| |R|``, ``g = (n + 1) u / (1 - (n + 1) u)`` in real
    arithmetic (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., Thm 10.3); a complex product is accurate to ``sqrt(2) g_2``,
    not u (Lemma 3.5), which at most triples g.  So
    ``||E||_2 <= g ||R||_F^2 = g tr(R* R)``, at most about
    ``3 (n + 1) u tr(h + s I)``, and forming the shift adds at most
    ``u tr(h + s I)``: together at most ``2 (n + 1) eps tr(h + s I)``.
    The factorization is taken only where ``4 (n + 1) eps tr(h + s I) <= s``
    (never where the trace overflows),
    which holds that error to ``s / 2``.  A success then makes
    ``h + s I + E = R* R`` PSD, so h has no eigenvalue below ``-3 s / 2``,
    three quarters of the threshold; the quarter left covers the rounding
    of the spectrum that the fall-back would take.  At ``tol = 0`` the
    shift is 0 and no factorization is taken.  ``False`` says nothing of
    the spectrum.
    """
    d = max(float(h.diagonal(axis1=-2, axis2=-1).real.max()) for h in hermitized)
    s = _threshold(tol, d) / 2.0
    if not 0.0 < s < math.inf:
        return False
    eps = np.finfo(np.float64).eps
    for h in hermitized:
        n = h.shape[-1]
        with np.errstate(over="ignore"):  # a trace that overflows fails below
            trace = float(h.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1).max()) + n * s
        if not 4.0 * (n + 1) * eps * trace <= s:  # a NaN trace fails too
            return False
    try:
        for h in hermitized:
            np.linalg.cholesky(h + s * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def is_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is square and Hermitian by :func:`_psd_test`'s rule."""
    A = np.asarray(A)
    return A.ndim == 2 and A.shape[0] == A.shape[1] and _psd_test([A], tol, spectrum=False)[0]


def is_psd(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is square and passes :func:`_psd_test`."""
    A = np.asarray(A)
    return A.ndim == 2 and A.shape[0] == A.shape[1] and _psd_test([A], tol)[0]


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
def _diagonal_block(N: int) -> np.ndarray:
    """W's N x N diagonal-sector block ``W[R:, R:]``: row n is conj(diag(lam_nn)).

    By the closed form (Bertlmann and Krammer, *J. Phys. A* 41, 235303 (2008)),
    row n < N is ``1/sqrt(n(n+1))`` up to column n, then ``-n/sqrt(n(n+1))``,
    and row N is ``1/sqrt(N)``.  The division is complex: a real one would move
    ``-3/sqrt(12)`` in its last bit.
    """
    n = np.arange(1, N + 1)
    norms = np.sqrt(np.where(n < N, n * (n + 1), N).astype(np.float64))
    D = ((np.tri(N) - np.diag(n[:-1], 1)).astype(np.complex128) / norms[:, None]).conj()
    D.setflags(write=False)
    return D


def _butterfly(x: np.ndarray, y: np.ndarray) -> None:
    """(x, y) <- (x + y, x - y) in place, with no temporary of their size."""
    x += y
    y *= -2.0
    y += x


def _butterfly_scaled(x: np.ndarray, y: np.ndarray, u: np.ndarray) -> None:
    """(x, y) <- (u[0] (x + y), u[1] (x - y)) in place: the pair block ``diag(u) H2``."""
    _butterfly(x, y)
    x *= u[0]
    y *= u[1]


def _conjugate_by_w(A: np.ndarray, inverse: bool) -> np.ndarray:
    """Overwrite A with ``W A W*``, or with ``W* A W`` when ``inverse``.

    A is a writable complex N**2 x N**2 array.  The product is taken from
    the blocks of W in O(N^4) time, with no temporary of A's size.  The
    pair block factors as ``U = diag(u) H2``, with ``H2 = [[1, 1], [1, -1]]``
    and u the first column of U: each pair of rows is combined by H2 as a
    sum and a difference in place and scaled by u (or u*), and the last N
    rows are multiplied by the N x N diagonal-sector block of W; then the
    columns are multiplied by :func:`_times_w`.  The result equals the
    dense product up to rounding, for every A.  Returns A.
    """
    N = math.isqrt(A.shape[0])
    R = N * N - N
    u = pair_block_unitary()[:, 0]
    D = _diagonal_block(N)
    row_e, row_o = A[0:R:2], A[1:R:2]
    if inverse:  # rows by U* = H2 diag(u*)
        row_e *= u[0].conj()
        row_o *= u[1].conj()
        _butterfly(row_e, row_o)
        A[R:] = D.conj().T @ A[R:]
    else:  # rows by U = diag(u) H2
        _butterfly_scaled(row_e, row_o, u)
        A[R:] = D @ A[R:]
    return _times_w(A, adjoint=not inverse)


def _times_w(A: np.ndarray, adjoint: bool) -> np.ndarray:
    """Overwrite A with ``A W``, or with ``A W*`` when ``adjoint``; returns A.

    A is a writable complex array with N**2 columns, in the label order.
    Each pair of columns is combined by H2 in place, scaled by u before
    (``A W``) or by u* after (``A W*``), and the last N columns are
    multiplied by the diagonal-sector block of W (see
    :func:`_conjugate_by_w`): O(N^2) per row.  A row holding ``v^H``, for
    Gell-Mann coordinates v, becomes ``(W* v)^H``: the conjugated standard
    coordinates of the matrix ``sum_q v_q lam_q``.
    """
    N = math.isqrt(A.shape[1])
    R = N * N - N
    u = pair_block_unitary()[:, 0]
    D = _diagonal_block(N)
    col_e, col_o = A[:, 0:R:2], A[:, 1:R:2]
    if adjoint:  # by U* = H2 diag(u*)
        _butterfly_scaled(col_e, col_o, u.conj())
        A[:, R:] = A[:, R:] @ D.conj().T
    else:  # by U = diag(u) H2
        col_e *= u[0]
        col_o *= u[1]
        _butterfly(col_e, col_o)
        A[:, R:] = A[:, R:] @ D
    return A


def _conjugate_pattern_by_w(pairs: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of ``C = W gamma W*`` for a gamma with the pair-block zero pattern.

    ``pairs`` are gamma's P 2x2 pair blocks, a (P, 2, 2) array, and ``G`` its
    N x N diagonal-sector block.  W is block diagonal over the same blocks,
    so C is 0 outside its pair blocks and its diagonal-sector block
    ``C[R:, R:]``.  Returns both, as a new (P, 2, 2) array and a new N x N
    array, in ``O(N^3)``.  They are taken by the steps of
    :func:`_conjugate_by_w` restricted to the blocks, so every entry equals
    the one :func:`_conjugate_by_w` gives, bit for bit.
    """
    u = pair_block_unitary()[:, 0]
    pairs = pairs.copy()
    _butterfly_scaled(pairs[:, 0], pairs[:, 1], u)  # rows
    _butterfly_scaled(pairs[:, :, 0], pairs[:, :, 1], u.conj())  # columns
    D = _diagonal_block(G.shape[0])
    return pairs, (D @ G) @ D.conj().T


def _pair_blocks(M: np.ndarray, N: int) -> np.ndarray:
    """The 2x2 diagonal blocks of M's pair sector, as a (P, 2, 2) view of M.

    M is indexed by the label order (standard or Gell-Mann, which agree) or
    a leading part of it; its first R = N**2 - N rows and columns hold the
    P = R/2 pairs, block t at rows and columns 2t and 2t + 1.  A write
    through the view lands in M.
    """
    P = (N * N - N) // 2
    return np.einsum("tatb->tab", M[: 2 * P, : 2 * P].reshape(P, 2, P, 2))


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


@lru_cache(maxsize=None)
def pair_block_unitary() -> np.ndarray:
    """The 2x2 block of the basis change on one (i, j) pair.

    Rows (lam_ij, lam_ji), columns (E_ij, E_ji):
    ``U = [[1, 1], [i, -i]]/sqrt(2)``.
    """
    U = np.array([[1.0, 1.0], [1j, -1j]], dtype=np.complex128) / math.sqrt(2.0)
    U.setflags(write=False)
    return U
