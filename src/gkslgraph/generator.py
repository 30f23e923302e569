"""GKSL generators: representation, validation, canonical form.

A generator is parametrized by a Hermitian matrix ``H`` and a coefficient
matrix ``Gamma`` over the standard basis ordering, acting as::

    L(rho) = -i[H, rho]
             + 1/2 * sum_{ijkl} Gamma[(i,j), (k,l)] *
               (2 E_ij rho E_lk - rho E_lk E_ij - E_lk E_ij rho)

where ``(i, j)`` runs over the standard ordering of matrix-unit labels.
This parametrization always produces a trace-preserving map; ``Gamma`` is
*not* required to be Hermitian or positive.  The map is a legitimate GKSL
generator (completely positive semigroup) exactly when the coefficient
matrix, re-expressed in the Gell-Mann basis, is positive semidefinite on
the traceless sector and satisfies a trace-compatibility condition between
the identity row and column; :func:`validate` checks both.  Jump operators
may have a trace: :func:`canonicalize` projects the identity direction
``v = (1/sqrt N) sum_n e_(n,n)`` out of ``Gamma`` on both sides and moves
what it carried into ``H``, all in the standard basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import (
    DEFAULT_TOL,
    _conjugate_by_w,
    _conjugate_pattern_by_w,
    _max_off_block,
    _pair_blocks,
    _pair_index,
    _pair_levels,
    _psd_test,
    _standard_flat_order,
    _standard_position_array,
    _threshold,
    from_standard_coordinates,
    gellmann_labels,
    is_hermitian,
)

__all__ = [
    "GeneratorSpec",
    "InvalidGeneratorError",
    "ValidationReport",
    "PairBlockClassification",
    "apply_generator",
    "gm_diag_dissipator_coeff",
    "superoperator",
    "validate",
    "canonicalize",
    "classify_pair_block_diagonal",
    "superposition_block",
    "identity_preserving",
    "standard_to_gellmann",
    "gellmann_to_standard",
]


def _frozen_array(value) -> np.ndarray:
    """``value`` as a read-only complex array, copied unless nothing can write to it.

    Kept without a copy: the array that the complex conversion made (from
    a list or an array of another dtype), a read-only array that owns its
    data, and a read-only view of a read-only array that owns its data (a
    view of a frozen buffer).
    """
    array = np.asarray(value, dtype=np.complex128)
    converted = array is not value and isinstance(value, (np.ndarray, list, tuple))
    owner = array if array.flags.owndata else array.base
    if not (converted and array.flags.owndata) and (
        array.flags.writeable
        or not isinstance(owner, np.ndarray)
        or not owner.flags.owndata
        or owner.flags.writeable
    ):
        array = array.copy()
    array.setflags(write=False)
    return array


def _checked_hamiltonian(value) -> np.ndarray:
    """``value`` as a read-only array, checked to be square, non-empty and Hermitian."""
    H = _frozen_array(value)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("H must be at least 1x1")
    if not is_hermitian(H):
        raise ValueError("H must be Hermitian")
    return H


@dataclass(frozen=True)
class _PairPattern:
    """gamma on the pair-block pattern: all that is nonzero in it.

    ``pairs[t]`` is gamma's 2x2 block over the labels ((k, l), (l, k)) of
    the t-th pair k < l in label order, and ``G`` its N x N diagonal-sector
    block ``gamma[R:, R:]``, ``R = N**2 - N``.  Passed as ``gamma`` to
    :class:`GeneratorSpec`, it is the whole of a spec that has no dense gamma.
    """

    pairs: np.ndarray  # (P, 2, 2), P = N(N-1)/2
    G: np.ndarray  # (N, N)


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """A GKSL generator in the standard-basis parametrization.

    Attributes
    ----------
    H : (N, N) complex ndarray
        Hermitian part (checked on construction).
    gamma : (N**2, N**2) complex ndarray
        Coefficient matrix over standard-ordering labels.

    A spec built with a :class:`_PairPattern` as ``gamma`` (one read from a
    ``"blocks"`` document, or the result of :func:`canonicalize` on the
    pattern) stores only that pattern data, ``O(N^2)`` numbers, and has the
    pair-block pattern by construction.  Its dense ``gamma`` is built from
    the pattern data on first read, once, read-only; only the dense
    readers (:func:`apply_generator`, :func:`superoperator` and so the
    oracle, dense output) read it.  Every
    reader on the pattern route reads :attr:`_pattern` instead, which a
    spec with a dense ``gamma`` takes from it on first use.  Specs compare
    and hash by identity, and ``repr`` shows H alone.
    """

    H: np.ndarray
    gamma: np.ndarray = field(repr=False)  # a repr that read it would build it

    def __post_init__(self) -> None:
        if isinstance(self.gamma, _PairPattern):
            _store_pattern(self)
            return
        H, gamma = _checked_hamiltonian(self.H), _frozen_array(self.gamma)
        N = H.shape[0]
        d = N * N
        if gamma.shape != (d, d):
            raise ValueError(f"gamma must have shape {(d, d)} for N={N}, got {gamma.shape}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "gamma", gamma)

    def __getattr__(self, name: str):
        # Reached only when the attribute is missing: the dense gamma of a
        # spec that stores the pattern data alone, built on first read.
        if name != "gamma" or "_pattern" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gamma = self.__dict__["gamma"] = _pattern_matrix(self._pattern, self.N)
        return gamma

    @property
    def N(self) -> int:
        return self.H.shape[0]

    @cached_property
    def _pattern(self) -> _PairPattern:
        """gamma's pair blocks and diagonal-sector block, read off a dense gamma on first use.

        The blocks are copied, so a canonical spec that takes them keeps no view of gamma.
        """
        N = self.N
        pairs = _pair_blocks(self.gamma, N).copy()
        pairs.setflags(write=False)
        return _PairPattern(pairs, self.gamma[-N:, -N:])

    @cached_property
    def _off_block_max(self) -> float:
        """Largest |gamma| off the pair-block pattern, from one N^4 scan made on first use."""
        return _max_off_block(self.gamma, self.N)

    @cached_property
    def _reports(self) -> dict[float, ValidationReport]:
        """:func:`validate`'s report per tolerance, each made on first use and kept."""
        return {}

    @cached_property
    def _on_pair_pattern(self) -> bool:
        """True iff gamma has the pair-block zero pattern exactly (no threshold).

        True by construction on a spec that stores the pattern data alone.
        On a dense gamma, a nonzero cross block ``gamma[:R, R:]`` or
        ``gamma[R:, :R]`` between the pair and diagonal sectors rules the
        pattern out in ``O(N^3)``; only a gamma without one is scanned
        (:attr:`_off_block_max`).
        """
        R = self.N * self.N - self.N
        G = self.gamma
        return not (G[:R, R:].any() or G[R:, :R].any()) and self._off_block_max == 0.0


def _store_pattern(spec: GeneratorSpec) -> None:
    """Check and store ``spec.H`` and the :class:`_PairPattern` passed as ``spec.gamma``.

    The spec keeps no ``gamma`` until one is read; it is recorded as having
    the exact pattern, with no scan.
    """
    pattern = spec.gamma
    H = _checked_hamiltonian(spec.H)
    N = H.shape[0]
    pairs, G = _frozen_array(pattern.pairs), _frozen_array(pattern.G)
    P = len(_pair_levels(N))
    if pairs.shape != (P, 2, 2) or G.shape != (N, N):
        raise ValueError(
            f"gamma's pair blocks and diagonal-sector block must have shapes "
            f"{(P, 2, 2)} and {(N, N)} for N={N}, got {pairs.shape} and {G.shape}"
        )
    object.__setattr__(spec, "H", H)
    del spec.__dict__["gamma"]
    spec.__dict__.update(
        _pattern=_PairPattern(pairs, G), _on_pair_pattern=True, _off_block_max=0.0
    )


def _pattern_matrix(pattern: _PairPattern, N: int) -> np.ndarray:
    """The dense, read-only N**2 x N**2 gamma that ``pattern`` describes."""
    gamma = np.zeros((N * N, N * N), dtype=np.complex128)
    _pair_blocks(gamma, N)[...] = pattern.pairs
    gamma[-N:, -N:] = pattern.G
    gamma.setflags(write=False)
    return gamma


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the two GKSL structure checks.

    ``offending_eigenvalue`` is the most negative eigenvalue of the
    (Hermitized) traceless block when the positivity check fails;
    ``trace_witness`` is the Gell-Mann label with the largest identity
    row/column mismatch when the trace check fails.
    """

    psd_on_traceless: bool
    trace_condition: bool
    offending_eigenvalue: float | None = None
    trace_witness: tuple[int, int] | None = None

    @property
    def verdict(self) -> bool:
        return self.psd_on_traceless and self.trace_condition

    @property
    def summary(self) -> str:
        """Both check outcomes, as quoted by every invalid-generator error."""
        return (
            f"psd_on_traceless={self.psd_on_traceless}, "
            f"trace_condition={self.trace_condition}"
        )


class InvalidGeneratorError(ValueError):
    """The generator failed :func:`validate`; ``report`` holds the outcome."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"generator failed validation ({report.summary})")
        self.report = report


@dataclass(frozen=True)
class PairBlockClassification:
    """Structural test for the pair-block-diagonal form.

    ``is_pair_block_diagonal`` holds when the coefficient matrix couples
    neither distinct off-diagonal pairs to each other nor the off-diagonal
    sector to the diagonal sector; ``h_diagonal`` holds when H is diagonal.
    The ``max_*`` fields report the largest violating magnitudes (zero when
    the respective test passes exactly), and the ``*_threshold`` fields the
    thresholds they are held to, scaled by ``max|gamma|`` and ``max|H|``
    (README, "Tolerances").  At tolerance 0 the classification is the exact
    rule: gamma has the pair-block zero pattern and H has no nonzero entry
    off its diagonal.
    """

    is_pair_block_diagonal: bool
    h_diagonal: bool
    max_block_violation: float
    max_h_violation: float
    block_threshold: float
    h_threshold: float


# ---------------------------------------------------------------------------
# Action of the generator
# ---------------------------------------------------------------------------


def _gamma_tensor(spec: GeneratorSpec) -> np.ndarray:
    """gamma re-indexed as a 4-tensor G[i-1, j-1, k-1, l-1] = gamma_{ijkl}."""
    pos = _standard_position_array(spec.N)
    return spec.gamma[pos[:, :, None, None], pos[None, None, :, :]]


def apply_generator(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """Evaluate L(rho).

    The dissipative part is contracted in one pass: with
    ``G[i,j,k,l] = gamma_{ijkl}``,

    * the jump term is ``J[i,k] = sum_{jl} G[i,j,k,l] rho[j,l]``;
    * the anticommutator uses ``M[l,j] = sum_i G[i,j,i,l]``,

    giving ``L(rho) = -i[H, rho] + J - (M rho + rho M)/2``.  The result is
    traceless for every input, by construction of the parametrization.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    N = spec.N
    if rho.shape != (N, N):
        raise ValueError(f"rho must have shape {(N, N)}, got {rho.shape}")
    G = _gamma_tensor(spec)
    J = np.einsum("ijkl,jl->ik", G, rho)
    M = np.einsum("ijil->lj", G)
    H = spec.H
    return -1j * (H @ rho - rho @ H) + J - 0.5 * (M @ rho + rho @ M)


def superoperator(spec: GeneratorSpec) -> np.ndarray:
    """Matrix of L on coordinate vectors in the standard ordering.

    Column q holds the standard coordinates of ``L(E_label_q)``.  Because
    the standard basis is Hilbert-Schmidt orthonormal, operator norms of
    functions of this matrix equal the corresponding norms on the space of
    matrices.

    Over row-major vec order, L's matrix is
    ``-i(H x I - I x H^T) + T - (M x I + I x M^T)/2``, with
    ``T[(i,k), (j,l)] = gamma_{ijkl}`` and ``M[l,j] = sum_i gamma_{ijil}``.
    T is one gather of gamma, straight into that order; the H and M terms
    are added in place on its two diagonal views ``k = l`` and ``i = j``,
    ``O(N^3)``, and where the views meet (``i = j``, ``k = l``) in the
    order of the expression above, so every entry equals that of the sum
    of the four Kronecker products.  One permutation takes it to the
    standard ordering.
    """
    N = spec.N
    pos = _standard_position_array(N)
    T = spec.gamma[pos[:, None, :, None], pos[None, :, None, :]]  # T[i, k, j, l]
    M = np.einsum("iijl->lj", T)
    H = spec.H
    both = np.einsum("ikik->ik", T).copy()
    rows = np.einsum("ikjk->ikj", T)  # k = l: H[i, j] and M[i, j]
    rows += -1j * H[:, None, :]
    rows -= 0.5 * M[:, None, :]
    cols = np.einsum("ikil->ikl", T)  # i = j: H[l, k] and M[l, k]
    cols += 1j * H.T
    cols -= 0.5 * M.T
    h, m = np.diagonal(H), np.diagonal(M)
    np.einsum("ikik->ik", T)[...] = (
        -1j * (h[:, None] - h) + both - 0.5 * (m[:, None] + m)
    )
    perm = _standard_flat_order(N)
    return T.reshape(N * N, N * N)[np.ix_(perm, perm)]


def _pair_block_table(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """L's blocks ``(laplacian, blocks)``, in ``O(N^2)`` and with no threshold.

    ``laplacian`` is ``Gam - diag(colsum Gam)``, ``Gam[i, j] = gamma[(i,j), (i,j)]``
    (the rate j -> i).  ``blocks[t]`` is L's 2x2 block over (E_kl, E_lk) for
    the levels (k, l) of pair t (``basis._pair_levels``): gamma's off the
    diagonal, and ``g_kl - i dh - m_kl``, ``g_lk + i dh - m_kl`` on it, with
    ``g_ab = gamma[(a,a), (b,b)]``, ``dh = h_k - h_l`` and ``m_kl`` the mean
    of Gam's column sums k and l.  With the pair-block pattern, L is the
    direct sum of ``laplacian`` and ``blocks``, both read-only.  Every
    number comes from the spec's pattern data, ``spec._pattern``, and H.
    """
    pairs, G = spec._pattern.pairs, spec._pattern.G
    k, ell = _pair_levels(spec.N).T - 1
    Gam = np.diag(np.diagonal(G))  # gamma's diagonal, at the label (i, j)
    Gam[k, ell], Gam[ell, k] = pairs[:, 0, 0], pairs[:, 1, 1]
    m = Gam.sum(axis=0)
    laplacian = Gam - np.diag(m)

    h = np.diag(spec.H)
    split = -1j * (h[k] - h[ell])
    mean_m = 0.5 * (m[k] + m[ell])
    blocks = pairs.copy()  # the off-diagonals stay
    blocks[:, 0, 0] = G[k, ell] + split - mean_m
    blocks[:, 1, 1] = G[ell, k] - split - mean_m
    for array in (laplacian, blocks):
        array.setflags(write=False)
    return laplacian, blocks


def _singularity_checks(
    spec: GeneratorSpec, k: int, ell: int, tol: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(value, threshold) of the two tests that make gamma's (k, l) pair block singular.

    Rate symmetry ``|b00 - b11|`` and ``|det b|`` of the block b, held to
    its magnitude ``m = max|b|`` and to ``m**2``.  Where ``m**2`` or
    ``|det b|`` overflows, the determinant test is taken on ``b / m``:
    ``|det(b / m)|`` held to ``tol``, so that both numbers are finite.
    """
    blk = spec._pattern.pairs[_pair_index(k, ell, spec.N)]
    m = float(np.abs(blk).max())
    symmetry = (abs(blk[0, 0] - blk[1, 1]), _threshold(tol, m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow takes the branch below
        det = abs(blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0])
    try:
        square = m**2
    except OverflowError:
        square = math.inf
    if math.isfinite(det) and math.isfinite(square):
        return symmetry, (det, _threshold(tol, square))
    b = blk / m  # m > 1 here: the test above, divided by m**2
    return symmetry, (abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]), tol)


# ---------------------------------------------------------------------------
# Validation and canonical form
# ---------------------------------------------------------------------------


def validate(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the two structural conditions for a legitimate GKSL generator.

    The coefficient matrix is conjugated into the Gell-Mann ordering,
    ``C = W gamma W*``.  The generator is legitimate iff

    1. the traceless block ``B = C[:-1, :-1]`` is positive semidefinite
       (``basis._psd_test``, the test of ``is_psd``), and
    2. the identity row and column of C agree in real part,
       ``Re C[-1, q] == Re C[q, -1]`` for every traceless label q, which is
       equivalent to compatibility of the dissipative trace terms; the
       mismatch is held to ``max|C|``.

    Both follow the package's one tolerance rule (README, "Tolerances").

    Cost: ``O(N^3)`` on a gamma with the exact pair-block pattern
    (``spec._on_pair_pattern``), which reads only the spec's pattern data
    (``spec._pattern``) and never a dense gamma.  W is block diagonal over
    the same blocks, so C is formed only on its 2x2 pair blocks and its
    N x N diagonal-sector block (its identity row and column are 0 on the
    pair labels), and B is tested block by block.  Any other gamma is
    conjugated whole by the blocks of W, ``O(N^4)``, and B is scanned: it
    is tested block by block if it has the pattern (rounding can give it
    one), else whole, ``O(N^6)``.  Either way B is first certified PSD by
    one Cholesky factorization of each block array, shifted by half the
    threshold, where that shift dominates the factorization's rounding
    (``basis._certified_psd``; never at ``tol = 0``).  A spectrum, by
    ``eigvalsh``, about four times the cost, is taken only where the
    certificate fails, and gives the offending eigenvalue.  Both routes
    feed the same entries of C to the same test.  A gamma with
    a NaN or infinite entry fails both checks, with no basis change: C is
    not defined.  The report is kept on the spec per ``tol``, so a repeated
    call costs a lookup.
    """
    report = spec._reports.get(tol)
    if report is None:
        report = spec._reports[tol] = _validation_report(spec, tol)
    return report


def _validation_report(spec: GeneratorSpec, tol: float) -> ValidationReport:
    """:func:`validate`'s report, computed."""
    N = spec.N
    R = N * N - N
    pattern = spec._pattern if spec._on_pair_pattern else None
    data = (spec.gamma,) if pattern is None else (pattern.pairs, pattern.G)
    if not all(np.isfinite(a).all() for a in data):
        return ValidationReport(psd_on_traceless=False, trace_condition=False)
    if pattern is not None:
        pairs, Cd = _conjugate_pattern_by_w(pattern.pairs, pattern.G)
        blocks = (pairs, Cd[:-1, :-1][None])
        row, col = np.zeros((2, N * N), dtype=np.complex128)  # C's identity row and column
        row[R:], col[R:] = Cd[-1], Cd[:, -1]
    else:
        C = _conjugate_by_w(np.array(spec.gamma), inverse=False)
        B = C[:-1, :-1]
        if _max_off_block(B, N) == 0.0:
            blocks = (_pair_blocks(B, N), B[R:, R:][None])
        else:
            blocks = (B[None],)
        row, col = C[-1], C[:, -1]
    psd_ok, offending, b_max = _psd_test(blocks, tol)

    witness: tuple[int, int] | None = None
    mismatch = np.abs(row[:-1].real - col[:-1].real)  # empty when N == 1
    # max|C|: B's maximum, then the identity row and column.
    c_max = max(b_max, np.abs(row).max(), np.abs(col).max())
    trace_ok = float(mismatch.max(initial=0.0)) <= _threshold(tol, float(c_max))
    if not trace_ok:
        witness = gellmann_labels(N)[int(mismatch.argmax())]

    return ValidationReport(
        psd_on_traceless=psd_ok,
        trace_condition=trace_ok,
        offending_eigenvalue=offending,
        trace_witness=witness,
    )


def _require_valid(spec: GeneratorSpec, tol: float) -> None:
    """Raise :class:`InvalidGeneratorError` unless the spec validates."""
    report = validate(spec, tol)
    if not report.verdict:
        raise InvalidGeneratorError(report)


def canonicalize(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> GeneratorSpec:
    """Equivalent generator whose jump operators are traceless.

    The identity direction is ``v = (1/sqrt N) sum_n e_(n,n)`` in standard
    coordinates; its row and column of ``C = W gamma W*`` act on states as a
    commutator.  So, with no basis change, ``gamma' = (I - v v^T) gamma
    (I - v v^T)``: each diagonal-sector row and column loses its mean over
    that sector, and the pair sector passes through unchanged.  What v
    carried moves into ``H' = H + (M - M*) / (4iN)``, shifted traceless and
    Hermitized, with ``M[i, j] = sum_n (gamma[(n,n), (j,i)] - gamma[(i,j), (n,n)])``.
    The action is unchanged and ``Gamma'(I) = 0``.

    On a gamma with the exact pair-block pattern (``spec._on_pair_pattern``,
    from either input format) only the diagonal-sector block G changes, so
    the work is ``O(N^2)`` past validation: M is diagonal, G's column sums
    minus its row sums, and ``G' = G - colsum(G)/N`` less its row means.  The
    result stores the pattern data alone (see :class:`GeneratorSpec`), with
    the pair blocks passed through without a copy.  Any other gamma is
    copied and projected whole, ``O(N^4)``.

    Raises :class:`InvalidGeneratorError` if the spec does not validate.
    """
    _require_valid(spec, tol)
    N = spec.N
    R = N * N - N
    if spec._on_pair_pattern:
        pattern = spec._pattern
        G = pattern.G
        # Only the diagonal labels of from_diag and into_diag are nonzero.
        from_diag, into_diag = np.zeros((2, N * N), dtype=np.complex128)
        from_diag[R:], into_diag[R:] = G.sum(axis=0), G.sum(axis=1)
        H_new = _shifted_hamiltonian(spec.H, from_diag, into_diag)
        G = G - from_diag[R:] / N
        G -= G.mean(axis=1, keepdims=True)
        G.setflags(write=False)  # the spec keeps this array instead of a copy
        return GeneratorSpec(H=H_new, gamma=_PairPattern(pattern.pairs, G))
    gamma = np.array(spec.gamma)
    from_diag = gamma[R:].sum(axis=0)  # at label (i, j): sum_n gamma[(n,n), (i,j)]
    into_diag = gamma[:, R:].sum(axis=1)  # at label (i, j): sum_n gamma[(i,j), (n,n)]
    H_new = _shifted_hamiltonian(spec.H, from_diag, into_diag)
    gamma[R:] -= from_diag / N
    gamma[:, R:] -= gamma[:, R:].mean(axis=1, keepdims=True)
    gamma.setflags(write=False)  # the spec keeps this array instead of a copy
    return GeneratorSpec(H=H_new, gamma=gamma)


def _shifted_hamiltonian(H: np.ndarray, from_diag: np.ndarray, into_diag: np.ndarray) -> np.ndarray:
    """:func:`canonicalize`'s ``H'``, from gamma's sums over the diagonal labels."""
    N = H.shape[0]
    M = from_standard_coordinates(from_diag, N).T - from_standard_coordinates(into_diag, N)
    H_new = H + (M - M.conj().T) / (4j * N)
    H_new = H_new - (np.trace(H_new).real / N) * np.eye(N)
    return (H_new + H_new.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Structure predicates and constructors
# ---------------------------------------------------------------------------


def classify_pair_block_diagonal(
    spec: GeneratorSpec, tol: float = DEFAULT_TOL
) -> PairBlockClassification:
    """Test whether gamma is pair-block diagonal and H is diagonal.

    Pair-block diagonal means: no coupling between the off-diagonal and
    diagonal label sectors, and the off-diagonal sector reduced to its
    2x2 diagonal pair blocks.  The violation is the spec's one scan of
    gamma, ``spec._off_block_max``; the thresholds follow the package's one
    tolerance rule (README, "Tolerances").
    """
    max_block = spec._off_block_max
    H_off = spec.H - np.diag(np.diag(spec.H))
    max_h = float(np.abs(H_off).max()) if H_off.size else 0.0
    scale_g = scale_h = 0.0  # the exact rule at tol 0, with no read of the blocks
    if tol:
        # max|gamma| from the scan and the blocks it skips, with no N^4 temporary.
        g_max = np.max([
            max_block,
            np.abs(spec._pattern.pairs).max(initial=0.0),
            np.abs(spec._pattern.G).max(),
        ])
        scale_g = _threshold(tol, float(g_max))
        scale_h = _threshold(tol, float(np.abs(spec.H).max()))

    return PairBlockClassification(
        is_pair_block_diagonal=max_block <= scale_g,
        h_diagonal=max_h <= scale_h,
        max_block_violation=max_block,
        max_h_violation=max_h,
        block_threshold=scale_g,
        h_threshold=scale_h,
    )


def superposition_block(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    rate: float,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """2x2 pair block of a decay channel |target><source| between superpositions.

    For a jump operator ``sqrt(rate) |phi><psi|`` with source
    ``|psi> = a|k> + b|l>`` and target ``|phi> = c|k> + d|l>`` supported on
    a single index pair, the resulting coefficient block over the labels
    ((k, l), (l, k)) is ``rate * u u*`` with ``u = (c/b, d/a)`` — Hermitian,
    positive semidefinite, rank one.

    Raises ``ValueError`` unless both amplitude vectors are normalized,
    a, b are nonzero and ``rate`` is finite and non-negative.
    """
    if not (np.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and non-negative, got {rate}")
    for name, z in (("a", a), ("b", b)):
        if abs(z) <= tol:
            raise ValueError(f"source amplitude {name} must be nonzero")
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > tol:
        raise ValueError("source amplitudes must satisfy |a|^2 + |b|^2 = 1")
    if abs(abs(c) ** 2 + abs(d) ** 2 - 1.0) > tol:
        raise ValueError("target amplitudes must satisfy |c|^2 + |d|^2 = 1")
    u = np.array([c / b, d / a], dtype=np.complex128)
    return rate * np.outer(u, u.conj())


def identity_preserving(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> bool:
    """True iff L(I) = 0 within tolerance (scale-adjusted by gamma)."""
    N = spec.N
    resid = apply_generator(spec, np.eye(N, dtype=np.complex128))
    return float(np.abs(resid).max()) <= _threshold(tol, float(np.abs(spec.gamma).max()))


# ---------------------------------------------------------------------------
# Gell-Mann sector representation
# ---------------------------------------------------------------------------


def standard_to_gellmann(
    spec: GeneratorSpec, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """``(H, C)``: the canonical H and coefficient matrix over the traceless Gell-Mann labels.

    C is ``W gamma W*`` of the canonical form without its identity row and
    column, which are zero.  The truncation is lossless only for canonical
    generators, so the spec is canonicalized first (raising
    :class:`InvalidGeneratorError` if it does not validate), and
    ``gellmann_to_standard(*standard_to_gellmann(spec))`` gives the same
    generator.
    """
    canon = canonicalize(spec, tol)
    C = _conjugate_by_w(np.array(canon.gamma), inverse=False)
    return canon.H, C[:-1, :-1]


def gellmann_to_standard(H, C) -> GeneratorSpec:
    """The generator whose coefficient matrix over the traceless Gell-Mann labels is C.

    H must be square, non-empty and Hermitian, and C ``(N**2 - 1) x (N**2 - 1)``;
    C is embedded with a zero identity row and column and conjugated back
    to the standard labels.
    """
    H = _checked_hamiltonian(H)
    N = H.shape[0]
    C = np.asarray(C, dtype=np.complex128)
    d = N * N - 1
    if C.shape != (d, d):
        raise ValueError(f"C must have shape {(d, d)} for N={N}, got {C.shape}")
    C_full = np.zeros((N * N, N * N), dtype=np.complex128)
    C_full[:-1, :-1] = C
    gamma = _conjugate_by_w(C_full, inverse=True)
    gamma.setflags(write=False)  # the spec keeps this array instead of a copy
    return GeneratorSpec(H=H, gamma=gamma)


# ---------------------------------------------------------------------------
# Diagonal Gell-Mann dissipator spectrum
# ---------------------------------------------------------------------------


def gm_diag_dissipator_coeff(n: int, k: int, ell: int, N: int) -> float:
    """Eigenvalue of the lam_nn dissipator on the off-diagonal matrix lam_kl.

    For diagonal A, ``2 A lam_kl A - lam_kl A^2 - A^2 lam_kl`` equals
    ``-(a_k - a_l)^2 lam_kl`` where a_m are the diagonal entries of A.
    With A = lam_nn this evaluates piecewise (lo = min(k, l), hi = max):

    * ``-n/(n+1)``      when ``n == lo - 1`` (the -n entry meets a zero);
    * ``-1/(n(n+1))``   when ``lo <= n <= hi - 2`` (a +1 entry meets a zero);
    * ``-(n+1)/n``      when ``n == hi - 1`` (a +1 entry meets the -n entry);
    * ``0``             otherwise (both entries equal).
    """
    if not (1 <= n <= N - 1):
        raise ValueError(f"diagonal label n={n} out of range for N={N}")
    if not (1 <= k <= N and 1 <= ell <= N) or k == ell:
        raise ValueError(f"off-diagonal label ({k}, {ell}) invalid for N={N}")
    lo, hi = min(k, ell), max(k, ell)
    if n == lo - 1:
        return -n / (n + 1)
    if lo <= n <= hi - 2:
        return -1.0 / (n * (n + 1))
    if n == hi - 1:
        return -(n + 1) / n
    return 0.0
