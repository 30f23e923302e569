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

from dataclasses import dataclass

import numpy as np

from .basis import (
    DEFAULT_TOL,
    _conjugate_by_w,
    _hermitian_margin,
    _max_off_block,
    _pair_blocks,
    _standard_flat_order,
    _standard_position_array,
    from_standard_coordinates,
    gellmann_labels,
    is_hermitian,
    matrix_unit,
)

__all__ = [
    "GeneratorSpec",
    "GellMannSpec",
    "InvalidGeneratorError",
    "ValidationReport",
    "PairBlockClassification",
    "apply_generator",
    "lindblad_dissipator",
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


def _store_checked(spec, name: str, dropped: int) -> None:
    """Check and store ``spec.H`` and the coefficient matrix ``spec.<name>``.

    H must be square, non-empty and Hermitian; the coefficient matrix must
    be d x d with ``d = N**2 - dropped`` (``dropped`` identity labels).
    """
    H = _frozen_array(spec.H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    N = H.shape[0]
    if N < 1:
        raise ValueError("H must be at least 1x1")
    M = _frozen_array(getattr(spec, name))
    d = N * N - dropped
    if M.shape != (d, d):
        raise ValueError(f"{name} must have shape {(d, d)} for N={N}, got {M.shape}")
    if not is_hermitian(H):
        raise ValueError("H must be Hermitian")
    object.__setattr__(spec, "H", H)
    object.__setattr__(spec, name, M)


@dataclass(frozen=True)
class GeneratorSpec:
    """A GKSL generator in the standard-basis parametrization.

    Attributes
    ----------
    H : (N, N) complex ndarray
        Hermitian part (checked on construction).
    gamma : (N**2, N**2) complex ndarray
        Coefficient matrix over standard-ordering labels.
    """

    H: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        _store_checked(self, "gamma", 0)

    @property
    def N(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class GellMannSpec:
    """A canonical generator over the traceless Gell-Mann sector.

    The form that :func:`standard_to_gellmann` returns and the K operator
    of ``kernel.k_operator`` takes; every analysis routine reads a
    :class:`GeneratorSpec`, so convert with :func:`gellmann_to_standard`.

    Attributes
    ----------
    H : (N, N) complex ndarray
        Hermitian part.
    C : (N**2 - 1, N**2 - 1) complex ndarray
        Coefficient matrix over the traceless Gell-Mann labels (the
        identity row and column are implicitly zero).
    """

    H: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        _store_checked(self, "C", 1)

    @property
    def N(self) -> int:
        return self.H.shape[0]


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
    scale-adjusted tolerances they are held to, ``tol * max(1, max|gamma|)``
    and ``tol * max(1, max|H|)``.
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


def lindblad_dissipator(
    i: int, j: int, k: int, ell: int, rho: np.ndarray
) -> np.ndarray:
    """The elementary dissipator D_{ijkl}(rho) for matrix-unit jump pairs.

    ``D_{ijkl}(rho) = 2 E_ij rho E_lk - rho E_lk E_ij - E_lk E_ij rho``.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    N = rho.shape[0]
    if rho.shape != (N, N):
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    A = matrix_unit(i, j, N)
    Bc = matrix_unit(ell, k, N)
    return 2.0 * (A @ rho @ Bc) - rho @ (Bc @ A) - (Bc @ A) @ rho


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
    """
    N = spec.N
    G = _gamma_tensor(spec)
    M = np.einsum("ijil->lj", G)
    H = spec.H
    eye = np.eye(N, dtype=np.complex128)
    T = G.transpose(0, 2, 1, 3).reshape(N * N, N * N)
    S_vec = (
        -1j * (np.kron(H, eye) - np.kron(eye, H.T))
        + T
        - 0.5 * (np.kron(M, eye) + np.kron(eye, M.T))
    )
    perm = _standard_flat_order(N)
    return S_vec[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# Validation and canonical form
# ---------------------------------------------------------------------------


def validate(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the two structural conditions for a legitimate GKSL generator.

    The coefficient matrix is conjugated into the Gell-Mann ordering,
    ``C = W gamma W*``.  The generator is legitimate iff

    1. the traceless block ``B = C[:-1, :-1]`` is positive semidefinite
       (Hermitian within tolerance and with no eigenvalue below
       ``-tol * max(1, max eigenvalue)``), and
    2. the identity row and column of C agree in real part,
       ``Re C[-1, q] == Re C[q, -1]`` for every traceless label q, which is
       equivalent to compatibility of the dissipative trace terms.

    Tolerances are adjusted by the largest magnitude entry involved.

    Cost: ``O(N^4)`` for the basis change (from the blocks of W), plus the
    spectrum of B.  When every entry of B outside its P 2x2 pair blocks and
    its (N-1) x (N-1) diagonal-sector block is exactly 0, as for a
    pair-block-diagonal gamma, the spectrum is taken block by block: one
    batched ``eigvalsh`` of the pairs and one of the diagonal-sector block,
    ``O(N^3)``.  Any other B gets one dense ``eigvalsh``, ``O(N^6)``.  The
    identity row and column are outside B, so they do not affect the choice.
    """
    N = spec.N
    C = _conjugate_by_w(np.array(spec.gamma), inverse=False)
    B = C[:-1, :-1]

    offending: float | None = None
    b_max = 0.0
    if B.size == 0:
        psd_ok = True
    else:
        if _max_off_block(B, N) == 0.0:
            R = N * N - N
            blocks = (_pair_blocks(B, N), B[R:, R:][None])
        else:
            blocks = (B[None],)
        skew, b_max = _hermitian_margin(blocks)
        herm_ok = skew <= tol * max(1.0, b_max)  # is_hermitian's rule on B
        evals = np.concatenate([
            np.linalg.eigvalsh((b + b.conj().swapaxes(1, 2)) / 2.0).ravel()
            for b in blocks
        ])
        eig_ok = float(evals.min()) >= -tol * max(1.0, float(evals.max()))
        psd_ok = herm_ok and eig_ok
        if not eig_ok:
            offending = float(evals.min())

    witness: tuple[int, int] | None = None
    mismatch = np.abs(C[-1, :-1].real - C[:-1, -1].real)
    if mismatch.size == 0:
        trace_ok = True
    else:
        # max|C|: B's maximum, then the identity row and column.
        c_max = max(b_max, np.abs(C[-1]).max(), np.abs(C[:, -1]).max())
        trace_ok = float(mismatch.max()) <= tol * max(1.0, float(c_max))
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
    The action is unchanged and ``Gamma'(I) = 0``.  ``O(N^3)`` past validation.

    Raises :class:`InvalidGeneratorError` if the spec does not validate.
    """
    _require_valid(spec, tol)
    N = spec.N
    R = N * N - N
    gamma = np.array(spec.gamma)
    from_diag = gamma[R:].sum(axis=0)  # at label (i, j): sum_n gamma[(n,n), (i,j)]
    into_diag = gamma[:, R:].sum(axis=1)  # at label (i, j): sum_n gamma[(i,j), (n,n)]
    M = from_standard_coordinates(from_diag, N).T - from_standard_coordinates(into_diag, N)
    H_new = spec.H + (M - M.conj().T) / (4j * N)
    H_new = H_new - (np.trace(H_new).real / N) * np.eye(N)
    H_new = (H_new + H_new.conj().T) / 2.0
    gamma[R:] -= from_diag / N
    gamma[:, R:] -= gamma[:, R:].mean(axis=1, keepdims=True)
    gamma.setflags(write=False)  # the spec keeps this array instead of a copy
    return GeneratorSpec(H=H_new, gamma=gamma)


# ---------------------------------------------------------------------------
# Structure predicates and constructors
# ---------------------------------------------------------------------------


def classify_pair_block_diagonal(
    spec: GeneratorSpec, tol: float = DEFAULT_TOL
) -> PairBlockClassification:
    """Test whether gamma is pair-block diagonal and H is diagonal.

    Pair-block diagonal means: no coupling between the off-diagonal and
    diagonal label sectors, and the off-diagonal sector reduced to its
    2x2 diagonal pair blocks.
    """
    N = spec.N
    R = N * N - N
    G = spec.gamma
    max_block = _max_off_block(G, N)
    # max|gamma| from the scan and the blocks it skips, with no N^4 temporary.
    g_max = np.max([
        max_block,
        np.abs(_pair_blocks(G, N)).max(initial=0.0),
        np.abs(G[R:, R:]).max(),
    ])
    scale_g = tol * max(1.0, float(g_max))

    H_off = spec.H - np.diag(np.diag(spec.H))
    max_h = float(np.abs(H_off).max()) if H_off.size else 0.0
    scale_h = tol * max(1.0, float(np.abs(spec.H).max()))

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

    Raises ``ValueError`` unless both amplitude vectors are normalized and
    a, b are nonzero.
    """
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
    scale = max(1.0, float(np.abs(spec.gamma).max()))
    return float(np.abs(resid).max()) <= tol * scale


# ---------------------------------------------------------------------------
# Gell-Mann sector representation
# ---------------------------------------------------------------------------


def standard_to_gellmann(
    spec: GeneratorSpec, tol: float = DEFAULT_TOL
) -> GellMannSpec:
    """Canonicalize, then truncate the coefficient matrix to the traceless block.

    The truncation is lossless only for canonical generators, so the spec is
    canonicalized first (raising :class:`InvalidGeneratorError` if it does not
    validate).
    """
    canon = canonicalize(spec, tol)
    C = _conjugate_by_w(np.array(canon.gamma), inverse=False)
    return GellMannSpec(H=canon.H, C=C[:-1, :-1])


def gellmann_to_standard(gm: GellMannSpec) -> GeneratorSpec:
    """Embed the traceless block as a full coefficient matrix over labels."""
    N = gm.N
    C_full = np.zeros((N * N, N * N), dtype=np.complex128)
    C_full[:-1, :-1] = gm.C
    gamma = _conjugate_by_w(C_full, inverse=True)
    gamma.setflags(write=False)  # the spec keeps this array instead of a copy
    return GeneratorSpec(H=gm.H, gamma=gamma)


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
