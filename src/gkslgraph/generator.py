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
the identity row and column; :func:`validate` checks both, and
:func:`canonicalize` moves the identity row/column into the Hamiltonian,
yielding an equivalent generator with ``Gamma`` supported on the traceless
sector only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    DEFAULT_TOL,
    _gellmann_stack,
    _standard_flat_order,
    _standard_position_array,
    basis_change_matrix,
    gellmann_labels,
    is_hermitian,
    matrix_unit,
)

__all__ = [
    "GeneratorSpec",
    "GellMannSpec",
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


def _frozen_array(obj, value: np.ndarray, field: str) -> None:
    value = np.array(value, dtype=np.complex128, copy=True)
    value.setflags(write=False)
    object.__setattr__(obj, field, value)


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
        H = np.asarray(self.H, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        N = H.shape[0]
        if N < 1:
            raise ValueError("H must be at least 1x1")
        gamma = np.asarray(self.gamma, dtype=np.complex128)
        if gamma.shape != (N * N, N * N):
            raise ValueError(
                f"gamma must have shape {(N * N, N * N)} for N={N}, "
                f"got {gamma.shape}"
            )
        if not is_hermitian(H):
            raise ValueError("H must be Hermitian")
        _frozen_array(self, H, "H")
        _frozen_array(self, gamma, "gamma")

    @property
    def N(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class GellMannSpec:
    """A canonical generator over the traceless Gell-Mann sector.

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
        H = np.asarray(self.H, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        N = H.shape[0]
        if N < 1:
            raise ValueError("H must be at least 1x1")
        C = np.asarray(self.C, dtype=np.complex128)
        d = N * N - 1
        if C.shape != (d, d):
            raise ValueError(
                f"C must have shape {(d, d)} for N={N}, got {C.shape}"
            )
        if not is_hermitian(H):
            raise ValueError("H must be Hermitian")
        _frozen_array(self, H, "H")
        _frozen_array(self, C, "C")

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
    """
    N = spec.N
    W = basis_change_matrix(N)
    C = W @ spec.gamma @ W.conj().T
    B = C[:-1, :-1]

    offending: float | None = None
    if B.size == 0:
        psd_ok = True
    else:
        herm_ok = is_hermitian(B, tol)
        evals = np.linalg.eigvalsh((B + B.conj().T) / 2.0)
        eig_ok = float(evals.min()) >= -tol * max(1.0, float(evals.max()))
        psd_ok = herm_ok and eig_ok
        if not eig_ok:
            offending = float(evals.min())

    witness: tuple[int, int] | None = None
    mismatch = np.abs(C[-1, :-1].real - C[:-1, -1].real)
    if mismatch.size == 0:
        trace_ok = True
    else:
        scale_c = max(1.0, float(np.abs(C).max()))
        trace_ok = float(mismatch.max()) <= tol * scale_c
        if not trace_ok:
            witness = gellmann_labels(N)[int(mismatch.argmax())]

    return ValidationReport(
        psd_on_traceless=psd_ok,
        trace_condition=trace_ok,
        offending_eigenvalue=offending,
        trace_witness=witness,
    )


def canonicalize(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> GeneratorSpec:
    """Equivalent generator with the identity row/column of C removed.

    Writing ``C = W gamma W*``, the identity row and column of C act on
    states purely as a commutator, so they can be absorbed into the
    Hamiltonian: with ``c_q = Im(C[-1, q] - C[q, -1]) / (2 sqrt(N))`` the
    new Hamiltonian is ``H + sum_q c_q lam_q`` (then shifted traceless),
    and the returned coefficient matrix is C with its last row and column
    zeroed, conjugated back to the standard ordering.  The generator's
    action is unchanged; the result satisfies ``Gamma'(I) = 0`` and maps
    into traceless matrices exactly.

    Raises ``ValueError`` if the spec does not validate.
    """
    report = validate(spec, tol)
    if not report.verdict:
        raise ValueError(f"cannot canonicalize an invalid generator: {report.summary}")
    N = spec.N
    W = basis_change_matrix(N)
    C = W @ spec.gamma @ W.conj().T

    lam = _gellmann_stack(N)
    coeffs = (C[-1, :-1] - C[:-1, -1]).imag / (2.0 * math.sqrt(N))
    H_new = spec.H + np.einsum("q,qab->ab", coeffs, lam[:-1])
    H_new = H_new - (np.trace(H_new).real / N) * np.eye(N)
    H_new = (H_new + H_new.conj().T) / 2.0

    C[-1, :] = 0.0
    C[:, -1] = 0.0
    gamma_new = W.conj().T @ C @ W
    return GeneratorSpec(H=H_new, gamma=gamma_new)


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
    scale_g = tol * max(1.0, float(np.abs(G).max()))

    resid = np.array(G[:R, :R], copy=True)
    for t in range(0, R, 2):
        resid[t : t + 2, t : t + 2] = 0.0
    violations = [float(np.abs(resid).max()) if resid.size else 0.0]
    violations.append(float(np.abs(G[:R, R:]).max()) if R else 0.0)
    violations.append(float(np.abs(G[R:, :R]).max()) if R else 0.0)
    max_block = max(violations)

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
    canonicalized first (raising ``ValueError`` if it does not validate).
    """
    canon = canonicalize(spec, tol)
    N = canon.N
    W = basis_change_matrix(N)
    C = (W @ canon.gamma @ W.conj().T)[:-1, :-1]
    return GellMannSpec(H=canon.H, C=C)


def gellmann_to_standard(gm: GellMannSpec) -> GeneratorSpec:
    """Embed the traceless block as a full coefficient matrix over labels."""
    N = gm.N
    C_full = np.zeros((N * N, N * N), dtype=np.complex128)
    C_full[:-1, :-1] = gm.C
    W = basis_change_matrix(N)
    gamma = W.conj().T @ C_full @ W
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
