"""Invariant-state structure: kernel bases, block spectra, dual bounds.

For generators whose coefficient matrix is pair-block diagonal and whose
Hamiltonian is diagonal (after canonicalization), the kernel of L splits
into a diagonal sector — stationary populations of the induced digraph,
one per terminal SCC — and independent 2x2 blocks over the off-diagonal
pairs (E_kl, E_lk).  Only two kinds of pair can carry kernel elements:
a pair of sinks (up to two elements) and a terminal 2-cycle (up to one),
both terminal SCCs of the induced digraph.  ``full_kernel`` reads these
pairs directly off the canonical digraph's terminal components, testing a
2-cycle's block once; ``brute_force_kernel`` computes the same space
numerically from the superoperator and serves as an independent cross-check.
gamma's own numbers are read from the spec's pattern data, ``spec._pattern``,
and L's blocks from ``generator._pair_block_table``; this module never indexes
a dense gamma.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .basis import (
    DEFAULT_TOL,
    _conjugate_by_w,
    _pair_index,
    _pair_levels,
    _threshold,
    _times_w,
    from_standard_coordinates,
    is_psd,
    matrix_unit,
    to_standard_coordinates,
    gellmann_labels,
)
from .digraph import (
    _sinks_and_two_cycles,
    induced_digraph,
    tscc_stationary_vectors,
    undirected_components,
)
from .generator import (
    GeneratorSpec,
    InvalidGeneratorError,
    PairBlockClassification,
    _pair_block_table,
    _require_valid,
    _singularity_checks,
    canonicalize,
    classify_pair_block_diagonal,
    gellmann_to_standard,
    identity_preserving,
    standard_to_gellmann,
    superoperator,
    validate,
)

__all__ = [
    "PreconditionError",
    "EigenPair",
    "KernelElement",
    "KernelBasis",
    "KOperatorSpec",
    "ConsistencyReport",
    "EVOLUTION_DRIFT_TOL",
    "GENERATOR_RESIDUAL_TOL",
    "KERNEL_CONTAINMENT_TOL",
    "block_eigenpairs",
    "full_kernel",
    "brute_force_kernel",
    "k_operator",
    "kernel_containment_check",
    "consistency_and_bound",
    "verify_invariant",
]

#: Max 2-norm drift of exp(tL) applied to a claimed invariant state.
EVOLUTION_DRIFT_TOL = 1e-7
#: Max Frobenius norm of L(rho) for a claimed invariant state.
GENERATOR_RESIDUAL_TOL = 1e-9
#: Max residual when checking oracle kernel elements against ker K.
KERNEL_CONTAINMENT_TOL = 1e-7


class PreconditionError(ValueError):
    """A structural hypothesis of an analytic routine does not hold."""


@dataclass
class EigenPair:
    """One eigenvalue/eigenvector of L restricted to a pair block."""

    mu: complex
    matrix: np.ndarray
    branch: str  # "plus" or "minus"


@dataclass
class KernelElement:
    """One kernel basis element with its structural origin.

    ``tag`` is "diagonal", "sink-pair", "singular-2-sink", or "oracle";
    ``support`` names the levels carrying the element (None for oracle
    elements, which are not localized).
    """

    matrix: np.ndarray
    tag: str
    support: tuple[int, ...] | None = None


@dataclass
class KernelBasis:
    elements: tuple[KernelElement, ...]
    method: str  # "analytic" or "oracle"
    diagnostics: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.elements)


@dataclass
class KOperatorSpec:
    """Diagonal 0/1 coefficient operator bounding the dissipative part below.

    ``K`` is a coefficient matrix over the traceless Gell-Mann labels, as
    ``standard_to_gellmann`` gives C: a 0/1 diagonal with a 1 on each label
    orthogonal to ker C; with a zero H, ``gellmann_to_standard`` turns it
    into a generator.  ``epsilon`` is the smallest positive eigenvalue of
    the Hermitized C, so that C - epsilon*K >= 0; ``labels`` lists the
    Gell-Mann labels on which K acts as the identity.
    """

    K: np.ndarray
    epsilon: float
    labels: tuple[tuple[int, int], ...]


@dataclass
class ConsistencyReport:
    """Hamiltonian consistency across undirected graph components.

    When H has no matrix elements between distinct undirected components
    of the induced digraph, each component projection is conserved and
    the component count lower-bounds the kernel dimension.
    """

    consistent: bool
    lower_bound: int | None
    nullity: int
    projection_check: bool
    components: tuple[tuple[int, ...], ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Preparation pipeline
# ---------------------------------------------------------------------------


def _require_pair_block_diagonal(
    spec: GeneratorSpec, tol: float, qualifier: str
) -> PairBlockClassification:
    """PreconditionError unless gamma is pair-block diagonal and H diagonal.

    ``qualifier`` prefixes the matrix names in the message.
    """
    cls = classify_pair_block_diagonal(spec, tol)
    if not cls.is_pair_block_diagonal:
        raise PreconditionError(
            f"{qualifier}coefficient matrix is not pair-block diagonal "
            f"(max off-block magnitude {cls.max_block_violation:.3e})"
        )
    if not cls.h_diagonal:
        raise PreconditionError(
            f"{qualifier}Hamiltonian is not diagonal "
            f"(max off-diagonal magnitude {cls.max_h_violation:.3e})"
        )
    return cls


def _ordered_pair(pair: tuple[int, int], N: int) -> tuple[int, int]:
    """The level pair as (k, l) with k < l; ValueError if it is not a pair."""
    k, ell = pair
    if not (1 <= k <= N and 1 <= ell <= N and k != ell):
        raise ValueError(f"invalid level pair ({k}, {ell}) for N={N}")
    return min(k, ell), max(k, ell)


# ---------------------------------------------------------------------------
# Pair blocks: spectrum
# ---------------------------------------------------------------------------


def _unit_pair_matrix(x: complex, y: complex, k: int, ell: int, N: int) -> np.ndarray:
    """x*E_kl + y*E_lk, normalized to unit HS norm with a pinned phase."""
    norm = math.hypot(abs(x), abs(y))
    x, y = x / norm, y / norm
    anchor = x if abs(x) > DEFAULT_TOL else y
    phase = anchor.conjugate() / abs(anchor)
    x, y = x * phase, y * phase
    return x * matrix_unit(k, ell, N) + y * matrix_unit(ell, k, N)


def block_eigenpairs(
    spec: GeneratorSpec, pair: tuple[int, int], tol: float = DEFAULT_TOL
) -> tuple[EigenPair, EigenPair]:
    """Eigenvalues and eigenvectors of L on the span of (E_kl, E_lk).

    Requires a pair-block-diagonal coefficient matrix and diagonal H
    (PreconditionError otherwise); the spec need not be canonical or even
    valid — the block action is c*I + [[D, p], [q, -D]] regardless, with
    eigenvalues ``mu = c +- sqrt(D**2 + p*q)`` from L's block of the pair,
    read off :func:`generator._pair_block_table`.  ``s`` is the principal
    root of ``D*D + p*q``, except where it is imaginary up to rounding
    (``|Re s| <= 4 eps |s|``, an oscillating block): there "plus" is the
    root with ``Im s >= 0``, so the sign of a rounding-level imaginary part
    of ``D*D + p*q`` does not pick it.

    Eigenvectors are chosen as the largest of the three algebraically
    equivalent closed forms (p, s - D), (D + s, q), and their sum, which
    stays well-conditioned when individual forms degenerate; for a scalar
    block the pair (E_kl, E_lk) itself is returned.  Matrices are unit HS
    norm with the leading coefficient phased real-positive.
    """
    _require_pair_block_diagonal(spec, tol, "")
    N = spec.N
    k, ell = _ordered_pair(pair, N)
    _, blocks = _pair_block_table(spec)
    c, A0, _ = _pair_block_split(blocks[_pair_index(k, ell, N)][None])
    c, D, p, q = c[0], A0[0, 0, 0], A0[0, 0, 1], A0[0, 1, 0]
    s = np.sqrt(complex(D * D + p * q))
    if abs(s.real) <= 4 * np.finfo(float).eps * abs(s) and s.imag < 0:
        s = -s  # an oscillating block: "plus" is the root with Im s >= 0

    pairs = []
    for branch, sign in (("plus", 1.0), ("minus", -1.0)):
        ss = sign * s
        candidates = [(p + D + ss, q - D + ss), (p, ss - D), (D + ss, q)]
        best = max(candidates, key=lambda v: math.hypot(abs(v[0]), abs(v[1])))
        scale0 = max(abs(D), abs(p), abs(q), abs(s))
        if scale0 <= _threshold(tol, abs(c)):
            best = (1.0, 0.0) if branch == "plus" else (0.0, 1.0)
        matrix = _unit_pair_matrix(best[0], best[1], k, ell, N)
        pairs.append(EigenPair(mu=complex(c + ss), matrix=matrix, branch=branch))
    return pairs[0], pairs[1]


# ---------------------------------------------------------------------------
# Pair blocks: kernel
# ---------------------------------------------------------------------------


def _margin_notes(
    notes: list[str], label: str, value: float, threshold: float
) -> bool:
    """Record near-threshold outcomes; return whether the condition holds.

    A condition that holds at a zero threshold holds exactly, not narrowly.
    """
    ok = value <= threshold
    if threshold < value <= 10.0 * threshold:
        notes.append(
            f"{label} narrowly failed ({value:.3e} vs threshold {threshold:.3e})"
        )
    elif threshold / 10.0 <= value <= threshold and threshold > 0.0:
        notes.append(
            f"{label} held narrowly ({value:.3e} vs threshold {threshold:.3e})"
        )
    return ok


def _block_analysis(
    canon: GeneratorSpec, cls: PairBlockClassification, tol: float, k: int, ell: int, two_sink: bool
) -> tuple[list[KernelElement], list[str]]:
    """Kernel contribution of a pair of sinks, or of a terminal 2-cycle.

    ``(k, ell)``, ``k < ell``, is one of the pairs that :func:`full_kernel`
    visits; ``two_sink`` says which kind it is.  Every number is read from
    the canonical spec's H and its pattern data, ``canon._pattern``: the
    pair's block and the block G; ``cls``, canon's classification, holds
    the thresholds they are held to.
    """
    N, H, G = canon.N, canon.H, canon._pattern.G
    a, b = k - 1, ell - 1
    notes: list[str] = []
    where = f"pair ({k}, {ell})"

    h_ok = _margin_notes(
        notes, f"{where}: level splitting |h_k - h_l|",
        abs(H[a, a].real - H[b, b].real),
        cls.h_threshold,
    )
    scale_g = cls.block_threshold
    g_ok = True
    for label, value in (
        ("dephasing match |g_kk - g_ll|", G[a, a] - G[b, b]),
        ("cross term match |g_kkll - g_kk|", G[a, b] - G[a, a]),
        ("cross term match |g_llkk - g_kk|", G[b, a] - G[a, a]),
    ):
        g_ok = _margin_notes(notes, f"{where}: {label}", abs(value), scale_g) and g_ok

    if not two_sink:
        if not (h_ok and g_ok):
            return [], notes
        return [
            KernelElement(matrix=matrix_unit(a, b, N), tag="sink-pair", support=(k, ell))
            for a, b in ((k, ell), (ell, k))
        ], notes

    # Terminal 2-cycle: needs a symmetric singular block on top of the
    # shared conditions.
    symmetry, singularity = _singularity_checks(canon, k, ell, tol)
    sym_ok = _margin_notes(notes, f"{where}: rate symmetry |g_kl - g_lk|", *symmetry)
    det_ok = _margin_notes(notes, f"{where}: block singularity |det|", *singularity)
    if not (sym_ok and det_ok and h_ok and g_ok):
        return [], notes
    blk = canon._pattern.pairs[_pair_index(k, ell, N)]
    gbar = 0.5 * (float(blk[0, 0].real) + float(blk[1, 1].real))
    v = _unit_pair_matrix(blk[0, 1], gbar, k, ell, N)
    return [KernelElement(matrix=v, tag="singular-2-sink", support=(k, ell))], notes


# ---------------------------------------------------------------------------
# Full kernel, analytic and oracle
# ---------------------------------------------------------------------------


def full_kernel(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Exact kernel basis of L from graph structure and pair blocks.

    Validates and canonicalizes, requires the canonical form pair-block
    diagonal with diagonal H (PreconditionError otherwise), and induces
    its digraph once.  The elements are the diagonal stationary elements,
    one per terminal SCC, followed by the elements of each pair of sinks
    and each terminal 2-cycle, read off the terminal components, in sorted
    pair order; no other pair block is visited.  Diagnostics report
    conditions that held or failed within a decade of the tolerance.
    """
    report = validate(spec, tol)
    if not report.verdict:
        raise PreconditionError(str(InvalidGeneratorError(report)))
    canon = canonicalize(spec, tol)
    cls = _require_pair_block_diagonal(canon, tol, "canonicalized ")
    graph = induced_digraph(canon, tol)
    elements = [
        KernelElement(np.diag(sv.rho).astype(np.complex128), "diagonal", sv.component)
        for sv in tscc_stationary_vectors(graph)
    ]
    # The pairs (k, l), k < l, whose block can be singular, each mapped to
    # whether it is a terminal 2-cycle rather than a pair of sinks.
    sinks, two_cycles = _sinks_and_two_cycles(graph)
    pairs = dict.fromkeys(combinations(sinks, 2), False)
    pairs.update(dict.fromkeys(two_cycles, True))
    diagnostics: list[str] = []
    for (k, ell), two_sink in sorted(pairs.items()):
        els, notes = _block_analysis(canon, cls, tol, k, ell, two_sink)
        elements.extend(els)
        diagnostics.extend(notes)
    return KernelBasis(
        elements=tuple(elements), method="analytic", diagnostics=tuple(diagnostics)
    )


def brute_force_kernel(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Kernel basis from the singular values of the superoperator (the numeric oracle).

    The nullity is that of L's matrix over the Gell-Mann basis, real when L
    preserves Hermiticity, by the oracle's rank rule, and the null vectors
    come from one bordered solve, or from a full SVD where that solve is
    not accurate (:func:`_null_space`).  Each null vector v, in Gell-Mann
    coordinates, is the element ``sum_q v_q lam_q``, whose standard
    coordinates ``W* v`` come from :func:`basis._times_w`.  The elements are
    HS-orthonormal, Hermitian when the SVD is real, and carry no structural
    tags; the first has a positive trace, unless the full SVD gave it, so a
    one-dimensional kernel of a valid generator is its stationary state
    scaled to unit HS norm.
    """
    rows = _times_w(_null_space(superoperator(spec), tol).astype(np.complex128), adjoint=False)
    elements = tuple(
        KernelElement(matrix=from_standard_coordinates(row, spec.N), tag="oracle", support=None)
        for row in rows.conj()
    )
    return KernelBasis(elements=elements, method="oracle")


#: A bordered solve's null vectors Q are accepted when
#: ``|A Q|_F <= _NULL_RESIDUAL_FACTOR * n * eps * s[0] * sqrt(d)``.
_NULL_RESIDUAL_FACTOR = 10.0


def _nullity(
    S: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
    """``(A, s, d, vh)``: L's matrix over the Gell-Mann basis, its singular values and nullity.

    S is L's writable matrix in the standard ordering.  It is overwritten
    with ``A = W S W*``, L's matrix over the Hermitian Gell-Mann basis,
    which is real when L maps Hermitian matrices to Hermitian matrices, as
    every GKSL generator does.  A is ``A.real`` when
    ``max|Im A| <= _threshold(tol, max|A|)``.  s are A's singular values,
    descending; W is unitary, so they are S's.  The nullity d is the count
    of them at most ``tol * s[0]``.  They come from a values-only SVD, and
    vh is None; at tol 0 from a full SVD, whose right singular vectors are
    vh.  The rule then counts exact zeros, which the values-only algorithm
    finds in a block-structured A (a pair-block spec's) where the full SVD
    leaves values of rounding size, so the full SVD keeps the rank that
    tol 0 has always given.
    FloatingPointError if ``max|A|`` is not finite, as when a huge gamma
    overflows S: there is no SVD to take.
    """
    A = _conjugate_by_w(S, inverse=False)
    magnitude = _finite(float(np.abs(A).max()), "the largest entry of the superoperator")
    if float(np.abs(A.imag).max()) <= _threshold(tol, magnitude):
        A = A.real
    if tol:
        s, vh = np.linalg.svd(A, compute_uv=False), None
    else:
        _, s, vh = np.linalg.svd(A)
    return A, s, s.size - int(np.count_nonzero(s > tol * s[0])), vh


def _null_space(S: np.ndarray, tol: float) -> np.ndarray:
    """Rows ``v^H``, v over an orthonormal basis of ker L in Gell-Mann coordinates.

    S is overwritten as by :func:`_nullity`, which gives A, its singular
    values s and the nullity d.  At tol 0 the rows are the last d right
    singular vectors of its full SVD; otherwise d = 0 takes nothing more,
    and the null vectors come from one solve of the bordered system
    ``[[A, U], [U^T, 0]] [X; Y] = [0; I_d]``, whose d border vectors U are
    ``e_I``, the identity label, then d - 1 fixed-seed Gaussian vectors.
    Row I of A is zero, as L preserves the trace, and a stationary state
    has a nonzero trace, so for generic border vectors the system is
    nonsingular, Y = 0, X spans ker A and row I of X is ``(1, 0, ..., 0)``
    (Govaerts, *Numerical Methods for Bifurcations of Dynamical Equilibria*,
    SIAM 2000).  For d = 1 this is the stationary vector with one equation
    replaced by the normalisation (Stewart, *Introduction to the Numerical
    Solution of Markov Chains*, 1994).  A QR with a positive diagonal R
    orthonormalises X, so the first vector has a positive component along
    the identity.  The result is accepted when it is finite and
    ``|A Q|_F <= _NULL_RESIDUAL_FACTOR * n * eps * s[0] * sqrt(d)``.  No
    orthonormal Q does better than ``|s[n-d:]|``, so when that is above the
    bound no solve is tried.  Otherwise, or when the check fails or the
    solve raises, the rows are the last d right singular vectors of a full
    SVD of A.
    """
    A, s, d, vh = _nullity(S, tol)
    n = s.size
    if vh is not None:
        return vh[n - d :]
    if d == 0:
        return np.empty((0, n), dtype=A.dtype)
    bound = _NULL_RESIDUAL_FACTOR * n * np.finfo(float).eps * s[0] * math.sqrt(d)
    if float(np.linalg.norm(s[n - d :])) <= bound:
        border = np.zeros((n, d))
        border[-1, 0] = 1.0  # e_I: the identity label is the last one
        border[:, 1:] = np.random.default_rng(0).standard_normal((n, d - 1))  # fixed: deterministic
        bordered = np.zeros((n + d, n + d), dtype=A.dtype)
        bordered[:n, :n] = A
        bordered[:n, n:] = border
        bordered[n:, :n] = border.T
        rhs = np.zeros((n + d, d))
        rhs[n:] = np.eye(d)
        try:
            Q, R = np.linalg.qr(np.linalg.solve(bordered, rhs)[:n])
        except np.linalg.LinAlgError:
            pass
        else:
            diagonal = np.diagonal(R)
            Q *= diagonal / np.abs(diagonal)
            if np.isfinite(Q).all() and float(np.linalg.norm(A @ Q)) <= bound:
                return Q.conj().T
    return np.linalg.svd(A)[2][n - d :]


# ---------------------------------------------------------------------------
# K operator and containment
# ---------------------------------------------------------------------------


def k_operator(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> KOperatorSpec:
    """Diagonal projection K with C >= epsilon*K on the traceless sector.

    Requires an identity-preserving generator (PreconditionError otherwise)
    that validates (ValueError otherwise).  K is diagonal over Gell-Mann
    labels, with a 1 exactly on the labels orthogonal to ker C; epsilon is
    the smallest positive eigenvalue of the Hermitized C (0 when C = 0).
    """
    if not identity_preserving(spec, tol):
        raise PreconditionError("generator does not preserve the identity")
    _, C = standard_to_gellmann(spec, tol)
    N = spec.N
    Ch = (C + C.conj().T) / 2.0
    w, V = np.linalg.eigh(Ch)
    thr = _threshold(tol, float(w.max()) if w.size else 0.0)
    ker_cols = V[:, w <= thr]
    labels = []
    d = N * N - 1
    K = np.zeros((d, d), dtype=np.complex128)
    gm = gellmann_labels(N)
    for qi in range(d):
        overlap = float(np.linalg.norm(ker_cols[qi, :])) if ker_cols.size else 0.0
        if overlap <= tol:
            K[qi, qi] = 1.0
            labels.append(gm[qi])
    positive = w[w > thr]
    epsilon = float(positive.min()) if positive.size else 0.0
    return KOperatorSpec(K=K, epsilon=epsilon, labels=tuple(labels))


def kernel_containment_check(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> bool:
    """ker L inside ker K: every oracle kernel element is annihilated by K.

    A False return signals an implementation fault, not a property of the
    input — the containment is a theorem for identity-preserving
    generators.
    """
    kop = k_operator(spec, tol)
    S_K = superoperator(gellmann_to_standard(np.zeros((spec.N, spec.N)), kop.K))
    oracle = brute_force_kernel(spec, tol)
    for element in oracle.elements:
        coords = to_standard_coordinates(element.matrix)
        if float(np.linalg.norm(S_K @ coords)) > KERNEL_CONTAINMENT_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Hamiltonian consistency bound
# ---------------------------------------------------------------------------


def consistency_and_bound(
    spec: GeneratorSpec, tol: float = DEFAULT_TOL
) -> ConsistencyReport:
    """Component count of the induced graph as a kernel dimension bound.

    The generator must validate (InvalidGeneratorError otherwise).  H is
    *consistent* when it has no matrix elements between distinct undirected
    components of the induced digraph; then each component projection is
    conserved, the component count lower-bounds the oracle nullity (a
    violation raises RuntimeError — the implementation asserts the bound),
    and the projection check verifies Tr(P_k L(E_ab)) = 0 for every
    component k and label (a, b) via superoperator column sums.
    """
    _require_valid(spec, tol)
    N = spec.N
    graph = induced_digraph(spec, tol)
    comps = undirected_components(graph)
    scale_h = _threshold(tol, float(np.abs(spec.H).max()))
    consistent = True
    for a_i, comp_a in enumerate(comps):
        for comp_b in comps[a_i + 1 :]:
            rows = [v - 1 for v in comp_a]
            cols = [v - 1 for v in comp_b]
            if float(np.abs(spec.H[np.ix_(rows, cols)]).max()) > scale_h:
                consistent = False

    S = superoperator(spec)
    scale_s = _threshold(tol, float(np.abs(S).max()))
    projection_check = True
    for comp in comps:
        col_sums = np.abs(S[-N:][[i - 1 for i in comp]].sum(axis=0))
        if float(col_sums.max()) > scale_s:
            projection_check = False
    nullity = _nullity(S, tol)[2]  # overwrites S

    lower_bound: int | None = None
    if consistent:
        lower_bound = len(comps)
        if lower_bound > nullity:
            raise RuntimeError(
                f"consistency bound violated: {lower_bound} components but "
                f"oracle nullity {nullity}; the implementation asserts "
                "lower_bound <= nullity for valid generators"
            )
    return ConsistencyReport(
        consistent=consistent,
        lower_bound=lower_bound,
        nullity=nullity,
        projection_check=projection_check,
        components=comps,
    )


# ---------------------------------------------------------------------------
# Dynamical verification
# ---------------------------------------------------------------------------


def verify_invariant(
    spec: GeneratorSpec,
    rho: np.ndarray,
    times: Iterable[float],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Check that rho is invariant, both infinitesimally and under exp(tL).

    The generator must validate (InvalidGeneratorError otherwise), and rho
    must be N x N and every time finite and >= 0 (ValueError otherwise): L
    generates a semigroup, defined forward in time only.  If rho is
    not a state (Hermitian, positive, unit trace within tol) a UserWarning
    is issued but the invariance check still runs.  Returns True iff
    ``|L(rho)|_F <= GENERATOR_RESIDUAL_TOL`` and the drift
    ``|exp(tL)(rho) - rho|_F <= EVOLUTION_DRIFT_TOL`` at every requested
    time; a residual above its bound stops the check before any evolution.
    A residual or drift that is not finite (``expm`` of huge rates can give
    NaN) is no verdict: FloatingPointError names it, and its time.

    Both come from one operator per route, through one loop
    (:func:`_generator_norms`).  When H is diagonal and gamma has the
    pair-block zero pattern, exactly (H first, ``O(N^2)``, then
    ``spec._on_pair_pattern``, where a cross block rules a dense gamma out
    with no scan), L is one N x N diagonal-sector block and P 2x2 pair
    blocks, built once from the spec's pattern data
    (:func:`generator._pair_block_table`), and the residual is those blocks
    applied to rho, ``O(N^2)``.  Any other spec takes the dense
    route: L is its N**2 x N**2 superoperator S, built once from one gather
    of gamma, and the residual is S applied to rho's coordinates,
    ``O(N^4)``.  On both routes the same products give a logarithmic-norm
    bound on the drift at every time (see :func:`_drift_bounds`); a time
    where it is at most ``EVOLUTION_DRIFT_TOL / 2`` is certified with no
    evolution, and only the others are evolved: by one ``expm`` of the
    Laplacian and a closed form per pair block, ``O(N^3)``, or by ``expm(tS)``,
    ``O(N^6)``.
    """
    _require_valid(spec, tol)
    rho = np.asarray(rho, dtype=np.complex128)
    N = spec.N
    if rho.shape != (N, N):
        raise ValueError(f"state must have shape {(N, N)}, got {rho.shape}")
    times = list(times)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError(f"evolution times must be finite and >= 0, got {times}")

    unit_trace = abs(complex(np.trace(rho)) - 1.0) <= max(tol, 1e-9)
    if not (is_psd(rho, tol) and unit_trace):
        warnings.warn(
            "rho is not a state (hermitian/trace/positivity check failed); "
            "checking invariance anyway",
            UserWarning,
            stacklevel=2,
        )

    norms = _generator_norms(spec, rho, times)
    if not _finite(next(norms), "the residual |L(rho)|_F") <= GENERATOR_RESIDUAL_TOL:
        return False
    return all(
        _finite(drift, f"the drift |exp(tL)(rho) - rho|_F at t={t:g}") <= EVOLUTION_DRIFT_TOL
        for t, drift in zip(times, norms)
    )


def _finite(norm: float, name: str) -> float:
    """``norm``; FloatingPointError naming it if it is NaN or infinite."""
    if not math.isfinite(norm):
        raise FloatingPointError(f"{name} is not finite ({norm})")
    return norm


def _generator_norms(spec: GeneratorSpec, rho: np.ndarray, times: list[float]):
    """``|L(rho)|_F``, then per time ``|exp(tL)(rho) - rho|_F`` or a bound, computed as read.

    The one place :func:`verify_invariant` applies L, with the route picked
    once (see there).  L acts as one square matrix on one part x of rho and
    as a stack of 2x2 blocks on the pairs (rho_kl, rho_lk): on the pair-block
    route L's diagonal-sector block on diag(rho) and its 2x2 blocks on every
    pair, both from one :func:`generator._pair_block_table` call; on the
    dense route the superoperator S on rho's standard coordinates and no
    block.

    A time where :func:`_drift_bounds` bounds the drift by at most
    ``EVOLUTION_DRIFT_TOL / 2`` (the half covers rounding in the bound)
    yields that bound, with no evolution; a NaN or infinite bound certifies
    nothing.  ``scipy.linalg`` is imported, and the blocks split
    (:func:`_pair_block_split`), once, at the first time that is evolved.
    """
    H = spec.H
    if (H - np.diag(np.diag(H))).any() or not spec._on_pair_pattern:
        sector, x = superoperator(spec), to_standard_coordinates(rho)
        pairs, coherences = np.empty((0, 2, 2), dtype=complex), np.empty((0, 2), dtype=complex)
    else:
        sector, pairs = _pair_block_table(spec)
        k, ell = _pair_levels(spec.N).T - 1
        x = np.diag(rho)
        coherences = np.stack((rho[k, ell], rho[ell, k]), axis=1)  # over (E_kl, E_lk)
    images = sector @ x, (pairs @ coherences[:, :, None])[:, :, 0]
    yield float(np.linalg.norm(np.concatenate(images, axis=None)))
    bounds = _drift_bounds(sector, pairs, images, times)
    split = None
    for t, bound in zip(times, bounds):
        if bound <= EVOLUTION_DRIFT_TOL / 2:  # False for NaN
            yield bound
            continue
        if split is None:
            import scipy.linalg  # here, not at module level: its import is most of the CLI's start-up
            split = _pair_block_split(pairs)
        moved = np.concatenate((
            scipy.linalg.expm(t * sector) @ x - x,
            (_pair_block_expm(split, t) @ coherences[:, :, None])[:, :, 0] - coherences,
        ), axis=None)
        yield float(np.linalg.norm(moved))


def _drift_bounds(
    sector: np.ndarray,
    pairs: np.ndarray,
    images: tuple[np.ndarray, np.ndarray],
    times: list[float],
) -> list[float]:
    """Per time, a bound on ``|exp(tL)(rho) - rho|_F``.

    ``images`` is ``(sector @ x, A_kl c_kl)``, L's action on rho's part x
    and on its pairs c_kl = (rho_kl, rho_lk), as the residual forms it (see
    :func:`_generator_norms`).  For each of these matrices A and its part x
    of rho, ``exp(tA)x - x = ∫_0^t exp(sA) Ax ds``, so by the logarithmic
    norm (:func:`_log_norm_1`) ``|exp(tA)x - x|_1 <= phi(t, mu_1(A)) |Ax|_1``,
    with ``phi`` from :func:`_phi` (Söderlind, BIT 46, 631 (2006)).  This
    holds for any matrix: no positivity is assumed, and validate's PSD slack
    or rounding in the rates shows up in ``mu_1`` itself.  The drift is the
    2-norm over the parts, so it is at most that of these bounds: one pass
    over the matrices for their ``mu_1``, then one number per part and time.
    A part with ``Ax = 0`` exactly adds nothing; huge rates may overflow into
    a bound that is infinite or NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.concatenate(([np.abs(images[0]).sum()], np.abs(images[1]).sum(axis=1)))
        mus = np.concatenate((_log_norm_1(sector[None]), _log_norm_1(pairs)))
        moving = sizes != 0.0
        sizes, mus = sizes[moving], mus[moving]
        return [math.hypot(*(_phi(t, mus) * sizes)) for t in times]  # hypot: no underflow


def _log_norm_1(A: np.ndarray) -> np.ndarray:
    """An upper bound on ``mu_1`` of each matrix of a (S, n, n) stack.

    ``mu_1(A) = max_j Re A_jj + sum_{i != j} |A_ij|``, the logarithmic norm
    of the induced 1-norm, plus ``(n + 2) eps sum_i |A_ij|``, more than the
    rounding of the column's sum, so the computed value is never below A's own.
    """
    n = A.shape[1]
    diagonal = np.arange(n)
    magnitudes = np.abs(A)
    rounding = (n + 2) * np.finfo(float).eps * magnitudes.sum(axis=1)
    magnitudes[:, diagonal, diagonal] = A[:, diagonal, diagonal].real
    return (magnitudes.sum(axis=1) + rounding).max(axis=1)


def _phi(t: float, mu: np.ndarray) -> np.ndarray:
    """``∫_0^t e^{s mu} ds``: t where ``mu <= 0``, else ``expm1(t mu) / mu``, never below t."""
    phi = np.full_like(mu, t)
    growing = mu > 0.0
    phi[growing] = np.maximum(t, np.expm1(t * mu[growing]) / mu[growing])
    return phi


def _pair_block_split(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per block, ``A = c I + A0``, ``A0 = [[D, p], [q, -D]]``, ``s = sqrt(D**2 + pq)``."""
    c = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
    A0 = A.copy()
    A0[:, 0, 0] = 0.5 * (A[:, 0, 0] - A[:, 1, 1])
    A0[:, 1, 1] = -A0[:, 0, 0]
    s = np.sqrt(A0[:, 0, 0] ** 2 + A0[:, 0, 1] * A0[:, 1, 0])
    return c, A0, s


def _pair_block_expm(split: tuple[np.ndarray, np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """``exp(t A)`` of every block of a (P, 2, 2) stack, in closed form.

    ``split`` is ``(c, A0, s)`` from :func:`_pair_block_split`, which does not
    depend on t; then ``exp(tA) = e^{ct} (cosh(st) I + sinh(st)/s A0)``,
    where ``sinh(st)/s`` is t at s = 0.  Where ``|st| >= 1`` the two
    coefficients are ``(e^{(c+s)t} + e^{(c-s)t}) / 2`` and
    ``(e^{(c+s)t} - e^{(c-s)t}) / (2s)`` instead, so nothing overflows: for a
    valid generator and t >= 0, both exponents have real part <= 0.
    """
    c, A0, s = split
    z = s * t
    even = np.empty_like(c)  # e^{ct} cosh(st)
    odd = np.empty_like(c)  # e^{ct} sinh(st) / s
    big = np.abs(z) >= 1.0
    up, down = np.exp((c[big] + s[big]) * t), np.exp((c[big] - s[big]) * t)
    even[big] = 0.5 * (up + down)
    odd[big] = 0.5 * (up - down) / s[big]
    small = ~big
    zs, scale = z[small], np.exp(c[small] * t)
    sinhc = np.ones_like(zs)  # sinh(z) / z
    nonzero = zs != 0
    sinhc[nonzero] = np.sinh(zs[nonzero]) / zs[nonzero]
    even[small] = scale * np.cosh(zs)
    odd[small] = scale * t * sinhc
    E = odd[:, None, None] * A0
    E[:, 0, 0] += even
    E[:, 1, 1] += even
    return E
