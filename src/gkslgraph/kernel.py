"""Invariant-state structure: kernel bases, block spectra, dual bounds.

For generators whose coefficient matrix is pair-block diagonal and whose
Hamiltonian is diagonal (after canonicalization), the kernel of L splits
into a diagonal sector — stationary populations of the induced digraph,
one per terminal SCC — and independent 2x2 blocks over the off-diagonal
pairs (E_kl, E_lk).  Only two kinds of pair can carry kernel elements:
a pair of sinks (up to two elements) and a terminal 2-cycle (up to one),
both terminal SCCs of the induced digraph.  ``full_kernel`` reads these
pairs off the digraph of the canonical spec and assembles the exact basis
this way; ``brute_force_kernel`` computes the same space numerically from
the superoperator and serves as an independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg

from .basis import (
    DEFAULT_TOL,
    _pair_block,
    from_standard_coordinates,
    is_psd,
    matrix_unit,
    to_standard_coordinates,
    gellmann_labels,
)
from .digraph import (
    InducedDigraph,
    _rate_table,
    _singularity_checks,
    _sink_report,
    induced_digraph,
    tscc_stationary_vectors,
    undirected_components,
)
from .generator import (
    GellMannSpec,
    GeneratorSpec,
    PairBlockClassification,
    _require_valid,
    apply_generator,
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
    "diagonal_kernel",
    "block_eigenpairs",
    "block_kernel",
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

    ``kspec`` has H = 0 and C equal to the orthogonal projection onto the
    Gell-Mann directions outside ker C (a 0/1 diagonal when that kernel is
    coordinate-aligned); ``epsilon`` is the smallest positive eigenvalue of
    the Hermitized C, so that C - epsilon*K >= 0; ``labels`` lists the
    Gell-Mann labels on which K acts as the identity.
    """

    kspec: GellMannSpec
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


@dataclass(frozen=True)
class _Prepared:
    """A validated canonical spec with what its pair-block analysis reads."""

    canon: GeneratorSpec
    tol: float
    cls: PairBlockClassification  # of canon, with its two thresholds
    graph: InducedDigraph  # induced_digraph(canon, tol)


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


def _prepared(spec: GeneratorSpec, tol: float) -> _Prepared:
    """Validate, canonicalize, and check the block-diagonal hypotheses."""
    report = validate(spec, tol)
    if not report.verdict:
        raise PreconditionError(f"generator failed validation ({report.summary})")
    canon = canonicalize(spec, tol)
    return _Prepared(
        canon=canon,
        tol=tol,
        cls=_require_pair_block_diagonal(canon, tol, "canonicalized "),
        graph=induced_digraph(canon, tol),
    )


def _kernel_pairs(prep: _Prepared) -> dict[tuple[int, int], bool]:
    """The pairs (k, l), k < l, that can carry kernel elements, in sorted order.

    Each maps to whether it is a terminal 2-cycle; the others are pairs of
    sinks.  No other pair block is singular on the canonical spec.
    """
    report = _sink_report(prep.canon, prep.graph, prep.tol)
    pairs = dict.fromkeys(combinations(report.sinks, 2), False)
    pairs.update(dict.fromkeys(report.two_sinks, True))
    return dict(sorted(pairs.items()))


def _ordered_pair(pair: tuple[int, int], N: int) -> tuple[int, int]:
    """The level pair as (k, l) with k < l; ValueError if it is not a pair."""
    k, ell = pair
    if not (1 <= k <= N and 1 <= ell <= N and k != ell):
        raise ValueError(f"invalid level pair ({k}, {ell}) for N={N}")
    return min(k, ell), max(k, ell)


# ---------------------------------------------------------------------------
# Diagonal sector
# ---------------------------------------------------------------------------


def diagonal_kernel(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> list[KernelElement]:
    """Stationary diagonal matrices, one per terminal SCC of the induced digraph.

    These lie in ker L whenever the generator preserves the diagonal sector
    (in particular for pair-block-diagonal coefficient matrices); on the
    diagonal sector itself they are exact for every generator.
    """
    return _diagonal_elements(induced_digraph(spec, tol))


def _diagonal_elements(graph: InducedDigraph) -> list[KernelElement]:
    """:func:`diagonal_kernel` on the already induced digraph."""
    return [
        KernelElement(
            matrix=np.diag(sv.rho).astype(np.complex128),
            tag="diagonal",
            support=sv.component,
        )
        for sv in tscc_stationary_vectors(graph)
    ]


# ---------------------------------------------------------------------------
# Pair blocks: spectrum
# ---------------------------------------------------------------------------


def _block_operator(
    spec: GeneratorSpec, k: int, ell: int
) -> tuple[complex, complex, complex, complex]:
    """(c, D, p, q) with the block action c*I + [[D, p], [q, -D]] on (E_kl, E_lk)."""
    blk = _pair_block(spec.gamma, k, ell, spec.N)
    G = spec.gamma[-spec.N :, -spec.N :]  # the diagonal-sector block
    a, b = k - 1, ell - 1
    # Columns k and l of the rate table: the rates out of each level, with
    # the rate to its partner zeroed (it enters as blk[0, 0] or blk[1, 1]).
    R = _rate_table(spec)
    out_k, out_l = R[:, a].copy(), R[:, b].copy()
    out_k[b] = out_l[a] = 0.0
    c = 0.5 * (G[a, b] + G[b, a]) - 0.5 * (
        G[a, a]
        + G[b, b]
        + blk[0, 0]  # gamma_kl: rate l -> k
        + blk[1, 1]  # gamma_lk: rate k -> l
        + float(out_k.sum())
        + float(out_l.sum())
    )
    D = 0.5 * (G[a, b] - G[b, a]) - 1j * (spec.H[a, a].real - spec.H[b, b].real)
    return c, D, blk[0, 1], blk[1, 0]


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
    eigenvalues ``mu = c +- sqrt(D**2 + p*q)``.

    Eigenvectors are chosen as the largest of the three algebraically
    equivalent closed forms (p, s - D), (D + s, q), and their sum, which
    stays well-conditioned when individual forms degenerate; for a scalar
    block the pair (E_kl, E_lk) itself is returned.  Matrices are unit HS
    norm with the leading coefficient phased real-positive.
    """
    _require_pair_block_diagonal(spec, tol, "")
    N = spec.N
    k, ell = _ordered_pair(pair, N)
    c, D, p, q = _block_operator(spec, k, ell)
    s = np.sqrt(complex(D * D + p * q))

    pairs = []
    for branch, sign in (("plus", 1.0), ("minus", -1.0)):
        ss = sign * s
        candidates = [
            (p + D + ss, q - D + ss),
            (p, ss - D),
            (D + ss, q),
        ]
        best = max(candidates, key=lambda v: math.hypot(abs(v[0]), abs(v[1])))
        scale0 = max(abs(D), abs(p), abs(q), abs(s))
        if scale0 <= tol * max(1.0, abs(c)):
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
    """Record near-threshold outcomes; return whether the condition holds."""
    ok = value <= threshold
    if threshold < value <= 10.0 * threshold:
        notes.append(
            f"{label} narrowly failed ({value:.3e} vs threshold {threshold:.3e})"
        )
    elif threshold / 10.0 <= value <= threshold:
        notes.append(
            f"{label} held narrowly ({value:.3e} vs threshold {threshold:.3e})"
        )
    return ok


def _block_analysis(
    prep: _Prepared, k: int, ell: int, two_sink: bool
) -> tuple[list[KernelElement], list[str]]:
    """Kernel contribution of a pair of sinks, or of a terminal 2-cycle.

    ``(k, ell)`` is one of :func:`_kernel_pairs`; ``two_sink`` says which
    kind it is.
    """
    canon, tol = prep.canon, prep.tol
    N = canon.N
    G = canon.gamma[-N:, -N:]  # the diagonal-sector block
    a, b = k - 1, ell - 1
    notes: list[str] = []
    where = f"pair ({k}, {ell})"

    h_ok = _margin_notes(
        notes, f"{where}: level splitting |h_k - h_l|",
        abs(canon.H[a, a].real - canon.H[b, b].real),
        prep.cls.h_threshold,
    )
    scale_g = prep.cls.block_threshold
    g_ok = True
    for label, value in (
        ("dephasing match |g_kk - g_ll|", abs(G[a, a] - G[b, b])),
        ("cross term match |g_kkll - g_kk|", abs(G[a, b] - G[a, a])),
        ("cross term match |g_llkk - g_kk|", abs(G[b, a] - G[a, a])),
    ):
        g_ok = _margin_notes(notes, f"{where}: {label}", value, scale_g) and g_ok

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
    blk = _pair_block(canon.gamma, k, ell, N)
    gbar = 0.5 * (float(blk[0, 0].real) + float(blk[1, 1].real))
    v = _unit_pair_matrix(blk[0, 1], gbar, k, ell, N)
    return [KernelElement(matrix=v, tag="singular-2-sink", support=(k, ell))], notes


def block_kernel(
    spec: GeneratorSpec, pair: tuple[int, int], tol: float = DEFAULT_TOL
) -> list[KernelElement]:
    """Kernel elements supported on one off-diagonal pair (0, 1, or 2).

    The spec is validated and canonicalized first; the canonical form must
    be pair-block diagonal with diagonal H (PreconditionError otherwise).
    Two elements (E_kl and E_lk) arise when both levels are sinks with
    matching splittings and dephasing; one arises on a singular terminal
    2-cycle; otherwise none.
    """
    prep = _prepared(spec, tol)
    k, ell = _ordered_pair(pair, spec.N)
    two_sink = _kernel_pairs(prep).get((k, ell))
    if two_sink is None:
        return []
    elements, _ = _block_analysis(prep, k, ell, two_sink)
    return elements


# ---------------------------------------------------------------------------
# Full kernel, analytic and oracle
# ---------------------------------------------------------------------------


def full_kernel(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Exact kernel basis of L from graph structure and pair blocks.

    Validates and canonicalizes, requires the canonical form pair-block
    diagonal with diagonal H (PreconditionError otherwise), and induces
    its digraph once.  The elements are the diagonal stationary elements,
    one per terminal SCC, followed by the elements of each pair of sinks
    and each terminal 2-cycle, in sorted pair order; no other pair block
    is visited.  Diagnostics report conditions that held or failed within
    a decade of the tolerance.
    """
    prep = _prepared(spec, tol)
    elements = _diagonal_elements(prep.graph)
    diagnostics: list[str] = []
    for (k, ell), two_sink in _kernel_pairs(prep).items():
        els, notes = _block_analysis(prep, k, ell, two_sink)
        elements.extend(els)
        diagnostics.extend(notes)
    return KernelBasis(
        elements=tuple(elements), method="analytic", diagnostics=tuple(diagnostics)
    )


def brute_force_kernel(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Kernel basis from an SVD of the superoperator (the numeric oracle).

    Null-space vectors are the conjugated trailing right-singular rows at
    relative threshold tol; elements are HS-orthonormal and carry no
    structural tags.
    """
    elements = []
    for row in _null_space(superoperator(spec), tol):
        elements.append(
            KernelElement(
                matrix=from_standard_coordinates(row, spec.N),
                tag="oracle",
                support=None,
            )
        )
    return KernelBasis(elements=tuple(elements), method="oracle")


def _null_space(S: np.ndarray, tol: float) -> np.ndarray:
    """Conjugated trailing right-singular rows of S, rank at relative tol."""
    _, s, vh = np.linalg.svd(S)
    if s.size:
        rank = int(np.count_nonzero(s > tol * s[0]))
    else:
        rank = 0
    return vh[rank:].conj()


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
    C = standard_to_gellmann(spec, tol).C
    N = spec.N
    Ch = (C + C.conj().T) / 2.0
    w, V = np.linalg.eigh(Ch)
    thr = tol * max(1.0, float(w.max()) if w.size else 0.0)
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
    kspec = GellMannSpec(H=np.zeros((N, N), dtype=np.complex128), C=K)
    return KOperatorSpec(kspec=kspec, epsilon=epsilon, labels=tuple(labels))


def kernel_containment_check(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> bool:
    """ker L inside ker K: every oracle kernel element is annihilated by K.

    A False return signals an implementation fault, not a property of the
    input — the containment is a theorem for identity-preserving
    generators.
    """
    kop = k_operator(spec, tol)
    S_K = superoperator(gellmann_to_standard(kop.kspec))
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
    scale_h = tol * max(1.0, float(np.abs(spec.H).max()))
    consistent = True
    for a_i, comp_a in enumerate(comps):
        for comp_b in comps[a_i + 1 :]:
            rows = [v - 1 for v in comp_a]
            cols = [v - 1 for v in comp_b]
            if float(np.abs(spec.H[np.ix_(rows, cols)]).max()) > scale_h:
                consistent = False

    S = superoperator(spec)
    nullity = len(_null_space(S, tol))
    scale_s = tol * max(1.0, float(np.abs(S).max()))
    projection_check = True
    for comp in comps:
        col_sums = np.abs(S[-N:][[i - 1 for i in comp]].sum(axis=0))
        if float(col_sums.max()) > scale_s:
            projection_check = False

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
    must be N x N and every time finite (ValueError otherwise).  If rho is
    not a state (Hermitian, positive, unit trace within tol) a UserWarning
    is issued but the invariance check still runs.  Returns True iff ``|L(rho)|_F <= GENERATOR_RESIDUAL_TOL`` and
    the vectorized drift ``|exp(t S) vec(rho) - vec(rho)|_2 <=
    EVOLUTION_DRIFT_TOL`` at every requested time; a NaN residual or drift
    fails.
    """
    _require_valid(spec, tol)
    rho = np.asarray(rho, dtype=np.complex128)
    N = spec.N
    if rho.shape != (N, N):
        raise ValueError(f"state must have shape {(N, N)}, got {rho.shape}")
    times = list(times)
    if not all(map(math.isfinite, times)):
        raise ValueError(f"evolution times must be finite, got {times}")

    unit_trace = abs(complex(np.trace(rho)) - 1.0) <= max(tol, 1e-9)
    if not (is_psd(rho, tol) and unit_trace):
        warnings.warn(
            "rho is not a state (hermitian/trace/positivity check failed); "
            "checking invariance anyway",
            UserWarning,
            stacklevel=2,
        )

    residual = float(np.linalg.norm(apply_generator(spec, rho)))
    if not residual <= GENERATOR_RESIDUAL_TOL:
        return False
    S = superoperator(spec)
    v = to_standard_coordinates(rho)
    for t in times:
        drift = float(np.linalg.norm(scipy.linalg.expm(t * S) @ v - v))
        if not drift <= EVOLUTION_DRIFT_TOL:
            return False
    return True
