"""Shared oracles, generators, and fixture builders for the test suite.

Everything in here is deliberately *independent* of the closed-form paths
inside :mod:`gkslgraph`: the reference superoperator is assembled from
elementary dissipator calls one coefficient at a time, arborescence weights
are enumerated by brute force, and subspace comparisons go through SciPy's
principal-angle routine.  Tests that pit the library against these oracles
are therefore genuine cross-checks, not tautologies.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

from gkslgraph import (
    GeneratorSpec,
    InducedDigraph,
    ValidationReport,
    dump_json,
    gellmann,
    gellmann_labels,
    gellmann_to_standard,
    matrix_to_document,
    matrix_unit,
    standard_labels,
    standard_position,
    to_standard_coordinates,
)
from gkslgraph.basis import _conjugate_by_w

# ---------------------------------------------------------------------------
# reference superoperator (third, slowest route)
# ---------------------------------------------------------------------------


def lindblad_dissipator(
    i: int, j: int, k: int, ell: int, rho: np.ndarray
) -> np.ndarray:
    """The elementary dissipator D_{ijkl}(rho) for matrix-unit jump pairs.

    ``D_{ijkl}(rho) = 2 E_ij rho E_lk - rho E_lk E_ij - E_lk E_ij rho``.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    N = rho.shape[0]
    A = matrix_unit(i, j, N)
    Bc = matrix_unit(ell, k, N)
    return 2.0 * (A @ rho @ Bc) - rho @ (Bc @ A) - (Bc @ A) @ rho


def reference_superoperator(spec: GeneratorSpec) -> np.ndarray:
    """Column-by-column superoperator built from elementary dissipators.

    Applies the generator to every matrix unit using nothing but
    ``lindblad_dissipator`` and the commutator, summing the coefficient
    matrix entry by entry.  O(N^6) per column -- fine for the small N used
    in tests, and entirely independent of the vectorized production path.
    """
    N = spec.N
    labels = standard_labels(N)
    S = np.zeros((N * N, N * N), dtype=complex)
    for col, (a, b) in enumerate(labels):
        E = matrix_unit(a, b, N)
        out = -1j * (spec.H @ E - E @ spec.H)
        for p1, (i, j) in enumerate(labels):
            for p2, (k, ell) in enumerate(labels):
                coeff = spec.gamma[p1, p2]
                if coeff != 0:
                    out = out + 0.5 * coeff * lindblad_dissipator(i, j, k, ell, E)
        S[:, col] = to_standard_coordinates(out)
    return S


# ---------------------------------------------------------------------------
# exact kernel dimension (ground truth, no tolerance)
# ---------------------------------------------------------------------------


def exact_nullity(spec: GeneratorSpec) -> int:
    """Dimension of ker L, in exact rational arithmetic.

    Every finite float is a dyadic rational, so the generator that the
    spec's numbers define has an exact kernel.  L's N**2 x N**2 matrix
    ``A + iB`` over the row-major matrix units is built in
    ``fractions.Fraction`` by the formula of ``superoperator``:
    ``L(E_jl)[a, b] = G[a,j,b,l] - (i H[a,j] + M[a,j]/2) [l = b]
    + (i H[l,b] - M[l,b]/2) [a = j]``, with ``M[l, j] = sum_i G[i,j,i,l]``.
    The complex matrix is embedded as the real ``[[A, -B], [B, A]]``, whose
    nullity, by Gaussian elimination, is twice that of L.
    """
    rows = _exact_rows(spec)
    return (len(rows) - len(_echelon(rows))) // 2


def exact_null_vectors(spec: GeneratorSpec) -> list[np.ndarray]:
    """A basis of ker L, from the exact elimination of :func:`exact_nullity`, as N x N matrices.

    The echelon form is reduced, and each free column of the real embedding
    gives an exact null vector ``(u, v)``, the complex null vector ``u + iv``.
    The real kernel is closed under ``J: (u, v) -> (-v, u)`` (multiplication
    by i), so a vector is kept only when it is outside the real span of the
    kept ones and their images under J; that span test is exact too.  Each
    kept vector is scaled by its largest entry before it is rounded to floats.
    """
    N = spec.N
    n = N * N
    pivots = _echelon(_exact_rows(spec))
    for lead in sorted(pivots, reverse=True):  # back-substitution: reduce the echelon form
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[c], pivots[c])
    kept: list[dict[int, Fraction]] = []  # the kept vectors and their images under J
    vectors = []
    for free in sorted(set(range(2 * n)) - set(pivots)):
        x = {free: Fraction(1)}
        x.update({lead: -row[free] for lead, row in pivots.items() if free in row})
        if len(_echelon([*kept, x])) == len(kept):
            continue
        kept += [x, {(c + n) % (2 * n): -v if c >= n else v for c, v in x.items()}]
        scale = max(map(abs, x.values()))
        coords = np.zeros(2 * n)
        for c, v in x.items():
            coords[c] = v / scale
        vectors.append((coords[:n] + 1j * coords[n:]).reshape(N, N))
    return vectors


def _exact_rows(spec: GeneratorSpec) -> list[dict[int, Fraction]]:
    """The rows of L's real embedding ``[[A, -B], [B, A]]`` (:func:`exact_nullity`), sparse."""
    N = spec.N
    n = N * N
    pos = reference_position_array(N).tolist()
    gamma = spec.gamma.tolist()

    def exact(z: complex) -> tuple[Fraction, Fraction]:
        return Fraction(z.real), Fraction(z.imag)

    def G(i, j, k, ell):
        return exact(gamma[pos[i][j]][pos[k][ell]])

    H = [[exact(z) for z in row] for row in spec.H.tolist()]
    M = [[tuple(sum(G(i, j, i, ell)[part] for i in range(N)) for part in (0, 1))
          for j in range(N)] for ell in range(N)]
    rows: list[dict[int, Fraction]] = [{} for _ in range(2 * n)]
    for j, ell, a, b in itertools.product(range(N), repeat=4):
        re, im = G(a, j, b, ell)
        if ell == b:  # - i H[a, j] - M[a, j] / 2
            re, im = re + H[a][j][1] - M[a][j][0] / 2, im - H[a][j][0] - M[a][j][1] / 2
        if a == j:  # + i H[l, b] - M[l, b] / 2
            re, im = re - H[ell][b][1] - M[ell][b][0] / 2, im + H[ell][b][0] - M[ell][b][1] / 2
        row, col = a * N + b, j * N + ell
        for r, c, value in ((row, col, re), (row, col + n, -im), (row + n, col, im),
                            (row + n, col + n, re)):
            if value:
                rows[r][c] = value
    return rows


def _echelon(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Row echelon form of the sparse rational matrix whose rows map columns to nonzero entries.

    Maps each pivot's leading column to its row, scaled to lead with 1; the
    rank is the number of pivots.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = {c: v / row[lead] for c, v in row.items()}
                break
            _subtract(row, row[lead], pivots[lead])
    return pivots


def _subtract(row: dict[int, Fraction], factor: Fraction, pivot: dict[int, Fraction]) -> None:
    """``row -= factor * pivot``, in place, dropping the entries that cancel."""
    for c, v in pivot.items():
        value = row.get(c, 0) - factor * v
        if value:
            row[c] = value
        else:
            row.pop(c, None)


# ---------------------------------------------------------------------------
# label tables and Gell-Mann matrices, by loops over the labels
# ---------------------------------------------------------------------------


def reference_standard_labels(N: int) -> tuple[tuple[int, int], ...]:
    """``standard_labels`` by a double loop over the pairs, then the diagonal."""
    labels = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            labels += [(i, j), (j, i)]
    return tuple(labels + [(n, n) for n in range(1, N + 1)])


def reference_position_array(N: int) -> np.ndarray:
    """``basis._standard_position_array``, one label at a time."""
    pos = np.empty((N, N), dtype=np.intp)
    for p, (i, j) in enumerate(reference_standard_labels(N)):
        pos[i - 1, j - 1] = p
    return pos


def reference_pair_levels(N: int) -> np.ndarray:
    """``basis._pair_levels``: the first label of each pair, as a (P, 2) array."""
    return np.array(reference_standard_labels(N)[: N * N - N : 2], dtype=np.intp).reshape(-1, 2)


def reference_flat_order(N: int) -> np.ndarray:
    """``basis._standard_flat_order``, by sorting the positions."""
    return np.argsort(reference_position_array(N).ravel())


def reference_gellmann(i: int, j: int, N: int) -> np.ndarray:
    """The Gell-Mann matrix lam_ij (see ``gellmann``), from matrix units and a loop."""
    if i < j:
        return (matrix_unit(i, j, N) + matrix_unit(j, i, N)) / math.sqrt(2.0)
    if i > j:
        return -1j * (matrix_unit(j, i, N) - matrix_unit(i, j, N)) / math.sqrt(2.0)
    if i == N:
        return np.eye(N, dtype=np.complex128) / math.sqrt(N)
    out = np.zeros((N, N), dtype=np.complex128)
    for m in range(1, i + 1):
        out[m - 1, m - 1] = 1.0
    out[i, i] = -i
    return out / math.sqrt(i * (i + 1))


def reference_diagonal_block(N: int) -> np.ndarray:
    """``basis._diagonal_block``: row n is conj(diag(lam_nn)), from the dense matrices."""
    return np.stack([np.diag(reference_gellmann(n, n, N)) for n in range(1, N + 1)]).conj()


# ---------------------------------------------------------------------------
# dense basis-change references
# ---------------------------------------------------------------------------


def basis_change_matrix(N: int) -> np.ndarray:
    """Unitary W with W[q, p] = <lam_q, E_p> (Gell-Mann rows, standard columns).

    Coordinate vectors transform as v_gm = W @ v_std, and coefficient/operator
    matrices as M_gm = W @ M_std @ W*.  Since <lam_q, E_ij> = conj(lam_q[i, j]),
    row q is conj(lam_q) read in standard order.  The package conjugates by
    W's blocks instead (``basis._conjugate_by_w``).
    """
    lam = np.stack([reference_gellmann(i, j, N) for (i, j) in reference_standard_labels(N)])
    return lam.reshape(N * N, N * N)[:, reference_flat_order(N)].conj()


def to_gellmann(M: np.ndarray) -> np.ndarray:
    """``W M W*`` for an N**2 x N**2 matrix M over the standard labels, by W's blocks."""
    return _conjugate_by_w(np.array(M, dtype=np.complex128), inverse=False)


def to_standard(C: np.ndarray) -> np.ndarray:
    """``W* C W`` for an N**2 x N**2 matrix C over the Gell-Mann labels, by W's blocks."""
    return _conjugate_by_w(np.array(C, dtype=np.complex128), inverse=True)


def reference_validate(spec: GeneratorSpec, tol: float = 1e-9) -> ValidationReport:
    """``validate`` by dense products with W and one dense ``eigvalsh``.

    The O(N^6) route: ``C = W gamma W*`` as two N**2 x N**2 products and the
    spectrum of the whole traceless block, with the same rules and
    tolerances as the library, each written out here rather than taken
    from it.
    """
    N = spec.N
    W = basis_change_matrix(N)
    C = W @ spec.gamma @ W.conj().T
    B = C[:-1, :-1]
    offending = None
    psd_ok = True
    if B.size:
        evals = np.linalg.eigvalsh((B + B.conj().T) / 2.0)
        eig_ok = float(evals.min()) >= -tol * max(1.0, float(evals.max()))
        skew = float(np.abs(B - B.conj().T).max())
        herm_ok = skew <= tol * max(1.0, float(np.abs(B).max()))
        psd_ok = herm_ok and eig_ok
        if not eig_ok:
            offending = float(evals.min())
    witness = None
    trace_ok = True
    mismatch = np.abs(C[-1, :-1].real - C[:-1, -1].real)
    if mismatch.size:
        trace_ok = float(mismatch.max()) <= tol * max(1.0, float(np.abs(C).max()))
        if not trace_ok:
            witness = gellmann_labels(N)[int(mismatch.argmax())]
    return ValidationReport(psd_ok, trace_ok, offending, witness)


def reference_canonicalize(spec: GeneratorSpec, tol: float = 1e-9) -> GeneratorSpec:
    """``canonicalize`` as a round trip through the Gell-Mann basis.

    ``C = W gamma W*`` by dense products; the identity row and column of C
    are absorbed into the Hamiltonian as ``sum_q c_q lam_q`` with
    ``c_q = Im(C[-1, q] - C[q, -1]) / (2 sqrt N)`` (then shifted traceless
    and Hermitized), zeroed, and C is conjugated back to the standard
    ordering.
    """
    report = reference_validate(spec, tol)
    if not report.verdict:
        raise ValueError(f"cannot canonicalize an invalid generator: {report.summary}")
    N = spec.N
    W = basis_change_matrix(N)
    C = W @ spec.gamma @ W.conj().T
    coeffs = (C[-1, :-1] - C[:-1, -1]).imag / (2.0 * math.sqrt(N))
    H_new = spec.H.copy()
    for c, (i, j) in zip(coeffs, gellmann_labels(N)[:-1]):
        H_new = H_new + c * reference_gellmann(i, j, N)
    H_new = H_new - (np.trace(H_new).real / N) * np.eye(N)
    H_new = (H_new + H_new.conj().T) / 2.0
    C[-1, :] = 0.0
    C[:, -1] = 0.0
    return GeneratorSpec(H=H_new, gamma=W.conj().T @ C @ W)


def reference_max_off_block(gamma: np.ndarray, N: int) -> float:
    """Largest off-pair-block magnitude, by zeroing the blocks in a full copy."""
    R = N * N - N
    resid = np.array(gamma[:R, :R], copy=True)
    for t in range(0, R, 2):
        resid[t : t + 2, t : t + 2] = 0.0
    violations = [float(np.abs(resid).max()) if resid.size else 0.0]
    violations.append(float(np.abs(gamma[:R, R:]).max()) if R else 0.0)
    violations.append(float(np.abs(gamma[R:, :R]).max()) if R else 0.0)
    return max(violations)


def pair_block(M: np.ndarray, k: int, ell: int, N: int) -> np.ndarray:
    """The 2x2 view of M over the labels (k, ell), (ell, k), for k < ell.

    M is indexed by the label order.  The two labels sit at adjacent
    positions, so the block is a slice of M and a write through it lands
    in M.
    """
    p = standard_position(k, ell, N)
    return M[p : p + 2, p : p + 2]


def random_pair_block_matrix(rng: np.random.Generator, N: int) -> np.ndarray:
    """Random complex N**2 x N**2 matrix with the pair-block zero pattern."""
    n = N * N
    R = n - N
    M = np.zeros((n, n), dtype=complex)
    for t in range(0, R, 2):
        M[t : t + 2, t : t + 2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    M[R:, R:] = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return M


# ---------------------------------------------------------------------------
# arborescence enumeration (matrix-tree oracle)
# ---------------------------------------------------------------------------


def enumerate_in_tree_weight(
    rates: np.ndarray,
    vertices: tuple[int, ...] | list[int],
    root: int,
) -> float:
    """Total weight of spanning in-trees of ``vertices`` rooted at ``root``.

    ``rates[src-1, dst-1]`` is the weight of the edge src -> dst.  Brute
    force: every non-root vertex picks one of its out-edges (restricted to
    ``vertices``); a choice is kept iff following successors from every
    vertex reaches the root without revisiting anything.  Exponential, so
    only usable for tiny vertex sets -- which is the point of an oracle.
    """
    vset = set(vertices)
    others = sorted(vset - {root})
    per_vertex: list[list[tuple[int, float]]] = []
    for v in others:
        outs = [
            (dst, float(rates[v - 1, dst - 1]))
            for dst in sorted(vset)
            if dst != v and rates[v - 1, dst - 1] > 0
        ]
        if not outs:
            return 0.0
        per_vertex.append(outs)
    total = 0.0
    for combo in itertools.product(*per_vertex):
        succ = {v: dst for v, (dst, _) in zip(others, combo)}
        good = True
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    good = False
                    break
                seen.add(cur)
                cur = succ[cur]
            if not good:
                break
        if good:
            w = 1.0
            for _, edge_w in combo:
                w *= edge_w
            total += w
    return total


def laplacian(graph: InducedDigraph) -> np.ndarray:
    """Column-Laplacian: L[i-1, j-1] = w(j -> i), columns summing to zero."""
    return graph.rates.T - np.diag(graph.rates.sum(axis=1))


def rooted_spanning_weight(graph: InducedDigraph, component, root: int) -> float:
    """Total weight of spanning in-trees of the induced subgraph rooted at root.

    The all-minors matrix-tree theorem: ``(-1)**(k-1)`` times the
    determinant of the k-vertex subgraph's column-Laplacian with the root
    row and column deleted.  A single vertex has weight 1.
    """
    comp = sorted(set(component))
    if root not in comp:
        raise ValueError(f"root {root} is not in the component {tuple(comp)}")
    rows = [v - 1 for v in comp]
    block = graph.rates[np.ix_(rows, rows)]
    L = block.T - np.diag(block.sum(axis=1))
    keep = [t for t, v in enumerate(comp) if v != root]
    if not keep:
        return 1.0
    return float((-1.0) ** len(keep) * np.linalg.det(L[np.ix_(keep, keep)]))


def random_digraph(rng: np.random.Generator, n: int, p: float = 0.5) -> InducedDigraph:
    """Random weighted digraph on ``n`` vertices, edge probability ``p``."""
    rates = np.zeros((n, n))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < p:
                rates[src, dst] = float(rng.uniform(0.1, 3.0))
    return InducedDigraph(rates)


def strongly_connected_blocks_document(rng: np.random.Generator, N: int) -> dict:
    """``blocks`` spec document whose induced digraph is complete, so strongly connected.

    Every pair carries a random PSD block with positive rates both ways,
    of mean 8, so that the matrix-tree normalization leaves float range
    near N = 106 (it is about 1e382 at N = 128).  The dephasing block
    ``diag`` is a random PSD matrix and ``H`` a random diagonal.  No dense
    ``gamma`` is built, so N may be large.
    """
    pairs = [
        {"i": i, "j": j, "block": matrix_to_document(random_psd(rng, 2, scale=2.0))}
        for i, j in itertools.combinations(range(1, N + 1), 2)
    ]
    H = np.diag(rng.uniform(-1.0, 1.0, size=N)).astype(complex)
    gamma = {"format": "blocks", "pairs": pairs, "diag": matrix_to_document(random_psd(rng, N))}
    return {"N": N, "H": matrix_to_document(H), "gamma": gamma}


def wide_rate_documents() -> dict[str, dict]:
    """Valid ``blocks`` spec documents whose stationary ratios leave the float range, by name.

    ``birth_death_N12``: the chain 1 - 2 - ... - 12 at rate 1e22 up and
    1e-8 down, so that ``pi_{k+1} / pi_k = 1e30``.  ``two_cycle``: two
    levels, rate 1e301 from 1 to 2 and 1e-8 back, a ratio of 1e309.  Each
    graph is one terminal component, whose stationary state is concentrated
    on its top level, and every rate is above the default tolerance.  The
    pair block of (k, l) holds the rate l -> k, then k -> l, on its diagonal.
    """

    def document(N: int, up: float, down: float) -> dict:
        pairs = [
            {"i": k, "j": k + 1, "block": matrix_to_document(np.diag([down, up]))}
            for k in range(1, N)
        ]
        H = matrix_to_document(np.zeros((N, N)))
        return {"N": N, "H": H, "gamma": {"format": "blocks", "pairs": pairs}}

    return {"birth_death_N12": document(12, 1e22, 1e-8), "two_cycle": document(2, 1e301, 1e-8)}


# ---------------------------------------------------------------------------
# subspace comparison
# ---------------------------------------------------------------------------


def coordinate_stack(matrices) -> np.ndarray:
    """Column-stack the standard coordinates of a list of matrices."""
    cols = [to_standard_coordinates(np.asarray(m)) for m in matrices]
    return np.column_stack(cols)


def max_principal_angle(mats_a, mats_b) -> float:
    """Largest principal angle (radians) between two matrix spans."""
    A = coordinate_stack(mats_a)
    B = coordinate_stack(mats_b)
    return float(np.max(scipy.linalg.subspace_angles(A, B)))


# ---------------------------------------------------------------------------
# spec builders
# ---------------------------------------------------------------------------


def pair_block_spec(N, H, blocks, diag=None) -> GeneratorSpec:
    """Assemble a GeneratorSpec from 2x2 pair blocks and an optional
    population-sector block.

    ``blocks`` maps ``(i, j)`` with ``i < j`` to the 2x2 coefficient block
    over the labels ``(i, j), (j, i)``; ``diag`` is the N x N block over the
    diagonal labels ``(1,1)..(N,N)`` (entries gamma_{iijj}).
    """
    g = np.zeros((N * N, N * N), dtype=complex)
    for (i, j), blk in blocks.items():
        p1 = standard_position(i, j, N)
        p2 = standard_position(j, i, N)
        g[np.ix_([p1, p2], [p1, p2])] = np.asarray(blk, dtype=complex)
    if diag is not None:
        dpos = [standard_position(n, n, N) for n in range(1, N + 1)]
        g[np.ix_(dpos, dpos)] = np.asarray(diag, dtype=complex)
    return GeneratorSpec(H=np.asarray(H, dtype=complex), gamma=g)


def gellmann_document(H: np.ndarray, C: np.ndarray) -> dict:
    """Dense spec document of ``(H, C)``, C over the traceless Gell-Mann labels."""
    return {
        "N": len(H),
        "basis": "gellmann",
        "H": matrix_to_document(H),
        "gamma": {"format": "dense", "matrix": matrix_to_document(C)},
    }


def blocks_document(spec: GeneratorSpec) -> dict:
    """The ``blocks`` spec document of a spec with the pair-block pattern.

    Only the nonzero pair blocks are listed, in label order, with the
    diagonal-sector block as ``diag``.
    """
    N = spec.N
    pairs = []
    for i, j in itertools.combinations(range(1, N + 1), 2):
        p = standard_position(i, j, N)
        blk = spec.gamma[p : p + 2, p : p + 2]
        if blk.any():
            pairs.append({"i": i, "j": j, "block": matrix_to_document(blk)})
    gamma = {"format": "blocks", "pairs": pairs, "diag": matrix_to_document(spec.gamma[-N:, -N:])}
    return {"N": N, "basis": "standard", "H": matrix_to_document(spec.H), "gamma": gamma}


def malformed_blocks_documents(doc: dict) -> dict[str, dict]:
    """Copies of a valid ``blocks`` spec document, each with faults in its pairs, by name.

    ``doc`` must list at least two pairs.  ``two_faults`` has a bad ``i`` in
    its second pair and a NaN in its first pair's block: the error must name
    the one earlier in the document.
    """
    documents = {}

    def fault(name: str) -> dict:
        """The gamma object of a fresh copy of ``doc``, kept under ``name``."""
        documents[name] = copy.deepcopy(doc)
        return documents[name]["gamma"]

    fault("pairs_not_a_list")["pairs"] = {}
    fault("pair_not_an_object")["pairs"][0] = [1, 2]
    fault("unknown_field")["pairs"][0]["weight"] = 1.0
    pair = fault("misspelled_field")["pairs"][0]
    pair["blk"] = pair.pop("block")
    for name in ("i", "j", "block"):
        del fault(f"missing_{name}")["pairs"][0][name]
    for kind, value in (("bool", True), ("float", 1.0), ("string", "1"), ("beyond_int64", 2**63)):
        fault(f"i_{kind}")["pairs"][0]["i"] = value
    pair = fault("i_not_below_j")["pairs"][0]
    pair["i"] = pair["j"]
    fault("j_beyond_n")["pairs"][0]["j"] = doc["N"] + 1
    pairs = fault("duplicate_pair")["pairs"]
    pairs.append(copy.deepcopy(pairs[0]))
    fault("block_wrong_shape")["pairs"][0]["block"].pop()
    fault("block_numeric_string")["pairs"][0]["block"][0][0][0] = "1.0"
    fault("block_bool")["pairs"][0]["block"][0][1][1] = False
    fault("block_nan")["pairs"][0]["block"][1][1][1] = math.nan
    fault("block_inf")["pairs"][0]["block"][0][1][0] = math.inf
    pairs = fault("two_faults")["pairs"]
    pairs[1]["i"] = "1"
    pairs[0]["block"][1][0][0] = math.nan
    return documents


#: Every CLI command.
COMMANDS = (
    "validate", "canonicalize", "digraph", "kernel",
    "eigen", "check-state", "oracle", "crosscheck",
)


def command_argv(command: str, spec_path, workdir, N: int) -> list[str]:
    """CLI arguments that run ``command`` on one N-level spec file.

    ``digraph`` writes its DOT file to ``workdir/<stem>.dot``, ``eigen``
    takes the pair (1, 2), and ``check-state`` tests the maximally mixed
    state, written to ``workdir``.
    """
    spec_path, workdir = Path(spec_path), Path(workdir)
    argv = [command, str(spec_path)]
    if command == "digraph":
        argv += ["--out", str(workdir / f"{spec_path.stem}.dot")]
    elif command == "eigen":
        argv += ["--pair", "1,2"]
    elif command == "check-state":
        state = workdir / f"mixed{N}.state.json"
        state.write_text(dump_json({"matrix": matrix_to_document(np.eye(N) / N)}) + "\n")
        argv += ["--state", str(state), "--times", "0.5,2"]
    return argv


def superposition_decay_spec(a: float = 1.0, b: float = 0.75, c: float = 0.5) -> GeneratorSpec:
    """Three-level generator whose kernel contains a coherent superposition.

    Levels 1 and 2 feed each other through a rank-one pair block of rate
    ``a`` while both decay-coupling blocks toward level 3 are cut off at
    rates ``b`` and ``c``.  The stationary set is two-dimensional and
    includes the equal-weight superposition of levels 1 and 2.
    """
    H = np.zeros((3, 3), dtype=complex)
    blocks = {
        (1, 2): a * np.array([[1.0, 1.0], [1.0, 1.0]]),
        (1, 3): np.array([[b, 0.0], [0.0, 0.0]]),
        (2, 3): np.array([[c, 0.0], [0.0, 0.0]]),
    }
    return pair_block_spec(3, H, blocks)


def dephasing_ladder_spec() -> GeneratorSpec:
    """Three-level purely-dephasing generator (population-sector rates only)."""
    H = np.zeros((3, 3), dtype=complex)
    diag = np.diag([1.0, 0.0, 2.0]).astype(complex)
    return pair_block_spec(3, H, {}, diag=diag)


def sink_menagerie_spec(equal_h: bool = False) -> GeneratorSpec:
    """Eight-level generator exercising every terminal-structure case at once.

    Vertices 1..3 are isolated sinks, (4,5) carries a singular symmetric
    block (a two-sink whose kernel contribution is a single coherence), and
    {6,7,8} is a genuinely three-cyclic terminal class.  With ``equal_h``
    the Hamiltonian gap between levels 1 and 2 is closed, promoting the
    sink pair (1,2) as well.
    """
    h = [1.0, 2.0, 2.0, 5.0, 5.0, 0.3, 0.7, 1.1]
    if equal_h:
        h[0] = 2.0
    H = np.diag(h).astype(complex)
    blocks = {
        (4, 5): np.array([[1.0, 1.0j], [-1.0j, 1.0]]),
        (6, 7): np.array([[1.0, 0.0], [0.0, 2.0]]),
        (6, 8): np.array([[3.0, 0.0], [0.0, 3.0]]),
        (7, 8): np.array([[4.0, 0.0], [0.0, 1.0]]),
    }
    return pair_block_spec(8, H, blocks)


# ---------------------------------------------------------------------------
# random spec generators
# ---------------------------------------------------------------------------


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return (A + A.conj().T) / 2.0


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return A @ A.conj().T / n


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    rho = random_psd(rng, n)
    return rho / np.trace(rho).real


def random_valid_spec(rng: np.random.Generator, N: int) -> GeneratorSpec:
    """Random generator with a full PSD coefficient matrix (hence valid)."""
    return GeneratorSpec(H=random_hermitian(rng, N), gamma=random_psd(rng, N * N))


def random_pbd_spec(rng: np.random.Generator, N: int) -> GeneratorSpec:
    """Random pair-block-diagonal spec with a diagonal Hamiltonian.

    Mixes the structural cases the closed-form kernel has to handle: empty
    blocks, generic PSD blocks, singular symmetric blocks (candidate
    coherence-carrying two-sinks), designated sink vertices with all
    out-rates removed, population-sector couplings that are zero / generic
    PSD / uniform, and Hamiltonians with and without degeneracies.
    """
    # Hamiltonian: draw from a small pool half the time so degeneracies occur.
    if rng.random() < 0.5:
        h = rng.choice([0.0, 0.5, 1.0], size=N)
    else:
        h = rng.uniform(-2.0, 2.0, size=N)
    H = np.diag(h).astype(complex)

    n_sinks = rng.integers(0, min(3, N + 1))
    sinks = {int(v) for v in rng.choice(np.arange(1, N + 1), size=n_sinks, replace=False)}

    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            u = rng.random()
            if u < 0.3:
                continue  # empty block
            if u < 0.7:
                blk = random_psd(rng, 2)
            else:
                # singular symmetric block: det 0, equal real off-diagonals.
                g = float(rng.uniform(0.2, 2.0))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                blk = np.array([[g, sign * g], [sign * g, g]], dtype=complex)
            # A sink vertex has no out-edges: zeroing a diagonal entry of a
            # PSD block forces its off-diagonals to zero as well.
            if j in sinks:
                blk = np.diag([0.0, blk[1, 1].real]).astype(complex)
            if i in sinks:
                blk = np.diag([blk[0, 0].real, 0.0]).astype(complex)
            if np.any(blk != 0):
                blocks[(i, j)] = blk

    u = rng.random()
    if u < 0.4:
        diag = None
    elif u < 0.7:
        diag = random_psd(rng, N)
    else:
        diag = float(rng.uniform(0.1, 1.5)) * np.ones((N, N), dtype=complex)

    return pair_block_spec(N, H, blocks, diag=diag)


def pair_block_families() -> dict[str, GeneratorSpec]:
    """Every pair-block family of the helpers, by name; each gamma has the exact pattern.

    Besides the valid families: each with gamma negated (invalid), a real
    identity-row mismatch on a diagonal-sector label (the trace witness comes
    from the diagonal-sector block of C), and a non-Hermitian pair block.
    """
    rng = np.random.default_rng(99)
    specs = {f"random_pbd_N{N}": random_pbd_spec(rng, N) for N in range(1, 10)}
    specs["superposition"] = superposition_decay_spec()
    specs["ladder"] = dephasing_ladder_spec()
    specs["menagerie"] = sink_menagerie_spec()
    specs["menagerie_equal_h"] = sink_menagerie_spec(equal_h=True)
    for name, spec in list(specs.items()):
        specs[f"{name}_negated"] = GeneratorSpec(H=spec.H, gamma=-spec.gamma)
    N = 4
    R = N * N - N
    C = np.zeros((N * N, N * N), dtype=complex)
    for t in range(0, R, 2):
        C[t : t + 2, t : t + 2] = random_psd(rng, 2)
    C[R:-1, R:-1] = random_psd(rng, N - 1)
    C[-1, standard_position(2, 2, N)] = 0.7
    gamma = to_standard(C)
    specs["diagonal_trace_mismatch"] = GeneratorSpec(H=np.zeros((N, N)), gamma=gamma)
    specs["non_hermitian_pair"] = pair_block_spec(
        3, np.zeros((3, 3)), {(1, 2): np.array([[1.0, 0.5], [0.0, 1.0]])}, diag=np.eye(3)
    )
    return specs


#: The pair block of :func:`near_threshold_psd_specs` that sets B's scale:
#: largest diagonal entry 2, eigenvalues 0.5 and 3.5.
NEAR_THRESHOLD_SCALE_BLOCK = np.array([[2.0, 1.5], [1.5, 2.0]])


def lowest_eigenvalue_block(lowest: float) -> np.ndarray:
    """Real symmetric 2x2 block with eigenvalues ``lowest`` and ``0.5 - lowest``, diagonal 0.25."""
    return np.array([[0.25, 0.25 - lowest], [0.25 - lowest, 0.25]])


def near_threshold_psd_specs() -> dict[str, GeneratorSpec]:
    """Specs on either side of validate's PSD boundaries, at the default tolerance, by name.

    Built in the Gell-Mann basis, N = 3..6, with the pair-block pattern and
    no identity row or column.  B's first pair block is
    :data:`NEAR_THRESHOLD_SCALE_BLOCK`, which holds its largest diagonal
    entry d = 2 and eigenvalue 3.5: at tolerance 1e-9 the PSD threshold is
    t = 3.5e-9 and the shift of validate's Cholesky certificate
    ``s = 1e-9 * d / 2 = 1e-9``.  B's lowest eigenvalue is ``-x * (1 + e)``
    for x in (t, s) and e in (-1e-3, 1e-3), set by
    :func:`lowest_eigenvalue_block` in its last pair block (odd N) or in its
    diagonal-sector block (even N).  Only ``t_outside`` is invalid at 1e-9;
    ``s_inside`` is the one the certificate passes.  Every other block has
    diagonal 0.5 and eigenvalues in [0.25, 0.75].
    """
    t, s = 3.5e-9, 1e-9
    specs = {}
    for N in range(3, 7):
        R = N * N - N
        for x_name, x in (("t", t), ("s", s)):
            for side, e in (("inside", -1e-3), ("outside", 1e-3)):
                C = np.zeros((N * N, N * N), dtype=complex)
                for p in range(0, R, 2):
                    C[p : p + 2, p : p + 2] = [[0.5, 0.25j], [-0.25j, 0.5]]
                C[0:2, 0:2] = NEAR_THRESHOLD_SCALE_BLOCK
                C[R:-1, R:-1] = 0.5 * np.eye(N - 1)
                at = R - 2 if N % 2 else R
                C[at : at + 2, at : at + 2] = lowest_eigenvalue_block(-x * (1.0 + e))
                H = np.diag(0.5 * np.arange(N)).astype(complex)
                specs[f"N{N}_{x_name}_{side}"] = GeneratorSpec(H=H, gamma=to_standard(C))
    return specs


def random_identity_preserving_spec(rng: np.random.Generator, N: int) -> GeneratorSpec:
    """Random identity-preserving spec, built in the orthonormal basis.

    A coefficient matrix that is diagonal on the off-diagonal (Hermitian)
    basis elements and supported arbitrarily (but PSD) on the commuting
    traceless-diagonal family annihilates the identity from both sides.
    """
    R = N * N - N
    C = np.zeros((N * N - 1, N * N - 1), dtype=complex)
    C[:R, :R] = np.diag(rng.uniform(0.0, 2.0, size=R))
    C[R:, R:] = random_psd(rng, N - 1)
    return gellmann_to_standard(random_hermitian(rng, N), C)


def identity_coupled_spec(
    rng: np.random.Generator, N: int, coupling: complex
) -> GeneratorSpec:
    """Valid spec whose only sector coupling runs through the identity direction.

    Built in the Gell-Mann basis: random PSD 2x2 pair blocks and a random
    PSD diagonal-sector block on the traceless part, and an identity row
    and column that touch the one pair label lam_12,
    ``C[-1, p] = coupling`` and ``C[p, -1] = conj(coupling)``.  In the
    standard basis this couples the pair (1, 2) to the diagonal sector, so
    gamma is not pair-block diagonal, but its canonical form is.
    Canonicalization moves ``Im(coupling)/sqrt(N) * lam_12`` into the
    diagonal Hamiltonian, which stays diagonal only for real ``coupling``.
    """
    n = N * N
    R = n - N
    C = np.zeros((n, n), dtype=complex)
    for t in range(0, R, 2):
        C[t : t + 2, t : t + 2] = random_psd(rng, 2)
    C[R:-1, R:-1] = random_psd(rng, N - 1)
    p = standard_position(1, 2, N)
    C[-1, p] = coupling
    C[p, -1] = np.conj(coupling)
    W = basis_change_matrix(N)
    H = np.diag(rng.uniform(-2.0, 2.0, size=N)).astype(complex)
    return GeneratorSpec(H=H, gamma=W.conj().T @ C @ W)


def random_consistent_spec(
    rng: np.random.Generator, N: int, n_parts: int | None = None
) -> tuple[GeneratorSpec, list[set[int]]]:
    """Random valid spec whose digraph splits into a known partition.

    Rates are supported on within-part pairs only (with a diagonal boost so
    every within-part pair really is connected), population-sector couplings
    may cross parts, and the Hamiltonian is block-diagonal over the parts.
    Returns the spec together with the partition.
    """
    if n_parts is None:
        n_parts = int(rng.integers(2, min(4, N) + 1))
    assignment = rng.integers(0, n_parts, size=N)
    # make sure every part is non-empty
    for k in range(n_parts):
        if not np.any(assignment == k):
            assignment[rng.integers(0, N)] = k
    parts = [set(np.flatnonzero(assignment == k) + 1) for k in range(n_parts)]
    parts = [p for p in parts if p]

    labels = standard_labels(N)
    support = []
    for pos, (i, j) in enumerate(labels):
        if i == j:
            support.append(pos)
        elif any(i in p and j in p for p in parts):
            support.append(pos)
    sub = random_psd(rng, len(support)) + 0.1 * np.eye(len(support))
    gamma = np.zeros((N * N, N * N), dtype=complex)
    gamma[np.ix_(support, support)] = sub

    H = np.zeros((N, N), dtype=complex)
    for p in parts:
        idx = np.array(sorted(v - 1 for v in p))
        H[np.ix_(idx, idx)] = random_hermitian(rng, len(idx))

    return GeneratorSpec(H=H, gamma=gamma), parts


#: The random spec families of the oracle's tests, each ``(rng, N) -> GeneratorSpec``.
ORACLE_FAMILIES = {
    "valid": random_valid_spec,
    "consistent": lambda rng, N: random_consistent_spec(rng, N)[0],
    "pair_block": random_pbd_spec,
    "identity_coupled": lambda rng, N: identity_coupled_spec(rng, N, 0.3 - 0.2j),
}


def haar_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def direct_diag_dissipator_matrix(n: int, k: int, ell: int, N: int) -> np.ndarray:
    """Direct evaluation of the traceless-diagonal dissipator on a basis
    element: D(X) = 2 A X A - X A^2 - A^2 X with A the n-th diagonal
    orthonormal basis matrix and X the (k, ell) one."""
    A = gellmann(n, n, N)
    X = gellmann(k, ell, N)
    return 2.0 * A @ X @ A - X @ A @ A - A @ A @ X
