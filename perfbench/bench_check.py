"""The benchmark's own numeric route and output checker.

Nothing here calls ``gkslgraph``: the superoperator is assembled from the
generated coefficients with the benchmark's own index conventions, the
reference kernel dimension comes from an SVD of it, and every emitted result
is checked against those.  All of this runs outside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

#: Singular values at or below this share of the largest count as zero ...
NULL_REL = 1e-8
#: ... and a reference needs no singular value between that and this share.
GAP_REL = 1e-5
#: Largest accepted |L(x)|_F, as a share of |S|_2 |x|_F, for a kernel element.
RESIDUAL_REL = 1e-7
#: Smallest accepted singular value of the normalized kernel elements.
INDEPENDENCE_MIN = 1e-6
#: A constructed state counts as stationary below this residual |L(rho)|_F
#: and as perturbed above the second; the program's own criterion
#: (|L(rho)|_F <= 1e-9) lies between the two.
STATIONARY_MAX = 1e-11
PERTURBED_MIN = 1e-6


def standard_labels(N: int) -> list[tuple[int, int]]:
    """Label order of the spec format: (i, j), (j, i) for i < j, then (n, n)."""
    labels = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            labels += [(i, j), (j, i)]
    return labels + [(n, n) for n in range(1, N + 1)]


def gamma_from_blocks(N, pairs, diag) -> np.ndarray:
    """Coefficient 4-tensor G[a, b, c, d] = gamma_{(a+1, b+1), (c+1, d+1)}."""
    G = np.zeros((N, N, N, N), dtype=complex)
    for (i, j), blk in pairs.items():
        a, b = i - 1, j - 1
        G[a, b, a, b] = blk[0, 0]
        G[a, b, b, a] = blk[0, 1]
        G[b, a, a, b] = blk[1, 0]
        G[b, a, b, a] = blk[1, 1]
    if diag is not None:
        n = np.arange(N)
        G[n[:, None], n[:, None], n[None, :], n[None, :]] = diag
    return G


def gamma_from_dense(N, matrix) -> np.ndarray:
    """Coefficient 4-tensor from a matrix over :func:`standard_labels`."""
    labels = np.array(standard_labels(N)) - 1
    G = np.zeros((N, N, N, N), dtype=complex)
    a, b = labels[:, 0], labels[:, 1]
    G[a[:, None], b[:, None], a[None, :], b[None, :]] = matrix
    return G


def superoperator(H, G) -> np.ndarray:
    """S with vec(L(X)) = S vec(X) for row-major vec.

    ``L(X) = -i[H, X] + J - (M X + X M)/2`` with the jump term
    ``J[i, k] = sum_jl G[i, j, k, l] X[j, l]`` (from ``E_ij X E_lk``) and
    ``M[l, j] = sum_i G[i, j, i, l]`` (from ``E_lk E_ij``).
    """
    N = H.shape[0]
    eye = np.eye(N)
    M = np.einsum("ijil->lj", G)
    T = G.transpose(0, 2, 1, 3).reshape(N * N, N * N)
    return (
        -1j * (np.kron(H, eye) - np.kron(eye, H.T))
        + T
        - 0.5 * (np.kron(M, eye) + np.kron(eye, M.T))
    )


@dataclass(frozen=True)
class Reference:
    """Reference answer for one spec: S, its norm and its null dimension."""

    S: np.ndarray
    s_max: float
    dimension: int


def reference(S) -> Reference | None:
    """Null dimension of S from an SVD of each block of its sparsity pattern.

    S is block diagonal after a permutation whenever its nonzero pattern
    splits into components (one 2x2 block per level pair for a pair-block
    spec), so the SVD runs per component.  Returns None when the singular
    values show no clear gap at the null threshold.
    """
    pattern = scipy.sparse.csr_matrix((np.abs(S) + np.abs(S.T)) > 0)
    n_comp, comp = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    singular = []
    for c in range(n_comp):
        idx = np.flatnonzero(comp == c)
        singular.append(np.linalg.svd(S[np.ix_(idx, idx)], compute_uv=False))
    s = np.concatenate(singular)
    s_max = float(s.max())
    if s_max == 0.0:
        return Reference(S=S, s_max=0.0, dimension=S.shape[0])
    if np.any((s > NULL_REL * s_max) & (s <= GAP_REL * s_max)):
        return None
    return Reference(S=S, s_max=s_max, dimension=int(np.count_nonzero(s <= NULL_REL * s_max)))


def terminal_stationary_populations(S, N) -> list[np.ndarray]:
    """Stationary populations of each terminal class of the rate graph.

    The diagonal block of S is the classical rate matrix of a pair-block
    generator (edge j -> i when its entry [i, j] is positive).  Each
    terminal strongly connected class carries one stationary distribution.
    """
    d = np.arange(N) * (N + 1)
    Q = S[np.ix_(d, d)].real
    adjacency = Q.T > 0
    np.fill_diagonal(adjacency, False)
    n_comp, comp = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(adjacency), directed=True, connection="strong"
    )
    populations = []
    for c in range(n_comp):
        idx = np.flatnonzero(comp == c)
        leaves = adjacency[idx][:, comp != c]
        if leaves.any():
            continue
        v = np.linalg.svd(Q[np.ix_(idx, idx)])[2][-1].real
        v = np.clip(v * np.sign(v.sum()), 0.0, None)
        p = np.zeros(N)
        p[idx] = v / v.sum()
        populations.append(p)
    return populations


def state_is_invariant(S, rho) -> bool | None:
    """True or False when |L(rho)|_F is clearly on one side, else None."""
    r = float(np.linalg.norm(S @ rho.reshape(-1)))
    if r <= STATIONARY_MAX:
        return True
    if r >= PERTURBED_MIN:
        return False
    return None


def _matrix(doc, N) -> np.ndarray:
    M = np.asarray(doc, dtype=float)
    if M.shape != (N, N, 2):
        raise ValueError(f"expected an {N}x{N} matrix of [re, im], got shape {M.shape}")
    return M[..., 0] + 1j * M[..., 1]


def check_kernel(doc, N, ref: Reference, expected_method) -> list[str]:
    """Problems with one ``kernel`` result; empty when it is correct."""
    problems = []
    if doc.get("method") != expected_method:
        problems.append(f"method {doc.get('method')!r}, expected {expected_method!r}")
    if expected_method == "oracle" and not doc.get("fallback_reason"):
        problems.append("oracle result without a fallback_reason")
    elements = doc.get("elements", [])
    if doc.get("dimension") != len(elements) or len(elements) != ref.dimension:
        problems.append(
            f"dimension {doc.get('dimension')} with {len(elements)} elements, "
            f"reference {ref.dimension}"
        )
    columns = []
    for t, element in enumerate(elements):
        try:
            X = _matrix(element["matrix"], N)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"element {t}: {exc}")
            continue
        norm = float(np.linalg.norm(X))
        if not math.isfinite(norm) or norm == 0.0:
            problems.append(f"element {t}: norm {norm}")
            continue
        residual = float(np.linalg.norm(ref.S @ X.reshape(-1)))
        bound = RESIDUAL_REL * max(1.0, ref.s_max) * norm
        if not residual <= bound:
            problems.append(f"element {t}: |L(x)|_F = {residual:.3e} > {bound:.3e}")
        columns.append(X.reshape(-1) / norm)
    if columns and not problems:
        smallest = float(np.linalg.svd(np.stack(columns, axis=1), compute_uv=False).min())
        if smallest < INDEPENDENCE_MIN:
            problems.append(f"elements are not independent (sigma_min {smallest:.3e})")
    return problems


def check_state(doc, expect_invariant, times) -> list[str]:
    """Problems with one ``check-state`` result; empty when it is correct."""
    problems = []
    if doc.get("invariant") is not expect_invariant:
        problems.append(f"invariant {doc.get('invariant')!r}, constructed {expect_invariant}")
    if doc.get("times") != list(times):
        problems.append(f"times {doc.get('times')!r}, requested {list(times)}")
    return problems


def check_output(text, command, N, ref, expected_method=None, expect_invariant=None,
                 times=()) -> list[str]:
    """Problems with one emitted result document, whatever its command."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON ({exc})"]
    if not isinstance(doc, dict) or doc.get("command") != command:
        return [f"output is not a {command!r} result"]
    if command == "kernel":
        return check_kernel(doc, N, ref, expected_method)
    return check_state(doc, expect_invariant, times)
