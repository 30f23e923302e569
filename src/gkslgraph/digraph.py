"""Digraph induced by a generator on level indices.

The induced digraph has one vertex per level 1..N and an edge j -> i of
weight gamma_ij (the population transfer rate from level j to level i,
read off the diagonal of the (i, j) coefficient pair block) whenever the
rate exceeds a threshold.  Restricted to the diagonal matrix sector, every
generator acts as the column-Laplacian of this digraph, so invariant
populations are matrix-tree sums over its terminal strongly connected
components.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .basis import (
    DEFAULT_TOL,
    _standard_position_array,
    convert_block,
    pair_block_unitary,
    standard_position,
)
from .generator import GellMannSpec, GeneratorSpec

__all__ = [
    "InducedDigraph",
    "SCCDecomposition",
    "StationaryVector",
    "SinkReport",
    "induced_digraph",
    "laplacian",
    "scc_decompose",
    "rooted_spanning_weight",
    "tscc_stationary_vectors",
    "sinks_and_singular_2sinks",
    "undirected_components",
    "to_dot",
]


@dataclass(frozen=True)
class InducedDigraph:
    """Weighted digraph on vertices 1..n; weights keyed (src, dst).

    The graph is read-only, so its strongly connected structure
    (:attr:`scc`) is computed once, on first use, and shared by every
    caller.
    """

    n: int
    weights: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for (src, dst), w in self.weights.items():
            if not (1 <= src <= self.n and 1 <= dst <= self.n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={self.n}")
            if src == dst:
                raise ValueError(f"self-loop at vertex {src} not allowed")
            if not w > 0:
                raise ValueError(f"edge ({src}, {dst}) has non-positive weight {w}")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def successors(self, v: int) -> list[int]:
        return sorted(dst for (src, dst) in self.weights if src == v)

    @cached_property
    def scc(self) -> SCCDecomposition:
        return scc_decompose(self)


@dataclass
class SCCDecomposition:
    """Strongly connected components with condensation reachability.

    ``components`` are sorted vertex tuples, ordered by smallest vertex;
    ``reachable[k]`` is the set of component indices reachable from
    component k in the condensation (including k itself); ``terminal[k]``
    holds iff component k reaches only itself.
    """

    components: tuple[tuple[int, ...], ...]
    terminal: tuple[bool, ...]
    reachable: tuple[frozenset[int], ...]

    def terminal_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            comp for comp, term in zip(self.components, self.terminal) if term
        )


@dataclass
class StationaryVector:
    """Stationary population on one terminal SCC.

    ``rho_tilde`` holds the unnormalized matrix-tree weights aligned with
    ``component``; ``rho`` is the normalized distribution embedded in R^n.
    """

    component: tuple[int, ...]
    rho: np.ndarray
    rho_tilde: tuple[float, ...]
    normalization: float


@dataclass
class SinkReport:
    """Sinks and terminal 2-cycles of the induced digraph.

    ``singular_two_sinks`` lists the terminal two-vertex components whose
    coefficient pair block is symmetric and singular (rank at most one).
    """

    sinks: tuple[int, ...]
    two_sinks: tuple[tuple[int, int], ...]
    singular_two_sinks: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _pair_gamma_block(
    spec: GeneratorSpec | GellMannSpec, k: int, ell: int
) -> np.ndarray:
    """The 2x2 coefficient block over labels ((k, ell), (ell, k)), k < ell.

    Both bases place the pair at the same two positions.
    """
    p = [standard_position(k, ell, spec.N), standard_position(ell, k, spec.N)]
    if isinstance(spec, GellMannSpec):
        return convert_block(spec.C[np.ix_(p, p)], "c-to-gamma")
    return spec.gamma[np.ix_(p, p)]


def _rate_table(spec: GeneratorSpec | GellMannSpec) -> np.ndarray:
    """R[i-1, j-1] = Re gamma_{ij,ij}, the transfer rate j -> i; zero diagonal."""
    N = spec.N
    if isinstance(spec, GellMannSpec):
        P = N * (N - 1) // 2
        t = np.arange(P)
        blocks = spec.C[: 2 * P, : 2 * P].reshape(P, 2, P, 2)[t, :, t, :]
        U = pair_block_unitary()
        gamma_blocks = U.conj().T @ blocks @ U  # convert_block on every pair
        rates = np.zeros(N * N)
        rates[: 2 * P] = np.diagonal(gamma_blocks, axis1=1, axis2=2).real.ravel()
    else:
        rates = np.diagonal(spec.gamma).real
    R = rates[_standard_position_array(N)]
    np.fill_diagonal(R, 0.0)
    return R


def _singularity_checks(
    spec: GeneratorSpec | GellMannSpec, k: int, ell: int, tol: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(value, threshold) of the two tests that make the pair block singular.

    Rate symmetry ``|g_kl - g_lk|`` and block singularity ``|det|``, with
    thresholds tol and tol**2 scaled by the block magnitude.
    """
    blk = _pair_gamma_block(spec, k, ell)
    scale = max(1.0, float(np.abs(blk).max()))
    det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
    return (abs(blk[0, 0] - blk[1, 1]), tol * scale), (abs(det), tol * scale**2)


def induced_digraph(
    spec: GeneratorSpec | GellMannSpec, tol: float = DEFAULT_TOL
) -> InducedDigraph:
    """Build the induced digraph: edge j -> i iff gamma_ij > tol.

    The threshold is absolute — an edge is a strictly positive transfer
    rate, and rates at or below tol (including small negatives from
    round-off) are dropped.
    """
    N = spec.N
    R = _rate_table(spec)
    weights: dict[tuple[int, int], float] = {}
    # Edges go in pair order, j -> i before i -> j: the order of the weights
    # fixes the float summation order of the stationary vectors.
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if R[i - 1, j - 1] > tol:
                weights[(j, i)] = float(R[i - 1, j - 1])
            if R[j - 1, i - 1] > tol:
                weights[(i, j)] = float(R[j - 1, i - 1])
    return InducedDigraph(n=N, weights=weights)


def laplacian(graph: InducedDigraph) -> np.ndarray:
    """Column-Laplacian: L[i-1, j-1] = w(j -> i), columns summing to zero."""
    L = np.zeros((graph.n, graph.n))
    for (src, dst), w in graph.weights.items():
        L[dst - 1, src - 1] += w
        L[src - 1, src - 1] -= w
    return L


# ---------------------------------------------------------------------------
# Strongly connected structure
# ---------------------------------------------------------------------------


def scc_decompose(graph: InducedDigraph) -> SCCDecomposition:
    """Tarjan's algorithm (iterative), plus condensation reachability."""
    n = graph.n
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for src, dst in sorted(graph.weights):
        adj[src].append(dst)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[tuple[int, ...]] = []

    for root in range(1, n + 1):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                elif w in onstack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                comps.append(tuple(sorted(comp)))

    comps.sort(key=lambda c: c[0])
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    cond_adj: list[set[int]] = [set() for _ in comps]
    for src, dst in graph.weights:
        a, b = comp_of[src], comp_of[dst]
        if a != b:
            cond_adj[a].add(b)

    reach: list[frozenset[int]] = []
    for k in range(len(comps)):
        seen = {k}
        frontier = [k]
        while frontier:
            cur = frontier.pop()
            for nxt in cond_adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach.append(frozenset(seen))

    terminal = tuple(r == frozenset({k}) for k, r in enumerate(reach))
    return SCCDecomposition(
        components=tuple(comps), terminal=terminal, reachable=tuple(reach)
    )


def undirected_components(graph: InducedDigraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the symmetrized graph, as sorted tuples."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, graph.n + 1)}
    for src, dst in graph.weights:
        nbrs[src].add(dst)
        nbrs[dst].add(src)
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for v in range(1, graph.n + 1):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            cur = frontier.pop()
            for nxt in nbrs[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


# ---------------------------------------------------------------------------
# Matrix-tree stationary vectors
# ---------------------------------------------------------------------------


def rooted_spanning_weight(
    graph: InducedDigraph, component: Iterable[int], root: int
) -> float:
    """Total weight of spanning in-trees of the induced subgraph rooted at root.

    Evaluates ``(-1)**(|S|-1)`` times the determinant of the subgraph
    Laplacian with the root row and column deleted (all-minors matrix-tree
    theorem).  A single-vertex subgraph has weight 1 by convention.
    """
    comp = tuple(sorted(set(component)))
    if root not in comp:
        raise ValueError(f"root {root} is not in the component {comp}")
    k = len(comp)
    if k == 1:
        return 1.0
    pos = {v: t for t, v in enumerate(comp)}
    L = np.zeros((k, k))
    for (src, dst), w in graph.weights.items():
        if src in pos and dst in pos:
            L[pos[dst], pos[src]] += w
            L[pos[src], pos[src]] -= w
    r = pos[root]
    minor = np.delete(np.delete(L, r, axis=0), r, axis=1)
    return float((-1.0) ** (k - 1) * np.linalg.det(minor))


def tscc_stationary_vectors(graph: InducedDigraph) -> list[StationaryVector]:
    """One stationary population per terminal SCC, via rooted tree weights.

    Weights are clamped at zero (determinant round-off can produce tiny
    negatives) and normalized to a distribution supported on the component.
    """
    out: list[StationaryVector] = []
    for comp in graph.scc.terminal_components():
        tilde = np.array([rooted_spanning_weight(graph, comp, v) for v in comp])
        tilde = np.clip(tilde, 0.0, None)
        lam = float(tilde.sum())
        rho = np.zeros(graph.n)
        for t, v in enumerate(comp):
            rho[v - 1] = tilde[t] / lam
        out.append(
            StationaryVector(
                component=comp,
                rho=rho,
                rho_tilde=tuple(float(x) for x in tilde),
                normalization=lam,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Sink structure
# ---------------------------------------------------------------------------


def sinks_and_singular_2sinks(
    spec: GeneratorSpec | GellMannSpec, tol: float = DEFAULT_TOL
) -> SinkReport:
    """Classify the terminal components of size one and two.

    A terminal pair {k, l} is *singular* when its coefficient block is
    symmetric (gamma_kl == gamma_lk) and has vanishing determinant, both
    within tol scaled by the block magnitude.
    """
    return _sink_report(spec, induced_digraph(spec, tol), tol)


def _sink_report(
    spec: GeneratorSpec | GellMannSpec, graph: InducedDigraph, tol: float
) -> SinkReport:
    """:func:`sinks_and_singular_2sinks` on the already induced digraph."""
    sinks: list[int] = []
    two: list[tuple[int, int]] = []
    singular: list[tuple[int, int]] = []
    for comp in graph.scc.terminal_components():
        if len(comp) == 1:
            sinks.append(comp[0])
        elif len(comp) == 2:
            two.append(comp)
            checks = _singularity_checks(spec, comp[0], comp[1], tol)
            if all(value <= threshold for value, threshold in checks):
                singular.append(comp)
    return SinkReport(
        sinks=tuple(sinks),
        two_sinks=tuple(two),
        singular_two_sinks=tuple(singular),
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(graph: InducedDigraph, sink_report: SinkReport | None = None) -> str:
    """Render the digraph in DOT format.

    Terminal SCCs of size >= 2 become ``cluster`` subgraphs labeled TSCC,
    sink vertices are marked ``sink="true"`` and drawn as double circles,
    and the edges of singular terminal pairs (when a report is supplied)
    are marked ``singular2sink="true"`` and dashed.  Weights are emitted
    with 17 significant digits.
    """
    dec = graph.scc
    if sink_report is not None:
        sinks = set(sink_report.sinks)
        singular = set(sink_report.singular_two_sinks)
    else:
        sinks = {c[0] for c in dec.terminal_components() if len(c) == 1}
        singular = set()
    singular_edges = set()
    for k, ell in singular:
        singular_edges.add((k, ell))
        singular_edges.add((ell, k))

    lines = ["digraph induced {"]
    clustered: set[int] = set()
    cluster_id = 0
    for comp, term in zip(dec.components, dec.terminal):
        if term and len(comp) >= 2:
            lines.append(f"  subgraph cluster_{cluster_id} {{")
            lines.append('    label="TSCC";')
            for v in comp:
                lines.append(f"    {v};")
            lines.append("  }")
            clustered.update(comp)
            cluster_id += 1
    for v in range(1, graph.n + 1):
        if v in clustered:
            continue
        if v in sinks:
            lines.append(f'  {v} [sink="true", shape=doublecircle];')
        else:
            lines.append(f"  {v};")
    for src, dst in sorted(graph.weights):
        w = graph.weights[(src, dst)]
        attrs = [f'label="{format(w, ".17g")}"']
        if (src, dst) in singular_edges:
            attrs.append('singular2sink="true"')
            attrs.append("style=dashed")
        lines.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
