"""Digraph induced by a generator on level indices.

The induced digraph has one vertex per level 1..N and an edge j -> i of
weight gamma_ij (the population transfer rate from level j to level i,
read off the diagonal of the (i, j) coefficient pair block) whenever the
rate exceeds a threshold.  Restricted to the diagonal matrix sector, every
generator acts as the column-Laplacian of this digraph, so invariant
populations are matrix-tree sums over its terminal strongly connected
components.

The graph is held as its N x N rate array.  Every component structure
comes from one boolean reachability closure, made by repeated squaring:
vertices that reach each other form a strongly connected component, a
component is terminal when it reaches no other vertex, and the closure of
the symmetrized graph gives the undirected components.  The stationary
vector of each terminal component comes from the subtraction-free
elimination of Grassmann, Taksar and Heyman (Oper. Res. 33, 1985) on its
block of the rate array, with the matrix-tree normalization as a logarithm,
so that it cannot overflow; where the stationary ratios leave the float
range, the populations are rescaled by exact powers of two as they are built.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import DEFAULT_TOL, _pair_levels
from .generator import GeneratorSpec

__all__ = [
    "InducedDigraph",
    "SCCDecomposition",
    "StationaryVector",
    "induced_digraph",
    "scc_decompose",
    "tscc_stationary_vectors",
    "undirected_components",
    "to_dot",
]


@dataclass(frozen=True, eq=False)
class InducedDigraph:
    """Weighted digraph on vertices 1..n, held as its read-only n x n rate array.

    ``rates[src-1, dst-1]`` is the weight of the edge src -> dst, and 0
    where there is no edge.  The graph is read-only, so its strongly
    connected structure (:attr:`scc`) is computed once, on first use, and
    shared by every caller.
    """

    rates: np.ndarray

    def __post_init__(self) -> None:
        rates = np.array(self.rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1] or rates.size == 0:
            raise ValueError(f"rates must be a non-empty square array, got shape {rates.shape}")
        if not np.isfinite(rates).all():
            raise ValueError("rates must be finite")
        if (rates < 0.0).any():
            raise ValueError("rates must be non-negative")
        if np.diagonal(rates).any():
            raise ValueError("rates must have a zero diagonal: self-loops are not allowed")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def edges(self) -> list[tuple[int, int, float]]:
        """Every edge as ``(src, dst, weight)``, sorted by ``(src, dst)``."""
        src, dst = np.nonzero(self.rates)
        return list(zip((src + 1).tolist(), (dst + 1).tolist(), self.rates[src, dst].tolist()))

    @cached_property
    def scc(self) -> SCCDecomposition:
        return scc_decompose(self)


@dataclass
class SCCDecomposition:
    """Strongly connected components and which of them are terminal.

    ``components`` are sorted vertex tuples, ordered by smallest vertex;
    ``terminal[k]`` holds iff no edge leaves component k.
    """

    components: tuple[tuple[int, ...], ...]
    terminal: tuple[bool, ...]

    def terminal_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            comp for comp, term in zip(self.components, self.terminal) if term
        )


@dataclass
class StationaryVector:
    """Stationary population on one terminal SCC.

    ``rho`` is the normalized distribution embedded in R^n, and
    ``log_normalization`` the log of the component's total in-tree weight,
    so that the in-tree weight rooted at vertex v is
    ``rho[v-1] * exp(log_normalization)``.
    """

    component: tuple[int, ...]
    rho: np.ndarray
    log_normalization: float


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def induced_digraph(spec: GeneratorSpec, tol: float = DEFAULT_TOL) -> InducedDigraph:
    """Build the induced digraph: edge j -> i iff gamma_ij > tol.

    The threshold is absolute — an edge is a strictly positive transfer
    rate, and rates at or below tol (including small negatives from
    round-off) are dropped.  The rates are the diagonals of gamma's pair
    blocks, read from the spec's pattern data (``spec._pattern``).
    """
    pairs = spec._pattern.pairs.real  # pair (i, j): rates j -> i and i -> j
    i, j = _pair_levels(spec.N).T - 1
    rates = np.zeros((spec.N, spec.N))
    rates[j, i] = pairs[:, 0, 0]
    rates[i, j] = pairs[:, 1, 1]
    rates[rates <= tol] = 0.0
    return InducedDigraph(rates)


# ---------------------------------------------------------------------------
# Component structure
# ---------------------------------------------------------------------------


def _closure(adjacent: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency matrix.

    ``R[u, v]`` holds iff a path leads from u to v.  Each squaring doubles the
    path length covered, so about ``log2 n`` float32 products suffice; each
    entry of a product counts two-step paths, at most n, and only its sign
    is read.
    """
    R = adjacent | np.eye(len(adjacent), dtype=bool)
    while True:
        F = R.astype(np.float32)
        squared = (F @ F) > 0
        if (squared == R).all():
            return R
        R = squared


def _grouped(label: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Vertex tuples of the components, where ``label[v]`` is the smallest vertex of v's."""
    roots = np.flatnonzero(label == np.arange(len(label)))
    return tuple(tuple((np.flatnonzero(label == r) + 1).tolist()) for r in roots)


def scc_decompose(graph: InducedDigraph) -> SCCDecomposition:
    """Components of mutual reachability; terminal when they reach nothing else.

    Every vertex of a component reaches the same vertices, so the
    component is terminal iff its smallest vertex reaches only the
    component.
    """
    R = _closure(graph.rates > 0)
    mutual = R & R.T
    label = mutual.argmax(axis=1)
    escapes = (R & ~mutual).any(axis=1)
    components = _grouped(label)
    return SCCDecomposition(
        components=components,
        terminal=tuple(not escapes[comp[0] - 1] for comp in components),
    )


def undirected_components(graph: InducedDigraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the symmetrized graph, as sorted tuples."""
    adjacent = graph.rates > 0
    return _grouped(_closure(adjacent | adjacent.T).argmax(axis=1))


# ---------------------------------------------------------------------------
# Matrix-tree stationary vectors
# ---------------------------------------------------------------------------


def _gth(rates: np.ndarray) -> tuple[np.ndarray, float]:
    """``(pi, log w)`` of a strongly connected block; ``rates[i, j]`` is the rate i -> j.

    Grassmann-Taksar-Heyman elimination: vertices k..2 are eliminated in
    turn, each pivot ``s_m`` being the out-rate of vertex m to the vertices
    left, and m's out-rates are divided by it before they are passed on, so
    no new rate exceeds an old one.  Only sums, products and quotients of
    positive numbers are formed, so nothing cancels.  The pivots' product is
    the in-tree weight rooted at the first vertex, ``pi`` is built up from
    ``pi_1 = 1``, and ``w``, the total in-tree weight, is that product times
    ``sum(pi)``.  The diagonal is never read, and the block is overwritten.

    Where the next ``pi_m``, or ``sum(pi)``, would not be finite (the
    stationary ratios can leave the float range), ``pi`` so far is scaled
    down by an exact power of two ``2**e`` that brings ``pi_m``, or
    ``max(pi)``, to at most 1, and ``e log 2`` is added to ``log w``;
    nothing else changes.
    """
    pivots = np.ones(len(rates))
    for m in range(len(rates) - 1, 0, -1):
        pivots[m] = rates[m, :m].sum()
        rates[m, :m] /= pivots[m]
        rates[:m, :m] += np.outer(rates[:m, m], rates[m, :m])
    pi = np.ones(len(rates))
    shift = 0  # pi holds the in-tree weights over the pivots' product, times 2**-shift
    with np.errstate(over="ignore"):
        for m in range(1, len(rates)):
            pi[m] = pi[:m] @ rates[:m, m] / pivots[m]
            if not math.isfinite(pi[m]):  # pi[m] <= m max(pi) max(rate) / pivot <= 2**e
                e = 1 - math.frexp(pivots[m])[1] + sum(
                    math.frexp(x)[1] for x in (m, pi[:m].max(), rates[:m, m].max())
                )
                pi[:m], shift = np.ldexp(pi[:m], -e), shift + e
                pi[m] = pi[:m] @ rates[:m, m] / pivots[m]
        total = pi.sum()
    if not math.isfinite(total):
        e = math.frexp(pi.max())[1]
        pi, shift = np.ldexp(pi, -e), shift + e
        total = pi.sum()
    return pi / total, float(np.log(pivots).sum()) + math.log(total) + shift * math.log(2.0)


def tscc_stationary_vectors(graph: InducedDigraph) -> list[StationaryVector]:
    """One stationary population per terminal SCC, by GTH elimination.

    No edge leaves a terminal component, so its block of the rate array
    is its whole subgraph.  Each block gives a distribution supported on
    the component and the log of its total in-tree weight.
    """
    out: list[StationaryVector] = []
    for comp in graph.scc.terminal_components():
        rows = np.array(comp) - 1
        pi, log_weight = _gth(graph.rates[np.ix_(rows, rows)])
        rho = np.zeros(graph.n)
        rho[rows] = pi
        out.append(StationaryVector(component=comp, rho=rho, log_normalization=log_weight))
    return out


# ---------------------------------------------------------------------------
# Sink structure
# ---------------------------------------------------------------------------


def _sinks_and_two_cycles(
    graph: InducedDigraph,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The terminal components of size one (as vertices) and of size two.

    These are the only terminal components whose off-diagonal pair blocks
    can carry kernel elements: a pair of sinks, or a terminal 2-cycle.
    """
    terminal = graph.scc.terminal_components()
    return (
        tuple(comp[0] for comp in terminal if len(comp) == 1),
        tuple(comp for comp in terminal if len(comp) == 2),
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(graph: InducedDigraph, singular_two_sinks: Iterable[tuple[int, int]]) -> str:
    """Render the digraph in DOT format.

    Terminal SCCs of size >= 2 become ``cluster`` subgraphs labeled TSCC,
    sink vertices are marked ``sink="true"`` and drawn as double circles,
    and the edges of the terminal pairs in ``singular_two_sinks`` are marked
    ``singular2sink="true"`` and dashed.  Weights are emitted with 17
    significant digits.
    """
    dec = graph.scc
    sinks = set(_sinks_and_two_cycles(graph)[0])
    singular_edges = set()
    for k, ell in singular_two_sinks:
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
    for src, dst, w in graph.edges():
        attrs = [f'label="{format(w, ".17g")}"']
        if (src, dst) in singular_edges:
            attrs.append('singular2sink="true"')
            attrs.append("style=dashed")
        lines.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
