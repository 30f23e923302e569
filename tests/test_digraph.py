"""Digraph-layer tests: construction, SCCs, matrix-tree weights, DOT output."""

import networkx as nx
import numpy as np
import pytest

import gkslgraph as gk
from helpers import (
    enumerate_in_tree_weight,
    gellmann_document,
    pair_block_spec,
    random_digraph,
    random_valid_spec,
    sink_menagerie_spec,
    superposition_decay_spec,
)


def as_networkx(graph: gk.InducedDigraph) -> nx.DiGraph:
    G = nx.DiGraph()
    G.add_nodes_from(range(1, graph.n + 1))
    for (src, dst), w in graph.weights.items():
        G.add_edge(src, dst, weight=w)
    return G


# ---------------------------------------------------------------------------
# container validation and construction
# ---------------------------------------------------------------------------


def test_induced_digraph_validates():
    with pytest.raises(ValueError):
        gk.InducedDigraph(n=0)
    with pytest.raises(ValueError):
        gk.InducedDigraph(n=2, weights={(1, 3): 1.0})
    with pytest.raises(ValueError):
        gk.InducedDigraph(n=2, weights={(1, 1): 1.0})
    with pytest.raises(ValueError):
        gk.InducedDigraph(n=2, weights={(1, 2): 0.0})
    g = gk.InducedDigraph(n=3, weights={(1, 2): 1.0, (1, 3): 2.0})
    assert g.successors(1) == [2, 3]
    assert g.successors(2) == []


def test_induced_digraph_from_fixture():
    g = gk.induced_digraph(superposition_decay_spec(a=1.0, b=0.75, c=0.5))
    assert g.n == 3
    assert g.weights == {
        (1, 2): pytest.approx(1.0),
        (2, 1): pytest.approx(1.0),
        (3, 1): pytest.approx(0.75),
        (3, 2): pytest.approx(0.5),
    }


def test_induced_digraph_threshold_and_clamping():
    # rates at or below the threshold are dropped; tiny negative diagonal
    # entries (roundoff) never become edges
    N = 2
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = 5e-10   # below default tol
    g[1, 1] = -1e-12  # negative roundoff
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=g)
    assert gk.induced_digraph(spec).weights == {}
    assert gk.induced_digraph(spec, tol=1e-10).weights == {(2, 1): pytest.approx(5e-10)}


def test_induced_digraph_ignores_offdiagonal_block_entries():
    # coherence couplings inside a pair block do not create edges
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 0.9], [0.9, 0.0]])})
    assert gk.induced_digraph(spec).weights == {}


def test_induced_digraph_gellmann_route_agrees():
    # A Gell-Mann document is converted to the standard basis as it is
    # parsed, so its digraph is that of the converted spec, exactly.
    rng = np.random.default_rng(31)
    spec = random_valid_spec(rng, 3)
    gm = gk.standard_to_gellmann(spec)
    g_gm = gk.induced_digraph(gk.parse_spec_document(gellmann_document(gm)))
    g_conv = gk.induced_digraph(gk.gellmann_to_standard(gm))
    assert g_gm.n == g_conv.n == 3
    assert dict(g_gm.weights) == dict(g_conv.weights)
    g_std = gk.induced_digraph(gk.canonicalize(spec))
    assert set(g_std.weights) == set(g_gm.weights)
    for key, w in g_std.weights.items():
        assert g_gm.weights[key] == pytest.approx(w, rel=1e-9)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_menagerie_pinned():
    spec = sink_menagerie_spec()
    g = gk.induced_digraph(spec)
    L = gk.laplacian(g)
    # the {6,7,8} block, 0-based rows/cols 5..7
    expected = np.array([[-5.0, 1.0, 3.0], [2.0, -2.0, 4.0], [3.0, 1.0, -7.0]])
    assert np.array_equal(L[5:8, 5:8], expected)
    assert np.max(np.abs(L.sum(axis=0))) == 0.0  # exact zero column sums


def test_laplacian_matches_population_sector_of_superoperator():
    # cross-route: restricted to diagonal labels, the full superoperator IS
    # the Laplacian of the induced digraph
    rng = np.random.default_rng(32)
    for N in (2, 3, 4):
        spec = random_valid_spec(rng, N)
        S = gk.superoperator(spec)
        R = N * N - N
        L = gk.laplacian(gk.induced_digraph(spec, tol=0.0))
        assert np.max(np.abs(S[R:, R:] - L)) < 1e-10 * max(1.0, np.max(np.abs(L)))


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def test_scc_menagerie_pinned():
    g = gk.induced_digraph(sink_menagerie_spec())
    dec = gk.scc_decompose(g)
    assert dec.components == ((1,), (2,), (3,), (4, 5), (6, 7, 8))
    assert dec.terminal == (True, True, True, True, True)
    assert dec.terminal_components() == dec.components


def test_scc_with_transient_part():
    g = gk.InducedDigraph(
        n=4, weights={(1, 2): 1.0, (2, 1): 1.0, (2, 3): 0.5, (3, 4): 1.0, (4, 3): 2.0}
    )
    dec = gk.scc_decompose(g)
    assert dec.components == ((1, 2), (3, 4))
    assert dec.terminal == (False, True)
    # component {1,2} reaches both; {3,4} only itself
    assert dec.reachable[0] == frozenset({0, 1})
    assert dec.reachable[1] == frozenset({1})
    # the graph is read-only and decomposes itself once
    assert g.scc == dec and g.scc is g.scc
    with pytest.raises(TypeError):
        g.weights[(1, 3)] = 1.0


def test_scc_against_networkx_oracle():
    rng = np.random.default_rng(33)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.7)))
        dec = gk.scc_decompose(g)
        G = as_networkx(g)
        expected = sorted(
            (tuple(sorted(c)) for c in nx.strongly_connected_components(G)),
            key=min,
        )
        assert list(dec.components) == expected
        cond = nx.condensation(G)
        # map our component order onto the networkx condensation nodes
        for k, comp in enumerate(dec.components):
            node = cond.graph["mapping"][comp[0]]
            assert dec.terminal[k] == (cond.out_degree(node) == 0)


def test_undirected_components():
    g = gk.InducedDigraph(n=5, weights={(1, 2): 1.0, (3, 2): 1.0, (4, 5): 1.0})
    assert gk.undirected_components(g) == ((1, 2, 3), (4, 5))
    lone = gk.InducedDigraph(n=2)
    assert gk.undirected_components(lone) == ((1,), (2,))


# ---------------------------------------------------------------------------
# matrix-tree weights and stationary vectors
# ---------------------------------------------------------------------------


def test_rooted_spanning_weight_menagerie_pinned():
    g = gk.induced_digraph(sink_menagerie_spec())
    comp = (6, 7, 8)
    weights = [gk.rooted_spanning_weight(g, comp, r) for r in comp]
    assert weights == [pytest.approx(10.0), pytest.approx(26.0), pytest.approx(8.0)]


def test_rooted_spanning_weight_trivial_cases():
    g = gk.InducedDigraph(n=3, weights={(1, 2): 2.0, (2, 1): 3.0})
    assert gk.rooted_spanning_weight(g, (3,), 3) == 1.0  # singleton convention
    assert gk.rooted_spanning_weight(g, (1, 2), 1) == pytest.approx(3.0)
    assert gk.rooted_spanning_weight(g, (1, 2), 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        gk.rooted_spanning_weight(g, (1, 2), 3)


def test_rooted_spanning_weight_against_enumeration():
    rng = np.random.default_rng(34)
    for trial in range(100):
        n = int(rng.integers(2, 6))
        g = random_digraph(rng, n, p=float(rng.uniform(0.3, 0.8)))
        comp = tuple(range(1, n + 1))
        for root in comp:
            got = gk.rooted_spanning_weight(g, comp, root)
            expected = enumerate_in_tree_weight(g.weights, comp, root)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_stationary_weights_equal_per_root_spanning_weights():
    # One Laplacian per terminal component gives the same bytes as building
    # it again for every root.
    rng = np.random.default_rng(36)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.8)))
        for sv in gk.tscc_stationary_vectors(g):
            expected = tuple(
                max(gk.rooted_spanning_weight(g, sv.component, root), 0.0)
                for root in sv.component
            )
            assert sv.rho_tilde == expected


def test_stationary_vectors_menagerie_pinned():
    g = gk.induced_digraph(sink_menagerie_spec())
    vecs = gk.tscc_stationary_vectors(g)
    by_comp = {v.component: v for v in vecs}
    assert set(by_comp) == {(1,), (2,), (3,), (4, 5), (6, 7, 8)}
    big = by_comp[(6, 7, 8)]
    assert big.rho_tilde == (
        pytest.approx(10.0), pytest.approx(26.0), pytest.approx(8.0)
    )
    assert big.normalization == pytest.approx(44.0)
    expected = np.zeros(8)
    expected[5:8] = np.array([10.0, 26.0, 8.0]) / 44.0
    assert np.allclose(big.rho, expected, atol=1e-12)
    pair = by_comp[(4, 5)]
    assert pair.rho[3] == pytest.approx(0.5)
    assert pair.rho[4] == pytest.approx(0.5)


def test_stationary_vectors_annihilated_by_laplacian():
    # the headline digraph property: every returned vector is stationary,
    # and there are exactly as many as the Laplacian nullity
    rng = np.random.default_rng(35)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.8)))
        L = gk.laplacian(g)
        vecs = gk.tscc_stationary_vectors(g)
        for v in vecs:
            assert np.max(np.abs(L @ v.rho)) < 1e-9
            assert v.rho.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v.rho >= 0.0)
        svals = np.linalg.svd(L, compute_uv=False)
        nullity = int(np.sum(svals < 1e-9 * max(1.0, svals.max() if svals.size else 1.0)))
        assert len(vecs) == nullity


# ---------------------------------------------------------------------------
# sink classification
# ---------------------------------------------------------------------------


def test_sink_report_menagerie():
    spec = sink_menagerie_spec()
    rep = gk.sinks_and_singular_2sinks(spec)
    assert rep.sinks == (1, 2, 3)
    assert rep.two_sinks == ((4, 5),)
    assert rep.singular_two_sinks == ((4, 5),)


def test_sink_report_superposition():
    # vertex 3 drains into the pair, so the only terminal component is {1,2}
    rep = gk.sinks_and_singular_2sinks(superposition_decay_spec())
    assert rep.sinks == ()
    assert rep.two_sinks == ((1, 2),)
    assert rep.singular_two_sinks == ((1, 2),)


def test_sink_report_nonsingular_two_cycle():
    # symmetric hopping with a full-rank block: a two-sink, but not singular
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.diag([1.0, 1.0])})
    rep = gk.sinks_and_singular_2sinks(spec)
    assert rep.two_sinks == ((1, 2),)
    assert rep.singular_two_sinks == ()


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def test_to_dot_structure():
    spec = sink_menagerie_spec()
    g = gk.induced_digraph(spec)
    rep = gk.sinks_and_singular_2sinks(spec)
    dot = gk.to_dot(g, rep)
    assert dot.startswith("digraph")
    assert dot.endswith("\n")
    # terminal multi-vertex classes are clustered
    assert "subgraph cluster_" in dot
    assert "TSCC" in dot
    # sinks are marked (the '[' prefix keeps edge attributes out of the count)
    assert dot.count('[sink="true"') == 3
    assert "doublecircle" in dot
    # the singular pair's edges are dashed and tagged
    assert 'singular2sink="true"' in dot
    assert "style=dashed" in dot


def test_to_dot_weight_labels_round_trip():
    g = gk.InducedDigraph(n=2, weights={(1, 2): 1.0 / 3.0})
    dot = gk.to_dot(g)
    # weights are printed with enough digits to round-trip
    assert f"{1.0 / 3.0:.17g}" in dot
